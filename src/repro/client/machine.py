"""Client machine model (paper §4 steps 1–2).

Step 1, *static local negotiation*, checks "the client machine
characteristics, such as the screen size and the screen color" against
the requested QoS: "the user asks for a color video, while the client
machine screen is black&white" yields FAILEDWITHLOCALOFFER.  The machine
also bounds the deliverable bandwidth (its network interface) and hosts
the decoder bank used by step 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..documents.media import ColorMode
from ..documents.monomedia import Variant
from ..documents.quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    MediaQoS,
    TextQoS,
    VideoQoS,
)
from ..util.errors import ClientError
from ..util.units import mbps
from ..util.validation import check_name, check_positive
from .decoder import Decoder, DecoderBank, standard_decoders

__all__ = ["ClientMachine", "LocalCheckResult"]


@dataclass(frozen=True, slots=True)
class LocalCheckResult:
    """Outcome of checking one QoS point against the machine.

    ``supported`` is the step-1 verdict; ``local_best`` is the closest
    QoS the machine *can* present, which becomes the local offer
    returned with FAILEDWITHLOCALOFFER; ``violations`` names the
    offending parameters (the GUI colours those red, §8).
    """

    supported: bool
    local_best: MediaQoS
    violations: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ClientMachine:
    """One client workstation of the news-on-demand service."""

    client_id: str
    screen_width: int = 1280
    screen_height: int = 1024
    screen_color: ColorMode = ColorMode.COLOR
    max_frame_rate: int = 30
    audio_output: bool = True
    access_point: str = "client-net"
    interface_bps: float = 10_000_000.0  # 10 Mbps Ethernet of the era
    decoders: DecoderBank = field(default_factory=standard_decoders)
    # (decoders.version, capability digest), written by
    # ``repro.perf.fingerprint.client_fingerprint``: the digest is
    # current while the bank's version matches its stamp.
    _fingerprint: "tuple[int, str] | None" = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        check_name(self.client_id, "client_id")
        check_positive(self.screen_width, "screen_width")
        check_positive(self.screen_height, "screen_height")
        check_positive(self.max_frame_rate, "max_frame_rate")
        check_positive(self.interface_bps, "interface_bps")
        object.__setattr__(self, "screen_color", ColorMode.parse(self.screen_color))
        if not isinstance(self.decoders, DecoderBank):
            raise ClientError("decoders must be a DecoderBank")

    # -- step 1: static local negotiation ------------------------------------

    def check_local(self, requirement: MediaQoS) -> LocalCheckResult:
        """Check one requested QoS point against machine characteristics
        and derive the best locally supportable QoS."""
        violations = self.local_violations(requirement)
        return LocalCheckResult(
            supported=not violations,
            local_best=self.local_best(requirement),
            violations=violations,
        )

    def local_violations(self, requirement: MediaQoS) -> tuple[str, ...]:
        """The parameters of ``requirement`` this machine cannot present
        (empty when it is supported): step 1's test, without the local
        offer that only a failure returns."""
        if isinstance(requirement, VideoQoS):
            violations = []
            if requirement.color > self.screen_color:
                violations.append("color")
            if requirement.frame_rate > self.max_frame_rate:
                violations.append("frame_rate")
            if requirement.resolution > self.screen_width:
                violations.append("resolution")
            return tuple(violations)
        if isinstance(requirement, (ImageQoS, GraphicQoS)):
            violations = []
            if requirement.color > self.screen_color:
                violations.append("color")
            if requirement.resolution > self.screen_width:
                violations.append("resolution")
            return tuple(violations)
        if isinstance(requirement, AudioQoS):
            return () if self.audio_output else ("audio_output",)
        if isinstance(requirement, TextQoS):
            return ()
        raise ClientError(f"unsupported QoS point {requirement!r}")

    def local_best(self, requirement: MediaQoS) -> MediaQoS:
        """The closest QoS to ``requirement`` this machine can present:
        the local offer's entry for that medium."""
        if isinstance(requirement, VideoQoS):
            return VideoQoS(
                color=min(requirement.color, self.screen_color),
                frame_rate=min(requirement.frame_rate, self.max_frame_rate),
                resolution=min(requirement.resolution, self.screen_width),
            )
        if isinstance(requirement, (ImageQoS, GraphicQoS)):
            return type(requirement)(
                color=min(requirement.color, self.screen_color),
                resolution=min(requirement.resolution, self.screen_width),
            )
        if isinstance(requirement, (AudioQoS, TextQoS)):
            return requirement
        raise ClientError(f"unsupported QoS point {requirement!r}")

    def fits_layout(self, width: int, height: int) -> bool:
        """Whether a document's spatial bounding box fits the screen."""
        return width <= self.screen_width and height <= self.screen_height

    # -- step 2: static compatibility checking ----------------------------------

    def can_decode(self, variant: Variant) -> bool:
        return self.decoders.can_decode(variant)

    def decoder_for(self, variant: Variant) -> "Decoder | None":
        return self.decoders.decoder_for(variant)

    def presented_qos(self, variant: Variant) -> MediaQoS:
        """The QoS actually perceived at this machine for ``variant``:
        the decoder's effective output further clamped by the display.

        This is the QoS a system offer is judged on in §5 — a
        super-colour stream on a grey screen is a grey offer.
        """
        decoder = self.decoder_for(variant)
        if decoder is None:
            raise ClientError(
                f"{self.client_id} cannot decode {variant.variant_id}"
            )
        qos = variant.qos
        if hasattr(decoder, "effective_qos"):
            qos = decoder.effective_qos(variant)  # type: ignore[attr-defined]
        if isinstance(qos, VideoQoS):
            return VideoQoS(
                color=min(qos.color, self.screen_color),
                frame_rate=min(qos.frame_rate, self.max_frame_rate),
                resolution=min(qos.resolution, self.screen_width),
            )
        if isinstance(qos, (ImageQoS, GraphicQoS)):
            return type(qos)(
                color=min(qos.color, self.screen_color),
                resolution=min(qos.resolution, self.screen_width),
            )
        return qos

    def __str__(self) -> str:
        return (
            f"{self.client_id}({self.screen_width}x{self.screen_height} "
            f"{self.screen_color}, {len(self.decoders)} decoders)"
        )
