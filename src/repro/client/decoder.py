"""Decoder descriptions for client machines (paper §4 step 2).

Step 2 of the negotiation, *static compatibility checking*, matches the
codec of each variant against "the decoder(s) supported by the client
machine" — e.g. "if the client machine supports only MPEG decoder and
the video variant is coded as MJPEG file then variant1 will simply not
be considered".

A :class:`Decoder` accepts one codec, bounded by capability limits
(maximum frame rate / resolution it can sustain, colour it can emit).
The INRS *scalable* decoder [Dub 95] is modelled by
:class:`ScalableDecoder`: for scalable codecs it can decode any stream
whose rate/resolution fall inside its window, down-scaling the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..documents.media import (
    Codec,
    ColorMode,
    HDTV_FRAME_RATE,
    HDTV_RESOLUTION,
    Medium,
)
from ..documents.monomedia import Variant
from ..documents.quality import AudioQoS, GraphicQoS, ImageQoS, VideoQoS
from ..util.errors import DecoderError

__all__ = ["Decoder", "ScalableDecoder", "DecoderBank", "standard_decoders"]


@dataclass(frozen=True, slots=True)
class Decoder:
    """A fixed-function decoder for one codec."""

    codec: Codec
    max_frame_rate: int = HDTV_FRAME_RATE
    max_resolution: int = HDTV_RESOLUTION
    max_color: ColorMode = ColorMode.SUPER_COLOR

    def __post_init__(self) -> None:
        if not isinstance(self.codec, Codec):
            raise DecoderError(f"codec must be a Codec, got {self.codec!r}")
        object.__setattr__(self, "max_color", ColorMode.parse(self.max_color))

    @property
    def medium(self) -> Medium:
        return self.codec.medium

    def can_decode(self, variant: Variant) -> bool:
        """True iff this decoder can present ``variant`` at its stored
        quality."""
        if variant.codec != self.codec:
            return False
        qos = variant.qos
        if isinstance(qos, VideoQoS):
            return (
                qos.frame_rate <= self.max_frame_rate
                and qos.resolution <= self.max_resolution
                and qos.color <= self.max_color
            )
        if isinstance(qos, (ImageQoS, GraphicQoS)):
            return (
                qos.resolution <= self.max_resolution
                and qos.color <= self.max_color
            )
        if isinstance(qos, AudioQoS):
            return True  # audio grades carry their own playable rates
        return True  # text has no decoder limits

    def __str__(self) -> str:
        return f"Decoder({self.codec})"


@dataclass(frozen=True, slots=True)
class ScalableDecoder(Decoder):
    """A decoder for a scalable codec that can down-convert streams.

    It decodes any variant of its codec whose parameters do not exceed
    its own limits, like :class:`Decoder`; additionally, for codecs
    flagged ``scalable`` it accepts streams *above* its limits and
    presents them down-scaled — the variant remains feasible, the
    effective QoS is clamped (``effective_qos``).
    """

    def can_decode(self, variant: Variant) -> bool:
        if variant.codec != self.codec:
            return False
        # Explicit base call: @dataclass(slots=True) rebuilds the class,
        # which breaks the zero-argument super() closure.
        if Decoder.can_decode(self, variant):
            return True
        return bool(self.codec.scalable)

    def effective_qos(self, variant: Variant):
        """The QoS actually presented after any down-scaling."""
        qos = variant.qos
        if not isinstance(qos, VideoQoS):
            return qos
        return VideoQoS(
            color=min(qos.color, self.max_color),
            frame_rate=min(qos.frame_rate, self.max_frame_rate),
            resolution=min(qos.resolution, self.max_resolution),
        )


class DecoderBank:
    """The decoders installed on one client machine, in install order
    (``decoder_for`` answers with the first that fits)."""

    def __init__(self, decoders: "tuple[Decoder, ...] | list[Decoder]" = ()) -> None:
        self._decoders: list[Decoder] = []
        # Monotonic mutation counter, bumped by every ``install``: a
        # digest of the bank stamped with it is current while the stamp
        # matches (``MetadataDatabase.version_of`` is the model).
        self._version = 0
        for decoder in decoders:
            self.install(decoder)

    @property
    def version(self) -> int:
        """The bank's mutation counter."""
        return self._version

    def install(self, decoder: Decoder) -> None:
        if not isinstance(decoder, Decoder):
            raise DecoderError(f"not a Decoder: {decoder!r}")
        self._decoders.append(decoder)
        self._version += 1

    def __len__(self) -> int:
        return len(self._decoders)

    def __iter__(self):
        return iter(self._decoders)

    def decoder_for(self, variant: Variant) -> "Decoder | None":
        """The first installed decoder able to present ``variant`` —
        the step-2 feasibility test."""
        for decoder in self._decoders:
            if decoder.can_decode(variant):
                return decoder
        return None

    def can_decode(self, variant: Variant) -> bool:
        return self.decoder_for(variant) is not None


def standard_decoders() -> DecoderBank:
    """The decoder complement of the prototype's client workstation:
    MPEG-1 video and the INRS scalable MPEG-2 decoder, MPEG audio and
    PCM, JPEG/GIF stills, text and graphics renderers."""
    from ..documents.media import Codecs

    return DecoderBank(
        (
            Decoder(Codecs.MPEG1),
            ScalableDecoder(Codecs.MPEG2),
            Decoder(Codecs.MPEG_AUDIO),
            Decoder(Codecs.PCM),
            Decoder(Codecs.JPEG),
            Decoder(Codecs.GIF),
            Decoder(Codecs.ASCII),
            Decoder(Codecs.HTML),
            Decoder(Codecs.CGM),
        )
    )
