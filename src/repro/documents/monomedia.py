"""Monomedia objects and their physical variants (paper §2).

A :class:`Monomedia` is one logical media object of a document (the
anchor video of a news article, its audio track, a still photo, the text
body).  A :class:`Variant` is one *physical representation* of a
monomedia: §2 lists the static parameters variants differ in — "the
format of the coding, the size of the file, the QoS parameters
associated with the file ... and the localization of the file".  Copies
of the same file on different servers are also variants.

Variants additionally carry the block-length statistics (§6: "The block
length, namely the maximum and the average length, of a monomedia of the
document, is stored in the MM database") from which the QoS mapping
computes ``maxBitRate`` and ``avgBitRate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..util.errors import ValidationError, VariantError
from ..util.validation import check_name, check_non_negative, check_positive
from .media import Codec, Medium
from .quality import MediaQoS, qos_class_for

__all__ = ["BlockStats", "Variant", "Monomedia"]


@dataclass(frozen=True, slots=True)
class BlockStats:
    """Block-length statistics of a stored media file.

    For continuous media the file is "a suite of blocks, e.g. video
    frames and audio samples, on a disk" (§6) whose length varies with
    the compression scheme and content.  ``blocks_per_second`` is the
    playout block rate (the frame rate for video, the audio-frame rate
    for audio); discrete media use a single block and a zero rate.
    """

    max_block_bits: float
    avg_block_bits: float
    blocks_per_second: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.max_block_bits, "max_block_bits")
        check_positive(self.avg_block_bits, "avg_block_bits")
        check_non_negative(self.blocks_per_second, "blocks_per_second")
        if self.avg_block_bits > self.max_block_bits:
            raise ValidationError(
                f"avg_block_bits ({self.avg_block_bits}) exceeds "
                f"max_block_bits ({self.max_block_bits})"
            )

    @property
    def burstiness(self) -> float:
        """Peak-to-mean block-length ratio (1.0 for CBR streams)."""
        return self.max_block_bits / self.avg_block_bits

    def scaled(self, factor: float) -> "BlockStats":
        """Block stats for a stream whose blocks shrink/grow by ``factor``
        (used when deriving lower-quality variants)."""
        check_positive(factor, "factor")
        return BlockStats(
            max_block_bits=self.max_block_bits * factor,
            avg_block_bits=self.avg_block_bits * factor,
            blocks_per_second=self.blocks_per_second,
        )


@dataclass(frozen=True, slots=True)
class Variant:
    """One physical representation of a monomedia (§2).

    ``server_id`` is the localization: the media server holding the
    file.  ``qos`` is the user-perceived quality the variant delivers.
    ``duration_s`` is the playout duration ``D_i`` used in the Eq. 1
    cost computation; still images and text use their display dwell
    time, the document builder defaults it to the document length.
    """

    variant_id: str
    monomedia_id: str
    codec: Codec
    qos: MediaQoS
    size_bits: float
    block_stats: BlockStats
    server_id: str
    duration_s: float

    def __post_init__(self) -> None:
        check_name(self.variant_id, "variant_id")
        check_name(self.monomedia_id, "monomedia_id")
        check_name(self.server_id, "server_id")
        check_positive(self.size_bits, "size_bits")
        check_positive(self.duration_s, "duration_s")
        if not isinstance(self.codec, Codec):
            raise VariantError(f"codec must be a Codec, got {self.codec!r}")
        expected = qos_class_for(self.codec.medium)
        if not isinstance(self.qos, expected):
            raise VariantError(
                f"variant {self.variant_id!r}: codec {self.codec} is "
                f"{self.codec.medium.value} but qos is {type(self.qos).__name__}"
            )

    @property
    def medium(self) -> Medium:
        return self.codec.medium

    def __str__(self) -> str:
        return (
            f"{self.variant_id}[{self.codec} {self.qos} @ {self.server_id}]"
        )


@dataclass(frozen=True, slots=True)
class Monomedia:
    """One logical media object of a document (§2)."""

    monomedia_id: str
    medium: Medium
    title: str
    duration_s: float
    variants: tuple[Variant, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_name(self.monomedia_id, "monomedia_id")
        check_name(self.title, "title")
        check_positive(self.duration_s, "duration_s")
        object.__setattr__(self, "medium", Medium.parse(self.medium))
        object.__setattr__(self, "variants", tuple(self.variants))
        seen: set[str] = set()
        for variant in self.variants:
            if not isinstance(variant, Variant):
                raise VariantError(f"not a Variant: {variant!r}")
            if variant.monomedia_id != self.monomedia_id:
                raise VariantError(
                    f"variant {variant.variant_id!r} belongs to "
                    f"{variant.monomedia_id!r}, not {self.monomedia_id!r}"
                )
            if variant.medium is not self.medium:
                raise VariantError(
                    f"variant {variant.variant_id!r} is "
                    f"{variant.medium.value}, monomedia is {self.medium.value}"
                )
            if variant.variant_id in seen:
                raise VariantError(
                    f"duplicate variant id {variant.variant_id!r}"
                )
            seen.add(variant.variant_id)

    def variant(self, variant_id: str) -> Variant:
        for candidate in self.variants:
            if candidate.variant_id == variant_id:
                return candidate
        raise VariantError(
            f"monomedia {self.monomedia_id!r} has no variant {variant_id!r}"
        )

    def __str__(self) -> str:
        return (
            f"{self.monomedia_id}({self.medium.value}, "
            f"{len(self.variants)} variants)"
        )
