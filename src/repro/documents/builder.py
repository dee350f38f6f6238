"""Builders that synthesize realistic documents and variant grids.

The paper's prototype stored real MPEG/MJPEG files whose block-length
statistics lived in the MM database [Vit 95].  We synthesize equivalent
metadata from a small media-rate model: frame sizes follow the pixel
count, bits-per-pixel of the colour mode, the codec's compression ratio
and its burstiness.  Only the *metadata* matters to negotiation (§6 uses
block lengths and rates, never pixel data), so this preserves behaviour.

:class:`MonomediaBuilder` accumulates variants for one monomedia;
:class:`DocumentBuilder` assembles monomedia plus synchronization into a
:class:`~repro.documents.document.Document`.  ``make_news_article`` is
the canonical factory used across examples, tests and benchmarks: a
video + audio + image + text article with a quality/server grid of
variants, mirroring the news-on-demand catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..util.errors import DocumentError
from ..util.units import Money, dollars
from ..util.validation import check_positive
from .document import Document
from .media import (
    AudioGrade,
    Codec,
    Codecs,
    ColorMode,
    Language,
    Medium,
    TV_RESOLUTION,
)
from .monomedia import BlockStats, Monomedia, Variant
from .quality import AudioQoS, ImageQoS, MediaQoS, TextQoS, VideoQoS
from .synchronization import (
    ScreenRegion,
    SpatialLayout,
    SyncConstraints,
    TemporalRelation,
    TemporalRelationKind,
)

__all__ = [
    "MediaRateModel",
    "MonomediaBuilder",
    "DocumentBuilder",
    "make_news_article",
]


# Per-codec (compression ratio, peak-to-mean burstiness).  Inter-frame
# codecs compress harder but are burstier (I vs P/B frames).
_VIDEO_CODEC_MODEL: dict[str, tuple[float, float]] = {
    "MPEG-1": (1 / 60.0, 3.0),
    "MPEG-2": (1 / 45.0, 3.0),
    "M-JPEG": (1 / 12.0, 1.5),
    "H.261": (1 / 80.0, 2.0),
    "RAW-VIDEO": (1.0, 1.0),
}

_AUDIO_CODEC_MODEL: dict[str, tuple[float, float]] = {
    "PCM": (1.0, 1.0),
    "ADPCM": (1 / 4.0, 1.0),
    "MPEG-AUDIO": (1 / 8.0, 1.3),
}

_BITS_PER_PIXEL: dict[ColorMode, float] = {
    ColorMode.BLACK_AND_WHITE: 1.0,
    ColorMode.GREY: 8.0,
    ColorMode.COLOR: 16.0,
    ColorMode.SUPER_COLOR: 24.0,
}

AUDIO_BLOCKS_PER_SECOND = 50.0  # 20 ms audio frames, the common framing

_ASPECT = 3 / 4  # lines per pixels-per-line, 4:3 video

_TEXT_BITS = 4_000 * 8.0  # a 4,000-character article body


@dataclass(frozen=True, slots=True)
class MediaRateModel:
    """Derives plausible block statistics for synthetic variants."""

    video_codec_model: dict[str, tuple[float, float]] | None = None
    audio_codec_model: dict[str, tuple[float, float]] | None = None

    def _video_model(self, codec: Codec) -> tuple[float, float]:
        table = self.video_codec_model or _VIDEO_CODEC_MODEL
        try:
            return table[codec.name]
        except KeyError:
            raise DocumentError(f"no rate model for video codec {codec}") from None

    def _audio_model(self, codec: Codec) -> tuple[float, float]:
        table = self.audio_codec_model or _AUDIO_CODEC_MODEL
        try:
            return table[codec.name]
        except KeyError:
            raise DocumentError(f"no rate model for audio codec {codec}") from None

    def video_block_stats(self, codec: Codec, qos: VideoQoS) -> BlockStats:
        compression, burstiness = self._video_model(codec)
        pixels = qos.resolution * qos.resolution * _ASPECT
        avg = pixels * _BITS_PER_PIXEL[qos.color] * compression
        return BlockStats(
            max_block_bits=avg * burstiness,
            avg_block_bits=avg,
            blocks_per_second=float(qos.frame_rate),
        )

    def audio_block_stats(self, codec: Codec, qos: AudioQoS) -> BlockStats:
        compression, burstiness = self._audio_model(codec)
        grade = qos.grade
        bits_per_second = (
            grade.sample_rate_hz * grade.bits_per_sample * grade.channels
        )
        avg = bits_per_second * compression / AUDIO_BLOCKS_PER_SECOND
        return BlockStats(
            max_block_bits=avg * burstiness,
            avg_block_bits=avg,
            blocks_per_second=AUDIO_BLOCKS_PER_SECOND,
        )

    def image_size_bits(self, qos: ImageQoS) -> float:
        pixels = qos.resolution * qos.resolution * _ASPECT
        return max(pixels * _BITS_PER_PIXEL[qos.color] / 10.0, 1.0)  # JPEG ~10:1


DEFAULT_RATE_MODEL = MediaRateModel()


class MonomediaBuilder:
    """Accumulates variants for one monomedia, deriving sizes and block
    statistics from :class:`MediaRateModel`."""

    def __init__(
        self,
        monomedia_id: str,
        medium: "Medium | str",
        title: str,
        duration_s: float,
    ) -> None:
        self.monomedia_id = monomedia_id
        self.medium = Medium.parse(medium)
        self.title = title
        self.duration_s = check_positive(duration_s, "duration_s")
        self._variants: list[Variant] = []
        self._counter = 0

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self.monomedia_id}.v{self._counter}"

    def add_variant(
        self,
        codec: Codec,
        qos: MediaQoS,
        server_id: str,
    ) -> "MonomediaBuilder":
        """Add one variant, its size and blocks derived from the rate
        model."""
        if self.medium is Medium.VIDEO:
            block_stats = DEFAULT_RATE_MODEL.video_block_stats(codec, qos)  # type: ignore[arg-type]
        elif self.medium is Medium.AUDIO:
            block_stats = DEFAULT_RATE_MODEL.audio_block_stats(codec, qos)  # type: ignore[arg-type]
        else:
            size = (
                _TEXT_BITS if self.medium is Medium.TEXT
                else DEFAULT_RATE_MODEL.image_size_bits(qos)  # type: ignore[arg-type]
            )
            block_stats = BlockStats(
                max_block_bits=size, avg_block_bits=size,
                blocks_per_second=0.0,
            )
        size_bits = block_stats.avg_block_bits
        if block_stats.blocks_per_second > 0:
            size_bits = size_bits * block_stats.blocks_per_second * self.duration_s
        self._variants.append(
            Variant(
                variant_id=self._next_id(),
                monomedia_id=self.monomedia_id,
                codec=codec,
                qos=qos,
                size_bits=size_bits,
                block_stats=block_stats,
                server_id=server_id,
                duration_s=self.duration_s,
            )
        )
        return self

    def build(self) -> Monomedia:
        return Monomedia(
            monomedia_id=self.monomedia_id,
            medium=self.medium,
            title=self.title,
            duration_s=self.duration_s,
            variants=tuple(self._variants),
        )


class DocumentBuilder:
    """Assembles monomedia + synchronization into a document."""

    def __init__(self, document_id: str, title: str) -> None:
        self.document_id = document_id
        self.title = title
        self._components: list[Monomedia] = []
        self._temporal: list[TemporalRelation] = []
        self._regions: dict[str, ScreenRegion] = {}
        self._copyright: Money = Money.zero()

    def add(self, monomedia: "Monomedia | MonomediaBuilder") -> "DocumentBuilder":
        if isinstance(monomedia, MonomediaBuilder):
            monomedia = monomedia.build()
        self._components.append(monomedia)
        return self

    def parallel(self, first: str, second: str) -> "DocumentBuilder":
        self._temporal.append(
            TemporalRelation(TemporalRelationKind.PARALLEL, first, second)
        )
        return self

    def overlaps(self, first: str, second: str, offset_s: float) -> "DocumentBuilder":
        self._temporal.append(
            TemporalRelation(TemporalRelationKind.OVERLAPS, first, second, offset_s)
        )
        return self

    def place(self, monomedia_id: str, region: ScreenRegion) -> "DocumentBuilder":
        self._regions[monomedia_id] = region
        return self

    def copyright(self, cost: "Money | float") -> "DocumentBuilder":
        self._copyright = dollars(cost)
        return self

    def build(self) -> Document:
        layout = SpatialLayout(self._regions) if self._regions else None
        return Document(
            document_id=self.document_id,
            title=self.title,
            components=tuple(self._components),
            sync=SyncConstraints(tuple(self._temporal), layout),
            copyright_cost=self._copyright,
        )


_AUDIO_GRADES = (AudioGrade.CD, AudioGrade.TELEPHONE)
_LANGUAGES = (Language.ENGLISH, Language.FRENCH)
_COPYRIGHT_COST = 0.5  # dollars per article


def make_news_article(
    document_id: str = "doc.news-1",
    *,
    title: str = "CITR broadband services launch",
    duration_s: float = 120.0,
    video_servers: Sequence[str] = ("server-a", "server-b"),
    audio_servers: Sequence[str] = ("server-a",),
    still_server: str = "server-a",
    frame_rates: Sequence[int] = (25, 15),
    colors: Sequence[ColorMode] = (ColorMode.COLOR, ColorMode.GREY),
    resolutions: Sequence[int] = (TV_RESOLUTION,),
    video_codecs: Sequence[Codec] = (Codecs.MPEG1, Codecs.MJPEG),
    include_image: bool = True,
    include_text: bool = True,
) -> Document:
    """Build the canonical news article with a grid of variants.

    The variant grid is the cartesian product of the given quality axes,
    with servers assigned round-robin so variants of the same monomedia
    live on different machines — exactly the situation in which choosing
    a configuration of system components matters.
    """
    video = MonomediaBuilder(
        f"{document_id}.video", Medium.VIDEO, "anchor video", duration_s
    )
    index = 0
    for codec in video_codecs:
        for color in colors:
            for frame_rate in frame_rates:
                for resolution in resolutions:
                    server = video_servers[index % len(video_servers)]
                    index += 1
                    video.add_variant(
                        codec,
                        VideoQoS(color=color, frame_rate=frame_rate,
                                 resolution=resolution),
                        server,
                    )

    audio = MonomediaBuilder(
        f"{document_id}.audio", Medium.AUDIO, "soundtrack", duration_s
    )
    index = 0
    for grade in _AUDIO_GRADES:
        for language in _LANGUAGES:
            server = audio_servers[index % len(audio_servers)]
            index += 1
            audio.add_variant(
                Codecs.MPEG_AUDIO,
                AudioQoS(grade=grade, language=language),
                server,
            )

    builder = (
        DocumentBuilder(document_id, title)
        .add(video)
        .add(audio)
        .parallel(f"{document_id}.video", f"{document_id}.audio")
        .copyright(_COPYRIGHT_COST)
        .place(
            f"{document_id}.video", ScreenRegion(0, 0, TV_RESOLUTION, 540)
        )
    )

    if include_image:
        image = MonomediaBuilder(
            f"{document_id}.image", Medium.IMAGE, "headline photo", duration_s
        )
        for color in (ColorMode.COLOR, ColorMode.GREY):
            image.add_variant(
                Codecs.JPEG,
                ImageQoS(color=color, resolution=TV_RESOLUTION),
                still_server,
            )
        builder.add(image).place(
            f"{document_id}.image", ScreenRegion(TV_RESOLUTION, 0, 320, 240)
        )

    if include_text:
        text = MonomediaBuilder(
            f"{document_id}.text", Medium.TEXT, "article body", duration_s
        )
        for language in _LANGUAGES:
            text.add_variant(
                Codecs.HTML, TextQoS(language=language), still_server
            )
        builder.add(text).place(
            f"{document_id}.text", ScreenRegion(TV_RESOLUTION, 240, 320, 300)
        )

    return builder.build()
