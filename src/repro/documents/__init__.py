"""Multimedia document model (paper §2, Figure 1).

Documents are composed of monomedia; each monomedia has physical
variants differing in codec, quality, size and server location; a
multimedia document additionally carries spatial/temporal
synchronization constraints.
"""

from .builder import (
    DEFAULT_RATE_MODEL,
    DocumentBuilder,
    MediaRateModel,
    MonomediaBuilder,
    make_news_article,
)
from .catalog import DocumentCatalog
from .document import Document
from .media import (
    CONTINUOUS_MEDIA,
    FROZEN_FRAME_RATE,
    HDTV_FRAME_RATE,
    HDTV_RESOLUTION,
    MIN_RESOLUTION,
    TV_FRAME_RATE,
    TV_RESOLUTION,
    AudioGrade,
    Codec,
    Codecs,
    ColorMode,
    FrameRate,
    Language,
    Medium,
    Resolution,
)
from .monomedia import BlockStats, Monomedia, Variant
from .quality import (
    AudioQoS,
    GraphicQoS,
    ImageQoS,
    MediaQoS,
    TextQoS,
    VideoQoS,
    qos_class_for,
)
from .synchronization import (
    ScreenRegion,
    SpatialLayout,
    SyncConstraints,
    TemporalRelation,
    TemporalRelationKind,
)

__all__ = [name for name in dir() if not name.startswith("_")]
