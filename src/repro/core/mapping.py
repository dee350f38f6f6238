"""QoS mapping: user-level parameters → system-level parameters (§6).

"From the QoS parameters values specified by the user, the QoS manager
computes the parameters maxBitRate and avgBitRate required to deliver
the document. ... If the data is sent to the user without
transformation, as is the case for our prototype, the throughput is
computed as follows.  For video: maxBitRate = (maximum frame length) ×
(frame rate), avgBitRate = (average frame length) × (frame rate)."

The block-length statistics come from the variant's metadata; the frame
(block) rate is the variant's stored rate.  Jitter and loss bounds are
the fixed per-medium presets after [Ste 90] (video: jitter 10 ms, loss
0.003) — see :data:`repro.network.qosparams.STEINMETZ_PRESETS`.

Discrete media (image, text, graphic) are not streamed; they are bulk
transfers that must complete within the medium's preset delay window,
so their equivalent bit rate is ``size / window``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..documents.monomedia import BlockStats, Variant
from ..network.qosparams import FlowSpec, preset_for
from ..util.errors import ValidationError
from ..util.validation import check_positive

__all__ = ["QoSMapper", "flow_spec_for_variant"]


@dataclass(frozen=True, slots=True)
class QoSMapper:
    """The §6 mapping function, configurable for what-if experiments.

    ``discrete_window_s`` is the transfer window granted to non-stream
    media; ``rate_scale`` uniformly scales computed rates (used by the
    ablation that studies mapping error).
    """

    discrete_window_s: float = 2.0
    rate_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.discrete_window_s, "discrete_window_s")
        check_positive(self.rate_scale, "rate_scale")

    def fingerprint_state(self) -> object:
        """Every value that can change a computed flow spec.

        Negotiation cache keys hash this; a subclass that adds mapping
        state must override it (extending the parent tuple) or its
        cached spaces would collide with entries computed by other
        mappers of the same class tree.  ``mapper_fingerprint`` guards
        against forgotten overrides with a repr fallback, but an
        explicit override keeps keys stable across cosmetic repr
        changes.
        """
        return (self.discrete_window_s, self.rate_scale)

    # -- the §6 formulas -----------------------------------------------------------

    def continuous_rates(self, stats: BlockStats) -> tuple[float, float]:
        """(maxBitRate, avgBitRate) of a continuous stream."""
        if stats.blocks_per_second <= 0:
            raise ValidationError(
                "continuous mapping needs a positive block rate"
            )
        max_rate = stats.max_block_bits * stats.blocks_per_second
        avg_rate = stats.avg_block_bits * stats.blocks_per_second
        return max_rate * self.rate_scale, avg_rate * self.rate_scale

    def discrete_rates(self, size_bits: float) -> tuple[float, float]:
        """(maxBitRate, avgBitRate) of a bulk transfer."""
        check_positive(size_bits, "size_bits")
        rate = size_bits / self.discrete_window_s * self.rate_scale
        return rate, rate

    def flow_spec(self, variant: Variant) -> FlowSpec:
        """The complete per-stream demand of one variant."""
        medium = variant.medium
        preset = preset_for(medium)
        if medium.is_continuous:
            max_rate, avg_rate = self.continuous_rates(variant.block_stats)
        else:
            max_rate, avg_rate = self.discrete_rates(variant.size_bits)
        return FlowSpec(
            max_bit_rate=max_rate,
            avg_bit_rate=avg_rate,
            max_delay_s=preset.delay_s,
            max_jitter_s=preset.jitter_s,
            max_loss_rate=preset.loss_rate,
        )


_DEFAULT_MAPPER = QoSMapper()


def flow_spec_for_variant(variant: Variant) -> FlowSpec:
    """Module-level convenience using the default mapper."""
    return _DEFAULT_MAPPER.flow_spec(variant)
