"""REP011 — every metric name a call spells is in the catalog.

Observability must flow through the telemetry layer, not around it.
(A stopwatch built on the wall clock is REP001's, which resolves every
call through the file's imports.)

* **Unregistered metrics.**  Every counter/gauge/histogram name passed
  to ``telemetry.count`` / ``metrics.observe`` / ``gauge_set`` /
  ``gauge_add`` must exist in the :mod:`repro.telemetry.catalog` —
  the registry raises at runtime, but only on the code path that fires
  the metric; the lint catches a typo on every path.  The telemetry
  package itself (which defines and validates the catalog) is exempt.
* **Unregistered time-series and SLO names.**  The same discipline on
  the *read* side: flight-recorder series queries
  (``counter_series`` / ``counter_rate`` / ``gauge_series`` /
  ``quantile_series`` / ``histogram_series`` / ``window_histogram``)
  and SLO declarations (``EventSelector(...)``, ``SloSpec(metric=...)``)
  name catalog metrics too — a typo'd dashboard or SLO silently reads
  an empty series forever, which is worse than crashing.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..astutil import dotted_name
from ..registry import make_finding, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..context import ModuleContext
    from ..findings import Finding

RULE_ID = "REP011"

# Metric-recording methods whose first argument is a catalog name.
_METRIC_METHODS = {"count", "observe", "gauge_set", "gauge_add"}

# Receivers that are telemetry hubs or metric registries.
_METRIC_RECEIVERS = {"metrics", "telemetry"}

# Flight-recorder series queries whose first argument is a catalog name
# (the names are distinctive enough to check on any receiver).
_SERIES_METHODS = {
    "counter_series",
    "counter_rate",
    "gauge_series",
    "quantile_series",
    "histogram_series",
    "window_histogram",
}

# SLO declaration constructors whose metric argument is a catalog name.
_SLO_CONSTRUCTORS = {"EventSelector", "SloSpec"}


def _is_metric_receiver(segment: str) -> bool:
    return segment.lstrip("_") in _METRIC_RECEIVERS


def _registered_metric_names() -> "frozenset[str]":
    from ...telemetry.catalog import metric_names

    return metric_names()


@rule(
    RULE_ID,
    "catalog-names",
    "metric, time-series and SLO names must be in the catalog",
    "register every metric name in repro.telemetry.catalog.METRICS "
    "before recording, querying, or declaring an SLO over it",
)
def check(ctx: "ModuleContext") -> "Iterator[Finding]":
    if ctx.in_package("repro", "telemetry"):
        return
    catalog = _registered_metric_names()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if (
            len(parts) >= 2
            and parts[-1] in _METRIC_METHODS
            and _is_metric_receiver(parts[-2])
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value not in catalog
        ):
            yield make_finding(
                ctx, RULE_ID, node.lineno, node.col_offset,
                f"metric name {node.args[0].value!r} is not registered "
                f"in the telemetry catalog",
            )
        if (
            len(parts) >= 2
            and parts[-1] in _SERIES_METHODS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value not in catalog
        ):
            yield make_finding(
                ctx, RULE_ID, node.lineno, node.col_offset,
                f"time-series query names unregistered metric "
                f"{node.args[0].value!r}",
            )
        if parts[-1] in _SLO_CONSTRUCTORS:
            metric_arg = None
            if parts[-1] == "EventSelector" and node.args:
                metric_arg = node.args[0]
            for keyword in node.keywords:
                if keyword.arg == "metric":
                    metric_arg = keyword.value
            if (
                isinstance(metric_arg, ast.Constant)
                and isinstance(metric_arg.value, str)
                and metric_arg.value not in catalog
            ):
                yield make_finding(
                    ctx, RULE_ID, node.lineno, node.col_offset,
                    f"SLO {parts[-1]} names unregistered metric "
                    f"{metric_arg.value!r}",
                )
