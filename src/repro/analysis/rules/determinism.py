"""REP001 — determinism: no wall clock, no sleeping, no unseeded RNG.

The simulation must replay identically from a seed (chaos runs, the
E-series benchmarks, the lease reaper all depend on it).  Library code
therefore reads time from :class:`repro.util.clock.ManualClock` and
randomness from :func:`repro.util.rng.make_rng` — never from the wall
clock, ``time.sleep`` or a process-global generator.  The two sanctioned
wrapper modules (``util/clock.py``, ``util/rng.py``) are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from ..astutil import dotted_name
from ..registry import make_finding, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..context import ModuleContext
    from ..findings import Finding

RULE_ID = "REP001"

# Absolute call targets that read wall time or block the thread; a call
# is matched after resolving its name through the file's imports, so
# ``import time as clock; clock.sleep(1)`` and ``from time import
# sleep; sleep(1)`` both read as ``time.sleep``.
_FORBIDDEN_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# numpy's process-global RNG is forbidden; seeded construction is not.
_NUMPY_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

_EXEMPT_BASENAMES = {"clock.py", "rng.py"}


def _is_exempt(ctx: "ModuleContext") -> bool:
    return (
        Path(ctx.path).name in _EXEMPT_BASENAMES
        and ctx.in_package("repro", "util")
    )


@rule(
    RULE_ID,
    "determinism",
    "no wall clock, time.sleep, or unseeded randomness in library code",
    "read time from util.clock.ManualClock and randomness from "
    "util.rng.make_rng so runs replay from a seed",
)
def check(ctx: "ModuleContext") -> "Iterator[Finding]":
    if _is_exempt(ctx):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield make_finding(
                    ctx, RULE_ID, node.lineno, node.col_offset,
                    "import from the process-global `random` module",
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        resolved = None if name is None else ctx.resolve(name)
        if resolved is None:
            continue
        shown = f"`{name}()`"
        if resolved != name:
            shown += f" (`{resolved}`)"
        parts = resolved.split(".")
        if resolved in _FORBIDDEN_CALLS:
            yield make_finding(
                ctx, RULE_ID, node.lineno, node.col_offset,
                f"call to wall-clock/sleep API {shown}",
            )
        elif parts[0] == "random" and len(parts) > 1:
            yield make_finding(
                ctx, RULE_ID, node.lineno, node.col_offset,
                f"call to the process-global RNG {shown}",
            )
        elif (
            parts[:2] == ["numpy", "random"]
            and len(parts) >= 3
            and parts[2] not in _NUMPY_RANDOM_ALLOWED
        ):
            yield make_finding(
                ctx, RULE_ID, node.lineno, node.col_offset,
                f"call to numpy's process-global RNG {shown}",
            )
