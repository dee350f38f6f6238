"""REP018 — shared negotiation-cache discipline.

:class:`~repro.perf.cache.NegotiationCache` is process-wide
infrastructure: the batch engine preseeds it, the service coalesces
through it, and the ``cache.*`` hit-rate telemetry assumes every
negotiation funnels through one instance.  A privately constructed
cache silently forks that world — requests stop sharing offer spaces
and the hit-rate series undercounts.

The rule flags every ``NegotiationCache(...)`` construction outside its
defining module.  Callers should obtain the process-wide instance from
:func:`repro.perf.cache.shared_cache` (and reset it between isolated
runs with :func:`~repro.perf.cache.reset_shared_cache`).  Deliberately
hermetic deployments — a scenario whose counters must start cold on a
scenario-scoped telemetry hub — stay possible via an inline pragma
with a reason::

    cache = NegotiationCache(telemetry=t)  # reprolint: disable=REP018 -- hermetic per-scenario cache
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from ..astutil import dotted_name
from ..registry import make_finding, rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..context import ModuleContext
    from ..findings import Finding

RULE_ID = "REP018"

_CLASS_NAME = "NegotiationCache"
# The one module allowed to construct the class: its own, where
# shared_cache() lives.
_DEFINING_MODULE = "repro.perf.cache"


def _constructor_aliases(tree: ast.Module) -> "frozenset[str]":
    """Local names bound to the class by from-imports (including
    ``as`` renames), so aliasing does not dodge the rule."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for name in node.names:
                if name.name == _CLASS_NAME:
                    aliases.add(name.asname or name.name)
    return frozenset(aliases)


@rule(
    RULE_ID,
    "shared-cache",
    "NegotiationCache must not be constructed outside repro.perf.cache",
    "obtain the process-wide cache via repro.perf.shared_cache() "
    "(reset_shared_cache() between isolated runs); a private instance "
    "splits the cache.* hit-rate telemetry and defeats cross-client "
    "reuse — suppress with `# reprolint: disable=REP018 -- <reason>` "
    "only where a hermetic cache is the point",
)
def check(ctx: "ModuleContext") -> "Iterator[Finding]":
    if ctx.module == _DEFINING_MODULE:
        return
    aliases = _constructor_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        if name in aliases or name.split(".")[-1] == _CLASS_NAME:
            yield make_finding(
                ctx, RULE_ID, node.lineno, node.col_offset,
                f"`{name}(...)` constructs a private negotiation cache "
                f"outside {_DEFINING_MODULE}",
            )
