"""Per-function resource summaries, computed bottom-up over SCCs.

A summary answers, for one function, the questions the interprocedural
passes ask at its call sites:

* does a value it returns carry an acquisition
  (``admit``/``reserve``/``acquire``), so the caller inherits the
  release obligation?
* does it *release* resources passed in as arguments?
* does it write a journal record?
* can it raise (an explicit ``raise``/``assert``)?

``releases_args``, ``journals`` and ``raises`` are transitive — they
propagate callee→caller with a fixpoint per strongly-connected
component, so mutual recursion converges.  ``returns_acquisition`` is
deliberately *local only* (one hop): it is seeded purely from marker
acquisitions inside the function body, never inherited from callees.
Propagating it transitively would tag every negotiation driver and
simulation harness as a resource source and flood REP012 with findings
about code that merely coordinates; the function that actually talks to
the server carries the obligation, and its direct callers are checked.

Callees are read from each call event's ``target``, which
:func:`~repro.analysis.callgraph.build_project` resolved once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .extract import (
    ACQUIRE_ATTRS,
    JOURNAL_MARKER,
    RELEASE_MARKERS,
    AssignEvent,
    CallEvent,
    EscapeEvent,
    FuncExtract,
    RaiseEvent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .callgraph import Project

__all__ = [
    "FuncSummary",
    "callee_summary",
    "compute_summaries",
    "is_acquire_marker",
    "is_release_marker",
    "is_journal_marker",
]


def is_acquire_marker(event: CallEvent) -> bool:
    return event.attr in ACQUIRE_ATTRS


def is_release_marker(event: CallEvent) -> bool:
    leaf = event.attr.lower()
    return bool(leaf) and any(marker in leaf for marker in RELEASE_MARKERS)


def is_journal_marker(event: CallEvent) -> bool:
    return JOURNAL_MARKER in event.name.lower()


@dataclass(slots=True)
class FuncSummary:
    """What one function does with resources, from its caller's seat."""

    returns_acquisition: bool = False
    journals: bool = False
    # contains an explicit raise/assert (transitively): calls to such
    # functions are the "risky" statements whose exception edges the
    # dataflow passes actually follow
    raises: bool = False
    # params that may be released (by name)
    released_params: "set[str]" = field(default_factory=set)

    @property
    def releases_args(self) -> bool:
        return bool(self.released_params)


_UNRESOLVED = FuncSummary()  # what a call the project cannot resolve does


def callee_summary(
    summaries: "dict[str, FuncSummary]", event: CallEvent
) -> FuncSummary:
    """The summary of the function ``event`` calls (all-false if none)."""
    if event.target is None:
        return _UNRESOLVED
    return summaries.get(event.target, _UNRESOLVED)


def _alias_closure(func: FuncExtract) -> "dict[str, set[str]]":
    """Flow-insensitive may-alias map: local symbol -> root params.

    Over-approximates on purpose — aliasing feeds *release* detection,
    and treating more things as released only ever silences findings,
    never invents them.
    """
    alias: "dict[str, set[str]]" = {p: {p} for p in func.params}

    def roots(symbol: str) -> "set[str]":
        return alias.get(symbol, set())

    changed = True
    while changed:
        changed = False
        for event in func.events():
            if isinstance(event, CallEvent):
                if event.bound is None:
                    continue
                incoming: "set[str]" = set()
                for arg in event.args:
                    incoming |= roots(arg)
                if event.recv is not None and "." not in event.recv:
                    incoming |= roots(event.recv)
                if incoming - alias.setdefault(event.bound, set()):
                    alias[event.bound] |= incoming
                    changed = True
            elif isinstance(event, AssignEvent):
                incoming = set()
                for source in event.sources:
                    incoming |= roots(source)
                if incoming - alias.setdefault(event.target, set()):
                    alias[event.target] |= incoming
                    changed = True
    return alias


def _local_summary(
    func: FuncExtract, alias: "dict[str, set[str]]"
) -> FuncSummary:
    summary = FuncSummary()
    tainted: "set[str]" = set()
    returns: "set[str]" = set()

    for event in func.events():
        if isinstance(event, CallEvent):
            if is_acquire_marker(event):
                if event.ret:
                    summary.returns_acquisition = True
                if event.bound is not None:
                    tainted.add(event.bound)
            if is_release_marker(event):
                for arg in event.args:
                    summary.released_params |= alias.get(arg, set())
                if event.recv is not None and "." not in event.recv:
                    summary.released_params |= alias.get(event.recv, set())
            if is_journal_marker(event):
                summary.journals = True
        elif isinstance(event, RaiseEvent):
            summary.raises = True
        elif isinstance(event, EscapeEvent) and event.returned:
            returns.update(event.names)

    # Propagate acquisition taint through assigns/bound calls to returns.
    changed = True
    while changed:
        changed = False
        for event in func.events():
            if isinstance(event, CallEvent):
                if (
                    event.bound is not None
                    and event.bound not in tainted
                    and any(arg in tainted for arg in event.args)
                    and not is_release_marker(event)
                ):
                    tainted.add(event.bound)
                    changed = True
            elif isinstance(event, AssignEvent):
                if event.target not in tainted and any(
                    source in tainted for source in event.sources
                ):
                    tainted.add(event.target)
                    changed = True
    if returns & tainted:
        summary.returns_acquisition = True
    return summary


def compute_summaries(project: Project) -> "dict[str, FuncSummary]":
    """Local seeds, then one fixpoint per SCC in bottom-up order."""
    aliases = {
        ref: _alias_closure(func) for ref, func in project.functions.items()
    }
    summaries = {
        ref: _local_summary(func, aliases[ref])
        for ref, func in project.functions.items()
    }

    def propagate(ref: str) -> bool:
        summary = summaries[ref]
        alias = aliases[ref]
        changed = False
        for event in project.functions[ref].call_events():
            callee = callee_summary(summaries, event)
            if callee.journals and not summary.journals:
                summary.journals = True
                changed = True
            if callee.raises and not summary.raises:
                summary.raises = True
                changed = True
            if callee.releases_args:
                for arg in event.args:
                    released = alias.get(arg, set()) - summary.released_params
                    if released:
                        summary.released_params |= released
                        changed = True
        return changed

    for component in project.sccs_bottom_up():
        stable = False
        while not stable:
            stable = True
            for ref in component:
                if propagate(ref):
                    stable = False
    return summaries
