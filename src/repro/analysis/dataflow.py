"""Per-function dataflow over the statement CFG, with call summaries.

Two forward analyses drive the deep rules:

**May-held leak analysis** (REP012/REP013).  Facts are *held
acquisition sites* ``(var, line, col)``.  A site is generated when a
marker acquisition (or a call to a ``returns_acquisition`` callee)
binds a local; it is killed when the local reaches a releasing use —
a marker release, a call whose summary releases its arguments, an
escape into an attribute/container, a ``return``, or a rebind.
Ownership *transfers* instead of dying when a held value moves through
an alias (``x = y``), a container append, or a pass-through call whose
result is bound.  Exception edges carry the state from *before* the
raising statement — a call that blew up never handed its result back,
but everything acquired earlier is still live and must be cleaned up
by the handler.  Sites still held at EXIT leak on a normal path
(REP012); sites held only at the virtual RAISE node leak when an
exception unwinds (REP013).

**Must-journaled analysis** (REP014).  The fact is "a journal write has
definitely happened on *every* path from entry"; merges intersect.  A
``.state = CommitmentState...`` flip where the fact is false is a
crash-window: a failure at that instant leaves a state transition no
recovery scan can replay.  Unlike a syntactic same-function check,
this follows the actual paths — including exception edges, where the
raising statement's own journal call must not be credited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .callgraph import Project
from .cfg import ENTRY, EXC, EXIT, LOOP_EXIT, RAISE
from .extract import CallEvent, FuncExtract
from .summaries import (
    FuncSummary,
    is_acquire_marker,
    is_journal_marker,
    is_release_marker,
)

__all__ = ["Site", "CallClassifier", "leak_sites", "unjournaled_flips"]

Site = "tuple[str, int, int]"  # (var, line, col) of the acquisition


class CallClassifier:
    """Classifies call events using the project call graph + summaries."""

    def __init__(
        self, project: Project, summaries: "dict[str, FuncSummary]"
    ) -> None:
        self._project = project
        self._summaries = summaries

    def _callee(self, func: FuncExtract, event: CallEvent) -> "FuncSummary | None":
        ref = self._project.resolve_call(func, event)
        if ref is None:
            return None
        return self._summaries.get(ref)

    def acquiring(self, func: FuncExtract, event: CallEvent) -> bool:
        if is_acquire_marker(event):
            return True
        callee = self._callee(func, event)
        return callee is not None and callee.returns_acquisition

    def releasing(self, func: FuncExtract, event: CallEvent) -> bool:
        if is_release_marker(event):
            return True
        callee = self._callee(func, event)
        return callee is not None and callee.releases_args

    def journaling(self, func: FuncExtract, event: CallEvent) -> bool:
        if is_journal_marker(event):
            return True
        callee = self._callee(func, event)
        return callee is not None and callee.journals

    def risky(self, func: FuncExtract, events: "list") -> bool:
        """Can this statement *realistically* raise?

        The CFG is maximally conservative (every call gets an exception
        edge) so that handler reachability is never missed; the dataflow
        only lets state actually *flow* down exception edges from
        statements that can demonstrably throw — an explicit
        raise/assert, an acquisition attempt (admission control refuses
        by raising), or a call resolving to a function that transitively
        contains a raise.  Without this gate, every ``tuple()`` and
        telemetry call becomes a phantom leak path and REP013 drowns in
        noise.
        """
        for event in events:
            if isinstance(event, CallEvent):
                if is_acquire_marker(event):
                    return True
                callee = self._callee(func, event)
                if callee is not None and callee.raises:
                    return True
            elif event.get("op") == "raise":
                return True
        return False


# -- may-held leak analysis ------------------------------------------------------


def _var_kill(state: "frozenset[Site]", var: str) -> "frozenset[Site]":
    """Rebinding ``var``: only its own entries die; aliases keep the site."""
    return frozenset(site for site in state if site[0] != var)


def _site_kill(state: "frozenset[Site]", var: str) -> "frozenset[Site]":
    """A releasing/consuming use of ``var`` retires every acquisition
    site it holds *under every alias* — releasing through one name (the
    loop variable, the container, the wrapping bundle) settles the
    obligation everywhere."""
    retired = {(line, col) for v, line, col in state if v == var}
    if not retired:
        return state
    return frozenset(
        site for site in state if (site[1], site[2]) not in retired
    )


def _copy_sites(
    state: "frozenset[Site]", sources: "list[str]", target: str
) -> "frozenset[Site]":
    """Alias ``target`` to every site the sources hold (sources keep it)."""
    copied = {
        (target, line, col)
        for var, line, col in state
        if var in sources
    }
    if not copied:
        return state
    return state | copied


def _leak_step(
    state: "frozenset[Site]",
    func: FuncExtract,
    events: "list",
    classifier: CallClassifier,
) -> "frozenset[Site]":
    for event in events:
        if isinstance(event, CallEvent):
            if classifier.releasing(func, event):
                for arg in event.args:
                    state = _site_kill(state, arg)
                if event.recv is not None and "." not in event.recv:
                    state = _site_kill(state, event.recv)
                continue
            held_args = [
                arg for arg in event.args if any(s[0] == arg for s in state)
            ]
            if held_args:
                if event.bound is not None:
                    # Containers, wrappers and pass-through helpers alias
                    # the acquisition; releasing either name settles it.
                    state = _copy_sites(state, held_args, event.bound)
                else:
                    # Result discarded: assume the callee consumed them.
                    for arg in held_args:
                        state = _site_kill(state, arg)
            if (
                classifier.acquiring(func, event)
                and event.bound is not None
                and not event.managed
            ):
                state = _var_kill(state, event.bound)  # rebind drops old site
                state = state | {(event.bound, event.line, event.col)}
        else:
            op = event.get("op")
            if op == "assign":
                target = event["target"]
                held_sources = [
                    s
                    for s in event["sources"]
                    if any(site[0] == s for site in state)
                ]
                state = _var_kill(state, target)
                if held_sources:
                    if event.get("loop"):
                        # Iterating a held container: the site follows
                        # the loop target exclusively, so releasing the
                        # target in the body settles the container.
                        moved = {
                            (line, col)
                            for var, line, col in state
                            if var in held_sources
                        }
                        state = frozenset(
                            site
                            for site in state
                            if (site[1], site[2]) not in moved
                        ) | {(target, line, col) for line, col in moved}
                    else:
                        state = _copy_sites(state, held_sources, target)
            elif op in ("store", "return"):
                # Escaping into an object/the caller transfers ownership.
                for var in event["vars"]:
                    state = _site_kill(state, var)
    return state


def _forward(
    func: FuncExtract,
    step: "Callable[[frozenset, list], frozenset]",
    merge: "Callable[[list], frozenset]",
    entry_state: "frozenset",
    exc_gate: "Callable[[list], bool] | None" = None,
) -> "dict[int, frozenset]":
    """Generic forward worklist; returns the fixpoint in-state per node.

    Exception-edge contributions use the *pre-statement* state, and flow
    only from nodes ``exc_gate`` accepts (default: all of them).
    """
    in_state: "dict[int, frozenset]" = {ENTRY: entry_state}
    preds: "dict[int, list[tuple[int, str]]]" = {}
    for node_id, node in func.nodes.items():
        for succ_id, kind in node["succ"]:
            preds.setdefault(succ_id, []).append((node_id, kind))

    out_cache: "dict[int, frozenset]" = {}
    worklist = [ENTRY]
    while worklist:
        node_id = worklist.pop()
        node = func.nodes.get(node_id)
        if node is None:
            continue
        current = in_state.get(node_id)
        if current is None:
            continue
        new_out = step(current, node["events"])
        if out_cache.get(node_id) == new_out and node_id in out_cache:
            continue
        out_cache[node_id] = new_out
        for succ_id, kind in node["succ"]:
            if kind == EXC:
                if exc_gate is not None and not exc_gate(node["events"]):
                    continue
                contribution = current
            elif kind == LOOP_EXIT:
                # Past the loop, the target no longer names an element.
                contribution = new_out
                for event in node["events"]:
                    if (
                        isinstance(event, dict)
                        and event.get("op") == "assign"
                        and event.get("loop")
                    ):
                        contribution = frozenset(
                            site
                            for site in contribution
                            if not (
                                isinstance(site, tuple)
                                and site[0] == event["target"]
                            )
                        )
            else:
                contribution = new_out
            contributions = [contribution]
            if succ_id in in_state:
                contributions.append(in_state[succ_id])
            merged = merge(contributions)
            if in_state.get(succ_id) != merged or succ_id not in in_state:
                in_state[succ_id] = merged
                worklist.append(succ_id)
    return in_state


def leak_sites(
    func: FuncExtract, classifier: CallClassifier
) -> "tuple[list[Site], list[Site]]":
    """``(exit_leaks, raise_leaks)`` — acquisition sites still held.

    ``exit_leaks`` are reachable at normal return (REP012);
    ``raise_leaks`` are held only on the exceptional exit (REP013).
    """

    def step(state: "frozenset", events: "list") -> "frozenset":
        return _leak_step(state, func, events, classifier)

    def merge(states: "list[frozenset]") -> "frozenset":
        merged: "frozenset" = frozenset()
        for state in states:
            merged |= state
        return merged

    in_state = _forward(
        func, step, merge, frozenset(),
        exc_gate=lambda events: classifier.risky(func, events),
    )
    at_exit = in_state.get(EXIT, frozenset())
    at_raise = in_state.get(RAISE, frozenset())

    def dedupe(sites: "frozenset[Site]") -> "list[Site]":
        # One finding per acquisition site: prefer a real variable name
        # over a %N temporary for the message.
        best: "dict[tuple[int, int], str]" = {}
        for var, line, col in sorted(sites):
            key = (line, col)
            if key not in best or (
                best[key].startswith("%") and not var.startswith("%")
            ):
                best[key] = var
        return [
            (var, line, col) for (line, col), var in sorted(best.items())
        ]

    exit_leaks = dedupe(at_exit)
    exit_keys = {(line, col) for _var, line, col in exit_leaks}
    raise_leaks = [
        site
        for site in dedupe(at_raise)
        if (site[1], site[2]) not in exit_keys
    ]
    return exit_leaks, raise_leaks


# -- must-journaled analysis -----------------------------------------------------

_TOP = frozenset({"journaled"})  # lattice top: definitely journaled
_BOT: "frozenset[str]" = frozenset()  # not (yet) journaled on some path


@dataclass(slots=True)
class FlipSite:
    line: int
    col: int


def unjournaled_flips(
    func: FuncExtract, classifier: CallClassifier
) -> "list[FlipSite]":
    """Flip sites not dominated by a journal write on every path."""

    def step(state: "frozenset", events: "list") -> "frozenset":
        for event in events:
            if isinstance(event, CallEvent) and classifier.journaling(
                func, event
            ):
                state = _TOP
        return state

    def merge(states: "list[frozenset]") -> "frozenset":
        merged = _TOP
        for state in states:
            merged &= state
        return merged

    in_state = _forward(
        func, step, merge, _BOT,
        exc_gate=lambda events: classifier.risky(func, events),
    )

    flips: "list[FlipSite]" = []
    for node_id in sorted(func.nodes):
        node = func.nodes[node_id]
        if node_id not in in_state:
            continue  # unreachable
        state = in_state[node_id]
        for event in node["events"]:
            if isinstance(event, CallEvent):
                if classifier.journaling(func, event):
                    state = _TOP
            elif event.get("op") == "flip" and state != _TOP:
                flips.append(FlipSite(line=event["line"], col=event["col"]))
    return flips
