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

from typing import Callable, TypeAlias

from .cfg import ENTRY, EXC, EXIT, LOOP_EXIT, RAISE
from .extract import (
    AssignEvent,
    CallEvent,
    EscapeEvent,
    Event,
    FlipEvent,
    FuncExtract,
    RaiseEvent,
)
from .summaries import (
    FuncSummary,
    callee_summary,
    is_acquire_marker,
    is_journal_marker,
    is_release_marker,
)

__all__ = ["Site", "leak_sites", "unjournaled_flips"]

Site: TypeAlias = "tuple[str, int, int]"  # (var, line, col) of the acquisition
Summaries: TypeAlias = "dict[str, FuncSummary]"


def _journaling(summaries: Summaries, event: CallEvent) -> bool:
    return (
        is_journal_marker(event) or callee_summary(summaries, event).journals
    )


def _risky(summaries: Summaries, events: "list[Event]") -> bool:
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
            if (
                is_acquire_marker(event)
                or callee_summary(summaries, event).raises
            ):
                return True
        elif isinstance(event, RaiseEvent):
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
    state: "frozenset[Site]", events: "list[Event]", summaries: Summaries
) -> "frozenset[Site]":
    for event in events:
        if isinstance(event, CallEvent):
            callee = callee_summary(summaries, event)
            if is_release_marker(event) or callee.releases_args:
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
                (is_acquire_marker(event) or callee.returns_acquisition)
                and event.bound is not None
                and not event.managed
            ):
                state = _var_kill(state, event.bound)  # rebind drops old site
                state = state | {(event.bound, event.line, event.col)}
        elif isinstance(event, AssignEvent):
            target = event.target
            held_sources = [
                s for s in event.sources if any(site[0] == s for site in state)
            ]
            state = _var_kill(state, target)
            if held_sources:
                if event.loop:
                    # Iterating a held container: the site follows the
                    # loop target exclusively, so releasing the target
                    # in the body settles the container.
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
        elif isinstance(event, EscapeEvent):
            # Escaping into an object/the caller transfers ownership.
            for var in event.names:
                state = _site_kill(state, var)
    return state


def _forward(
    func: FuncExtract,
    step: "Callable[[frozenset, list[Event]], frozenset]",
    merge: "Callable[[list[frozenset]], frozenset]",
    entry_state: frozenset,
    summaries: Summaries,
) -> "dict[int, frozenset]":
    """Generic forward worklist; returns the fixpoint in-state per node.

    Exception-edge contributions use the *pre-statement* state, and flow
    only from statements that can realistically raise (:func:`_risky`).
    """
    in_state: "dict[int, frozenset]" = {ENTRY: entry_state}
    out_cache: "dict[int, frozenset]" = {}
    worklist = [ENTRY]
    while worklist:
        node_id = worklist.pop()
        node = func.nodes[node_id]
        current = in_state[node_id]
        new_out = step(current, node.events)
        if out_cache.get(node_id) == new_out and node_id in out_cache:
            continue
        out_cache[node_id] = new_out
        for succ_id, kind in node.succ:
            if kind == EXC:
                if not _risky(summaries, node.events):
                    continue
                contribution = current
            elif kind == LOOP_EXIT:
                # Past the loop, the target no longer names an element.
                contribution = new_out
                for event in node.events:
                    if isinstance(event, AssignEvent) and event.loop:
                        contribution = frozenset(
                            site
                            for site in contribution
                            if not (
                                isinstance(site, tuple)
                                and site[0] == event.target
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
    func: FuncExtract, summaries: Summaries
) -> "tuple[list[Site], list[Site]]":
    """``(exit_leaks, raise_leaks)`` — acquisition sites still held.

    ``exit_leaks`` are reachable at normal return (REP012);
    ``raise_leaks`` are held only on the exceptional exit (REP013).
    """

    def step(state: frozenset, events: "list[Event]") -> frozenset:
        return _leak_step(state, events, summaries)

    def merge(states: "list[frozenset]") -> frozenset:
        merged: frozenset = frozenset()
        for state in states:
            merged |= state
        return merged

    in_state = _forward(func, step, merge, frozenset(), summaries)
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


def unjournaled_flips(
    func: FuncExtract, summaries: Summaries
) -> "list[FlipEvent]":
    """Flip sites not dominated by a journal write on every path."""

    def step(state: frozenset, events: "list[Event]") -> frozenset:
        for event in events:
            if isinstance(event, CallEvent) and _journaling(summaries, event):
                state = _TOP
        return state

    def merge(states: "list[frozenset]") -> frozenset:
        merged = _TOP
        for state in states:
            merged &= state
        return merged

    in_state = _forward(func, step, merge, _BOT, summaries)

    flips: "list[FlipEvent]" = []
    for node_id, node in func.nodes.items():
        if node_id not in in_state:
            continue  # unreachable
        state = in_state[node_id]
        for event in node.events:
            if isinstance(event, CallEvent):
                if _journaling(summaries, event):
                    state = _TOP
            elif isinstance(event, FlipEvent) and state != _TOP:
                flips.append(event)
    return flips
