"""Whole-program rules (REP012–REP017).

These rules see a resolved :class:`~repro.analysis.callgraph.Project`
— every function's CFG, the call graph, and the bottom-up resource
summaries — instead of one file's AST, so they can follow a
reservation across function boundaries, down exception edges, and
through the call graph:

========  ======================================================
REP012    a reservation acquired here is never released/confirmed
          on some normal path
REP013    a reservation leaks when an exception unwinds
REP014    a commitment state flip is not dominated by a journal
          write on every path
REP015    module-level mutable state is mutated on a negotiation
          path (breaks concurrent sessions)
REP016    a blocking call is reachable from an async function or a
          cooperative-scheduler task (stalls the event loop)
REP017    a reservation ledger is mutated outside its owning seam
========  ======================================================

REP015–REP017 are *concurrency-readiness* gates: the roadmap's next
step runs many negotiations concurrently in one process, and these
rules fence off the global-state, blocking-call and foreign-ledger
patterns that would make that unsound.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .callgraph import Project
from .dataflow import Site, leak_sites, unjournaled_flips
from .extract import (
    ACQUIRE_ATTRS,
    FuncExtract,
    GlobalMutationEvent,
    LedgerMutationEvent,
    ModuleExtract,
)
from .findings import Finding
from .registry import make_finding, project_rule

__all__ = ["LEDGER_SEAMS", "NEGOTIATION_ROOT_MODULES"]

# Modules that may mutate reservation ledgers: the owners (server,
# transport) and the seams that drive commitment/recovery for them.
LEDGER_SEAMS = (
    "repro.cmfs.server",
    "repro.network.transport",
    "repro.core.commitment",
    "repro.journal.recovery",
)

# Where negotiation control flow starts (REP015 reachability roots).
NEGOTIATION_ROOT_MODULES = (
    "repro.core.negotiation",
    "repro.core.commitment",
    "repro.core.adaptation",
)
NEGOTIATION_ROOT_PACKAGES = (
    ("repro", "session"),
    ("repro", "storm"),
    ("repro", "service"),
)

# Packages whose functions run *inside* the cooperative scheduler's
# event loop (generator tasks resumed by repro.service, not
# ``async def``).  A blocking call there stalls every in-flight
# negotiation exactly like one inside an async function, so REP016
# roots its reachability walk at each of these functions too.
COOPERATIVE_ROOT_PACKAGES = (
    ("repro", "service"),
)


def _module_is(extract: ModuleExtract, dotted: str) -> bool:
    """Module-name match with a path-suffix fallback for fixture trees."""
    if extract.module == dotted:
        return True
    suffix = "/".join(dotted.split(".")) + ".py"
    return extract.path.replace("\\", "/").endswith(suffix)


def _functions_with_modules(
    project: Project,
) -> "Iterator[tuple[FuncExtract, ModuleExtract]]":
    for ref in sorted(project.functions):
        func = project.functions[ref]
        yield func, project.modules[func.path]


def _leaks(
    project: Project,
) -> "Iterator[tuple[FuncExtract, ModuleExtract, list[Site], list[Site]]]":
    """Each function's ``(exit_leaks, raise_leaks)``, for REP012/REP013.

    Acquire primitives themselves hand the obligation to their caller;
    only the call sites above them are checked.
    """
    for func, extract in _functions_with_modules(project):
        if func.qualname.split(".")[-1] not in ACQUIRE_ATTRS:
            exit_leaks, raise_leaks = leak_sites(func, project.summaries)
            yield func, extract, exit_leaks, raise_leaks


@project_rule(
    "REP012",
    "interprocedural-leak",
    "a reservation acquired here may never be released on a normal path",
    "release (or confirm/journal-compensate) the reservation on every "
    "path out of the function, or return it so the caller owns it",
)
def check_rep012(project: Project) -> "Iterable[Finding]":
    for func, extract, exit_leaks, _raise_leaks in _leaks(project):
        for var, line, col in exit_leaks:
            label = "the acquisition" if var.startswith("%") else f"{var!r}"
            yield make_finding(
                extract.ctx, "REP012", line, col,
                f"reservation bound to {label} in {func.qualname} can reach "
                "a normal return without being released or confirmed",
            )


@project_rule(
    "REP013",
    "exception-path-leak",
    "a reservation leaks when an exception unwinds past its owner",
    "wrap the acquisition in try/except (or finally) and release what "
    "was already admitted before letting the exception escape",
)
def check_rep013(project: Project) -> "Iterable[Finding]":
    for func, extract, _exit_leaks, raise_leaks in _leaks(project):
        for var, line, col in raise_leaks:
            label = "the acquisition" if var.startswith("%") else f"{var!r}"
            yield make_finding(
                extract.ctx, "REP013", line, col,
                f"reservation bound to {label} in {func.qualname} is still "
                "held when an exception unwinds out of the function",
            )


def _journal_scope(extract: ModuleExtract) -> bool:
    return extract.ctx.in_package("repro", "session") or _module_is(
        extract, "repro.core.commitment"
    )


@project_rule(
    "REP014",
    "unjournaled-flip-flow",
    "a commitment state flip is not journal-dominated on every path",
    "write the journal record before assigning the new state so a crash "
    "between the two is replayable; see DESIGN.md on write-ahead intent",
)
def check_rep014(project: Project) -> "Iterable[Finding]":
    for func, extract in _functions_with_modules(project):
        if not _journal_scope(extract):
            continue
        for flip in unjournaled_flips(func, project.summaries):
            yield make_finding(
                extract.ctx, "REP014", flip.line, flip.col,
                f"state transition in {func.qualname} is reachable without "
                "a journal write having happened on every path leading here",
            )


def _negotiation_root(extract: ModuleExtract) -> bool:
    return any(
        _module_is(extract, module) for module in NEGOTIATION_ROOT_MODULES
    ) or any(
        extract.ctx.in_package(*segments)
        for segments in NEGOTIATION_ROOT_PACKAGES
    )


@project_rule(
    "REP015",
    "negotiation-global-state",
    "module-level mutable state is mutated on a negotiation path",
    "move the state onto a session/server object (or behind an explicit "
    "registry with ownership) so concurrent negotiations cannot race on it",
)
def check_rep015(project: Project) -> "Iterable[Finding]":
    roots = [
        func.ref
        for func, extract in _functions_with_modules(project)
        if _negotiation_root(extract)
    ]
    reachable = project.reachable_from(roots)
    for func, extract in _functions_with_modules(project):
        if func.ref not in reachable:
            continue
        for event in func.events():
            if isinstance(event, GlobalMutationEvent):
                yield make_finding(
                    extract.ctx, "REP015", event.line, event.col,
                    f"{func.qualname} mutates module-level mutable "
                    f"{event.name!r} on a path reachable from "
                    "negotiation entry points",
                )


@project_rule(
    "REP016",
    "blocking-in-event-loop",
    "a blocking call is reachable from an async (event-loop) function "
    "or a cooperative-scheduler task",
    "move the blocking call off the event loop (executor/thread) or use "
    "an async equivalent; sleeping or fsyncing inline stalls every "
    "in-flight negotiation",
)
def check_rep016(project: Project) -> "Iterable[Finding]":
    async_roots = {
        ref for ref, func in project.functions.items() if func.is_async
    }
    coop_roots = {
        func.ref
        for func, extract in _functions_with_modules(project)
        if any(
            extract.ctx.in_package(*segments)
            for segments in COOPERATIVE_ROOT_PACKAGES
        )
    }
    roots = async_roots | coop_roots
    if not roots:
        return
    root_names = {ref: project.functions[ref].qualname for ref in roots}
    seen: "set[tuple[str, int, int]]" = set()
    for root in sorted(roots):
        root_kind = (
            "async" if root in async_roots else "cooperative task"
        )
        for ref in sorted(project.reachable_from([root])):
            func = project.functions[ref]
            extract = project.modules[func.path]
            for event in func.call_events():
                if not event.blocking:
                    continue
                key = (func.path, event.line, event.col)
                if key in seen:
                    continue
                seen.add(key)
                via = (
                    "directly"
                    if ref == root
                    else f"via {func.qualname}"
                )
                yield make_finding(
                    extract.ctx, "REP016", event.line, event.col,
                    f"blocking call {event.name}() is reachable from "
                    f"{root_kind} {root_names[root]} {via}",
                )


@project_rule(
    "REP017",
    "foreign-ledger-mutation",
    "a reservation ledger is mutated outside its owning seam",
    "route the mutation through the ledger's owner (server/transport "
    "release paths or the commitment/recovery seams) instead of poking "
    "its internal table",
)
def check_rep017(project: Project) -> "Iterable[Finding]":
    for func, extract in _functions_with_modules(project):
        if any(_module_is(extract, seam) for seam in LEDGER_SEAMS):
            continue
        for event in func.events():
            if isinstance(event, LedgerMutationEvent):
                yield make_finding(
                    extract.ctx, "REP017", event.line, event.col,
                    f"{func.qualname} mutates reservation ledger "
                    f"{event.attr!r} of {event.recv!r} from outside "
                    "the owning manager/committer seams",
                )
