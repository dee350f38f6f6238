"""Per-function control-flow graphs with exception edges.

The deep analyses (:mod:`repro.analysis.dataflow`) need to reason about
*paths*: "is every acquisition released on every way out of this
function, including the ways an exception takes?"  This module turns one
function body into a statement-level CFG:

* one node per simple statement (plus the branch heads of compound
  statements), each carrying the statement it runs and, once
  :mod:`repro.analysis.extract` has filled them in, that statement's
  events;
* three virtual nodes — ``ENTRY``, ``EXIT`` (normal return / fallthrough)
  and ``RAISE`` (exceptional exit) — so analyses can ask for the state
  at each kind of function exit separately;
* ``NORMAL`` edges for sequencing/branching and ``EXC`` edges from every
  statement that may raise to the innermost enclosing handler chain
  (``except`` bodies, then ``finally``, then ``RAISE``).

Exception edges are conservative: any statement containing a call is
assumed to possibly raise — *except* calls whose leaf name carries a
teardown marker (``release``/``rollback``/``teardown``), which the
codebase guarantees to be total (see ``ResourceCommitter._rollback``).
``finally`` suites are duplicated (one copy on the normal path, one on
the exceptional path) so a may-analysis never merges the two regimes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .extract import Event

__all__ = [
    "ENTRY",
    "EXIT",
    "RAISE",
    "NORMAL",
    "EXC",
    "LOOP_EXIT",
    "CfgNode",
    "build_cfg",
    "statement_may_raise",
]

ENTRY = 0
EXIT = 1
RAISE = 2

NORMAL = "n"
EXC = "e"
LOOP_EXIT = "x"  # for-loop head -> join: the loop target goes stale

_NO_RAISE_MARKERS = ("release", "rollback", "teardown")


def _call_leaf(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def statement_may_raise(node: "ast.AST | None") -> bool:
    """Can executing this statement (or expression) transfer control to
    a handler?

    Conservative: raises, asserts, and any call that is not a pure
    teardown marker may raise.  Nested function/lambda bodies do not
    execute at definition time and are skipped.
    """
    if isinstance(node, (ast.Raise, ast.Assert)):
        return True
    if node is None:
        return False
    for sub in _walk_executed(node):
        if isinstance(sub, ast.Call):
            leaf = _call_leaf(sub).lower()
            if not any(marker in leaf for marker in _NO_RAISE_MARKERS):
                return True
    return False


def _walk_executed(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested ``def`` bodies.

    Lambdas *are* descended into: the repo's commitment path runs
    acquisition thunks through resilient-call helpers, so a lambda's
    calls are attributed to the statement that builds it.
    """
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.append(child)


@dataclass(slots=True)
class CfgNode:
    """One CFG node: a statement (or handler head) or a virtual node."""

    node_id: int
    stmt: "ast.AST | None" = None
    succ: "list[tuple[int, str]]" = field(default_factory=list)
    events: "list[Event]" = field(default_factory=list)

    def link(self, target: int, kind: str = NORMAL) -> None:
        edge = (target, kind)
        if edge not in self.succ:
            self.succ.append(edge)


@dataclass(slots=True)
class _Frame:
    """Where control goes on raise / break / continue at one nesting level."""

    exc_targets: "tuple[int, ...]"  # handler heads (or finally head / RAISE)
    break_target: "int | None" = None
    continue_target: "int | None" = None


class _Builder:
    def __init__(self) -> None:
        # Ids ascend in insertion order, so iterating the dict visits
        # the nodes by id.
        self.nodes = {
            node_id: CfgNode(node_id=node_id)
            for node_id in (ENTRY, EXIT, RAISE)
        }

    def _new(self, stmt: "ast.AST | None") -> CfgNode:
        node = CfgNode(node_id=len(self.nodes), stmt=stmt)
        self.nodes[node.node_id] = node
        return node

    def _link_all(self, sources: Iterable[int], target: int, kind: str = NORMAL) -> None:
        for source in sources:
            self.nodes[source].link(target, kind)

    # -- statement sequences --------------------------------------------------------

    def build(self, body: "list[ast.stmt]") -> "dict[int, CfgNode]":
        tails = self._sequence(body, [ENTRY], _Frame(exc_targets=(RAISE,)))
        self._link_all(tails, EXIT)
        return self.nodes

    def _sequence(
        self, stmts: "list[ast.stmt]", entries: "list[int]", frame: _Frame
    ) -> "list[int]":
        current = entries
        for stmt in stmts:
            if not current:
                break  # unreachable code after return/raise/break
            current = self._statement(stmt, current, frame)
        return current

    def _statement(
        self, stmt: ast.stmt, entries: "list[int]", frame: _Frame
    ) -> "list[int]":
        if isinstance(stmt, ast.If):
            return self._if(stmt, entries, frame)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, entries, frame)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, entries, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, entries, frame)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested definition executes (binds a name) but its body does
            # not run here; it is analysed as its own function.
            node = self._new(stmt)
            self._link_all(entries, node.node_id)
            return [node.node_id]
        return self._simple(stmt, entries, frame)

    # -- simple statements ----------------------------------------------------------

    def _simple(
        self, stmt: ast.stmt, entries: "list[int]", frame: _Frame
    ) -> "list[int]":
        node = self._new(stmt)
        self._link_all(entries, node.node_id)
        if statement_may_raise(stmt):
            for target in frame.exc_targets:
                node.link(target, EXC)
        if isinstance(stmt, ast.Return):
            node.link(EXIT)
            return []
        if isinstance(stmt, ast.Raise):
            # Control never continues past an explicit raise; the EXC
            # edges above already route it to the handlers.
            return []
        if isinstance(stmt, ast.Break):
            if frame.break_target is not None:
                node.link(frame.break_target)
            return []
        if isinstance(stmt, ast.Continue):
            if frame.continue_target is not None:
                node.link(frame.continue_target)
            return []
        return [node.node_id]

    # -- compound statements ---------------------------------------------------------

    def _if(self, stmt: ast.If, entries: "list[int]", frame: _Frame) -> "list[int]":
        head = self._new(stmt)
        self._link_all(entries, head.node_id)
        if statement_may_raise(stmt.test):
            for target in frame.exc_targets:
                head.link(target, EXC)
        then_tails = self._sequence(stmt.body, [head.node_id], frame)
        else_tails = self._sequence(stmt.orelse, [head.node_id], frame)
        return then_tails + else_tails

    def _loop(
        self,
        stmt: "ast.While | ast.For | ast.AsyncFor",
        entries: "list[int]",
        frame: _Frame,
    ) -> "list[int]":
        head = self._new(stmt)
        self._link_all(entries, head.node_id)
        test = stmt.test if isinstance(stmt, ast.While) else stmt.iter
        if statement_may_raise(test):
            for target in frame.exc_targets:
                head.link(target, EXC)
        join = self._new(None)  # loop exit join point
        inner = _Frame(
            exc_targets=frame.exc_targets,
            break_target=join.node_id,
            continue_target=head.node_id,
        )
        body_tails = self._sequence(stmt.body, [head.node_id], inner)
        self._link_all(body_tails, head.node_id)  # back edge
        # Loop may run zero times / the condition falsifies.  For-loops
        # get the distinct LOOP_EXIT kind: past this edge the target
        # variable no longer names a live element, which lets dataflow
        # treat `for r in held: release(r)` as settling the container.
        exit_kind = NORMAL if isinstance(stmt, ast.While) else LOOP_EXIT
        head.link(join.node_id, exit_kind)
        return self._sequence(stmt.orelse, [join.node_id], frame)

    def _with(
        self, stmt: "ast.With | ast.AsyncWith", entries: "list[int]", frame: _Frame
    ) -> "list[int]":
        head = self._new(stmt)
        self._link_all(entries, head.node_id)
        if any(statement_may_raise(item.context_expr) for item in stmt.items):
            for target in frame.exc_targets:
                head.link(target, EXC)
        # The context manager's __exit__ runs on both regimes; for the
        # resource analyses a `with` acquisition is released by construction,
        # handled at the event level (extract marks `with`-bound names).
        return self._sequence(stmt.body, [head.node_id], frame)

    def _try(self, stmt: ast.Try, entries: "list[int]", frame: _Frame) -> "list[int]":
        handler_heads: "list[int]" = []
        handler_nodes: "list[CfgNode]" = []
        for handler in stmt.handlers:
            node = self._new(handler)
            handler_nodes.append(node)
            handler_heads.append(node.node_id)

        has_finally = bool(stmt.finalbody)
        # Exceptional copy of the finally suite: entered when an exception
        # is in flight; after it, the exception propagates outward.
        if has_finally:
            exc_finally_entry = self._new(None)
            exc_finally_tails = self._sequence(
                stmt.finalbody, [exc_finally_entry.node_id], frame
            )
            # The in-flight exception resumes after the suite *completes*,
            # so this edge is NORMAL-kind: dataflow must see the state
            # with the finally's cleanup applied (EXC kind would snap
            # back to the pre-statement state and erase e.g. a rollback
            # the finally just performed).  Raises *inside* the suite
            # still take the per-statement EXC edges added above.
            for target in frame.exc_targets:
                self._link_all(exc_finally_tails, target, NORMAL)
            body_exc_targets = tuple(handler_heads) + (
                exc_finally_entry.node_id,
            )
            handler_exc_targets: "tuple[int, ...]" = (exc_finally_entry.node_id,)
        else:
            body_exc_targets = (
                tuple(handler_heads) if handler_heads else frame.exc_targets
            )
            handler_exc_targets = frame.exc_targets

        body_frame = _Frame(
            exc_targets=body_exc_targets,
            break_target=frame.break_target,
            continue_target=frame.continue_target,
        )
        body_tails = self._sequence(stmt.body, entries, body_frame)
        else_tails = self._sequence(stmt.orelse, body_tails, body_frame)

        handler_frame = _Frame(
            exc_targets=handler_exc_targets,
            break_target=frame.break_target,
            continue_target=frame.continue_target,
        )
        handler_tails: "list[int]" = []
        for handler, node in zip(stmt.handlers, handler_nodes):
            tails = self._sequence(handler.body, [node.node_id], handler_frame)
            handler_tails.extend(tails)

        exits = else_tails + handler_tails
        if has_finally:
            # Normal copy of the finally suite.
            return self._sequence(stmt.finalbody, exits, frame)
        return exits


def build_cfg(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> "dict[int, CfgNode]":
    """The statement-level CFG of one function definition, by node id."""
    return _Builder().build(func.body)
