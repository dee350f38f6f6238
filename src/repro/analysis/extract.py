"""Per-module extraction: the IR the whole-program rules run on.

Everything the whole-program passes need from a module is distilled
into a :class:`ModuleExtract` — functions with their statement-level
CFGs, the import map and the class table — next to the
:class:`ModuleContext` it came from.  Each CFG node
(:class:`~repro.analysis.cfg.CfgNode`) carries the ordered *events* of
its statement, one typed record per effect:

=======================  ==============================================
``CallEvent``            a call site: dotted name, receiver, result
                         binding, the symbolic argument names, whether
                         it sits in a ``return``, whether it is a
                         ``with``-managed acquisition, whether it is a
                         known blocking primitive, and the project
                         function it resolves to (set once, by
                         :func:`~repro.analysis.callgraph.build_project`)
``AssignEvent``          ``x = y`` aliasing (taint propagation between
                         locals); ``loop`` marks a ``for`` target
``EscapeEvent``          names leaving the function: stored into an
                         attribute/subscript, or ``returned``
``RaiseEvent``           an explicit ``raise`` or ``assert``
``FlipEvent``            a ``.state = CommitmentState...`` transition
                         (REP014)
``GlobalMutationEvent``  mutation of a module-level mutable global
                         (REP015)
``LedgerMutationEvent``  mutation of another object's reservation
                         ledger (REP017)
=======================  ==============================================

Symbolic values are local variable names plus ``%N`` temporaries for
intermediate call results, so acquisitions flowing through containers
(``streams.append(server.admit(...))``) or constructors
(``Bundle(streams=tuple(streams))``) keep their taint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, TypeAlias

from .astutil import dotted_name
from .cfg import CfgNode, build_cfg
from .context import ModuleContext

__all__ = [
    "CallEvent",
    "AssignEvent",
    "EscapeEvent",
    "RaiseEvent",
    "FlipEvent",
    "GlobalMutationEvent",
    "LedgerMutationEvent",
    "Event",
    "FuncExtract",
    "ModuleExtract",
    "extract_module",
    "ACQUIRE_ATTRS",
    "RELEASE_MARKERS",
    "JOURNAL_MARKER",
    "LEDGER_ATTRS",
]

ACQUIRE_ATTRS = frozenset({"admit", "reserve", "acquire"})
RELEASE_MARKERS = ("release", "rollback", "teardown", "confirm", "compensate")
JOURNAL_MARKER = "journal"
LEDGER_ATTRS = frozenset(
    {"_streams", "_flows", "_ledger", "ledger", "_reservations"}
)

# Methods that move an argument's ownership into their receiver.
_CONTAINER_TRANSFER = frozenset(
    {"append", "add", "insert", "extend", "setdefault", "push"}
)
# Methods that mutate their receiver in place (globals / ledgers).
_MUTATING_METHODS = frozenset(
    {
        "append", "add", "insert", "extend", "update", "pop", "popitem",
        "clear", "remove", "discard", "setdefault", "push",
    }
)
_MUTABLE_FACTORIES = frozenset(
    {
        "list", "dict", "set", "bytearray", "deque", "defaultdict",
        "OrderedDict", "Counter",
    }
)
_BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.system",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)
_BLOCKING_ATTRS = frozenset(
    {"fsync", "read_text", "write_text", "read_bytes", "write_bytes"}
)
_STATE_ENUM = "CommitmentState"


@dataclass(slots=True)
class CallEvent:
    """One call site, symbolically."""

    name: str               # dotted text as written ("self._transport.reserve")
    attr: str               # leaf name ("reserve")
    recv: "str | None"      # receiver chain ("self._transport") or None
    bound: "str | None"     # local the result binds to (or container receiver)
    args: "tuple[str, ...]"  # symbolic names used as arguments
    line: int
    col: int
    ret: bool = False       # value flows out through return/yield
    managed: bool = False   # bound by `with ... as v` (released by __exit__)
    blocking: bool = False  # resolves to a known blocking primitive
    target: "str | None" = None  # resolved project function ref, if any


@dataclass(slots=True)
class AssignEvent:
    """``target`` now aliases whatever ``sources`` hold."""

    target: str
    sources: "list[str]"
    loop: bool = False  # a for-loop target: it *moves* held sites


@dataclass(slots=True)
class EscapeEvent:
    """Names whose ownership leaves the function."""

    names: "list[str]"
    returned: bool = False  # through return/yield, not into a store


@dataclass(slots=True)
class RaiseEvent:
    """An explicit ``raise`` (or ``assert``, a conditional raise)."""


@dataclass(slots=True)
class FlipEvent:
    """A ``.state = CommitmentState...`` assignment."""

    line: int
    col: int


@dataclass(slots=True)
class GlobalMutationEvent:
    """A mutation of module-level mutable global ``name``."""

    name: str
    line: int
    col: int


@dataclass(slots=True)
class LedgerMutationEvent:
    """A mutation of ledger ``attr`` on the foreign object ``recv``."""

    attr: str
    recv: str
    line: int
    col: int


Event: TypeAlias = (
    CallEvent
    | AssignEvent
    | EscapeEvent
    | RaiseEvent
    | FlipEvent
    | GlobalMutationEvent
    | LedgerMutationEvent
)


@dataclass(slots=True)
class FuncExtract:
    """One function's analysable shape: its CFG, events on each node."""

    qualname: str            # module-relative ("ResourceCommitter.try_commit")
    module: str
    path: str
    is_async: bool
    cls: "str | None"
    params: "tuple[str, ...]"
    nodes: "dict[int, CfgNode]"  # ids ascend in construction order

    @property
    def ref(self) -> str:
        """Project-unique id, ``module::qualname``."""
        return f"{self.module}::{self.qualname}"

    def events(self) -> "Iterable[Event]":
        for node in self.nodes.values():
            yield from node.events

    def call_events(self) -> "Iterable[CallEvent]":
        for event in self.events():
            if isinstance(event, CallEvent):
                yield event


@dataclass(slots=True)
class ModuleExtract:
    """Everything the whole-program passes need from one file.

    Keeps the parsed :class:`ModuleContext` it was distilled from, so
    whole-program findings take their source text, enclosing scope and
    pragma suppression from the same place per-file findings do.
    """

    ctx: ModuleContext
    functions: "dict[str, FuncExtract]" = field(default_factory=dict)
    # class name -> (base dotted names, method names)
    classes: "dict[str, tuple[list[str], list[str]]]" = field(
        default_factory=dict
    )

    @property
    def module(self) -> str:
        return self.ctx.module

    @property
    def path(self) -> str:
        return self.ctx.path


# -- expression/event emission ---------------------------------------------------


def _loaded_names(node: ast.AST) -> "list[str]":
    names: "list[str]" = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id not in names:
                names.append(sub.id)
    return names


def _mentions_state_enum(value: ast.AST) -> bool:
    for sub in ast.walk(value):
        if isinstance(sub, ast.Name) and sub.id == _STATE_ENUM:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == _STATE_ENUM:
            return True
    return False


class _EventEmitter:
    """Flattens one statement into its ordered event list."""

    def __init__(self, module: "_ModuleScan") -> None:
        self._module = module
        self._tmp = 0
        self.events: "list[Event]" = []

    def _new_tmp(self) -> str:
        self._tmp += 1
        return f"%{self._tmp}"

    # -- expressions ---------------------------------------------------------------

    def emit_expr(
        self, expr: "ast.expr | None", *, ret: bool = False
    ) -> "str | None":
        """Emit events for ``expr``; return its symbolic value name."""
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Call):
            return self._emit_call(expr, ret=ret)
        if isinstance(expr, ast.Attribute):
            self.emit_expr(expr.value, ret=ret)
            return dotted_name(expr)
        if isinstance(expr, ast.Lambda):
            # Acquisition thunks (`lambda: server.admit(...)`) run inside
            # resilient-call helpers; attribute their calls to this site.
            return self.emit_expr(expr.body, ret=ret)
        if isinstance(expr, (ast.Await, ast.Starred, ast.UnaryOp)):
            inner = (
                expr.value
                if not isinstance(expr, ast.UnaryOp)
                else expr.operand
            )
            return self.emit_expr(inner, ret=ret)
        if isinstance(expr, ast.IfExp):
            self.emit_expr(expr.test)
            self.emit_expr(expr.body, ret=ret)
            self.emit_expr(expr.orelse, ret=ret)
            return None
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.comprehension, ast.keyword)):
                self._emit_child(child, ret=ret)
        return None

    def _emit_child(self, node: ast.AST, *, ret: bool) -> None:
        if isinstance(node, ast.comprehension):
            self.emit_expr(node.iter)
            for cond in node.ifs:
                self.emit_expr(cond)
        elif isinstance(node, ast.keyword):
            self.emit_expr(node.value, ret=ret)
        elif isinstance(node, ast.expr):
            self.emit_expr(node, ret=ret)

    def _emit_call(self, call: ast.Call, *, ret: bool = False) -> str:
        recv: "str | None" = None
        if isinstance(call.func, ast.Attribute):
            recv = dotted_name(call.func.value)
            attr = call.func.attr
            # Emit receiver-side calls (`foo().bar()` chains).
            if recv is None:
                self.emit_expr(call.func.value)
            name = dotted_name(call.func) or f"?.{attr}"
        elif isinstance(call.func, ast.Name):
            attr = call.func.id
            name = call.func.id
        else:
            self.emit_expr(call.func)
            attr = ""
            name = "?"
        args: "list[str]" = []
        thunk_syms: "list[str]" = []
        for arg in call.args:
            sym = self.emit_expr(arg)
            if sym is not None:
                args.append(sym)
                if isinstance(arg, ast.Lambda):
                    thunk_syms.append(sym)
        for kw in call.keywords:
            sym = self.emit_expr(kw.value)
            if sym is not None:
                args.append(sym)
                if isinstance(kw.value, ast.Lambda):
                    thunk_syms.append(sym)
        bound = self._new_tmp()
        if (
            attr in _CONTAINER_TRANSFER
            and recv is not None
            and "." not in recv
        ):
            bound = recv  # streams.append(acq) moves ownership into streams
        event = CallEvent(
            name=name,
            attr=attr,
            recv=recv,
            bound=bound,
            args=tuple(args),
            line=call.lineno,
            col=call.col_offset,
            ret=ret,
            blocking=self._module.is_blocking(name, attr),
        )
        self.events.append(event)
        # A lambda thunk's value is returned by the resilient-call helper
        # invoking it, so ownership flows thunk-result -> call-result.
        for thunk_sym in thunk_syms:
            self.events.append(AssignEvent(bound, [thunk_sym]))
        return bound

    # -- statements ----------------------------------------------------------------

    def emit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr):
            value = self.emit_expr(stmt.value)
            if (
                isinstance(stmt.value, ast.Call)
                and value is not None
                and value.startswith("%")
            ):
                # A bare expression statement discards the result — unless
                # a thunk assign routed an acquisition into it (that tmp
                # staying bound is exactly how a discarded acquisition is
                # caught holding at EXIT).
                for index in range(len(self.events) - 1, -1, -1):
                    event = self.events[index]
                    if isinstance(event, CallEvent) and event.bound == value:
                        if not any(
                            isinstance(later, AssignEvent)
                            and later.target == value
                            for later in self.events[index + 1 :]
                        ):
                            event.bound = None
                        break
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._emit_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self.emit_expr(stmt.value)
            self._emit_target_effects(stmt.target, [])
        elif isinstance(stmt, ast.Return):
            sym = self.emit_expr(stmt.value, ret=True)
            names = _loaded_names(stmt.value) if stmt.value is not None else []
            if sym is not None and sym.startswith("%"):
                names.append(sym)
            self.events.append(EscapeEvent(names, returned=True))
        elif isinstance(stmt, ast.Raise):
            self.emit_expr(stmt.exc)
            self.emit_expr(stmt.cause)
            self.events.append(RaiseEvent())
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._emit_target_effects(target, [])
        elif isinstance(stmt, ast.Assert):
            self.emit_expr(stmt.test)
            self.emit_expr(stmt.msg)
            self.events.append(RaiseEvent())
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.emit_expr(child)

    def _emit_assign(self, stmt: "ast.Assign | ast.AnnAssign") -> None:
        value = stmt.value
        if value is None:
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        sym = self.emit_expr(value)
        value_names = _loaded_names(value)
        is_call = isinstance(value, ast.Call)
        for target in targets:
            for element in self._flatten_target(target):
                if isinstance(element, ast.Name):
                    if is_call and sym is not None and self.events:
                        self._rebind_last_call(sym, element.id)
                    else:
                        sources = value_names or ([sym] if sym else [])
                        self.events.append(
                            AssignEvent(element.id, [s for s in sources if s])
                        )
                    if element.id in self._module.func_global_decls:
                        if element.id in self._module.mutable_globals:
                            self.events.append(
                                GlobalMutationEvent(
                                    element.id, stmt.lineno, stmt.col_offset
                                )
                            )
                else:
                    self._emit_target_effects(
                        element, value_names + ([sym] if sym else [])
                    )
        # CommitmentState flips live on attribute targets.
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "state"
                and _mentions_state_enum(value)
            ):
                self.events.append(FlipEvent(stmt.lineno, stmt.col_offset))

    def _rebind_last_call(self, tmp: str, var: str) -> None:
        rebound = False
        for event in reversed(self.events):
            if isinstance(event, CallEvent) and event.bound == tmp:
                event.bound = var
                rebound = True
            elif isinstance(event, AssignEvent) and event.target == tmp:
                event.target = var
                rebound = True
        if not rebound:
            self.events.append(AssignEvent(var, [tmp]))

    def _flatten_target(self, target: ast.expr) -> "list[ast.expr]":
        if isinstance(target, (ast.Tuple, ast.List)):
            flat: "list[ast.expr]" = []
            for element in target.elts:
                flat.extend(self._flatten_target(element))
            return flat
        if isinstance(target, ast.Starred):
            return self._flatten_target(target.value)
        return [target]

    def _emit_target_effects(
        self, target: ast.expr, escaping: "list[str]"
    ) -> None:
        """Stores into attributes/subscripts: escapes + ledger/global hits."""
        line = getattr(target, "lineno", 0)
        col = getattr(target, "col_offset", 0)
        node = target
        if isinstance(target, ast.Subscript):
            self.emit_expr(target.slice)
            node = target.value
            if (
                isinstance(node, ast.Name)
                and node.id in self._module.mutable_globals
            ):
                self.events.append(GlobalMutationEvent(node.id, line, col))
        if isinstance(node, ast.Attribute) and node.attr in LEDGER_ATTRS:
            owner = dotted_name(node.value)
            if owner not in ("self", "cls"):
                self.events.append(
                    LedgerMutationEvent(node.attr, owner or "?", line, col)
                )
        if escaping:
            self.events.append(EscapeEvent([s for s in escaping if s]))

    def mark_mutating_method_effects(self) -> None:
        """Post-pass: receiver mutations on globals and foreign ledgers."""
        extra: "list[tuple[int, Event]]" = []
        for index, event in enumerate(self.events):
            if not isinstance(event, CallEvent):
                continue
            if event.attr not in _MUTATING_METHODS or event.recv is None:
                continue
            recv = event.recv
            if "." not in recv and recv in self._module.mutable_globals:
                extra.append(
                    (index, GlobalMutationEvent(recv, event.line, event.col))
                )
                continue
            parts = recv.split(".")
            if len(parts) >= 2 and parts[-1] in LEDGER_ATTRS:
                owner = ".".join(parts[:-1])
                if parts[0] not in ("self", "cls"):
                    extra.append(
                        (
                            index,
                            LedgerMutationEvent(
                                parts[-1], owner, event.line, event.col
                            ),
                        )
                    )
        for offset, (index, event) in enumerate(extra):
            self.events.insert(index + 1 + offset, event)


# -- module scan ----------------------------------------------------------------


class _ModuleScan:
    """Shared per-module state the emitter consults."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.mutable_globals: "dict[str, int]" = {}
        self.func_global_decls: "set[str]" = set()
        self._collect_globals()

    def _collect_globals(self) -> None:
        for stmt in self.ctx.tree.body:
            targets: "list[ast.expr]" = []
            value: "ast.expr | None" = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None:
                continue
            if not self._is_mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not (
                    target.id.startswith("__") and target.id.endswith("__")
                ):
                    self.mutable_globals[target.id] = stmt.lineno

    @staticmethod
    def _is_mutable_value(value: ast.expr) -> bool:
        if isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES:
                return True
        return False

    def is_blocking(self, name: str, attr: str) -> bool:
        resolved = self.ctx.resolve(name) or name
        if resolved in _BLOCKING_DOTTED:
            return True
        if resolved == "open" or name == "open":
            return True
        return attr in _BLOCKING_ATTRS


def _extract_function(
    qualname: str,
    cls: "str | None",
    node: "ast.FunctionDef | ast.AsyncFunctionDef",
    scan: _ModuleScan,
    ctx: ModuleContext,
) -> FuncExtract:
    nodes = build_cfg(node)
    scan.func_global_decls = _global_decls(node)
    for cfg_node in nodes.values():
        cfg_node.events = _node_events(cfg_node.stmt, scan)
    params = tuple(
        arg.arg
        for arg in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
    )
    return FuncExtract(
        qualname=qualname,
        module=ctx.module,
        path=ctx.path,
        is_async=isinstance(node, ast.AsyncFunctionDef),
        cls=cls,
        params=params,
        nodes=nodes,
    )


def _global_decls(node: ast.AST) -> "set[str]":
    names: "set[str]" = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            names.update(sub.names)
    return names


def _node_events(stmt: "ast.AST | None", scan: _ModuleScan) -> "list[Event]":
    emitter = _EventEmitter(scan)
    if isinstance(stmt, (ast.If, ast.While)):
        emitter.emit_expr(stmt.test)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        emitter.emit_expr(stmt.iter)
        iter_names = _loaded_names(stmt.iter)
        for sub in ast.walk(stmt.target):
            if isinstance(sub, ast.Name):
                # "loop" assigns *move* held sites from the iterated
                # container onto the target (and the LOOP_EXIT edge
                # retires the target), so a release loop settles its
                # container exactly.
                emitter.events.append(
                    AssignEvent(sub.id, iter_names, loop=True)
                )
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            sym = emitter.emit_expr(item.context_expr)
            if (
                isinstance(item.optional_vars, ast.Name)
                and isinstance(item.context_expr, ast.Call)
                and sym is not None
            ):
                emitter._rebind_last_call(sym, item.optional_vars.id)
                for event in reversed(emitter.events):
                    if (
                        isinstance(event, CallEvent)
                        and event.bound == item.optional_vars.id
                    ):
                        event.managed = True
                        break
    elif isinstance(stmt, ast.stmt) and not isinstance(
        stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        emitter.emit_stmt(stmt)
    else:
        # Virtual nodes, try and handler heads, and nested definitions
        # (analysed as functions of their own) carry no events.
        return []
    emitter.mark_mutating_method_effects()
    return emitter.events


def _class_table(
    tree: ast.Module,
) -> "dict[str, tuple[list[str], list[str]]]":
    classes: "dict[str, tuple[list[str], list[str]]]" = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [
            name
            for name in (dotted_name(base) for base in node.bases)
            if name is not None
        ]
        methods = [
            child.name
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        classes[node.name] = (bases, methods)
    return classes


def extract_module(ctx: ModuleContext) -> ModuleExtract:
    """Distil one parsed module into its extract."""
    scan = _ModuleScan(ctx)
    extract = ModuleExtract(ctx=ctx, classes=_class_table(ctx.tree))
    for scope in ctx.scopes():
        if not isinstance(scope.node, ast.ClassDef):
            extract.functions[scope.qualname] = _extract_function(
                scope.qualname, scope.cls, scope.node, scan, ctx
            )
    return extract
