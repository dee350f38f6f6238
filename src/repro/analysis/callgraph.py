"""Project-wide symbol table, call graph and function summaries.

Builds the whole-program view the deep rules run over: every function's
:class:`~repro.analysis.extract.FuncExtract` keyed by its project-unique
``module::qualname`` ref, call-site resolution (bare names, imports,
``self.``/``cls.`` dispatch through base classes, class instantiation →
``__init__``), the callee adjacency, Tarjan SCCs in bottom-up order,
and the per-function summaries computed over them.

Every call site is resolved exactly once, here: its
:class:`~repro.analysis.extract.CallEvent` keeps the resolved ref in
``target``, and every later pass reads that instead of resolving again.

Resolution is deliberately *static and conservative*: a call through a
local variable of unknown type stays unresolved and is handled by the
marker heuristics in :mod:`repro.analysis.summaries` instead of being
guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .extract import CallEvent, FuncExtract, ModuleExtract
from .summaries import FuncSummary, compute_summaries

__all__ = ["Project", "build_project"]


@dataclass(slots=True)
class Project:
    """The resolved whole-program view handed to deep rules."""

    # path -> module extract (iteration order = engine file order)
    modules: "dict[str, ModuleExtract]" = field(default_factory=dict)
    # "module::qualname" -> function extract
    functions: "dict[str, FuncExtract]" = field(default_factory=dict)
    # dotted module name -> the first module extract of that name
    _by_module: "dict[str, ModuleExtract]" = field(default_factory=dict)
    # absolute dotted name ("repro.core.offers.rank") -> ref
    _by_dotted: "dict[str, str]" = field(default_factory=dict)
    # absolute dotted class name -> (module, class name)
    _classes: "dict[str, tuple[str, str]]" = field(default_factory=dict)
    # ref -> sorted resolved callee refs
    callees: "dict[str, list[str]]" = field(default_factory=dict)
    # ref -> resource summary (filled once the call graph is resolved)
    summaries: "dict[str, FuncSummary]" = field(default_factory=dict)

    # -- resolution ------------------------------------------------------------

    def resolve_call(self, caller: FuncExtract, event: CallEvent) -> "str | None":
        """Resolve one call site to a project function ref, or ``None``."""
        name = event.name
        if not name or name.startswith("?"):
            return None
        parts = name.split(".")
        if parts[0] in ("self", "cls"):
            if len(parts) != 2 or caller.cls is None:
                return None
            return self._resolve_method(caller.module, caller.cls, parts[1])
        dotted = self._absolute(self.modules[caller.path], name)
        if dotted is None:
            return None
        ref = self._by_dotted.get(dotted)
        if ref is not None:
            return ref
        # Class instantiation runs its __init__.
        cls_home = self._classes.get(dotted)
        if cls_home is not None:
            return self._resolve_method(cls_home[0], cls_home[1], "__init__")
        return None

    def _absolute(self, module: ModuleExtract, name: str) -> "str | None":
        imported = module.ctx.resolve(name)
        if imported is not None:
            return imported
        # Same-module function/class (including nested qualnames).
        local = f"{module.module}.{name}"
        if local in self._by_dotted or local in self._classes:
            return local
        return None

    def _resolve_method(
        self, module: str, cls: str, method: str, _depth: int = 0
    ) -> "str | None":
        if _depth > 8:  # cyclic/deep inheritance backstop
            return None
        extract = self._by_module.get(module)
        if extract is None:
            return None
        info = extract.classes.get(cls)
        if info is None:
            return None
        bases, methods = info
        if method in methods:
            return f"{module}::{cls}.{method}"
        for base in bases:
            dotted = self._absolute(extract, base)
            home = self._classes.get(dotted) if dotted else None
            if home is not None:
                found = self._resolve_method(
                    home[0], home[1], method, _depth + 1
                )
                if found is not None:
                    return found
        return None

    # -- graph queries ---------------------------------------------------------

    def reachable_from(self, roots: "Iterable[str]") -> "set[str]":
        seen: "set[str]" = set()
        stack = [ref for ref in roots if ref in self.functions]
        while stack:
            ref = stack.pop()
            if ref in seen:
                continue
            seen.add(ref)
            stack.extend(self.callees.get(ref, ()))
        return seen

    def sccs_bottom_up(self) -> "list[list[str]]":
        """Tarjan SCCs, callees-before-callers (summary evaluation order)."""
        index_of: "dict[str, int]" = {}
        low: "dict[str, int]" = {}
        on_stack: "set[str]" = set()
        stack: "list[str]" = []
        sccs: "list[list[str]]" = []
        counter = [0]

        def strongconnect(root: str) -> None:
            # Iterative Tarjan (fixture packages can recurse deeply).
            work: "list[tuple[str, int]]" = [(root, 0)]
            while work:
                node, edge_index = work[-1]
                if edge_index == 0:
                    index_of[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                edges = self.callees.get(node, [])
                while edge_index < len(edges):
                    succ = edges[edge_index]
                    edge_index += 1
                    if succ not in index_of:
                        work[-1] = (node, edge_index)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index_of[node]:
                    component: "list[str]" = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(sorted(component))

        for ref in sorted(self.functions):
            if ref not in index_of:
                strongconnect(ref)
        # Tarjan emits components in reverse topological order already:
        # every SCC is appended only after all SCCs it can reach.
        return sccs


def build_project(extracts: "Iterable[ModuleExtract]") -> Project:
    """Assemble the symbol table, resolve every call site once, and
    summarise every function over the resulting call graph."""
    project = Project()
    for extract in extracts:
        project.modules[extract.path] = extract
        project._by_module.setdefault(extract.module, extract)
        for func in extract.functions.values():
            project.functions[func.ref] = func
            project._by_dotted[f"{extract.module}.{func.qualname}"] = func.ref
        for cls in extract.classes:
            project._classes[f"{extract.module}.{cls}"] = (extract.module, cls)
    for ref, func in project.functions.items():
        resolved: "set[str]" = set()
        for event in func.call_events():
            event.target = project.resolve_call(func, event)
            if event.target is not None and event.target != ref:
                resolved.add(event.target)
        project.callees[ref] = sorted(resolved)
    project.summaries = compute_summaries(project)
    return project
