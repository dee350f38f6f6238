"""Project-wide symbol table and call graph.

Builds the whole-program view the deep rules run over: every function's
:class:`~repro.analysis.extract.FuncExtract` keyed by its project-unique
``module::qualname`` ref, call-site resolution (bare names, imports,
``self.``/``cls.`` dispatch through base classes, class instantiation →
``__init__``), the caller/callee adjacency, and Tarjan SCCs in
bottom-up order so summaries can be computed with one fixpoint pass per
strongly-connected component.

Resolution is deliberately *static and conservative*: a call through a
local variable of unknown type stays unresolved and is handled by the
marker heuristics in :mod:`repro.analysis.summaries` instead of being
guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .extract import CallEvent, FuncExtract, ModuleExtract

__all__ = ["Project", "build_project"]


@dataclass(slots=True)
class Project:
    """The resolved whole-program view handed to deep rules."""

    # path -> module extract (iteration order = engine file order)
    modules: "dict[str, ModuleExtract]" = field(default_factory=dict)
    # "module::qualname" -> function extract
    functions: "dict[str, FuncExtract]" = field(default_factory=dict)
    # absolute dotted name ("repro.core.offers.rank") -> ref
    _by_dotted: "dict[str, str]" = field(default_factory=dict)
    # absolute dotted class name -> (module, class name)
    _classes: "dict[str, tuple[str, str]]" = field(default_factory=dict)
    # ref -> sorted resolved callee refs
    callees: "dict[str, list[str]]" = field(default_factory=dict)
    # ref -> sorted caller refs
    callers: "dict[str, list[str]]" = field(default_factory=dict)
    # scratch space for memoized per-run analyses (summaries, leak sets)
    analysis_cache: "dict[str, object]" = field(default_factory=dict)

    def summaries(self) -> "dict[str, object]":
        """Per-function resource summaries, computed once per project."""
        cached = self.analysis_cache.get("summaries")
        if cached is None:
            from .summaries import compute_summaries

            cached = compute_summaries(self)
            self.analysis_cache["summaries"] = cached
        return cached  # type: ignore[return-value]

    def classifier(self) -> "object":
        """Shared call classifier over this project's summaries."""
        cached = self.analysis_cache.get("classifier")
        if cached is None:
            from .dataflow import CallClassifier

            cached = CallClassifier(self, self.summaries())  # type: ignore[arg-type]
            self.analysis_cache["classifier"] = cached
        return cached

    def module_named(self, name: str) -> "ModuleExtract | None":
        for extract in self.modules.values():
            if extract.module == name:
                return extract
        return None

    def iter_functions(self) -> "Iterator[FuncExtract]":
        for ref in sorted(self.functions):
            yield self.functions[ref]

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
        module = self._module_of(caller)
        dotted = self._absolute(module, name)
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

    def _module_of(self, func: FuncExtract) -> "ModuleExtract | None":
        extract = self.modules.get(func.path)
        if extract is not None:
            return extract
        return self.module_named(func.module)

    def _absolute(
        self, module: "ModuleExtract | None", name: str
    ) -> "str | None":
        parts = name.split(".")
        if module is None:
            return None
        target = module.imports.get(parts[0])
        if target is not None:
            return ".".join([target] + parts[1:])
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
        extract = self.module_named(module)
        if extract is None:
            return None
        info = extract.classes.get(cls)
        if info is None:
            return None
        if method in info["methods"]:
            return f"{module}::{cls}.{method}"
        for base in info["bases"]:
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
    """Assemble the symbol table and call graph from module extracts."""
    project = Project()
    for extract in extracts:
        project.modules[extract.path] = extract
        for func in extract.functions.values():
            project.functions[func.ref] = func
            project._by_dotted[f"{extract.module}.{func.qualname}"] = func.ref
        for cls in extract.classes:
            project._classes[f"{extract.module}.{cls}"] = (extract.module, cls)
    for ref, func in project.functions.items():
        resolved: "set[str]" = set()
        for event in func.call_events():
            target = project.resolve_call(func, event)
            if target is not None and target != ref:
                resolved.add(target)
        project.callees[ref] = sorted(resolved)
    for ref, targets in project.callees.items():
        for target in targets:
            project.callers.setdefault(target, []).append(ref)
    for ref in project.callers:
        project.callers[ref].sort()
    return project
