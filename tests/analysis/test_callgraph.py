"""Project assembly: symbol table, call resolution, SCC ordering."""

import pathlib

from repro.analysis import LintEngine, ModuleContext, iter_python_files
from repro.analysis.callgraph import Project, build_project
from repro.analysis.extract import extract_module
from tests.analysis.projutil import project_from

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestResolution:
    def test_bare_name_resolves_within_the_module(self):
        project = project_from(
            {
                "mod": (
                    "def helper():\n"
                    "    return 1\n"
                    "\n"
                    "def top():\n"
                    "    return helper()\n"
                )
            }
        )
        assert "mod::helper" in project.callees["mod::top"]

    def test_imported_name_resolves_across_modules(self):
        project = project_from(
            {
                "pkg.pool": "def lease(spec):\n    return spec\n",
                "pkg.driver": (
                    "from pkg.pool import lease\n"
                    "\n"
                    "def run(spec):\n"
                    "    return lease(spec)\n"
                ),
            }
        )
        assert "pkg.pool::lease" in project.callees["pkg.driver::run"]

    def test_relative_import_is_anchored_to_the_package(self):
        project = project_from(
            {
                "pkg.pool": "def lease(spec):\n    return spec\n",
                "pkg.driver": (
                    "from .pool import lease\n"
                    "\n"
                    "def run(spec):\n"
                    "    return lease(spec)\n"
                ),
            }
        )
        assert "pkg.pool::lease" in project.callees["pkg.driver::run"]

    def test_self_method_dispatches_through_base_classes(self):
        project = project_from(
            {
                "mod": (
                    "class Base:\n"
                    "    def ping(self):\n"
                    "        return 1\n"
                    "\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.ping()\n"
                )
            }
        )
        assert "mod::Base.ping" in project.callees["mod::Child.run"]

    def test_instantiation_runs_init(self):
        project = project_from(
            {
                "mod": (
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "\n"
                    "def make():\n"
                    "    return C()\n"
                )
            }
        )
        assert "mod::C.__init__" in project.callees["mod::make"]

    def test_unknown_receiver_stays_unresolved(self):
        project = project_from(
            {
                "mod": (
                    "def run(thing):\n"
                    "    return thing.frobnicate()\n"
                )
            }
        )
        assert not project.callees.get("mod::run")


class TestGraphQueries:
    CHAIN = {
        "mod": (
            "def c():\n"
            "    return 1\n"
            "\n"
            "def b():\n"
            "    return c()\n"
            "\n"
            "def a():\n"
            "    return b()\n"
            "\n"
            "def island():\n"
            "    return 0\n"
        )
    }

    def test_reachability_follows_the_chain(self):
        project = project_from(self.CHAIN)
        reachable = project.reachable_from(["mod::a"])
        assert {"mod::a", "mod::b", "mod::c"} <= reachable
        assert "mod::island" not in reachable

    def test_sccs_come_out_callees_first(self):
        project = project_from(self.CHAIN)
        order = [ref for scc in project.sccs_bottom_up() for ref in scc]
        assert order.index("mod::c") < order.index("mod::b")
        assert order.index("mod::b") < order.index("mod::a")

    def test_mutual_recursion_lands_in_one_scc(self):
        project = project_from(
            {
                "mod": (
                    "def even(n):\n"
                    "    return n == 0 or odd(n - 1)\n"
                    "\n"
                    "def odd(n):\n"
                    "    return n != 0 and even(n - 1)\n"
                )
            }
        )
        sccs = [set(scc) for scc in project.sccs_bottom_up()]
        assert {"mod::even", "mod::odd"} in sccs


class TestResolveOnce:
    def test_every_call_site_is_resolved_once_per_run(self, monkeypatch):
        # Summaries and the dataflow rules read CallEvent.target; only
        # build_project may ask Project.resolve_call.
        resolved = []
        resolve = Project.resolve_call

        def counting(self, caller, event):
            resolved.append((caller.ref, event.line, event.col))
            return resolve(self, caller, event)

        monkeypatch.setattr(Project, "resolve_call", counting)
        contexts = [
            ModuleContext.from_path(path)
            for path in iter_python_files([FIXTURES])
        ]
        project = build_project(extract_module(ctx) for ctx in contexts)
        for rule in LintEngine().project_rules:
            rule.run(project)
        sites = [
            (func.ref, event.line, event.col)
            for func in project.functions.values()
            for event in func.call_events()
        ]
        assert sites
        assert sorted(resolved) == sorted(sites)
