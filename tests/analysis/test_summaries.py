"""Per-function summaries: seeds, alias closure, SCC propagation.

Whether a function can block is not a summary: REP016 reads each call
site's ``blocking`` flag and walks the call graph, so the blocking
cases below are checked through its findings.
"""

from repro.analysis import LintEngine
from tests.analysis.projutil import project_from


def summaries_of(sources):
    project = project_from(sources)
    return project, project.summaries


def rep016_findings(source):
    return LintEngine(select=["REP016"]).check_source(
        source, path="mod.py", module="mod"
    )


class TestLocalSeeds:
    def test_returning_an_acquisition_is_recorded(self):
        _, summaries = summaries_of(
            {"mod": "def grab(server, spec):\n    return server.admit(spec)\n"}
        )
        assert summaries["mod::grab"].returns_acquisition

    def test_acquisition_consumed_locally_does_not_return_it(self):
        _, summaries = summaries_of(
            {
                "mod": (
                    "def use(server, spec):\n"
                    "    r = server.admit(spec)\n"
                    "    server.release(r)\n"
                    "    return True\n"
                )
            }
        )
        assert not summaries["mod::use"].returns_acquisition

    def test_release_through_an_alias_frees_the_parameter(self):
        _, summaries = summaries_of(
            {
                "mod": (
                    "def free(server, r):\n"
                    "    handle = r\n"
                    "    server.release(handle)\n"
                )
            }
        )
        summary = summaries["mod::free"]
        assert summary.releases_args
        assert "r" in summary.released_params

    def test_explicit_raise_marks_the_function_risky(self):
        _, summaries = summaries_of(
            {
                "mod": (
                    "def check(x):\n"
                    "    if x < 0:\n"
                    "        raise ValueError(x)\n"
                )
            }
        )
        assert summaries["mod::check"].raises

    def test_blocking_primitive_is_detected_with_its_site(self):
        (finding,) = rep016_findings(
            "import os\n"
            "\n"
            "async def sync(fd):\n"
            "    os.fsync(fd)\n"
        )
        assert (finding.line, finding.column) == (4, 4)
        assert finding.message == (
            "blocking call os.fsync() is reachable from async sync directly"
        )


class TestTransitivePropagation:
    def test_releases_args_flows_callee_to_caller(self):
        _, summaries = summaries_of(
            {
                "mod": (
                    "def free(server, r):\n"
                    "    server.release(r)\n"
                    "\n"
                    "def wrapper(server, r):\n"
                    "    free(server, r)\n"
                )
            }
        )
        summary = summaries["mod::wrapper"]
        assert summary.releases_args
        assert "r" in summary.released_params

    def test_journals_and_raises_propagate_up_the_chain(self):
        _, summaries = summaries_of(
            {
                "mod": (
                    "def write(journal, record):\n"
                    "    journal.journal_event(record)\n"
                    "    if record is None:\n"
                    "        raise ValueError(record)\n"
                    "\n"
                    "def middle(journal, record):\n"
                    "    write(journal, record)\n"
                    "\n"
                    "def top(journal, record):\n"
                    "    middle(journal, record)\n"
                )
            }
        )
        assert summaries["mod::top"].journals
        assert summaries["mod::top"].raises

    def test_blocking_propagates_with_the_original_site(self):
        (finding,) = rep016_findings(
            "import time\n"
            "\n"
            "def nap(delay):\n"
            "    time.sleep(delay)\n"
            "\n"
            "def caller(delay):\n"
            "    nap(delay)\n"
            "\n"
            "async def drive(delay):\n"
            "    caller(delay)\n"
        )
        assert (finding.line, finding.column) == (4, 4)
        assert finding.message == (
            "blocking call time.sleep() is reachable from async drive via nap"
        )

    def test_returns_acquisition_is_deliberately_local_only(self):
        # Propagating it transitively would tag every coordinator as a
        # resource source; only the function that talks to the server
        # carries the obligation.
        _, summaries = summaries_of(
            {
                "mod": (
                    "def grab(server, spec):\n"
                    "    return server.admit(spec)\n"
                    "\n"
                    "def coordinator(server, spec):\n"
                    "    return grab(server, spec)\n"
                )
            }
        )
        assert summaries["mod::grab"].returns_acquisition
        assert not summaries["mod::coordinator"].returns_acquisition

    def test_mutual_recursion_converges(self):
        _, summaries = summaries_of(
            {
                "mod": (
                    "def ping(journal, n):\n"
                    "    if n:\n"
                    "        pong(journal, n - 1)\n"
                    "\n"
                    "def pong(journal, n):\n"
                    "    journal.journal_event(n)\n"
                    "    if n:\n"
                    "        ping(journal, n - 1)\n"
                )
            }
        )
        assert summaries["mod::ping"].journals
        assert summaries["mod::pong"].journals
