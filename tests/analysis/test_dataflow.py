"""Dataflow over the CFG: leak sites and journal domination."""

from repro.analysis.dataflow import leak_sites, unjournaled_flips
from tests.analysis.projutil import project_from


def leaks_of(sources, ref):
    project = project_from(sources)
    func = project.functions[ref]
    return leak_sites(func, project.summaries)


class TestExitLeaks:
    def test_unreleased_acquisition_leaks_at_exit(self):
        exit_leaks, raise_leaks = leaks_of(
            {
                "mod": (
                    "def run(server, spec):\n"
                    "    stream = server.admit(spec)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert [var for var, _l, _c in exit_leaks] == ["stream"]
        assert raise_leaks == []

    def test_release_settles_the_site(self):
        exit_leaks, raise_leaks = leaks_of(
            {
                "mod": (
                    "def run(server, spec):\n"
                    "    stream = server.admit(spec)\n"
                    "    server.release(stream)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert (exit_leaks, raise_leaks) == ([], [])

    def test_returning_the_acquisition_transfers_ownership(self):
        exit_leaks, _ = leaks_of(
            {
                "mod": (
                    "def grab(server, spec):\n"
                    "    stream = server.admit(spec)\n"
                    "    return stream\n"
                )
            },
            "mod::grab",
        )
        assert exit_leaks == []

    def test_rebinding_drops_the_old_site_on_the_normal_path(self):
        # Deliberate under-approximation: a rebind may follow an
        # ownership hand-off the analysis cannot see, so the old site is
        # dropped (no REP012) — but the *exceptional* edge of the second
        # admit still carries it: if that admit raises, the first
        # reservation really does leak.
        exit_leaks, raise_leaks = leaks_of(
            {
                "mod": (
                    "def run(server, a, b):\n"
                    "    stream = server.admit(a)\n"
                    "    stream = server.admit(b)\n"
                    "    server.release(stream)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert exit_leaks == []
        assert [line for _v, line, _c in raise_leaks] == [2]

    def test_an_alias_keeps_a_rebound_site_alive(self):
        exit_leaks, _ = leaks_of(
            {
                "mod": (
                    "def run(server, a, b):\n"
                    "    stream = server.admit(a)\n"
                    "    kept = stream\n"
                    "    stream = server.admit(b)\n"
                    "    server.release(stream)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert [(var, line) for var, line, _c in exit_leaks] == [("kept", 2)]

    def test_releasing_one_alias_settles_every_alias(self):
        exit_leaks, _ = leaks_of(
            {
                "mod": (
                    "def run(server, spec):\n"
                    "    stream = server.admit(spec)\n"
                    "    handle = stream\n"
                    "    server.release(handle)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert exit_leaks == []

    def test_interprocedural_release_through_a_helper(self):
        exit_leaks, _ = leaks_of(
            {
                "mod": (
                    "def free(server, r):\n"
                    "    server.release(r)\n"
                    "\n"
                    "def run(server, spec):\n"
                    "    stream = server.admit(spec)\n"
                    "    free(server, stream)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert exit_leaks == []


class TestRaiseLeaks:
    def test_risky_call_carries_held_state_to_the_raise_exit(self):
        exit_leaks, raise_leaks = leaks_of(
            {
                "mod": (
                    "def validate(spec):\n"
                    "    if spec is None:\n"
                    "        raise ValueError(spec)\n"
                    "\n"
                    "def run(server, spec):\n"
                    "    stream = server.admit(spec)\n"
                    "    validate(spec)\n"
                    "    server.release(stream)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert exit_leaks == []
        assert [var for var, _l, _c in raise_leaks] == ["stream"]

    def test_handler_rollback_clears_the_raise_path(self):
        exit_leaks, raise_leaks = leaks_of(
            {
                "mod": (
                    "def validate(spec):\n"
                    "    if spec is None:\n"
                    "        raise ValueError(spec)\n"
                    "\n"
                    "def run(server, spec):\n"
                    "    stream = server.admit(spec)\n"
                    "    try:\n"
                    "        validate(spec)\n"
                    "    except ValueError:\n"
                    "        server.rollback(stream)\n"
                    "        raise\n"
                    "    server.release(stream)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        assert (exit_leaks, raise_leaks) == ([], [])

    def test_non_risky_statements_do_not_fabricate_leak_paths(self):
        # tuple() and unresolved telemetry calls get conservative CFG
        # edges, but the dataflow only follows edges from statements
        # that can demonstrably raise.
        exit_leaks, raise_leaks = leaks_of(
            {
                "mod": (
                    "def run(server, spec, telemetry):\n"
                    "    stream = server.admit(spec)\n"
                    "    snapshot = tuple()\n"
                    "    telemetry.count(spec)\n"
                    "    server.release(stream)\n"
                    "    return snapshot\n"
                )
            },
            "mod::run",
        )
        assert (exit_leaks, raise_leaks) == ([], [])

    def test_mid_loop_failure_leaks_the_earlier_acquisitions(self):
        exit_leaks, raise_leaks = leaks_of(
            {
                "mod": (
                    "def run(server, specs):\n"
                    "    taken = []\n"
                    "    for spec in specs:\n"
                    "        r = server.admit(spec)\n"
                    "        taken.append(r)\n"
                    "    for r in taken:\n"
                    "        server.release(r)\n"
                    "    return True\n"
                )
            },
            "mod::run",
        )
        # Normal path: everything acquired is released through the
        # container alias; exceptional path: an admit failing mid-loop
        # leaves the earlier iterations' reservations held.
        assert exit_leaks == []
        assert raise_leaks


class TestUnjournaledFlips:
    FLAGGING = (
        "class CommitmentState:\n"
        "    COMMITTED = 'committed'\n"
        "\n"
        "class Commitment:\n"
        "    def commit(self, urgent):\n"
        "        if not urgent:\n"
        "            self._journal.journal_event('commit')\n"
        "        self.state = CommitmentState.COMMITTED\n"
    )
    PASSING = (
        "class CommitmentState:\n"
        "    COMMITTED = 'committed'\n"
        "\n"
        "class Commitment:\n"
        "    def commit(self):\n"
        "        self._journal.journal_event('commit')\n"
        "        self.state = CommitmentState.COMMITTED\n"
    )

    def test_branch_that_skips_the_journal_is_flagged(self):
        project = project_from({"mod": self.FLAGGING})
        func = project.functions["mod::Commitment.commit"]
        flips = unjournaled_flips(func, project.summaries)
        assert [flip.line for flip in flips] == [8]

    def test_dominating_journal_write_is_clean(self):
        project = project_from({"mod": self.PASSING})
        func = project.functions["mod::Commitment.commit"]
        assert unjournaled_flips(func, project.summaries) == []
