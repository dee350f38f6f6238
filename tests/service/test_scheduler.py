"""The seeded cooperative scheduler: determinism, sleeps, failures."""

import pytest

from repro.service import (
    CooperativeScheduler,
    Sleep,
    Switch,
    TaskState,
)
from repro.session import EventLoop
from repro.util.clock import ManualClock
from repro.util.errors import SessionError, ValidationError
from repro.util.rng import make_rng


@pytest.fixture
def loop():
    return EventLoop(ManualClock())


def sched(loop, seed=0):
    return CooperativeScheduler(loop, seed=seed)


def trace_task(trace, name, ops):
    for op in ops:
        trace.append(name)
        yield op
    trace.append(name)
    return name


class TestOps:
    def test_sleep_rejects_negative_delay(self):
        with pytest.raises(ValidationError):
            Sleep(-0.1)

    def test_spawn_rejects_non_generator(self, loop):
        with pytest.raises(SessionError):
            sched(loop).spawn("bad", lambda: None)

    def test_unknown_yield_op_is_an_error(self, loop):
        def task():
            yield "nonsense"

        sched(loop).spawn("weird", task())
        with pytest.raises(SessionError, match="expected Sleep or Switch"):
            loop.run()


class TestDeterminism:
    def run_interleaving(self, seed):
        loop = EventLoop(ManualClock())
        scheduler = sched(loop, seed=seed)
        trace = []
        for name in ("a", "b", "c"):
            scheduler.spawn(
                name, trace_task(trace, name, [Switch(), Switch()])
            )
        loop.run()
        return trace

    def test_same_seed_same_interleaving(self):
        assert self.run_interleaving(3) == self.run_interleaving(3)

    def test_some_seed_changes_the_interleaving(self):
        baseline = self.run_interleaving(0)
        assert any(
            self.run_interleaving(seed) != baseline for seed in range(1, 8)
        ), "eight seeds produced the identical interleaving"

    def test_every_interleaving_completes_every_task(self):
        for seed in range(5):
            trace = self.run_interleaving(seed)
            # 3 tasks x (2 yields + 1 final append)
            assert len(trace) == 9
            assert {trace.count(n) for n in "abc"} == {3}

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_a_one_task_draw_moves_no_state(self, seed):
        # The pump skips the draw when one task is ready.  That is exact
        # only while a draw over [0, 1) returns 0 and consumes nothing:
        # a NumPy that breaks this must fail here, not silently move
        # every interleaving.
        drawn, fresh = make_rng(seed), make_rng(seed)
        assert [int(drawn.integers(0, 1)) for _ in range(1000)] == [0] * 1000
        assert drawn.integers(0, 1 << 30, size=8).tolist() == (
            fresh.integers(0, 1 << 30, size=8).tolist()
        )
        assert drawn.integers(0, 3) == fresh.integers(0, 3)


class TestSleepAndSwitch:
    def test_sleep_advances_simulated_time(self, loop):
        stamps = []

        def task():
            stamps.append(loop.now)
            yield Sleep(2.5)
            stamps.append(loop.now)

        sched(loop).spawn("sleeper", task())
        loop.run()
        assert stamps == [0.0, 2.5]

    def test_switch_does_not_advance_time(self, loop):
        stamps = []

        def task():
            stamps.append(loop.now)
            yield Switch()
            stamps.append(loop.now)

        sched(loop).spawn("switcher", task())
        loop.run()
        assert stamps == [0.0, 0.0]

    def test_stats_count_switches_and_sleeps(self, loop):
        scheduler = sched(loop)

        def task():
            yield Switch()
            yield Sleep(0.1)
            yield Switch()

        scheduler.spawn("t", task())
        loop.run()
        assert scheduler.stats.switches == 2
        assert scheduler.stats.sleeps == 1
        assert scheduler.stats.spawned == 1
        assert scheduler.stats.completed == 1


class TestCompletion:
    def test_on_done_receives_the_return_value(self, loop):
        results = []

        def task():
            yield Switch()
            return 42

        sched(loop).spawn(
            "t", task(), on_done=lambda handle: results.append(handle.result)
        )
        loop.run()
        assert results == [42]

    def test_handle_reaches_done_state(self, loop):
        def task():
            yield Switch()
            return "x"

        handle = sched(loop).spawn("t", task())
        assert handle.state is TaskState.RUNNING
        loop.run()
        assert handle.state is TaskState.DONE
        assert handle.finished
        assert handle.result == "x"


class TestFailure:
    def test_task_error_propagates_and_marks_the_handle(self, loop):
        def bad():
            yield Switch()
            raise RuntimeError("boom")

        scheduler = sched(loop)
        handle = scheduler.spawn("bad", bad())
        with pytest.raises(RuntimeError, match="boom"):
            loop.run()
        assert handle.state is TaskState.FAILED
        assert isinstance(handle.error, RuntimeError)
        assert scheduler.stats.failed == 1

    def test_survivors_resume_after_a_caught_failure(self, loop):
        """The pump re-arms before re-raising, so a catch-and-recover
        driver can keep draining the other tasks."""
        done = []

        def bad():
            raise RuntimeError("boom")
            yield Switch()  # pragma: no cover

        def good():
            yield Sleep(0.5)
            done.append("good")

        scheduler = sched(loop)
        scheduler.spawn("good", good())
        scheduler.spawn("bad", bad())
        for _ in range(10):
            try:
                loop.run()
                break
            except RuntimeError:
                continue
        assert done == ["good"]
        assert scheduler.stats.completed == 1
        assert scheduler.stats.failed == 1
