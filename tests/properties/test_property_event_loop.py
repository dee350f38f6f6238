"""The event loop's firing order against a plain-list reference.

Firing order is the determinism contract behind every same-seed
artifact: the scheduler's pump, every wake-up, every periodic monitor
and every fault window is an event on one :class:`EventLoop`.  A random
script of ``at`` / ``after`` / ``every(until=…)`` / ``cancel`` /
``run_until`` / ``run`` — with callbacks that schedule more events,
some at the instant they fire — is played on the loop and on
:class:`tests.oracle.ReferenceEventLoop`, which picks each next event
by :func:`tests.oracle.reference_firing_order`.  The two must log the
same firings with the same clock reads, the same ``pending`` counts
after every step and the same final clock.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.session.engine import EventLoop

from ..oracle import ReferenceEventLoop

# A coarse grid of exact binary fractions, so ties are common and no
# sum ever rounds, plus one round-off below now, which fires at now.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
OFFSETS = st.sampled_from([-1e-13, 0.0, 0.25, 0.5, 1.0, 2.0])
PERIODS = st.sampled_from([0.25, 0.5, 1.0])
CHILDREN = st.lists(OFFSETS, max_size=3)

OPS = st.one_of(
    st.tuples(st.just("at"), OFFSETS, CHILDREN),
    st.tuples(st.just("after"), DELAYS, CHILDREN),
    st.tuples(st.just("every"), PERIODS, st.sampled_from([0.0, 0.5, 1.0, 3.0])),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("run_until"), OFFSETS),
    st.tuples(st.just("run")),
)


def play(loop, script):
    """Run ``script`` on ``loop``; the log of what it observed."""
    log = []
    handles = []

    def event(name, children):
        def fire():
            log.append(("fire", name, loop.now))
            for n, offset in enumerate(children):
                handles.append(
                    loop.at(loop.now + offset, event(f"{name}.{n}", ()))
                )

        return fire

    for index, (op, *args) in enumerate(script):
        name = f"e{index}"
        if op == "at":
            offset, children = args
            handles.append(loop.at(loop.now + offset, event(name, children)))
        elif op == "after":
            delay, children = args
            handles.append(loop.after(delay, event(name, children)))
        elif op == "every":
            period, span = args
            loop.every(period, event(name, ()), until=loop.now + span)
        elif op == "cancel":
            if handles:
                handles[args[0] % len(handles)].cancel()
        elif op == "run_until":
            loop.run_until(loop.now + args[0])
            log.append(("run_until", loop.now))
        else:
            loop.run()
            log.append(("run", loop.now))
        log.append(("pending", loop.pending))
    loop.run()
    log.append(("end", loop.now))
    return log


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=25))
@example([("at", 0.0, [0.0, 0.0]), ("at", 0.0, [0.0]), ("run_until", 0.0)])
@example([("every", 0.5, 1.0), ("at", 0.5, [0.0]), ("cancel", 0), ("run",)])
@example([("at", 0.25, [-1e-13, 0.0]), ("at", 0.25, []), ("run",)])
def test_firing_order_matches_the_reference(script):
    loop = EventLoop()
    observed = play(loop, script)
    assert observed == play(ReferenceEventLoop(), script)
    assert loop.processed == sum(1 for entry in observed if entry[0] == "fire")
