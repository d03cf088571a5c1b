"""Property-based DES engine invariants: ordering and determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Deadlock, Simulator


@settings(max_examples=80, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30))
def test_property_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []

    def proc(sim, d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in delays:
        sim.spawn(proc(sim, d))
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == max(delays)


@settings(max_examples=50, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
def test_property_simulation_is_deterministic(delays):
    """The same schedule replayed twice produces identical histories."""

    def run_once():
        sim = Simulator()
        history = []

        def proc(sim, i, d):
            yield sim.timeout(d)
            history.append((sim.now, i))
            yield sim.timeout(d / 2 + 1)
            history.append((sim.now, i))

        for i, d in enumerate(delays):
            sim.spawn(proc(sim, i, d))
        sim.run()
        return history

    assert run_once() == run_once()


@settings(max_examples=50, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=15),
    trigger_at=st.floats(min_value=0.0, max_value=200.0),
)
def test_property_event_wakes_all_waiters_at_trigger_time(delays, trigger_at):
    sim = Simulator()
    ev = sim.event("gate")
    woken = []

    def waiter(sim, i, d):
        yield sim.timeout(d)
        yield ev
        woken.append((i, sim.now))

    def trigger(sim):
        yield sim.timeout(trigger_at)
        ev.trigger()

    for i, d in enumerate(delays):
        sim.spawn(waiter(sim, i, d))
    sim.spawn(trigger(sim))
    sim.run()
    assert len(woken) == len(delays)
    for _i, t in woken:
        # Each waiter resumes at max(its own arrival, the trigger time).
        assert t >= trigger_at or t == max(d for d in delays)
        assert t >= trigger_at - 1e-9 or any(d > trigger_at for d in delays)


@settings(max_examples=40, deadline=None)
@given(
    items=st.lists(st.integers(), min_size=0, max_size=25),
    consumer_head_start=st.booleans(),
)
def test_property_channel_preserves_fifo(items, consumer_head_start):
    sim = Simulator()
    ch = sim.channel("c")
    received = []

    def producer(sim):
        for item in items:
            yield sim.timeout(1)
            ch.put(item)

    def consumer(sim):
        if not consumer_head_start:
            yield sim.timeout(50)
        for _ in items:
            received.append((yield ch.get()))

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert received == items


@settings(max_examples=40, deadline=None)
@given(
    until=st.floats(min_value=1.0, max_value=500.0),
    period=st.floats(min_value=0.5, max_value=50.0),
)
def test_property_run_until_never_overshoots(until, period):
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(period)

    sim.spawn(ticker(sim))
    sim.run(until=until)
    assert sim.now == until


# -- run-ahead differential: default engine vs heap-only oracle ---------------

_DELAYS = st.sampled_from((0, 1, 2, 3, 5))
_OPS = st.one_of(
    st.tuples(st.just("timeout"), _DELAYS),
    st.tuples(st.just("sleep_until"), _DELAYS),
    st.tuples(st.just("advance"), _DELAYS),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("trigger"), st.integers(0, 2)),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.tuples(st.just("get"), st.integers(0, 1)),
    st.tuples(st.just("child"), _DELAYS),
    st.tuples(st.just("yield"), st.just(0)),
)


def _run_program(programs, untils, fast):
    """Run one process per op list, split at ``untils``; return the
    ``(now, process, step)`` history, the outcome of each run call, the
    final clock and the processed-event count."""
    sim = Simulator(fast_now_queue=fast)
    events = [sim.event(f"e{k}") for k in range(3)]
    channels = [sim.channel(f"c{k}") for k in range(2)]
    history = []

    def child(sim, d):
        yield sim.timeout(d)
        yield sim.timeout(d)
        return sim.now

    def proc(sim, pid, ops):
        for step, (kind, arg) in enumerate(ops):
            if kind == "timeout":
                yield sim.timeout(arg)
            elif kind == "sleep_until":
                yield sim.sleep_until(sim.now + arg)
            elif kind == "advance":
                # The hot-path idiom: charge the pause in place, or yield it.
                if not sim.advance(arg):
                    yield sim.timeout(arg)
            elif kind == "wait":
                yield events[arg]
            elif kind == "trigger":
                if not events[arg].triggered:
                    events[arg].trigger(pid)
            elif kind == "put":
                channels[arg].put((pid, step))
            elif kind == "get":
                yield channels[arg].get()
            elif kind == "child":
                yield sim.spawn(child(sim, arg))
            else:
                yield
            history.append((sim.now, pid, step))

    for pid, ops in enumerate(programs):
        sim.spawn(proc(sim, pid, ops), name=f"p{pid}")
    outcomes = []
    for until in sorted(untils) + [None]:
        try:
            sim.run(until=until)
            outcomes.append(("ok", sim.now))
        except Deadlock as exc:
            outcomes.append(("deadlock", str(exc)))
            break
    return history, outcomes, sim.now, sim.events_processed


@settings(max_examples=150, deadline=None)
@given(
    programs=st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=4),
    untils=st.lists(st.integers(0, 30), max_size=3),
)
def test_property_runahead_matches_the_heap_only_engine(programs, untils):
    """Inline resumes and direct advances reproduce the heap-only engine's
    history, clock and event count, however the run is split."""
    assert _run_program(programs, untils, fast=True) == _run_program(
        programs, untils, fast=False
    )
