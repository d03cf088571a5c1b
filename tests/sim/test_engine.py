"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Channel, Deadlock, Event, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(42.5)
        return sim.now

    assert sim.run_process(proc(sim)) == 42.5
    assert sim.now == 42.5


def test_zero_timeout_is_legal():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0)
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_sequential_timeouts_accumulate():
    sim = Simulator()

    def proc(sim):
        for _ in range(5):
            yield sim.timeout(10)
        return sim.now

    assert sim.run_process(proc(sim)) == 50


def test_two_processes_interleave_in_time_order():
    sim = Simulator()
    order = []

    def a(sim):
        yield sim.timeout(5)
        order.append(("a", sim.now))
        yield sim.timeout(10)
        order.append(("a", sim.now))

    def b(sim):
        yield sim.timeout(7)
        order.append(("b", sim.now))

    sim.spawn(a(sim))
    sim.spawn(b(sim))
    sim.run()
    assert order == [("a", 5), ("b", 7), ("a", 15)]


def test_event_wakes_waiter_with_value():
    sim = Simulator()

    def trigger(sim, ev):
        yield sim.timeout(3)
        ev.trigger("hello")

    def waiter(sim, ev):
        value = yield ev
        return (sim.now, value)

    ev = Event(sim)
    sim.spawn(trigger(sim, ev))
    p = sim.spawn(waiter(sim, ev))
    sim.run()
    assert p.value == (3, "hello")


def test_yield_on_already_triggered_event_returns_immediately():
    sim = Simulator()
    ev = Event(sim)
    ev.trigger(99)

    def waiter(sim, ev):
        value = yield ev
        return (sim.now, value)

    assert sim.run_process(waiter(sim, ev)) == (0.0, 99)


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()


def test_event_reset_allows_retrigger():
    sim = Simulator()
    ev = Event(sim)
    ev.trigger(1)
    ev.reset()
    assert not ev.triggered
    ev.trigger(2)
    assert ev.value == 2


def test_event_reset_with_waiters_raises():
    sim = Simulator()
    ev = Event(sim)

    def waiter(sim, ev):
        yield ev

    sim.spawn(waiter(sim, ev))
    sim.run()  # waiter parks on the event
    with pytest.raises(SimulationError):
        ev.reset()


def test_multiple_waiters_all_woken():
    sim = Simulator()
    ev = Event(sim)
    results = []

    def waiter(sim, ev, tag):
        value = yield ev
        results.append((tag, value))

    for i in range(4):
        sim.spawn(waiter(sim, ev, i))

    def trigger(sim, ev):
        yield sim.timeout(1)
        ev.trigger("x")

    sim.spawn(trigger(sim, ev))
    sim.run()
    assert sorted(results) == [(0, "x"), (1, "x"), (2, "x"), (3, "x")]


def test_wait_on_process_gets_return_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(8)
        return "done"

    def parent(sim):
        c = sim.spawn(child(sim))
        value = yield c
        return (sim.now, value)

    assert sim.run_process(parent(sim), name="parent") == (8, "done")


def test_wait_on_finished_process_returns_immediately():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1)
        return 7

    def parent(sim, c):
        yield sim.timeout(10)
        value = yield c
        return (sim.now, value)

    c = sim.spawn(child(sim))
    p = sim.spawn(parent(sim, c))
    sim.run()
    assert p.value == (10, 7)


def test_process_kill_stops_execution():
    sim = Simulator()
    hits = []

    def forever(sim):
        while True:
            yield sim.timeout(1)
            hits.append(sim.now)

    def killer(sim, victim):
        yield sim.timeout(3.5)
        victim.kill()

    victim = sim.spawn(forever(sim))
    sim.spawn(killer(sim, victim))
    sim.run()
    assert hits == [1, 2, 3]
    assert not victim.alive


def test_uncaught_exception_propagates():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1)
        raise ValueError("boom")

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_yield_unsupported_object_raises():
    sim = Simulator()

    def bad(sim):
        yield 12345

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def ticker(sim):
        while True:
            yield sim.timeout(10)

    sim.spawn(ticker(sim))
    sim.run(until=35)
    assert sim.now == 35


def test_run_until_deadlock_detected():
    sim = Simulator()

    def stuck(sim):
        yield Event(sim)  # never triggered

    sim.spawn(stuck(sim))
    with pytest.raises(Deadlock):
        sim.run(until=100)


def test_channel_fifo_order():
    sim = Simulator()
    ch = Channel(sim)
    got = []

    def producer(sim, ch):
        for i in range(3):
            yield sim.timeout(1)
            ch.put(i)

    def consumer(sim, ch):
        for _ in range(3):
            item = yield ch.get()
            got.append((sim.now, item))

    sim.spawn(producer(sim, ch))
    sim.spawn(consumer(sim, ch))
    sim.run()
    assert got == [(1, 0), (2, 1), (3, 2)]


def test_channel_get_before_put_blocks():
    sim = Simulator()
    ch = Channel(sim)

    def consumer(sim, ch):
        item = yield ch.get()
        return (sim.now, item)

    def producer(sim, ch):
        yield sim.timeout(50)
        ch.put("late")

    c = sim.spawn(consumer(sim, ch))
    sim.spawn(producer(sim, ch))
    sim.run()
    assert c.value == (50, "late")


def test_channel_buffers_when_no_getter():
    sim = Simulator()
    ch = Channel(sim)
    ch.put(1)
    ch.put(2)
    assert len(ch) == 2

    def consumer(sim, ch):
        a = yield ch.get()
        b = yield ch.get()
        return [a, b]

    assert sim.run_process(consumer(sim, ch)) == [1, 2]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    evs = [Event(sim) for _ in range(3)]

    def trigger(sim, ev, t, v):
        yield sim.timeout(t)
        ev.trigger(v)

    for i, ev in enumerate(evs):
        sim.spawn(trigger(sim, ev, 10 * (i + 1), i))

    def waiter(sim):
        values = yield sim.all_of(evs)
        return (sim.now, values)

    assert sim.run_process(waiter(sim)) == (30, [0, 1, 2])


def test_all_of_empty_triggers_immediately():
    sim = Simulator()

    def waiter(sim):
        values = yield sim.all_of([])
        return values

    assert sim.run_process(waiter(sim)) == []


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in ["first", "second", "third"]:
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_zero_delay_wakeups_run_after_pending_same_time_events():
    """A zero-delay wakeup scheduled while processing time t must not
    overtake events already queued for t (schedule order is global)."""
    sim = Simulator()
    order = []
    ev = Event(sim)

    def waiter(sim):
        yield ev  # resumed with zero delay when triggered at t=5
        order.append("woken")

    def trigger(sim):
        yield sim.timeout(5)
        ev.trigger()
        order.append("trigger")

    def bystander(sim):
        yield sim.timeout(5)  # queued for t=5 after trigger, before wakeup
        order.append("bystander")

    sim.spawn(waiter(sim))
    sim.spawn(trigger(sim))
    sim.spawn(bystander(sim))
    sim.run()
    assert order == ["trigger", "bystander", "woken"]


def test_zero_timeout_chain_preserves_schedule_order():
    """Cascades of timeout(0) at one instant run in the order scheduled."""
    sim = Simulator()
    order = []

    def chain(sim, tag, depth):
        for i in range(depth):
            yield sim.timeout(0)
            order.append((tag, i))

    sim.spawn(chain(sim, "a", 3))
    sim.spawn(chain(sim, "b", 3))
    sim.run()
    assert order == [
        ("a", 0), ("b", 0),
        ("a", 1), ("b", 1),
        ("a", 2), ("b", 2),
    ]
    assert sim.now == 0.0


def test_event_reset_reuse_across_rounds():
    """Trigger/reset cycles deliver each round's value exactly once,
    provided the consumer re-waits only after the producer re-arms
    (yielding a still-triggered event resumes immediately by design)."""
    sim = Simulator()
    ev = Event(sim)
    got = []

    def consumer(sim):
        for _ in range(3):
            got.append((yield ev))
            yield sim.timeout(5)  # skip past the producer's reset point

    def producer(sim):
        for value in ["x", "y", "z"]:
            yield sim.timeout(10)
            ev.trigger(value)
            yield sim.timeout(1)  # waiter drained at trigger time; re-arm
            ev.reset()

    sim.spawn(consumer(sim))
    sim.spawn(producer(sim))
    sim.run()
    assert got == ["x", "y", "z"]


def test_yield_still_triggered_event_resumes_immediately_with_value():
    """Level-triggered: re-waiting before reset() re-delivers the value."""
    sim = Simulator()
    ev = Event(sim)
    ev.trigger("v")

    def waiter(sim):
        first = yield ev
        second = yield ev
        return (first, second, sim.now)

    assert sim.run_process(waiter(sim)) == ("v", "v", 0.0)


def test_all_of_with_already_triggered_events():
    sim = Simulator()
    pre = Event(sim)
    pre.trigger("early")
    late = Event(sim)

    def trigger(sim):
        yield sim.timeout(4)
        late.trigger("late")

    def waiter(sim):
        values = yield sim.all_of([pre, late])
        return (sim.now, values)

    sim.spawn(trigger(sim))
    assert sim.run_process(waiter(sim)) == (4, ["early", "late"])


def test_all_of_all_pretriggered_completes_at_current_time():
    sim = Simulator()
    evs = [Event(sim) for _ in range(3)]
    for i, ev in enumerate(evs):
        ev.trigger(i)

    def waiter(sim):
        values = yield sim.all_of(evs)
        return (sim.now, values)

    assert sim.run_process(waiter(sim)) == (0.0, [0, 1, 2])


def test_bare_yield_reschedules_same_time():
    sim = Simulator()

    def proc(sim):
        yield None
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


def test_nested_process_spawning():
    sim = Simulator()

    def leaf(sim, d):
        yield sim.timeout(d)
        return d

    def parent(sim):
        total = 0
        for d in [1, 2, 3]:
            total += yield sim.spawn(leaf(sim, d))
        return (sim.now, total)

    assert sim.run_process(parent(sim)) == (6, 6)


# -- exact-lookahead run-ahead -------------------------------------------------
#
# Each scenario runs on the default simulator and on the heap-only one
# (``fast_now_queue=False``, which never runs ahead): the two must agree
# on the history, the clock and ``events_processed``, and the default
# one must have ended some pauses inline (fewer dispatched events).


def _both_engines(scenario):
    """``scenario(sim)`` on both engines: ``[(result, now, events)]``."""
    outcomes = []
    for fast in (True, False):
        sim = Simulator(fast_now_queue=fast)
        result = scenario(sim)
        outcomes.append((result, sim.now, sim.events_processed, sim.events_dispatched))
    (fast_out, slow_out) = outcomes
    assert fast_out[:3] == slow_out[:3]
    assert fast_out[3] < slow_out[3]
    return fast_out[0]


def test_runahead_lets_a_same_instant_heap_entry_fire_first():
    """A pause ending exactly when a heap entry is due does not run ahead:
    that entry was scheduled first, so it fires first (strict ``<``)."""

    def scenario(sim):
        order = []

        def early(sim):
            yield sim.timeout(10)
            order.append(("early", sim.now))

        def runner(sim):
            yield sim.timeout(5)  # ends inline: nothing due before 10
            order.append(("runner", sim.now))
            yield sim.timeout(5)  # ends at 10, where early is already due
            order.append(("runner", sim.now))

        sim.spawn(early(sim))
        sim.spawn(runner(sim))
        sim.run()
        return order

    assert _both_engines(scenario) == [("runner", 5), ("early", 10), ("runner", 10)]


def test_runahead_stops_for_a_zero_delay_wake():
    """A waiter woken by the running process runs at that instant, before
    the process's next resume; advance refuses while the wake is pending."""

    def scenario(sim):
        ev = sim.event("go")
        order = []

        def waiter(sim):
            yield ev
            order.append(("waiter", sim.now))

        def runner(sim):
            yield sim.timeout(3)
            ev.trigger()
            order.append(("advance", sim.advance(2), sim.now))
            yield sim.timeout(2)
            order.append(("runner", sim.now))

        sim.spawn(waiter(sim))
        sim.spawn(runner(sim))
        sim.run()
        return order

    assert _both_engines(scenario) == [
        ("advance", False, 3), ("waiter", 3), ("runner", 5)
    ]


def _ticker(sim, log, ticks=4, period=10):
    for _ in range(ticks):
        yield sim.timeout(period)
        log.append(sim.now)


def test_runahead_respects_the_until_boundary():
    """An instant equal to ``until`` fires inside ``run(until)``; one past
    it stays pending with ``now == until``; resuming then gives the history
    and event count of one uninterrupted run."""

    def split(sim):
        log = []
        sim.spawn(_ticker(sim, log))
        sim.run(until=20)
        at_20 = (list(log), sim.now)
        sim.run(until=25)
        at_25 = (list(log), sim.now)
        sim.run()
        return at_20, at_25, log

    at_20, at_25, log = _both_engines(split)
    assert at_20 == ([10, 20], 20)
    assert at_25 == ([10, 20], 25)
    assert log == [10, 20, 30, 40]

    def whole(sim):
        log = []
        sim.spawn(_ticker(sim, log))
        sim.run()
        return log

    assert _both_engines(whole) == log
    once, split_sim = Simulator(), Simulator()
    once.spawn(_ticker(once, []))
    once.run()
    split(split_sim)
    assert (split_sim.now, split_sim.events_processed) == (once.now, once.events_processed)


def test_runahead_exception_surfaces_as_on_the_heap_only_engine():
    """A process that raises after several inline resumes aborts the run
    with the same SimulationError text, cause, clock and history."""

    def scenario(sim):
        ev = sim.event("go")
        order = []

        def waiter(sim):
            yield ev
            order.append(("waiter", sim.now))

        def sleeper(sim):
            yield sim.timeout(21)
            order.append(("sleeper", sim.now))

        def bad(sim):
            yield sim.timeout(7)  # inline: nothing due before 21
            ev.trigger()
            yield sim.timeout(7)  # the waiter's wake comes first
            yield sim.timeout(7)  # ties with sleeper, which comes first
            raise ValueError("boom")

        sim.spawn(waiter(sim))
        sim.spawn(sleeper(sim))
        sim.spawn(bad(sim))
        with pytest.raises(SimulationError) as info:
            sim.run()
        cause = info.value.__cause__
        return order, str(info.value), type(cause), cause.args

    order, message, cause_type, cause_args = _both_engines(scenario)
    assert order == [("waiter", 7), ("sleeper", 21)]
    assert message == "uncaught exception in simulated process at t=21.0ns"
    assert (cause_type, cause_args) == (ValueError, ("boom",))


def test_advance_refuses_outside_run_and_on_the_heap_only_engine():
    """Refusals leave the clock and the event count untouched."""
    idle = Simulator()
    assert idle.advance(5) is False
    assert idle.advance_to(5) is False
    assert (idle.now, idle.events_processed) == (0.0, 0)

    seen = {}

    def proc(sim, tag):
        yield sim.timeout(1)
        before = (sim.now, sim.events_processed)
        seen[tag] = (sim.advance(5), sim.advance_to(sim.now + 5), before)
        seen[tag + "_after"] = (sim.now, sim.events_processed)

    heap_only = Simulator(fast_now_queue=False)
    heap_only.spawn(proc(heap_only, "heap_only"))
    heap_only.run()
    refused, refused_to, before = seen["heap_only"]
    assert (refused, refused_to) == (False, False)
    assert seen["heap_only_after"] == before

    fast = Simulator()
    fast.spawn(proc(fast, "fast"))
    fast.run()
    assert seen["fast"][:2] == (True, True)
    assert seen["fast_after"] == (11.0, seen["fast"][2][1] + 2)
    # run() has returned: refused again.
    now, events = fast.now, fast.events_processed
    assert fast.advance(5) is False
    assert (fast.now, fast.events_processed) == (now, events)
