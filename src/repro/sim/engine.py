"""Discrete-event simulation engine.

Every hardware and software component in the Flick reproduction runs on
this engine: cores, the PCIe link, the DMA controller, the OS scheduler,
and the migration handlers are all :class:`Process` coroutines that
advance a shared simulated clock (in **nanoseconds**).

The engine is deliberately small and dependency-free.  Processes are
plain Python generators that ``yield`` one of:

* ``sim.timeout(dt)`` — suspend for ``dt`` simulated nanoseconds,
* ``sim.sleep_until(t)`` — suspend until the absolute instant ``t``
  (resumes with ``now == t`` exactly, no relative-delay round-off),
* an :class:`Event` — suspend until someone calls ``event.trigger(value)``;
  the ``yield`` expression evaluates to ``value``,
* another :class:`Process` — suspend until that process finishes; the
  ``yield`` expression evaluates to its return value.

Code that would yield a pause and then carry on can instead call
:meth:`Simulator.advance` (or :meth:`Simulator.advance_to` for an
absolute instant): when no other event is due before the pause ends, it
moves the clock and returns True without leaving the generator;
otherwise it returns False and the caller yields the pause as usual.
The engine ends yielded pauses the same way (see :class:`Simulator`).
``events_processed`` counts one event per pause either way;
:attr:`Simulator.events_dispatched` is the part that went through the
event queue.

Example
-------
>>> sim = Simulator()
>>> def pinger(sim, ev):
...     yield sim.timeout(10)
...     ev.trigger("pong")
>>> def ponger(sim, ev):
...     value = yield ev
...     return (sim.now, value)
>>> ev = Event(sim)
>>> sim.spawn(pinger(sim, ev))        # doctest: +ELLIPSIS
<Process ...>
>>> p = sim.spawn(ponger(sim, ev))
>>> sim.run()
>>> p.value
(10.0, 'pong')
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Tuple

_INF = float("inf")

__all__ = [
    "Simulator",
    "Process",
    "Event",
    "Timeout",
    "SleepUntil",
    "Channel",
    "SimulationError",
    "Deadlock",
]


class SimulationError(RuntimeError):
    """Base class for errors raised by the simulation engine."""


class Deadlock(SimulationError):
    """Raised by :meth:`Simulator.run` when ``until`` was given but the
    event queue drained before reaching it and live processes remain."""


class Timeout:
    """A pending delay; created via :meth:`Simulator.timeout`."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay!r}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay!r})"


class SleepUntil:
    """Suspend until an *absolute* simulated instant; created via
    :meth:`Simulator.sleep_until`.

    Unlike ``timeout(target - now)``, resuming at ``at`` is exact: the
    woken process observes ``sim.now == at`` bit-for-bit, with no
    float round-off from the add-the-difference detour.  Consumers that
    accumulate charges and emit them in variable-size chunks (the hosted
    mode's batch accumulator) rely on this to make the final clock
    independent of where the chunk boundaries fell.
    """

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SleepUntil({self.at!r})"


class Event:
    """A one-shot level-triggered event carrying an optional value.

    Processes that ``yield`` an event before it triggers are resumed when
    it triggers.  Processes that ``yield`` an already-triggered event
    resume immediately (same simulated time) with the stored value.
    """

    __slots__ = ("sim", "name", "_triggered", "_value", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: List["Process"] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking every waiter at the current sim time."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim._schedule(0.0, proc._resume_cb, value)

    def reset(self) -> None:
        """Re-arm a triggered event so it can be triggered again.

        Only legal when no process is currently waiting on it.
        """
        if self._waiters:
            raise SimulationError(f"cannot reset event {self.name!r}: has waiters")
        self._triggered = False
        self._value = None

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            self.sim._schedule(0.0, proc._resume_cb, self._value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running coroutine inside the simulator.

    Created via :meth:`Simulator.spawn`.  A process finishes when its
    generator returns; the return value is stored in :attr:`value` and
    any processes waiting on it are resumed with that value.  An uncaught
    exception inside a process aborts the whole simulation (it is
    re-raised out of :meth:`Simulator.run`), because silent process death
    hides protocol bugs.
    """

    __slots__ = (
        "sim", "gen", "name", "alive", "value", "_waiters", "_resume_cb", "_sched"
    )

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.value: Any = None
        self._waiters: List["Process"] = []
        # One bound method reused for every schedule of this process
        # (attribute access would allocate a fresh one per event), and
        # the scheduler entry point itself, hoisted off the two-level
        # ``self.sim._schedule`` chase on the per-event path.
        self._resume_cb = self._resume
        self._sched = sim._schedule

    def _resume(self, send_value: Any = None) -> None:
        if not self.alive:
            return
        send = self.gen.send
        sim = self.sim
        try:
            target = send(send_value)
            # Exact-lookahead run-ahead: a pause that ends before anything
            # else is due would make this process the next one the heap
            # dispatches, so resume it here (Simulator.advance_to).
            while True:
                if type(target) is Timeout:  # the dominant yield; no subclasses
                    if not sim.advance_to(sim.now + target.delay):
                        self._sched(target.delay, self._resume_cb, None)
                        return
                elif type(target) is SleepUntil:
                    if not sim.advance_to(target.at):
                        sim._schedule_at(target.at, self._resume_cb, None)
                        return
                else:
                    self._wait_on(target)
                    return
                target = send(None)
        except StopIteration as stop:
            self._finish(stop.value)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Event):
            target._add_waiter(self)
        elif isinstance(target, Process):
            if target.alive:
                target._waiters.append(self)
            else:
                self._sched(0.0, self._resume_cb, target.value)
        elif target is None:
            # Bare ``yield`` — cooperative re-schedule at the same time.
            self._sched(0.0, self._resume_cb, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported object {target!r}"
            )

    def _finish(self, value: Any) -> None:
        self.alive = False
        self.value = value
        self.sim._live_processes -= 1
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim._schedule(0.0, proc._resume_cb, value)

    def kill(self) -> None:
        """Terminate the process without resuming it again."""
        if self.alive:
            self.alive = False
            self.sim._live_processes -= 1
            self.gen.close()
            waiters, self._waiters = self._waiters, []
            for proc in waiters:
                self.sim._schedule(0.0, proc._resume_cb, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


class Channel:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an object to ``yield`` on that
    completes with the next item (immediately, at the current simulated
    time, if an item is already queued).
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}.get")
        if self._items:
            ev.trigger(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)


class Simulator:
    """The event loop and simulated clock (nanosecond granularity).

    ``fast_now_queue`` enables the engine's two wall-clock fast paths;
    with it off, every wakeup goes through the heap, which makes that
    configuration the reference oracle for both.

    *Zero-delay now-queue.*  Zero-delay wakeups (the dominant event class
    in the Flick protocol: event triggers, process completions, channel
    hand-offs) go to a plain FIFO drained only when the heap holds
    nothing at the current instant, instead of churning the heap.  This
    preserves the global (time, schedule-order) firing sequence exactly:
    every heap entry stamped at the current time was necessarily
    scheduled before any entry now sitting in the FIFO (zero-delay and
    due-now absolute schedules always divert to the FIFO, and positive
    delays land strictly in the future), so draining same-time heap
    entries first reproduces the heapq order.

    *Exact-lookahead run-ahead.*  A pause whose wakeup would be the next
    event the loop dispatches ends in place (:meth:`advance_to` holds the
    test): a process yielding such a ``Timeout`` or ``SleepUntil`` is
    resumed inline, and hot code calls :meth:`advance` instead of
    yielding.  ``now`` takes the same value and ``events_processed``
    counts the same event either way.

    Simulated results are bit-identical either way — the parity tests in
    tests/core/test_fastpath_parity.py enforce it.
    """

    def __init__(self, fast_now_queue: bool = True) -> None:
        self.now: float = 0.0
        self._queue: List[Tuple[float, int, Callable, Any]] = []
        self._now_q: Deque[Tuple[Callable, Any]] = deque()
        self._fast = bool(fast_now_queue)
        self._seq = 0
        self._live_processes = 0
        self._error: Optional[BaseException] = None
        # The latest instant advance_to may reach: until (or +inf)
        # inside a fast run(), -inf otherwise, so it refuses.
        self._horizon = -_INF
        # Loop-dispatched callbacks, run-ahead resumes, and the JIT
        # tier's credit (see events_processed).
        self._events_dispatched = 0
        self._events_ahead = 0
        self._event_credit = 0

    @property
    def events_processed(self) -> int:
        """Total processed DES events: callbacks the loop dispatched,
        pauses the run-ahead ended inline (:meth:`advance_to`), and
        credited events (see :meth:`credit_events`).  A fast path moves
        events between these tallies but never adds or drops one, so the
        total is the same with the fast paths on or off: flickbench's
        ``sim.engine.events_per_req`` numerator and a pinned quantity of
        every fast-path parity contract.
        """
        return self._events_dispatched + self._events_ahead + self._event_credit

    @property
    def events_dispatched(self) -> int:
        """Callbacks :meth:`run` popped off its queues (as of its last
        return): the events that cost a trip through the loop."""
        return self._events_dispatched

    def credit_events(self, n: int) -> None:
        """Credit ``n`` events that a consolidating fast path collapsed.

        The tracing-JIT tier (its only caller) replays a superblock's
        exact sequence of timed pauses arithmetically and flushes the
        whole region as one pause; each collapsed pause would have been
        one event of its own, so the tier credits them here to keep
        ``events_processed`` bit-identical across tiers (the
        tests/core/test_jit_parity.py contract).
        """
        self._event_credit += n

    def advance_to(self, at: float) -> bool:
        """End the caller's pause at ``at`` without yielding, if that is
        exactly what the event loop would do next.

        True (``now`` set to ``at``, one event counted) when ``at`` is
        not before ``now``, not past ``run(until=...)``, strictly earlier
        than every heap entry (an entry already due at ``at`` was
        scheduled first, so it fires first), and no zero-delay wakeup is
        pending.  Then the pause's own wakeup would be the next event
        dispatched, and nothing could run in between.  False — nothing
        changed — otherwise, outside :meth:`run`, and on a heap-only
        simulator; the caller then yields the pause as usual.
        """
        queue = self._queue
        if (
            self.now <= at <= self._horizon
            and not self._now_q
            and (not queue or at < queue[0][0])
        ):
            self.now = at
            self._events_ahead += 1
            return True
        return False

    def advance(self, delay: float) -> bool:
        """:meth:`advance_to` for a ``timeout(delay)``."""
        return self.advance_to(self.now + delay)

    # -- process / primitive construction ---------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process, starting it at ``now``."""
        proc = Process(self, gen, name=name)
        self._live_processes += 1
        self._schedule(0.0, proc._resume_cb, None)
        return proc

    def spawn_at(self, at: float, gen: Generator, name: str = "") -> Process:
        """Register a process whose first step runs at absolute time ``at``.

        The start instant is fixed when this is called — nothing that
        happens in the simulation between now and ``at`` can move it.
        Open-loop traffic generation relies on this: an arrival schedule
        posted up front fires on time regardless of how congested the
        machine is when each instant comes due.  ``at`` must be >= now.
        """
        proc = Process(self, gen, name=name)
        self._live_processes += 1
        self._schedule_at(at, proc._resume_cb, None)
        return proc

    def timeout(self, delay: float) -> Timeout:
        return Timeout(delay)

    def sleep_until(self, at: float) -> SleepUntil:
        return SleepUntil(at)

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def channel(self, name: str = "") -> Channel:
        return Channel(self, name=name)

    # -- scheduling core ---------------------------------------------------

    def _schedule(self, delay: float, callback: Callable, arg: Any) -> None:
        if self._fast and delay == 0.0:
            self._now_q.append((callback, arg))
        else:
            self._seq += 1
            heapq.heappush(self._queue, (self.now + delay, self._seq, callback, arg))

    def _schedule_at(self, at: float, callback: Callable, arg: Any) -> None:
        """Schedule a callback at an absolute time (``at >= now``)."""
        if at < self.now:
            raise SimulationError(
                f"sleep_until target {at!r} is in the past (now={self.now!r})"
            )
        if at == self.now:
            # Due now: behind every wakeup already due, as on the heap
            # (a heap entry at ``now`` would jump the now-queue).
            self._schedule(0.0, callback, arg)
            return
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, callback, arg))

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or ``until`` ns is reached.

        Raises :class:`Deadlock` if ``until`` was requested but every
        process went idle before that time (usually a lost wakeup).
        Re-raises the first uncaught exception from any process.
        """
        queue = self._queue
        now_q = self._now_q
        heappop = heapq.heappop
        events = self._events_dispatched
        horizon = self._horizon
        if self._fast:
            self._horizon = _INF if until is None else until
        try:
            while queue or now_q:
                if queue and queue[0][0] <= self.now:
                    # Same-instant heap entries predate every now-queue
                    # entry (see class docstring): they fire first.
                    _at, _seq, callback, arg = heappop(queue)
                elif now_q:
                    callback, arg = now_q.popleft()
                else:
                    at = queue[0][0]
                    if until is not None and at > until:
                        self.now = until
                        return
                    _at, _seq, callback, arg = heappop(queue)
                    self.now = _at
                events += 1
                try:
                    callback(arg)
                except SimulationError:
                    raise
                except BaseException as exc:
                    raise SimulationError(
                        f"uncaught exception in simulated process at t={self.now}ns"
                    ) from exc
        finally:
            self._events_dispatched = events
            self._horizon = horizon
        if until is not None:
            if self._live_processes > 0:
                raise Deadlock(
                    f"{self._live_processes} live process(es) idle at t={self.now}ns "
                    f"before until={until}ns"
                )
            self.now = until

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run to completion, and return its value."""
        proc = self.spawn(gen, name=name)
        self.run()
        if proc.alive:
            raise Deadlock(f"process {proc.name!r} never finished")
        return proc.value

    def all_of(self, events: Iterable[Event]) -> Event:
        """Return an event that triggers once every input has triggered."""
        events = list(events)
        combined = Event(self, name="all_of")
        remaining = [len(events)]
        results: List[Any] = [None] * len(events)
        if not events:
            combined.trigger([])
            return combined

        def watcher(i: int, ev: Event) -> Generator:
            results[i] = yield ev
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.trigger(list(results))

        for i, ev in enumerate(events):
            self.spawn(watcher(i, ev), name=f"all_of[{i}]")
        return combined
