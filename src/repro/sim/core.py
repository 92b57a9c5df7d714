"""Core of the discrete-event simulation kernel.

The design follows the classic generator-based DES pattern:

* an :class:`Environment` owns the simulated clock and a priority queue of
  scheduled events;
* an :class:`Event` is a one-shot waitable with a value or an exception;
* a :class:`Process` wraps a generator; every value the generator ``yield``\\ s
  must be an :class:`Event`, and the process resumes when that event fires
  (receiving the event's value, or having its exception re-raised inside the
  generator);
* ``env.run()`` pops events in ``(time, priority, sequence)`` order and calls
  their callbacks until the queue drains or an optional horizon is reached.

The implementation is single-threaded and deterministic: two runs of the
same model with the same seeds produce identical traces.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.tracer import Tracer
from repro.sim.instrumentation import SimCounters
from repro.util.errors import SimulationError

# Event priorities: URGENT is used for process resumption bookkeeping so that
# a process interrupt scheduled "now" beats ordinary events at the same time.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that callbacks and processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "name")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        self.name = name

    # -- state ----------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it may not have fired yet)."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        if self._ok is not None:
            raise SimulationError(f"event {self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed and schedule its callbacks."""
        if self._ok is not None:
            raise SimulationError(f"event {self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self._ok is True:
            state = "ok"
        elif self._ok is False:
            state = f"failed({type(self._value).__name__})"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env, name or f"timeout({delay:g})")
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env, "init")
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """A running simulation activity driven by a generator.

    The process itself is an :class:`Event` that fires when the generator
    finishes; its value is the generator's return value.  Other processes can
    therefore ``yield`` a process to wait for it.
    """

    __slots__ = ("_generator", "_target", "_interrupts", "_span")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(f"process body must be a generator, got {generator!r}")
        super().__init__(env, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        self._target: Optional[Event] = None
        self._interrupts: list[Interrupt] = []
        self._span: Optional[int] = None
        if env.tracer is not None:
            # "ckpt:vm-003" traces as span "ckpt" on track "vm-003"; a name
            # without a colon is a whole-simulation activity on track "sim".
            phase, sep, track = self.name.partition(":")
            self._span = env.tracer.begin(
                phase, track if sep else "sim", env.now, cat="process"
            )
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def __repr__(self) -> str:
        base = super().__repr__()
        if self._ok is None and self._target is not None:
            return f"{base[:-1]} waiting on {self._target!r}>"
        return base

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op, which conveniently lets
        failure injectors shoot at activities that may already have ended.
        """
        if not self.is_alive:
            return
        interrupt = Interrupt(cause)
        self._interrupts.append(interrupt)
        # Detach from the event currently waited upon (it may still fire, but
        # the resumption must not be delivered twice).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
            self._target = None
        wakeup = Event(self.env, "interrupt")
        wakeup.callbacks.append(self._resume)
        wakeup._ok = True
        wakeup._value = None
        self.env._schedule(wakeup, URGENT, 0.0)

    # -- generator driving ------------------------------------------------------

    def _throw(self, failure: BaseException) -> Any:
        """Throw ``failure`` into the generator; returns what it yields next.

        A failure the generator handles gets back the traceback it came
        with: the frames that handled it would otherwise hold, through their
        locals, the process or event whose value it is in a reference cycle.
        """
        came_with = failure.__traceback__
        try:
            next_event = self._generator.throw(failure)
        except BaseException as raised:
            if raised is not failure:
                failure.__traceback__ = came_with
            raise
        failure.__traceback__ = came_with
        return next_event

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if self._interrupts:
                    next_event = self._throw(self._interrupts.pop(0))
                elif event is None or event._ok:
                    value = None if event is None else event._value
                    next_event = self._generator.send(value)
                else:
                    # Re-raise the failure inside the generator so the
                    # model can handle it (or die with it).
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                if self._span is not None:
                    self.env.tracer.end(self._span, self.env.now)
                self.succeed(stop.value)
                return
            except BaseException as exc:
                # Start the traceback at the model's frames: the kernel's
                # (this one, ``_throw``'s) hold this process, whose value exc
                # becomes, in a reference cycle.
                tb = exc.__traceback__
                while tb is not None and tb.tb_frame.f_code in _KERNEL_CODE:
                    tb = tb.tb_next
                exc.__traceback__ = tb
                if self._span is not None:
                    self.env.tracer.end(
                        self._span, self.env.now, args={"error": type(exc).__name__}
                    )
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                error = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                if self._span is not None:
                    self.env.tracer.end(self._span, self.env.now, args={"error": "SimulationError"})
                self.fail(error)
                return

            if next_event.processed:
                # The event has already fired; loop and deliver it
                # immediately instead of scheduling a callback.
                event = next_event
                continue
            self._target = next_event
            next_event.callbacks.append(self._resume)
            return


#: the kernel frames a failure's traceback does not start with (see ``_resume``)
_KERNEL_CODE = frozenset((Process._resume.__code__, Process._throw.__code__))


class AllOf(Event):
    """Fires when every constituent event has fired successfully.

    Its value is a dict mapping each event to its value.  If any constituent
    fails, the condition fails with that exception.  Constituents that have
    already fired count as done; the condition waits for the others.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, "all_of")
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if not event.processed:
                self._pending += 1
                event.callbacks.append(self._observe)
            elif event._ok is False and not self.triggered:
                self.fail(event._value)
        if not self.triggered and self._pending == 0:
            self.succeed(self._collect())

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if event._ok is False:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self._events if e.triggered and e._ok}


class Environment:
    """Simulated clock plus event loop, and the sinks its model writes into.

    ``counters`` is this environment's own work-counter block; ``tracer`` is
    its own :class:`~repro.obs.tracer.Tracer` when it is traced and ``None``
    otherwise.  Both are write-only: nothing in the model reads them.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.counters = SimCounters()
        self.tracer = tracer
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = 0
        #: end-of-instant hooks (see add_flush_hook); empty unless a
        #: subsystem batches same-instant work, so the common case pays one
        #: truthiness check per step
        self._flush_hooks: list[Callable[[], None]] = []

    # -- clock -------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    # -- factories ---------------------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        if event._scheduled and delay == 0.0 and priority == NORMAL and event.callbacks is None:
            raise SimulationError(f"event {event!r} scheduled twice")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._sequence, event))
        event._scheduled = True

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule an already-triggered event at an *absolute* simulated time.

        ``_schedule`` computes the firing time as ``now + delay``, which
        rounds; callers that already hold the exact firing time (the
        bandwidth system's completion-horizon timers) use this instead, so
        the event fires at that float and not one ulp away from it.
        """
        if event._ok is None:
            raise SimulationError(f"schedule_at() requires a triggered event, got {event!r}")
        if when < self._now - 1e-12:
            raise SimulationError(f"cannot schedule an event in the past ({when} < {self._now})")
        self._sequence += 1
        heapq.heappush(self._queue, (max(when, self._now), NORMAL, self._sequence, event))
        event._scheduled = True

    def add_flush_hook(self, hook: Callable[[], None]) -> None:
        """Register an end-of-instant hook.

        Hooks run when the current simulated instant is *complete*: just
        before the clock would advance past ``now`` (and, in :meth:`run`,
        when the queue drains or only post-horizon events remain).  A hook
        may schedule new events at the current instant; those are processed
        before time advances, and the hooks run again afterwards -- so a
        subsystem can coalesce all same-instant work into one batch without
        ever observing a half-finished instant.

        The bandwidth solver is the canonical client: its flush hook replans
        each same-instant admission batch once, and the per-component state
        it maintains between flushes stays coherent precisely because no
        hook ever sees a half-finished instant.
        """
        self._flush_hooks.append(hook)

    def _flush_instant(self) -> None:
        for hook in self._flush_hooks:
            hook()

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("cannot step an empty event queue")
        if self._flush_hooks and self._queue[0][0] > self._now:
            # The instant is over: everything scheduled at `now` has been
            # processed.  Let batching subsystems finish it before the clock
            # moves; anything they schedule at `now` is popped first.
            self._flush_instant()
        when, _prio, _seq, event = heapq.heappop(self._queue)
        if when < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self.counters.events_popped += 1
        self._now = max(self._now, when)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:
            return
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` -- run until no events remain,
        * a number -- run until the clock reaches that time,
        * an :class:`Event` -- run until that event has been processed and
          return its value (re-raising its exception if it failed).
        """
        if isinstance(until, Event):
            target = until
            while not target.processed:
                if not self._queue:
                    # Batched work may be the only thing left at this
                    # instant; flushing it can schedule the missing events.
                    self._flush_instant()
                    if not self._queue:
                        raise SimulationError(
                            f"simulation ran out of events before {target!r} fired"
                        )
                    continue
                self.step()
            if target.ok:
                return target.value
            raise target.value
        horizon = float("inf") if until is None else float(until)
        while True:
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
            if not self._flush_hooks:
                break
            self._flush_instant()
            if not (self._queue and self._queue[0][0] <= horizon):
                break
        if until is not None:
            self._now = max(self._now, horizon) if horizon != float("inf") else self._now
        return None
