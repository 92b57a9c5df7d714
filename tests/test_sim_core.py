"""Unit tests for the discrete-event simulation kernel."""

import gc
import traceback

import pytest

from repro.sim import (
    AllOf,
    Environment,
    Interrupt,
    Resource,
)
from repro.util.errors import SimulationError


class TestEvent:
    def test_succeed_and_value(self):
        env = Environment()
        ev = env.event()
        assert not ev.triggered
        ev.succeed(42)
        assert ev.triggered and ev.ok
        env.run()
        assert ev.processed
        assert ev.value == 42

    def test_double_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_untriggered_value_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestTimeoutAndProcess:
    def test_timeout_advances_clock(self):
        env = Environment()

        def proc():
            yield env.timeout(2.5)
            return env.now

        p = env.process(proc())
        result = env.run(p)
        assert result == pytest.approx(2.5)
        assert env.now == pytest.approx(2.5)

    def test_negative_timeout_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_process_return_value(self):
        env = Environment()

        def child():
            yield env.timeout(1)
            return "done"

        def parent():
            value = yield env.process(child())
            return value + "!"

        assert env.run(env.process(parent())) == "done!"

    def test_exception_propagates_to_parent(self):
        env = Environment()

        def child():
            yield env.timeout(1)
            raise ValueError("boom")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                return f"caught {exc}"

        assert env.run(env.process(parent())) == "caught boom"

    def test_unhandled_exception_reraised_by_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("unhandled")

        with pytest.raises(RuntimeError, match="unhandled"):
            env.run(env.process(bad()))

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def bad():
            yield 42

        proc = env.process(bad())
        with pytest.raises(SimulationError):
            env.run(proc)

    def test_processes_interleave_in_time_order(self):
        env = Environment()
        trace = []

        def worker(name, delay):
            yield env.timeout(delay)
            trace.append((env.now, name))

        env.process(worker("slow", 3))
        env.process(worker("fast", 1))
        env.process(worker("medium", 2))
        env.run()
        assert [name for _t, name in trace] == ["fast", "medium", "slow"]

    def test_run_until_time(self):
        env = Environment()
        fired = []

        def worker():
            yield env.timeout(5)
            fired.append(env.now)

        env.process(worker())
        env.run(until=2.0)
        assert fired == [] and env.now == pytest.approx(2.0)
        env.run()
        assert fired == [5.0]


class TestInterrupt:
    def test_interrupt_wakes_process(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))

        proc = env.process(sleeper())

        def killer():
            yield env.timeout(3)
            proc.interrupt("node-failure")

        env.process(killer())
        env.run()
        assert log == [(3.0, "node-failure")]

    def test_interrupt_finished_process_is_noop(self):
        env = Environment()

        def quick():
            yield env.timeout(1)

        proc = env.process(quick())
        env.run()
        proc.interrupt("late")  # must not raise


def _frame_names(exc):
    return [frame.name for frame in traceback.extract_tb(exc.__traceback__)]


class TestFailureTracebacks:
    """A failure stored as a process's value carries the model's frames only:
    through the kernel's frames, or a waiter's that handled it (its ``procs``),
    its traceback would hold that process in a reference cycle, and a cell
    runs with the cyclic collector paused."""

    def test_handled_failures_and_interrupts_make_no_cyclic_garbage(self):
        env = Environment()

        def child(delay):
            yield env.timeout(delay)
            raise ValueError("lost")

        def parent():
            procs = [env.process(child(1)), env.process(child(5))]
            try:
                yield env.all_of(procs)
            except ValueError:
                for proc in procs:
                    proc.interrupt("aborted")
            yield env.timeout(1)

        gc.collect()
        gc.disable()
        try:
            env.process(parent())
            env.run()
            del env
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_failure_traceback_runs_through_the_model_frames_only(self):
        env = Environment()

        def child():
            yield env.timeout(1)
            raise ValueError("lost")

        def parent():
            yield env.process(child())

        with pytest.raises(ValueError) as info:
            env.run(env.process(parent()))
        names = _frame_names(info.value)
        assert names[-2:] == ["parent", "child"]
        assert "_resume" not in names and "_throw" not in names

    def test_a_handled_failure_keeps_the_traceback_it_was_delivered_with(self):
        env = Environment()
        caught = []

        def child():
            yield env.timeout(1)
            raise ValueError("lost")

        def parent():
            try:
                yield env.process(child())
            except ValueError as exc:
                caught.append(exc)
            yield env.timeout(1)

        env.run(env.process(parent()))
        assert _frame_names(caught[0]) == ["child"]


class TestConditions:
    def test_all_of_collects_values(self):
        env = Environment()
        timeouts = [env.timeout(i, value=i) for i in (1, 2, 3)]
        cond = AllOf(env, timeouts)
        values = env.run(cond)
        assert sorted(values.values()) == [1, 2, 3]
        assert env.now == pytest.approx(3)

    def test_all_of_waits_for_the_pending_beside_an_already_fired_event(self):
        """An event that fired before the condition was built counts as done;
        it must not make the condition fire before the pending ones do."""
        env = Environment()

        def body(delay, value):
            yield env.timeout(delay)
            return value

        first = env.process(body(1, "first"))
        env.run(first)
        late = env.process(body(4, "late"))
        conds = [AllOf(env, [first, late]), AllOf(env, [late, first])]
        assert not any(cond.triggered for cond in conds)
        for cond in conds:
            assert env.run(cond) == {first: "first", late: "late"}
        assert env.now == pytest.approx(5)

    def test_all_of_fails_with_an_already_failed_event(self):
        env = Environment()

        def crash():
            yield env.timeout(1)
            raise ValueError("crashed")

        crashed = env.process(crash(), name="crash")
        with pytest.raises(ValueError):
            env.run(crashed)
        cond = AllOf(env, [env.timeout(3), crashed])
        with pytest.raises(ValueError, match="crashed"):
            env.run(cond)

    def test_all_of_empty_fires_immediately(self):
        env = Environment()
        cond = AllOf(env, [])
        assert cond.triggered


class TestResource:
    def test_mutual_exclusion(self):
        env = Environment()
        res = Resource(env, capacity=1)
        concurrency = []
        active = [0]

        def user(_i):
            req = res.request()
            yield req
            active[0] += 1
            concurrency.append(active[0])
            yield env.timeout(1)
            active[0] -= 1
            res.release(req)

        for i in range(5):
            env.process(user(i))
        env.run()
        assert max(concurrency) == 1
        assert env.now == pytest.approx(5)

    def test_capacity_two(self):
        env = Environment()
        res = Resource(env, capacity=2)
        done = []

        def user(i):
            req = res.request()
            yield req
            yield env.timeout(1)
            res.release(req)
            done.append((env.now, i))

        for i in range(4):
            env.process(user(i))
        env.run()
        assert env.now == pytest.approx(2)
        assert len(done) == 4

    def test_cancel_queued_request(self):
        env = Environment()
        res = Resource(env, capacity=1)
        held = res.request()
        assert held.triggered
        queued = res.request()
        assert not queued.triggered
        res.release(queued)  # cancels the queued request
        with pytest.raises(SimulationError, match="unknown request"):
            res.release(queued)  # it left the queue

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Resource(env, capacity=0)

    def test_release_unknown_request_raises(self):
        env = Environment()
        res = Resource(env, capacity=1)
        other = Resource(env, capacity=1)
        req = other.request()
        with pytest.raises(SimulationError):
            res.release(req)
