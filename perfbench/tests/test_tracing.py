"""Self-time arithmetic of the tracer on a synthetic call tree.

A fake clock advances only where the synthetic functions call ``tick``, so
every duration below is exact: what the tracer reports must add up with no
time counted twice or lost, through plain calls, generator resumes, and
``throw``/``close`` delivered through a wrapped generator.
"""

import pytest

from perfbench.boundaries import CELL_SPAN, Boundary
from perfbench.tracing import Tracer, _union_length, install


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


CLOCK = FakeClock()
EVENTS = []


class Leaf:
    def work(self, seconds):
        CLOCK.tick(seconds)
        return b"x" * int(seconds)

    def boom(self):
        CLOCK.tick(1)
        raise ValueError("boom")


class Outer:
    def __init__(self):
        self.leaf = Leaf()

    def call(self):
        CLOCK.tick(2)  # own time before the children
        self.leaf.work(3)
        self.leaf.work(4)
        CLOCK.tick(1)  # own time after
        return "done"

    def phase(self):
        """Generator boundary: 5 s busy in two resumes around one leaf call."""
        CLOCK.tick(1)
        self.leaf.work(2)
        got = yield "first"
        EVENTS.append(("sent", got))
        try:
            yield "second"
        except KeyError:
            EVENTS.append("caught")
            CLOCK.tick(2)
            yield "after-throw"
        finally:
            EVENTS.append("finalised")
            CLOCK.tick(0.5)
        return 7


def helper(seconds):
    CLOCK.tick(seconds)


ROWS = (
    Boundary("outer", "call", __name__, "Outer", "call", keep=True),
    Boundary("outer", "phase", __name__, "Outer", "phase", "generator",
             nbytes=lambda a, k, r: r, keep=True),
    Boundary("leaf", "work", __name__, "Leaf", "work", nbytes=lambda a, k, r: len(r)),
    Boundary("leaf", "boom", __name__, "Leaf", "boom"),
    Boundary("leaf", "helper", __name__, None, "helper"),
)  # fmt: skip


@pytest.fixture()
def tracer():
    EVENTS.clear()
    tracer = Tracer(clock=CLOCK)
    installation = install(tracer, ROWS)
    assert tracer.unresolved == []
    yield tracer
    installation.uninstall()


def aggregates(cell):
    return {(row["span"], row["parent"]): row for row in cell["aggregates"]}


def test_nested_sync_calls_split_into_self_and_child_time(tracer):
    before = CLOCK.now
    CLOCK.tick(1.5)  # scenario glue inside the cell, before any boundary
    assert Outer().call() == "done"
    CLOCK.tick(0.5)
    cell = tracer.end_cell("cell:a", CLOCK.now - before)

    rows = aggregates(cell)
    outer = rows[("outer.call", CELL_SPAN)]
    leaf = rows[("leaf.work", "outer.call")]
    assert (outer["calls"], outer["total_s"], outer["self_s"]) == (1, 10.0, 3.0)
    assert (leaf["calls"], leaf["total_s"], leaf["self_s"], leaf["bytes"]) == (2, 7.0, 7.0, 7)
    # the cell's own time is its wall minus its top-level frames
    assert cell["self_s"] == pytest.approx(2.0)
    total_self = cell["self_s"] + sum(row["self_s"] for row in cell["aggregates"])
    assert total_self == pytest.approx(cell["wall_s"])
    (span,) = cell["spans"]
    assert (span["name"], span["cell"], span["parent"]) == ("outer.call", "cell:a", None)
    assert span["end"] - span["start"] == 10.0


def test_generator_is_timed_per_resume_not_across_simulated_waiting(tracer):
    before = CLOCK.now
    gen = Outer().phase()
    assert gen.__name__ == "phase"  # the kernel names processes after the generator
    assert next(gen) == "first"
    CLOCK.tick(1000)  # simulated waiting: host time that belongs to nobody here
    assert gen.send("hello") == "second"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 7
    cell = tracer.end_cell("cell:b", CLOCK.now - before)

    rows = aggregates(cell)
    phase = rows[("outer.phase", CELL_SPAN)]
    assert phase["calls"] == 1  # one logical call, three resumes
    assert phase["total_s"] == pytest.approx(3.5)  # 3 + 0 + 0.5, never the 1000
    assert phase["self_s"] == pytest.approx(1.5)
    assert phase["bytes"] == 7  # counted from the return value
    assert rows[("leaf.work", "outer.phase")]["self_s"] == 2.0
    (span,) = cell["spans"]
    assert span["resumes"] == 3 and span["busy_s"] == pytest.approx(3.5)
    assert span["end"] - span["start"] == pytest.approx(1003.5)
    assert cell["elapsed_s"] == {"outer.phase": pytest.approx(1003.5)}
    assert EVENTS == [("sent", "hello"), "finalised"]


def test_throw_and_close_reach_the_wrapped_generator(tracer):
    gen = Outer().phase()
    next(gen)
    gen.send(None)
    assert gen.throw(KeyError("k")) == "after-throw"  # handled inside, keeps going
    gen.close()  # GeneratorExit runs the inner finally block
    assert EVENTS == [("sent", None), "caught", "finalised"]
    assert tracer.stack == []

    gen = Outer().phase()
    next(gen)
    with pytest.raises(RuntimeError):
        gen.throw(RuntimeError("unhandled"))  # propagates out through the proxy
    assert tracer.stack == []
    cell = tracer.end_cell("cell:c", 0.0)
    phase = aggregates(cell)[("outer.phase", CELL_SPAN)]
    # 3 + 0 + 2 (throw) + 0.5 (close), then 3 + 0 (thrown at a yield outside the try block)
    assert phase["calls"] == 2 and phase["total_s"] == pytest.approx(8.5)


def test_exception_in_a_sync_boundary_still_closes_its_frame(tracer):
    with pytest.raises(ValueError):
        Leaf().boom()
    assert tracer.stack == []
    cell = tracer.end_cell("cell:d", 1.0)
    assert aggregates(cell)[("leaf.boom", CELL_SPAN)]["total_s"] == 1.0


def test_module_level_function_is_rebound_and_restored():
    tracer = Tracer(clock=CLOCK)
    original = helper
    installation = install(tracer, [ROWS[-1]])
    try:
        assert tracer.unresolved == []
        helper(3)  # the module's own binding is the wrapper now
    finally:
        installation.uninstall()
    assert helper is original
    assert tracer.end_cell("cell:g", 3.0)["aggregates"][0]["total_s"] == 3.0


def test_unresolvable_rows_are_listed_not_raised():
    tracer = Tracer(clock=CLOCK)
    rows = (
        Boundary("x", "gone_module", "perfbench.no_such_module", "A", "f"),
        Boundary("x", "gone_class", __name__, "NoSuchClass", "f"),
        Boundary("x", "gone_attr", __name__, "Leaf", "no_such_method"),
        Boundary("x", "wrong_kind", __name__, "Outer", "phase", "sync"),
        Boundary("x", "a_property", __name__, "FakeClock", "__dict__"),
    )
    install(tracer, rows).uninstall()
    assert [row["span"] for row in tracer.unresolved] == [row.span_name for row in rows]


def test_broken_extractor_is_reported_once_and_the_call_still_counts(tracer):
    row = Boundary("leaf", "work", __name__, "Leaf", "work", nbytes=lambda a, k, r: r.nope)
    inner = Tracer(clock=CLOCK)
    installation = install(inner, [row])
    try:
        Leaf().work(1)
        Leaf().work(1)
    finally:
        installation.uninstall()
    assert len(inner.unresolved) == 1 and "extractor" in inner.unresolved[0]["reason"]
    cell = inner.end_cell("cell:e", 2.0)
    assert sum(r["calls"] for r in cell["aggregates"] if r["span"] == "leaf.work") == 2


def test_frames_before_the_cell_started_are_kept_out_of_its_self_time(tracer):
    Leaf().work(5)  # runner glue between two cells
    CLOCK.tick(1)
    Leaf().work(2)
    cell = tracer.end_cell("cell:f", 2.5)  # the cell began 2.5 s ago
    assert cell["outside_s"] == 5.0
    assert cell["self_s"] == pytest.approx(0.5)


def test_union_length_counts_overlaps_once():
    assert _union_length([(0, 4), (1, 2), (3, 6), (10, 11)]) == 7
    assert _union_length([]) == 0.0
