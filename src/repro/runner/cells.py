"""The unit of parallel work: one independent experiment cell.

Every figure/table of the evaluation decomposes into independent
(approach x scale-point) cells: each cell builds its own simulated cloud,
runs one complete deploy/checkpoint/restart (or commit) cycle and returns a
flat, JSON-serialisable payload.  Because every stochastic quantity in the
simulator flows through ``repro.util.rng`` generators keyed by the cell's own
configuration, a cell produces bit-identical results no matter which worker
process executes it or in which order -- which is what lets the
:class:`~repro.runner.parallel.ParallelRunner` fan cells out freely while
keeping single-worker runs byte-identical to the historical sequential path.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import TRACER, tracing
from repro.sim.instrumentation import counting
from repro.util.rng import stable_seed

#: payloads are plain dicts of JSON-serialisable values
CellPayload = Dict[str, Any]


@dataclass(frozen=True)
class Cell:
    """One independent unit of work of one experiment.

    ``parts`` are the identity components after the experiment name; together
    they form the cell's :attr:`key` (``fig2:BlobCR-app:24:50MB``), which is
    what ``--cells`` selectors match against.  ``func`` must be a module-level
    (hence picklable) callable returning a :data:`CellPayload`.
    """

    experiment: str
    parts: Tuple[str, ...]
    func: Callable[..., CellPayload]
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return ":".join((self.experiment,) + self.parts)

    @property
    def seed(self) -> int:
        """Deterministic per-cell RNG seed, derived from the cell identity."""
        return stable_seed("cell", self.experiment, *self.parts)


@dataclass
class CellResult:
    """What one executed cell reports back to the runner."""

    key: str
    experiment: str
    parts: Tuple[str, ...]
    payload: CellPayload
    #: host wall-clock time spent executing the cell, seconds
    wall_time_s: float
    #: simulated time covered by the cell (as reported by the payload)
    sim_time_s: float
    #: the cell's own simulator work counters (exact, machine-independent)
    counters: Dict[str, int] = field(default_factory=dict)
    #: the cell's ``Tracer.collect()`` fragment, when the run asked for a trace
    trace: Optional[Dict[str, Any]] = None


def execute_cell(cell: Cell, trace: bool = False) -> CellResult:
    """Execute one cell (in whatever process the runner placed it).

    The global RNGs are re-seeded from the cell identity first: all outcome
    math flows through per-configuration ``make_rng`` generators already, but
    this pins down any incidental global-RNG use so a cell's behaviour can
    never depend on which worker ran it or on what ran before it.

    This is the one place instrumentation is scoped: a process runs one cell
    at a time, so scoping the process-global sinks here makes them per-cell
    in every worker.  The work counters always come back on
    :attr:`CellResult.counters`; with ``trace`` the cell also runs under the
    sim-time tracer and its fragment comes back on :attr:`CellResult.trace`.
    Both sinks are write-only, so neither changes the payload.

    The cyclic collector is scoped here too.  A cell's clouds form one
    cyclic graph that automatic collections would walk again and again while
    freeing nothing, so the cell runs with the collector paused.
    Everything the cell allocated is then still in the young generation, and
    one generation-0 collection after it returns frees the whole graph,
    examining only the cell's own objects.  ``wall_time_s`` times
    ``cell.func`` plus that collection.  Nothing in the model holds a weak
    reference or a finalizer, so when collection runs cannot change a
    result.  The caller's collector state is restored, also when the cell
    raises.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        random.seed(cell.seed)
        np.random.seed(cell.seed & 0xFFFFFFFF)
        with counting() as counters, tracing() if trace else nullcontext():
            t0 = time.perf_counter()
            payload = cell.func(**cell.params)
            gc.collect(0)
            wall = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    return CellResult(
        key=cell.key,
        experiment=cell.experiment,
        parts=cell.parts,
        payload=payload,
        wall_time_s=wall,
        sim_time_s=float(payload.get("sim_time_s", 0.0)),
        counters=counters,
        trace=TRACER.collect() if trace else None,
    )


def run_cells_inline(cells: List[Cell]) -> List[CellResult]:
    """Execute cells sequentially in this process, in the given order.

    This is the ``--workers 1`` path, and how a caller holding cells from
    :meth:`ScenarioSpec.build_cells <repro.scenarios.spec.ScenarioSpec.build_cells>`
    executes them without a runner.
    """
    return [execute_cell(cell) for cell in cells]
