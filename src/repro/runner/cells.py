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
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.cluster.cloud import clouds
from repro.obs import Tracer, merge_traces
from repro.sim.instrumentation import aggregate_counters, record_finished_cell
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
    #: the cell's ``merge_traces`` fragment, when the run asked for a trace
    trace: Optional[Dict[str, Any]] = None


def execute_cell(cell: Cell, trace: bool = False) -> CellResult:
    """Execute one cell (in whatever process the runner placed it).

    The global RNGs are re-seeded from the cell identity first: all outcome
    math flows through per-configuration ``make_rng`` generators already, but
    this pins down any incidental global-RNG use so a cell's behaviour can
    never depend on which worker ran it or on what ran before it.

    The cell runs inside a :func:`~repro.cluster.cloud.clouds` scope, which
    registers every cloud it builds; each cloud counts (and, with ``trace``,
    traces) into its own environment's sinks.  The cell's counters are those
    of its clouds folded by :func:`aggregate_counters` (and folded once more
    into the process total :func:`counters_snapshot` reads); its trace
    fragment keeps group 0 ``"run"`` and gives cloud *i*, in creation order,
    group *i* + 1.  Both sinks are write-only, so neither changes the
    payload.

    The cyclic collector is scoped here too.  A cell's clouds form one
    cyclic graph that automatic collections would walk again and again while
    freeing nothing, so the cell runs with the collector paused.
    Everything the cell allocated is then still in the young generation, and
    one generation-0 collection after it returns frees the whole graph,
    examining only the cell's own objects; the registry is dropped before
    it, so nothing holds the graph.  ``wall_time_s`` times ``cell.func``
    plus that collection.  Nothing in the model holds a weak reference or a
    finalizer, so when collection runs cannot change a result.  The
    caller's collector state is restored, also when the cell raises.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        random.seed(cell.seed)
        np.random.seed(cell.seed & 0xFFFFFFFF)
        t0 = time.perf_counter()
        with clouds(trace=trace) as registered:
            payload = cell.func(**cell.params)
        sinks = [(cloud.env.counters, cloud.env.tracer) for cloud in registered]
        del registered
        gc.collect(0)
        wall = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    counters = aggregate_counters([block.as_dict() for block, _ in sinks])
    record_finished_cell(counters)
    return CellResult(
        key=cell.key,
        experiment=cell.experiment,
        parts=cell.parts,
        payload=payload,
        wall_time_s=wall,
        sim_time_s=float(payload.get("sim_time_s", 0.0)),
        counters=counters,
        trace=merge_traces([Tracer()] + [tracer for _, tracer in sinks]) if trace else None,
    )
