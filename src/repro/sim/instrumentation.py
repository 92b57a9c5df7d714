"""Simulation work counters (``cells[].counters`` of an artifact).

The simulator is deterministic, so every counter here is a *property of the
model*, not of the host: two runs of the same cell produce identical counts
on any machine.  That makes the counters the stable part of a run artifact
-- wall-clock times vary with hardware, the counter block does not -- and
lets a regression in algorithmic work (e.g. the bandwidth solver
recomputing more components than it should) show up as an exact integer
diff instead of a noisy timing.

Every :class:`~repro.sim.core.Environment` owns one :class:`SimCounters`
block (``env.counters``), so a simulated cloud counts only its own work,
whatever else is alive beside it.  A cell may build several clouds (one per
approach under test); :func:`repro.runner.cells.execute_cell` reads the
clouds its :func:`~repro.cluster.cloud.clouds` scope registered and folds
their blocks with :func:`aggregate_counters` into the cell's counters, then
folds those into the process total that :func:`counters_snapshot` reads.
Nothing in the simulation ever *reads* the counters, so they cannot affect
results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List


def max_field() -> int:
    """A counter field aggregated with ``max`` instead of ``+`` across cells.

    Declaring the aggregation mode on the field itself (dataclass metadata)
    keeps :data:`MAX_FIELDS` in sync by construction: a new watermark-style
    counter declared with ``max_field()`` can never silently sum.
    """
    return field(default=0, metadata={"aggregate": "max"})


@dataclass
class SimCounters:
    """Work counters of the DES kernel and the bandwidth solver."""

    #: events popped off the environment queue (``Environment.step``)
    events_popped: int = 0
    #: flows started through ``BandwidthSystem.transfer``
    bw_flows_started: int = 0
    #: same-instant batches flushed (instants at which >= 1 flow started)
    bw_batches: int = 0
    #: flows started across all flushed batches
    bw_batch_flows: int = 0
    #: largest same-instant batch (in started flows) seen so far
    bw_max_batch_flows: int = max_field()
    #: flows completed (last byte delivered)
    bw_flows_completed: int = 0
    #: component discoveries (BFS over channels shared by flows)
    bw_components: int = 0
    #: total flows across all discovered components
    bw_component_flows: int = 0
    #: total channels across all discovered components
    bw_component_channels: int = 0
    #: largest component (in flows) seen so far
    bw_max_component_flows: int = max_field()
    #: settle passes (one per component event)
    bw_settles: int = 0
    #: flows advanced by settle passes
    bw_flows_settled: int = 0
    #: max-min rate recomputations (progressive-filling runs)
    bw_allocations: int = 0
    #: flows assigned a rate by those recomputations
    bw_flows_allocated: int = 0
    #: lazily discarded completion-horizon heap entries
    bw_stale_deadlines: int = 0
    #: persistent-component unions performed at flow attach (a new flow
    #: bridging N live components triggers N-1 unions)
    bw_cc_unions: int = 0
    #: always 0: a component is never split, only drained (kept because
    #: perfbench's ``sim.bandwidth.cc_rebuilds`` row and every artifact's
    #: counter block read it)
    bw_cc_rebuilds: int = 0
    #: delta updates applied to persistent solver arrays in place of a full
    #: reconstruction (row/slot appends on attach, mask compactions on detach)
    bw_array_delta_updates: int = 0
    #: lazy full rebuilds of a persistent component's solver arrays
    #: (first vector allocation after a merge marked them stale)
    bw_array_full_rebuilds: int = 0
    #: slot requests on FIFO resources
    resource_requests: int = 0
    #: slot requests that had to queue behind a full resource
    resource_waits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


#: counter fields aggregated with ``max`` instead of ``+`` across cells,
#: derived from the field metadata (see :func:`max_field`)
MAX_FIELDS = frozenset(
    spec.name for spec in fields(SimCounters) if spec.metadata.get("aggregate") == "max"
)

#: the counters of every cell this process has finished, folded together
_FINISHED_CELLS = SimCounters()


def counters_snapshot() -> SimCounters:
    """A copy of the counters of every cell this process has finished."""
    return replace(_FINISHED_CELLS)


def record_finished_cell(counters: Dict[str, int]) -> None:
    """Fold one finished cell's counters into :func:`counters_snapshot`'s total."""
    for name, value in aggregate_counters([_FINISHED_CELLS.as_dict(), counters]).items():
        setattr(_FINISHED_CELLS, name, value)


def aggregate_counters(per_cell: List[Dict[str, int]]) -> Dict[str, int]:
    """Fold per-cell counter dicts into one aggregate block.

    Additive fields sum; :data:`MAX_FIELDS` take the maximum across cells
    (a "largest component" is not meaningful as a sum).
    """
    total: Dict[str, int] = {spec.name: 0 for spec in fields(SimCounters)}
    for counters in per_cell:
        for key, value in counters.items():
            # Seed unknown keys so cells recorded by a build with extra
            # counters (still valid artifacts) aggregate instead of raising.
            total.setdefault(key, 0)
            if key in MAX_FIELDS:
                total[key] = max(total[key], value)
            else:
                total[key] = total[key] + value
    return total
