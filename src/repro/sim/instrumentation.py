"""Process-global simulation work counters (``cells[].counters`` of an artifact).

The simulator is deterministic, so every counter here is a *property of the
model*, not of the host: two runs of the same cell produce identical counts
on any machine.  That makes the counters the stable part of a run artifact
-- wall-clock times vary with hardware, the counter block does not -- and
lets a regression in algorithmic work (e.g. the bandwidth solver
recomputing more components than it should) show up as an exact integer
diff instead of a noisy timing.

The counters are process-global on purpose: one experiment cell builds its
own :class:`~repro.sim.core.Environment` (often several, one per approach),
and the artifact wants the total work of the cell, not of one environment.
A process runs one cell at a time, so the block is per-cell as long as the
one function that runs a cell scopes it: :func:`repro.runner.cells.execute_cell`
wraps every cell in :func:`counting`, and nothing else in ``src/`` resets the
block.  Outside a cell the block is cumulative over the process (what
:func:`counters_snapshot` reads).  Nothing in the simulation ever *reads*
the counters, so they cannot affect results.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Iterator, List


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
    #: persistent components (re)created by a post-detach split (each
    #: split-off group becomes a lazily rebuilt component)
    bw_cc_rebuilds: int = 0
    #: delta updates applied to persistent solver arrays in place of a full
    #: reconstruction (row/slot appends on attach, mask compactions on detach)
    bw_array_delta_updates: int = 0
    #: lazy full rebuilds of a persistent component's solver arrays
    #: (first vector allocation after a merge/split marked them stale)
    bw_array_full_rebuilds: int = 0
    #: slot requests on FIFO resources
    resource_requests: int = 0
    #: slot requests that had to queue behind a full resource
    resource_waits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    def snapshot(self) -> "SimCounters":
        return replace(self)

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)


#: counter fields aggregated with ``max`` instead of ``+`` across cells,
#: derived from the field metadata (see :func:`max_field`)
MAX_FIELDS = frozenset(
    spec.name for spec in fields(SimCounters) if spec.metadata.get("aggregate") == "max"
)

#: the process-global counter block (see module docstring)
COUNTERS = SimCounters()


def counters_snapshot() -> SimCounters:
    """An immutable-by-convention copy of the current counters."""
    return COUNTERS.snapshot()


def counters_reset() -> None:
    """Zero the process-global counters."""
    COUNTERS.reset()


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


@contextmanager
def counting() -> Iterator[Dict[str, int]]:
    """Scope :data:`COUNTERS` to a ``with`` block (the twin of ``obs.tracing``).

    The yielded dict is filled on exit with the work done inside the block
    alone.  The process block is zeroed on entry and, on exit, restored to
    what it would hold without the scoping (the block saved on entry folded
    with the block's own work through :func:`aggregate_counters`, so a
    larger watermark from before the block survives it): the cumulative
    :func:`counters_snapshot` keeps its meaning.
    """
    saved = COUNTERS.as_dict()
    COUNTERS.reset()
    own: Dict[str, int] = {}
    try:
        yield own
    finally:
        own.update(COUNTERS.as_dict())
        for name, value in aggregate_counters([saved, own]).items():
            setattr(COUNTERS, name, value)
