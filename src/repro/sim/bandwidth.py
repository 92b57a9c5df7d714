"""Max-min fair bandwidth sharing for the DES kernel.

Checkpoint and restart completion times in the paper are dominated by bulk
data transfers that *share* node NICs, the switch fabric and local disks with
other concurrent transfers.  A fixed ``bytes / bandwidth`` delay would miss
exactly the contention effects that separate BlobCR from the PVFS baselines,
so transfers are modelled as *fluid flows*:

* a :class:`FairShareChannel` is a capacity in bytes/s (a NIC, a disk, a
  switch backplane, a storage service ingest limit);
* a flow crosses one or more channels and receives the **max-min fair**
  allocation computed by progressive filling (water-filling) across all
  currently active flows;
* whenever a flow starts or finishes, the affected flows are settled (their
  remaining byte counts advanced at the old rates) and rates are recomputed.

The model is deterministic and exact for piecewise-constant rates.

One engine
----------

Max-min fairness decomposes exactly over the *connected components* of the
flow/channel sharing graph: two flows that share no channel (directly or
transitively) cannot influence each other's rate.  Every flow start, finish
and abort therefore settles and re-allocates only the component it touches:

* **Components** live in an incremental union-find over channels: every busy
  channel points at its :class:`_Component`, whose ``flows`` list is exact
  and sorted by flow index.  An attach unions the components of the flow's
  channels (``Cloud.remote_write`` bridges a disk's local I/O into the
  network's).  A component is never split, only drained: filling gives
  each disjoint group in it its own rates bit for bit, and only settle
  times are shared, so fabrics that no flow bridges while both are busy
  do not move each other's completion times by an ulp.
* **Flow state as arrays.**  A :class:`Flow` is a handle: its remaining
  bytes as of its last settle, its rate, its settle time and its deadline
  live in four float64 arrays of its :class:`BandwidthSystem`, at the flow's
  slot (taken at start, recycled at detach).  A component with clean arrays
  keeps its flows' slots beside them, so settling it, finding its finished
  flows and pushing its deadline are a few numpy calls; only a finished
  flow is visited in Python.  Other components (stale arrays, or fewer than
  ``_VECTOR_MIN_FLOWS`` flows) loop over their flows through memoryviews of
  the same arrays.  Both do the same IEEE operation on the same operands.
* **Horizon heap.**  Each allocation pushes the earliest absolute deadline
  of its group; an entry is valid while its flow holds a slot whose deadline
  still equals it.  One timer fires at the earliest valid deadline (the
  absolute float, so no extra rounding) and re-plans that component.
* **Same-instant flush.**  ``transfer()`` parks a new flow at rate 0; an
  end-of-instant flush hook re-plans each touched component once.  Rates
  depend only on membership and capacities, and parked flows carry zero
  elapsed time, so this equals a replan per start.
* **Slot-space fill.**  Components of at least ``_VECTOR_MIN_FLOWS`` flows
  are filled by :func:`_fill` over persistent arrays: per-edge channel slots
  (rows are the flows in index order, each in channel-tuple order), per-slot
  capacities, per-row flow slots.  Attaches append, a detaching replan
  compacts once, a merge marks them stale for a rebuild.  Smaller
  components are solved by :func:`reference_allocation` itself.
* **Oracle.**  :func:`reference_allocation` is the executable specification.
  ``SolverConfig(verify=True)`` re-derives every rate through it after each
  replan (bit-equal) and re-checks components and arrays against a
  from-scratch BFS (:meth:`BandwidthSystem._component`).

Why the fill is exact
---------------------

Each step of :func:`_fill` takes the minimum ``m`` of the slots' shares
``cap_left / users`` (the reference's single division, same operands) and
freezes one of two things:

* *One round*: the unfrozen flows of the first-encountered slot at ``m``.
  The reference's bottleneck is the first channel of its dict insertion
  order at the strict minimum, and that order is each slot's first
  occurrence along the edge array.  A round subtracts the same ``m`` for
  every frozen flow, so per slot ``np.subtract.at`` gives the reference's
  values in any flow order; and ``max(0, .)`` is monotone and keeps a clamped
  0 at 0, so one clamp after the round equals a clamp per decrement.  If the
  slot is crossed by every unfrozen flow (the switch, at scale), this round
  is the last and, as the first step, assembles nothing.
* *A tie run*: when only single-user slots hold ``m``, the reference
  freezes their flows at ``m``, one round each, while no other slot reaches
  ``m``.  ``np.subtract.accumulate`` replays each other slot those flows
  cross, decrement by decrement; if its share stays strictly above ``m``
  throughout, the whole run is one step (equal subtrahends commute), else
  the step is one round.

The round that freezes the last flow writes no residual: none is read.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sim.core import Environment, Event
from repro.util.config import SolverConfig
from repro.util.errors import SimulationError

_EPSILON_BYTES = 1e-6
_EPSILON_TIME = 1e-12
#: components below this size are solved by ``reference_allocation`` and
#: settled by a Python loop -- numpy's fixed per-call overhead loses to a
#: handful of scalar operations (every path is bit-identical, so the
#: threshold only decides speed; the equivalence suite forces it to 1 to
#: check the array path on every shape)
_VECTOR_MIN_FLOWS = 16

#: process-global wall-clock seconds spent inside the solver's entry points
#: (planning a started flow, end-of-instant flushes, horizon timers, failure
#: aborts).  Unlike the deterministic work counters this is real time -- it lets a
#: benchmark report the solver's share of a run without the surrounding
#: application model diluting it.  Cumulative over the process: nothing
#: resets it, a reader takes the difference of two readings.
_SOLVER_WALL = {"seconds": 0.0}


def solver_wall_seconds() -> float:
    """Wall-clock seconds this process has spent in solver entry points."""
    return _SOLVER_WALL["seconds"]


class FairShareChannel:
    """A shared capacity (bytes/s) that concurrent flows divide fairly."""

    __slots__ = (
        "system",
        "capacity",
        "name",
        "index",
        "flows",
        "_carried_completed",
        "comp",
        "_slot",
        "_slot_epoch",
    )

    def __init__(self, system: "BandwidthSystem", capacity: float, name: str = ""):
        if not capacity > 0:  # also rejects NaN; inf is the unlimited channel
            raise SimulationError(
                f"channel {name or '<unnamed>'}: capacity must be positive, got {capacity}"
            )
        self.system = system
        self.capacity = float(capacity)
        #: creation order; gives components a deterministic iteration order
        self.index = system._next_channel_index()
        self.name = name or f"channel-{self.index}"
        self.flows: set[Flow] = set()
        #: exact bytes delivered by flows that already left this channel
        self._carried_completed: float = 0.0
        #: solver state (see the module docstring): owning component while
        #: busy and slot in its arrays (valid only while ``_slot_epoch``
        #: matches the component's epoch)
        self.comp: Optional["_Component"] = None
        self._slot = -1
        self._slot_epoch = -1

    @property
    def bytes_carried(self) -> float:
        """Total bytes ever carried, for utilisation accounting.

        Completed (and aborted) flows contribute their exact byte count once,
        when they detach; in-flight flows contribute what they had delivered
        as of their last settle.  Unlike a per-settle ``rate * elapsed``
        running sum, the total is exact once the crossing flows have
        finished: it equals the sum of their sizes to the last bit.
        """
        live = sum(flow.size - flow.remaining for flow in self.flows)
        return self._carried_completed + live

    def __repr__(self) -> str:
        return (
            f"<FairShareChannel {self.name!r} {self.capacity:.6g} B/s, "
            f"{len(self.flows)} active flow(s)>"
        )


class Flow:
    """A bulk transfer in flight: a handle on its system's state arrays.

    ``remaining`` (bytes as of the last settle of its component) and
    ``rate`` read the arrays at ``slot`` while the flow is attached; a
    detached flow keeps its last ``remaining`` and reads rate 0.  ``pending``
    marks a flow started at this instant and not planned yet (attached, so
    failure injection sees it, at rate 0 until the end-of-instant flush).
    ``done`` is the completion event until it succeeds; it is then cleared,
    since the event's value is the flow and the pair would be a cycle.
    """

    __slots__ = (
        "size",
        "channels",
        "done",
        "started_at",
        "index",
        "label",
        "pending",
        "slot",
        "_left",
    )

    def __init__(self, size: float, channels: Sequence[FairShareChannel], done: Event, label: str):
        self.size = float(size)
        self.channels = tuple(channels)
        self.done = done
        self.started_at = done.env.now
        self.index = 0
        self.label = label
        self.pending = False
        self.slot = -1  # -1 while detached
        self._left = self.size

    @property
    def remaining(self) -> float:
        if self.slot < 0:
            return self._left
        return self.channels[0].system._rem_v[self.slot]

    @property
    def rate(self) -> float:
        if self.slot < 0:
            return 0.0
        return self.channels[0].system._rate_v[self.slot]

    def __repr__(self) -> str:
        via = "+".join(chan.name for chan in self.channels) or "no channels"
        return (
            f"<Flow {self.label!r} {self.remaining:.0f}/{self.size:.0f} B "
            f"@ {self.rate:.6g} B/s via {via}>"
        )


def reference_allocation(flows: Iterable["Flow"]) -> Dict["Flow", float]:
    """Global max-min fair rates by progressive filling (the reference solver).

    This is the executable specification the incremental engine must agree
    with: fill every channel's capacity in rounds, always freezing the flows
    of the currently most constrained channel at its fair share.  The
    incremental engine runs the very same procedure restricted to one
    component (one or more connected groups); because a freeze only mutates
    state inside its own group, the restriction is *exactly* equivalent -- which
    ``SolverConfig(verify=True)`` and the equivalence test suite assert
    bit-for-bit on every recomputation.

    Flows are processed in creation order (:attr:`Flow.index`) so the
    result is independent of set iteration order.
    """
    ordered = sorted(flows, key=lambda f: f.index)
    rates: Dict[Flow, float] = {}
    unfrozen = set(ordered)
    cap_left: Dict[FairShareChannel, float] = {}
    users: Dict[FairShareChannel, int] = {}
    for flow in ordered:
        for chan in flow.channels:
            cap_left.setdefault(chan, chan.capacity)
            users[chan] = users.get(chan, 0) + 1
    while unfrozen:
        # Find the most constrained channel among those still serving
        # unfrozen flows.
        bottleneck = None
        share = math.inf
        for chan, count in users.items():
            if count <= 0:
                continue
            chan_share = cap_left[chan] / count
            if chan_share < share:
                share = chan_share
                bottleneck = chan
        if bottleneck is None:
            # Remaining flows cross no constrained channel; they are
            # effectively unlimited (should not happen: zero-channel flows
            # complete immediately in transfer()).
            for flow in unfrozen:
                rates[flow] = math.inf
            break
        frozen_now = [f for f in ordered if f in unfrozen and bottleneck in f.channels]
        for flow in frozen_now:
            rates[flow] = share
            unfrozen.discard(flow)
            for chan in flow.channels:
                cap_left[chan] = max(0.0, cap_left[chan] - share)
                users[chan] -= 1
    return rates


class _Component:
    """One live component of the flow/channel sharing graph.

    The union-find cell every busy channel points at, plus flat arrays that
    survive between recomputations.  ``flows`` is exact and sorted by flow
    index; the arrays mirror it only while ``dirty`` is false (the next
    vector allocation rebuilds them under a globally unique ``epoch``, so a
    channel's ``_slot`` is never read against arrays it was not assigned
    for).  ``pending`` holds the flows attached since the last replan.
    Layout (lengths ``n_rows`` / ``n_edges`` / ``n_slots``, buffers doubling
    on growth): ``counts[i]`` channels and ``fslot[i]`` state slot of
    ``flows[i]``; ``e_slot``, the per-edge channel slots of the rows in
    order (CSR); ``caps[s]``, the capacity of slot ``s`` -- inf for a dead
    slot, whose channel left (counted in ``dead_slots``).
    """

    __slots__ = (
        "ident",
        "epoch",
        "flows",
        "pending",
        "dirty",
        "counts",
        "fslot",
        "e_slot",
        "caps",
        "n_rows",
        "n_edges",
        "n_slots",
        "dead_slots",
    )

    def __init__(self, ident: int, epoch: int):
        self.ident = ident
        self.epoch = epoch
        self.flows: List[Flow] = []
        self.pending: List[Flow] = []
        self.dirty = True  # arrays are built lazily, on first vector allocation
        self.counts: Optional[np.ndarray] = None
        self.fslot: Optional[np.ndarray] = None
        self.e_slot: Optional[np.ndarray] = None
        self.caps: Optional[np.ndarray] = None
        self.n_rows = 0
        self.n_edges = 0
        self.n_slots = 0
        self.dead_slots = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dirty" if self.dirty else f"{self.n_slots - self.dead_slots} slot(s)"
        return f"<_Component #{self.ident} {len(self.flows)} flow(s), {state}>"


def _fill(edges: np.ndarray, counts: np.ndarray, caps: np.ndarray, n: int):
    """Progressive filling over one component's slot arrays.

    ``edges`` holds each row's channel slots (``counts`` long each, rows in
    flow index order) and ``caps`` each slot's capacity.  Returns the rows'
    rates, or one float when the first step freezes every row.  The module
    docstring says why every step reproduces :func:`reference_allocation`.
    """
    users = np.bincount(edges, minlength=caps.size)
    shares = caps / users  # a slot without users has capacity inf: inf / 0 == inf
    rates = unfrozen = erow = cap_left = None
    left = n
    while True:
        slot = int(shares.argmin())
        share = float(shares[slot])
        if share == math.inf:
            # The rest cross no constrained channel (the reference's
            # bottleneck-is-None branch); their rates stay inf.
            return share if rates is None else rates
        tied = shares == share
        several = np.count_nonzero(tied) > 1
        if several:
            slot = int(edges[tied[edges].argmax()])  # the first encountered
        if users[slot] == left:  # every unfrozen flow crosses it: the last round
            if rates is None:
                return share
            rates[unfrozen] = share
            return rates
        if erow is None:
            erow = np.repeat(np.arange(n), counts)
            unfrozen = np.empty(n, dtype=bool)
            unfrozen.fill(True)
            rates = np.empty(n)
            rates.fill(math.inf)
            cap_left = caps.copy()
        batch = None
        if several and (users[tied] == 1).all():
            batch = _tie_run(edges, erow, unfrozen, tied, cap_left, users, share)
        if batch is None:
            batch = _round(edges, erow, unfrozen, slot)
        member, batch_edges = batch
        rates[member] = share
        unfrozen[member] = False
        left -= int(np.count_nonzero(member))
        if not left:
            return rates
        np.subtract.at(cap_left, batch_edges, share)
        np.maximum(cap_left, 0.0, out=cap_left)
        np.subtract.at(users, batch_edges, 1)
        cap_left[users == 0] = math.inf
        np.divide(cap_left, users, out=shares)


def _round(
    edges: np.ndarray, erow: np.ndarray, unfrozen: np.ndarray, slot: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One round: the unfrozen rows crossing ``slot`` (a row mask) and their edges."""
    member = np.zeros(unfrozen.size, dtype=bool)
    member[erow[edges == slot]] = True
    member &= unfrozen
    return member, edges[member[erow]]


def _tie_run(
    edges: np.ndarray,
    erow: np.ndarray,
    unfrozen: np.ndarray,
    tied: np.ndarray,
    cap_left: np.ndarray,
    users: np.ndarray,
    share: float,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The flows of a tie among single-user slots, if one step may freeze them.

    Each other slot those flows cross takes one decrement per flow.  Its
    share after each of them is replayed with ``np.subtract.accumulate``
    (sequential, like the reference's rounds), slots grouped by decrement
    count; any share at or below ``share`` returns None (one round instead).
    """
    member = np.zeros(unfrozen.size, dtype=bool)
    member[erow[tied[edges]]] = True
    member &= unfrozen
    batch_edges = edges[member[erow]]
    hits = np.bincount(batch_edges, minlength=users.size)
    hits[tied] = 0
    touched = hits.nonzero()[0]
    decrements = hits[touched]
    for k in set(decrements.tolist()):
        slots = touched[decrements == k]
        steps = np.full((slots.size, k + 1), share)
        steps[:, 0] = cap_left[slots]
        residual = np.maximum(np.subtract.accumulate(steps, axis=1)[:, 1:], 0.0)
        remaining_users = users[slots][:, None] - np.arange(1, k + 1)
        after = np.empty(residual.shape)
        after.fill(math.inf)
        np.divide(residual, remaining_users, out=after, where=remaining_users > 0)
        if not (after > share).all():
            return None
    return member, batch_edges


class BandwidthSystem:
    """Owner of all channels and flows of one simulation environment.

    :class:`~repro.util.config.SolverConfig` (``config``) decides how the
    engine is checked: ``config.verify`` re-derives every flow's rate through
    :func:`reference_allocation` over the *whole* system after each
    incremental recomputation and raises on any mismatch -- slow, but it
    turns the component-decomposition argument into a runtime assertion
    (used by the equivalence tests; harmless to enable on small models).
    """

    def __init__(self, env: Environment, config: Optional[SolverConfig] = None):
        self.env = env
        self.verify = (config or SolverConfig()).verify
        self._counters = env.counters  # the environment's sinks, for the hot paths
        self._tracer = env.tracer
        #: globally unique epoch source for component array generations
        self._comp_epoch = 0
        self._comp_ident = 0
        # Insertion-ordered (dict): flows are registered in index order, so
        # iterating never needs a sort to recover creation order.
        self._flows: Dict[Flow, None] = {}
        self._flow_index = 0
        self._channel_index = 0
        #: flow-state arrays by slot (module docstring), with memoryviews
        self._slots_used = 0
        self._free_slots: List[int] = []
        self._grow_state()
        #: flows started at the current instant, awaiting the flush hook
        self._pending: List[Flow] = []
        #: number of live flows still carrying pending=True; reference
        #: verification only makes sense when this is zero (a parked flow's
        #: rate is 0 by construction, not by the reference solver)
        self._unplanned = 0
        #: completion-horizon heap of (deadline, push sequence, flow);
        #: entries are invalidated lazily (see _arm_timer / _on_timer)
        self._heap: List[Tuple[float, int, Flow]] = []
        self._heap_seq = 0
        self._timer_generation = 0
        self.completed_flows = 0
        #: exact total bytes delivered by completed flows
        self.bytes_delivered = 0.0
        env.add_flush_hook(self._flush_pending)

    # -- public API -------------------------------------------------------------

    def channel(self, capacity: float, name: str = "") -> FairShareChannel:
        return FairShareChannel(self, capacity, name)

    def transfer(
        self,
        nbytes: float,
        channels: Iterable[FairShareChannel],
        latency: float = 0.0,
        label: str = "transfer",
    ) -> Event:
        """Start a flow of ``nbytes`` across ``channels``.

        Returns an event that fires (with the flow as value) once the last
        byte has been delivered, ``latency`` seconds after transmission ends.
        ``latency`` models propagation / fixed software overhead and is not
        subject to sharing.
        """
        if not 0 <= nbytes < math.inf:  # also rejects NaN
            raise SimulationError(
                f"flow {label!r}: byte count must be finite and non-negative, got {nbytes}"
            )
        if not 0 <= latency < math.inf:
            raise SimulationError(
                f"flow {label!r}: latency must be finite and non-negative, got {latency}"
            )
        channel_list = [c for c in channels if c is not None]
        for chan in channel_list:
            if chan.system is not self:
                raise SimulationError("flow crosses a channel from another BandwidthSystem")
        if len(set(channel_list)) != len(channel_list):
            # The solver would count two users where ``chan.flows`` holds one
            # flow, and _fill reads "as many users as unfrozen flows" as
            # "every flow crosses this channel".
            names = "+".join(chan.name for chan in channel_list)
            raise SimulationError(f"flow {label!r} lists a channel twice: {names}")
        done = self.env.event(f"flow:{label}")
        completion = done
        if latency > 0:
            transit = self.env.event(f"flow-transit:{label}")
            completion = transit

            def _after_latency(event: Event, _done=done, _lat=latency) -> None:
                if not event.ok:  # a failed channel aborted the transmission
                    _done.fail(event.value)
                    return

                def _deliver(timer: Event) -> None:
                    if not _done.triggered:
                        _done.succeed(timer.value)

                self.env.timeout(_lat, event.value).callbacks.append(_deliver)

            transit.callbacks.append(_after_latency)

        flow = Flow(nbytes, channel_list, completion, label)
        if nbytes <= _EPSILON_BYTES or not channel_list:
            completion.succeed(flow)
            flow.done = None
            return done
        self._counters.bw_flows_started += 1
        # Park the flow until the end of the instant: attach it (so failure
        # injection sees it) at rate 0 -- the flush hook settles and re-plans
        # each touched component once.  Indices are assigned in call order.
        self._flow_index += 1
        flow.index = self._flow_index
        slot = flow.slot = self._take_slot()
        self._rem_v[slot] = flow.size
        self._rate_v[slot] = 0.0
        self._settled_v[slot] = self.env.now
        self._deadline_v[slot] = math.inf
        self._flows[flow] = None
        for chan in channel_list:
            chan.flows.add(flow)
        flow.pending = True
        self._unplanned += 1
        self._pending.append(flow)
        t0 = perf_counter()
        self._p_attach(flow)
        _SOLVER_WALL["seconds"] += perf_counter() - t0
        return done

    def fail_channel(self, channel: FairShareChannel, exception: BaseException) -> int:
        """Abort every flow crossing ``channel`` with ``exception``.

        Used by fail-stop failure injection: when a node dies its NIC and
        disk channels fail, which aborts all in-flight transfers touching it.
        Returns the number of aborted flows.
        """
        if not channel.flows:
            return 0
        t0 = perf_counter()
        comp = channel.comp
        component = comp.flows
        self._count_component(comp)
        self._settle(comp)
        victims = sorted(channel.flows, key=lambda f: f.index)
        keep = [channel not in f.channels for f in component]
        for flow in victims:
            # Aborted flows contribute what they actually delivered.
            self._detach(flow, flow.size - flow.remaining)
            if not flow.done.triggered:
                flow.done.fail(exception)
        if not comp.dirty:
            self._p_remove_rows(comp, keep)
        comp.flows = [f for f, kept in zip(component, keep) if kept]
        finished = [i for i, f in enumerate(comp.flows) if f.remaining <= _EPSILON_BYTES]
        self._replan(comp, finished)
        _SOLVER_WALL["seconds"] += perf_counter() - t0
        return len(victims)

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    # -- internals ----------------------------------------------------------------

    def _next_channel_index(self) -> int:
        self._channel_index += 1
        return self._channel_index

    def _take_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        slot = self._slots_used
        self._slots_used = slot + 1
        if slot == self._rem.size:
            self._grow_state()
        return slot

    def _grow_state(self) -> None:
        """Allocate the flow-state arrays at twice the slots in use (at least 64)."""
        used = self._slots_used
        grown = [np.zeros(max(64, 2 * used)) for _ in range(4)]
        if used:
            for array, old in zip(grown, (self._rem, self._rate, self._settled, self._deadline)):
                array[: old.size] = old
        self._rem, self._rate, self._settled, self._deadline = grown
        self._rem_v, self._rate_v, self._settled_v, self._deadline_v = map(memoryview, grown)

    @staticmethod
    def _scalar(comp: _Component) -> bool:
        """Whether ``comp`` is settled, scanned and pushed flow by flow."""
        return comp.dirty or len(comp.flows) < _VECTOR_MIN_FLOWS

    def _flush_pending(self) -> None:
        """End-of-instant hook: plan every flow that started at this instant.

        Each still-unplanned pending flow seeds the replan of its component;
        flows already planned mid-instant (a timer or a failure at the same
        timestamp) or aborted are skipped.  Components replan separately, so
        the work counters reflect the true partitioning.
        """
        pending = self._pending
        if not pending:
            return
        t0 = perf_counter()
        self._pending = []
        self._counters.bw_batches += 1
        self._counters.bw_batch_flows += len(pending)
        if len(pending) > self._counters.bw_max_batch_flows:
            self._counters.bw_max_batch_flows = len(pending)
        if self._tracer is not None:
            self._tracer.observe("bw.batch_flows", len(pending))
        for flow in pending:
            if not flow.pending:
                continue
            comp = flow.channels[0].comp
            self._count_component(comp)
            self._replan(comp, self._settle(comp))
        _SOLVER_WALL["seconds"] += perf_counter() - t0

    def _component(self, channels: Iterable[FairShareChannel]) -> List[Flow]:
        """Flows transitively sharing a channel with any of ``channels``.

        The connectivity oracle: a from-scratch BFS over the bipartite
        flow/channel graph, sorted by flow creation order.  The engine never
        calls it -- verify mode and the equivalence suite check that the
        maintained union-find components contain it, so it moves no work
        counter and takes no shortcut.
        """
        seen_channels: Set[FairShareChannel] = set(channels)
        stack: List[FairShareChannel] = list(seen_channels)
        seen_flows: Set[Flow] = set()
        while stack:
            chan = stack.pop()
            for flow in chan.flows:
                if flow in seen_flows:
                    continue
                seen_flows.add(flow)
                for other in flow.channels:
                    if other not in seen_channels:
                        seen_channels.add(other)
                        stack.append(other)
        return sorted(seen_flows, key=lambda f: f.index)

    def _settle(self, comp: _Component) -> List[int]:
        """Advance the component's flows to the current time at their last
        rates; returns the positions of the flows now delivered (up to the
        byte epsilon), in index order.  Only a flow that moves can finish: a
        replan leaves no delivered flow attached, and a new flow carries its
        size."""
        now = self.env.now
        flows = comp.flows
        self._counters.bw_settles += 1
        self._counters.bw_flows_settled += len(flows)
        if self._scalar(comp):
            settled, rate, remaining = self._settled_v, self._rate_v, self._rem_v
            finished = []
            for i, flow in enumerate(flows):
                slot = flow.slot
                elapsed = now - settled[slot]
                settled[slot] = now
                if elapsed > _EPSILON_TIME:
                    moved = rate[slot] * elapsed
                    if moved > 0.0:
                        left = remaining[slot] = max(0.0, remaining[slot] - moved)
                        if left <= _EPSILON_BYTES:
                            finished.append(i)
            return finished
        slots = comp.fslot[: comp.n_rows]
        elapsed = now - self._settled[slots]
        self._settled[slots] = now
        if elapsed.min() > _EPSILON_TIME:
            moved = self._rate[slots] * elapsed
        elif elapsed.max() <= _EPSILON_TIME:
            return []  # nothing moves
        else:  # a flow that does not move subtracts 0 (and the clamp is a no-op)
            moved = np.zeros(slots.size)
            np.multiply(self._rate[slots], elapsed, out=moved, where=elapsed > _EPSILON_TIME)
        left = np.maximum(self._rem[slots] - moved, 0.0)
        self._rem[slots] = left
        if left.min() > _EPSILON_BYTES:
            return []
        return (left <= _EPSILON_BYTES).nonzero()[0].tolist()

    def _detach(self, flow: Flow, delivered: float) -> None:
        self._flows.pop(flow, None)
        if flow.pending:  # aborted before its instant was flushed
            flow.pending = False
            self._unplanned -= 1
        flow._left = self._rem_v[flow.slot]
        self._free_slots.append(flow.slot)
        flow.slot = -1
        for chan in flow.channels:
            flows = chan.flows
            if flow in flows:
                flows.discard(flow)
                if not flows:
                    # Last flow gone: the channel leaves its component
                    # (an empty channel is an isolated vertex).
                    self._kill_slot(chan.comp, chan)
                    chan.comp = None
            chan._carried_completed += delivered

    def _replan(self, comp: _Component, finished: List[int]) -> None:
        """Complete finished flows, re-allocate the rest, re-arm the timer.

        ``finished`` holds the positions of the settled component's delivered
        flows (what :meth:`_settle` returns).  The survivors stay one
        component, even if the flows that connected them are gone.
        """
        for flow in comp.pending:
            if flow.pending:
                flow.pending = False
                self._unplanned -= 1
        comp.pending = []
        flows = comp.flows
        tracer = self._tracer
        for i in finished:  # delivered, up to the byte epsilon
            flow = flows[i]
            self._detach(flow, flow.size)
            self.completed_flows += 1
            self.bytes_delivered += flow.size
            self._counters.bw_flows_completed += 1
            if tracer is not None:
                tracer.observe("flow.bytes", flow.size)
                tracer.observe("flow.latency_s", self.env.now - flow.started_at)
            if not flow.done.triggered:
                flow.done.succeed(flow)
            flow.done = None
        if finished:
            if not comp.dirty:
                keep = np.ones(comp.n_rows, dtype=bool)
                keep[finished] = False
                self._p_remove_rows(comp, keep)
            for i in reversed(finished):
                del flows[i]
        if flows:
            self._allocate(comp)
            self._push_deadlines(comp)
        if self.verify and self._unplanned == 0:
            # Parked flows elsewhere hold rate 0 by construction: check the
            # whole system once the instant is planned.
            self._verify_against_reference()
            self._verify_persistent_components()
        self._arm_timer()

    def _allocate(self, comp: _Component) -> None:
        """Progressive filling restricted to one (settled) component: by the
        reference procedure itself, or by :func:`_fill` over its arrays."""
        flows = comp.flows
        self._counters.bw_allocations += 1
        self._counters.bw_flows_allocated += len(flows)
        if len(flows) < _VECTOR_MIN_FLOWS:
            rate = self._rate_v
            for flow, value in reference_allocation(flows).items():
                rate[flow.slot] = value
        else:
            if comp.dirty or comp.dead_slots * 2 > comp.n_slots:
                self._p_rebuild(comp)
            n = comp.n_rows  # == len(flows): the arrays mirror the flow list
            self._rate[comp.fslot[:n]] = _fill(
                comp.e_slot[: comp.n_edges], comp.counts[:n], comp.caps[: comp.n_slots], n
            )
        if self._tracer is not None:
            # Channels collected and summed in creation-index order: a set
            # iteration here would make float summation order (and thus the
            # trace bytes) depend on object hashes.
            touched = {chan.index: chan for flow in flows for chan in flow.channels}
            now = self.env.now
            for index in sorted(touched):
                chan = touched[index]
                used = sum(f.rate for f in sorted(chan.flows, key=lambda f: f.index))
                self._tracer.gauge("utilization", chan.name, now, used / chan.capacity)

    # -- component and array maintenance -------------------------------------------

    def _new_component(self) -> _Component:
        self._comp_ident += 1
        self._comp_epoch += 1
        return _Component(self._comp_ident, self._comp_epoch)

    def _count_component(self, comp: _Component) -> None:
        """The component work counters, for the component about to replan."""
        n = len(comp.flows)
        self._counters.bw_components += 1
        self._counters.bw_component_flows += n
        if comp.dirty:
            channels: Set[FairShareChannel] = set()
            for flow in comp.flows:
                channels.update(flow.channels)
            self._counters.bw_component_channels += len(channels)
        else:
            self._counters.bw_component_channels += comp.n_slots - comp.dead_slots
        if n > self._counters.bw_max_component_flows:
            self._counters.bw_max_component_flows = n

    def _p_attach(self, flow: Flow) -> None:
        """Union the flow's channels into one component and append the flow.

        The incremental half of the union-find: idle channels join directly,
        distinct live components merge into the largest one (the smaller
        sides are relabelled and the arrays marked stale).
        """
        comps: List[_Component] = []
        for chan in flow.channels:
            comp = chan.comp
            if comp is not None and comp not in comps:
                comps.append(comp)
        if not comps:
            target = self._new_component()
        else:
            target = comps[0]
            for comp in comps[1:]:
                if (len(comp.flows), -comp.ident) > (len(target.flows), -target.ident):
                    target = comp
            for comp in comps:
                if comp is not target:
                    self._p_merge(target, comp)
        dirty = target.dirty
        for chan in flow.channels:
            if chan.comp is None:
                chan.comp = target
                if not dirty:
                    self._p_add_slot(target, chan)
        target.flows.append(flow)  # highest index: the sort order is preserved
        target.pending.append(flow)
        if not dirty:
            self._p_append_row(target, flow)

    def _p_merge(self, target: _Component, other: _Component) -> None:
        """Absorb ``other`` into ``target`` (relabel pointers, merge flows).

        Every member channel is crossed by a member flow, so the flow list
        reaches every pointer.  ``target``'s arrays go stale; the next vector
        allocation rebuilds them (merges are rare).
        """
        for flow in other.flows:
            for chan in flow.channels:
                chan.comp = target
        # Two runs already sorted by flow index: timsort merges in O(n).
        target.flows = sorted(target.flows + other.flows, key=lambda f: f.index)
        target.pending += other.pending
        target.dirty = True
        self._counters.bw_cc_unions += 1

    @staticmethod
    def _kill_slot(comp: _Component, chan: FairShareChannel) -> None:
        """``chan`` left ``comp``: its slot, if any, goes dead at capacity inf
        (``caps / users`` then reads inf / 0 == inf there, with no warning)."""
        if not comp.dirty and chan._slot_epoch == comp.epoch:
            comp.dead_slots += 1
            comp.caps[chan._slot] = math.inf

    def _p_add_slot(self, comp: _Component, chan: FairShareChannel) -> None:
        slot = comp.n_slots
        caps = comp.caps
        if caps is None or slot == caps.size:
            grown = np.empty(max(32, slot * 2), dtype=np.float64)
            if slot:
                grown[:slot] = caps[:slot]
            comp.caps = caps = grown
        caps[slot] = chan.capacity
        chan._slot = slot
        chan._slot_epoch = comp.epoch
        comp.n_slots = slot + 1

    def _p_append_row(self, comp: _Component, flow: Flow) -> None:
        """Delta update: append the new flow's row to the CSR arrays."""
        k = len(flow.channels)
        edges = comp.e_slot
        n_edges = comp.n_edges
        if edges is None or n_edges + k > edges.size:
            grown = np.empty(max(64, 2 * (n_edges + k)), dtype=np.int64)
            if n_edges:
                grown[:n_edges] = edges[:n_edges]
            comp.e_slot = edges = grown
        for chan in flow.channels:
            edges[n_edges] = chan._slot
            n_edges += 1
        comp.n_edges = n_edges
        row = comp.n_rows
        if row == comp.counts.size:
            counts, fslot = np.empty((2, max(32, row * 2)), dtype=np.int64)
            counts[:row] = comp.counts[:row]
            fslot[:row] = comp.fslot[:row]
            comp.counts, comp.fslot = counts, fslot
        comp.counts[row] = k
        comp.fslot[row] = flow.slot
        comp.n_rows = row + 1
        self._counters.bw_array_delta_updates += 1

    def _p_remove_rows(self, comp: _Component, keep: Sequence[bool]) -> None:
        """Delta update: drop the rows of detached flows by one boolean mask."""
        n = comp.n_rows
        keep_arr = np.asarray(keep, dtype=bool)
        edge_keep = np.repeat(keep_arr, comp.counts[:n])
        kept_edges = comp.e_slot[: comp.n_edges][edge_keep]
        comp.e_slot[: kept_edges.size] = kept_edges
        comp.n_edges = int(kept_edges.size)
        kept = int(np.count_nonzero(keep_arr))
        comp.counts[:kept] = comp.counts[:n][keep_arr]
        comp.fslot[:kept] = comp.fslot[:n][keep_arr]
        comp.n_rows = kept
        self._counters.bw_array_delta_updates += 1

    def _p_rebuild(self, comp: _Component) -> None:
        """Full array rebuild from the (exact) flow list, under a new epoch:
        on the first vector allocation after a merge, or when dead slots
        pile up."""
        flows = comp.flows
        n = len(flows)
        self._comp_epoch += 1
        epoch = comp.epoch = self._comp_epoch
        counts = np.fromiter((len(f.channels) for f in flows), np.int64, n)
        total = int(counts.sum()) if n else 0
        e_slot = np.empty(total, dtype=np.int64)
        caps: List[float] = []
        n_slots = 0
        pos = 0
        for flow in flows:
            for chan in flow.channels:
                if chan._slot_epoch != epoch:
                    chan._slot_epoch = epoch
                    chan._slot = n_slots
                    caps.append(chan.capacity)
                    n_slots += 1
                e_slot[pos] = chan._slot
                pos += 1
        comp.counts = counts
        comp.fslot = np.fromiter((f.slot for f in flows), np.int64, n)
        comp.e_slot = e_slot
        comp.caps = np.array(caps, dtype=np.float64)
        comp.n_rows = n
        comp.n_edges = total
        comp.n_slots = n_slots
        comp.dead_slots = 0
        comp.dirty = False
        self._counters.bw_array_full_rebuilds += 1

    def _verify_persistent_components(self) -> None:
        """Verify-mode cross-check of the maintained structure itself.

        Every attached flow's channels must point at one component whose
        ``flows`` are exactly the attached flows pointing at it, in index
        order, and are what a BFS (:meth:`_component`) from their channels
        reaches.  A clean component's arrays must mirror its flow list edge
        for edge and row for row, ``dead_slots`` counting exactly the slots
        no edge uses (each at capacity inf).
        """
        members: Dict[_Component, List[Flow]] = {}
        for flow in self._flows:  # index order
            comp = flow.channels[0].comp
            if comp is None:
                raise SimulationError(f"persistent component lost track of {flow!r}")
            for chan in flow.channels:
                if chan.comp is not comp:
                    raise SimulationError(
                        f"channel {chan.name!r} points at component "
                        f"#{chan.comp.ident if chan.comp else None}, expected #{comp.ident}"
                    )
            members.setdefault(comp, []).append(flow)
        for comp, attached in members.items():
            reached = self._component(chan for flow in attached for chan in flow.channels)
            if not comp.flows == attached == reached:
                raise SimulationError(
                    f"persistent component #{comp.ident} lists {len(comp.flows)} flow(s); "
                    f"{len(attached)} point at it, BFS from their channels reaches {len(reached)}"
                )
            if comp.dirty:
                continue
            slots = [member.slot for member in comp.flows]
            if comp.n_rows != len(comp.flows) or comp.fslot[: comp.n_rows].tolist() != slots:
                raise SimulationError(
                    f"persistent arrays of component #{comp.ident} hold "
                    f"{comp.n_rows} row(s) that do not mirror its {len(comp.flows)} flow(s)"
                )
            pos = 0
            for member in comp.flows:
                for chan in member.channels:
                    if (
                        chan._slot_epoch != comp.epoch
                        or comp.e_slot[pos] != chan._slot
                        or comp.caps[chan._slot] != chan.capacity
                    ):
                        raise SimulationError(
                            f"persistent arrays of component #{comp.ident} "
                            f"diverged at edge {pos} ({member!r} x {chan.name!r})"
                        )
                    pos += 1
            if pos != comp.n_edges:
                raise SimulationError(
                    f"persistent arrays of component #{comp.ident} hold "
                    f"{comp.n_edges} edge(s), expected {pos}"
                )
            used = np.zeros(comp.n_slots, dtype=bool)
            used[comp.e_slot[: comp.n_edges]] = True
            live_slots = int(np.count_nonzero(used))
            dead_caps = comp.caps[: comp.n_slots][~used]
            if comp.n_slots - comp.dead_slots != live_slots or (dead_caps != math.inf).any():
                raise SimulationError(
                    f"persistent arrays of component #{comp.ident} count "
                    f"{comp.n_slots - comp.dead_slots} live slot(s), its edges use {live_slots}"
                )

    def _push_deadlines(self, comp: _Component) -> None:
        """Recompute the absolute completion deadline of each of its flows.

        Only the group's *earliest* deadline enters the horizon heap: when
        its timer fires, the whole component replans and every finished flow
        is found by its bytes, so one entry per group suffices.  A starved
        flow (rate 0) has no horizon (``_arm_timer`` raises if no flow has
        one).  A horizon at or below the settle threshold (float residue, or
        rate inf) is nudged past it, or the timer would refire forever.
        """
        now = self.env.now
        flows = comp.flows
        if self._scalar(comp):
            rate_v, remaining, deadline_v = self._rate_v, self._rem_v, self._deadline_v
            best_deadline = math.inf
            best_flow = None
            for flow in flows:
                slot = flow.slot
                rate = rate_v[slot]
                if rate <= 0.0:
                    deadline_v[slot] = math.inf
                    continue
                horizon = remaining[slot] / rate  # 0.0 for rate == inf
                if horizon <= _EPSILON_TIME:
                    horizon = _EPSILON_TIME * 10
                deadline = now + horizon
                deadline_v[slot] = deadline
                if deadline < best_deadline:
                    best_deadline = deadline
                    best_flow = flow
        else:
            slots = comp.fslot[: comp.n_rows]
            rate = self._rate[slots]
            if rate.min() > 0.0:
                horizon = self._rem[slots] / rate
            else:
                horizon = np.empty(slots.size)
                horizon.fill(math.inf)
                np.divide(self._rem[slots], rate, out=horizon, where=rate > 0.0)
            horizon[horizon <= _EPSILON_TIME] = _EPSILON_TIME * 10
            deadlines = now + horizon
            self._deadline[slots] = deadlines
            first = int(deadlines.argmin())  # the first minimum, as the loop keeps
            best_deadline = float(deadlines[first])
            best_flow = flows[first]
        if best_deadline < math.inf:
            self._heap_seq += 1
            heapq.heappush(self._heap, (best_deadline, self._heap_seq, best_flow))

    def _arm_timer(self) -> None:
        """Schedule the horizon timer at the earliest valid deadline."""
        heap = self._heap
        deadline = self._deadline_v
        while heap:
            when, _seq, flow = heap[0]
            if flow.slot >= 0 and deadline[flow.slot] == when:
                break
            heapq.heappop(heap)
            self._counters.bw_stale_deadlines += 1
        if self._tracer is not None:
            self._tracer.gauge("horizon-heap", "bandwidth", self.env.now, len(heap))
        if not self._flows:
            return
        if not heap:
            if self._unplanned:
                # Flows parked at this instant have no horizon *yet*; the
                # end-of-instant flush plans them and re-runs this check.
                return
            raise SimulationError("active flows but no finite completion horizon")
        self._timer_generation += 1
        generation = self._timer_generation
        timer = Event(self.env, "bw-horizon")
        timer._ok = True
        timer._value = None
        timer.callbacks.append(lambda _e, g=generation: self._on_timer(g))
        # Absolute scheduling: the timer fires at the deadline float itself,
        # not at now + (deadline - now), which could round differently.
        self.env.schedule_at(timer, heap[0][0])

    def _on_timer(self, generation: int) -> None:
        if generation != self._timer_generation:
            return  # superseded by a newer plan
        t0 = perf_counter()
        now = self.env.now
        seeds: Dict[Flow, None] = {}
        heap = self._heap
        deadline = self._deadline_v
        while heap and heap[0][0] <= now:
            when, _seq, flow = heapq.heappop(heap)
            if flow.slot < 0 or deadline[flow.slot] != when:
                self._counters.bw_stale_deadlines += 1
                continue
            seeds[flow] = None
        if not seeds:
            self._arm_timer()
            _SOLVER_WALL["seconds"] += perf_counter() - t0
            return
        # Deadlines can coincide across components.  Each replan re-arms the
        # timer, which must still see the seeds of components not replanned
        # *yet*: push them back (an entry goes stale when its component
        # replans or its flow completes).
        for flow in seeds:
            self._heap_seq += 1
            heapq.heappush(heap, (deadline[flow.slot], self._heap_seq, flow))
        # A replan changes no other component, so each seed's component is
        # taken before any of them replans (and each one replans once).
        for comp in dict.fromkeys(flow.channels[0].comp for flow in seeds):
            self._count_component(comp)
            self._replan(comp, self._settle(comp))
        _SOLVER_WALL["seconds"] += perf_counter() - t0

    def _verify_against_reference(self) -> None:
        expected = reference_allocation(self._flows)
        for flow, rate in expected.items():
            if flow.rate != rate:
                raise SimulationError(
                    f"incremental allocation diverged from the reference solver for "
                    f"{flow!r}: incremental {flow.rate!r}, reference {rate!r}"
                )
