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
transitively) cannot influence each other's rate, so progressive filling
over one component yields the same rates as a global recomputation would.
Every flow start, finish and abort therefore settles and re-allocates only
the component it touches -- flows in other components keep both their rate
*and* their settle point, so an event on one node's disk never touches the
transfers of 4 095 other instances.  The engine is built from five parts:

* **Components** live in an incremental union-find over channels: every
  busy channel points at its :class:`_Component`, whose ``flows`` list is
  always exact and sorted by flow index.  A flow attach unions the
  components of its channels (the smaller sides are relabelled), so finding
  the component of a flow is one pointer read.  Union-find cannot split: a
  replan that detached flows re-discovers the surviving groups
  (:meth:`BandwidthSystem._live_groups`) and, on a real disconnection,
  re-homes the split-off groups into fresh, lazily rebuilt components.

* **Horizon heap.**  Instead of scanning every flow for the next
  completion, each allocation pushes the *earliest* absolute completion
  deadline of its connected group into a heap; superseded entries are
  invalidated lazily when popped.  One timer is armed at the earliest valid
  deadline (scheduled at the *absolute* deadline, so firing times carry no
  extra rounding).  One entry per group suffices: when the timer fires the
  whole component is settled and re-planned, which detects *every* finished
  flow by its byte count and pushes a fresh earliest deadline.

* **Same-instant flush.**  ``transfer()`` only attaches the new flow to its
  channels and component and parks it at rate 0; an end-of-instant flush
  hook (see :meth:`~repro.sim.core.Environment.add_flush_hook`) then settles
  and re-plans each touched component exactly once, however many flows
  started at that instant.  This is exact, not approximate: max-min rates
  depend only on component membership and capacities -- never on remaining
  byte counts -- and flows parked within one instant carry zero elapsed
  time, so the end-of-instant state is identical to re-planning after every
  start.

* **Persistent arrays.**  Components of at least ``_VECTOR_MIN_FLOWS`` flows
  run progressive filling over flat numpy arrays (per-edge channel slots,
  per-flow channel counts, per-slot capacities) that survive between
  recomputations and are updated by deltas: row/slot appends on attach, one
  boolean-mask compaction per detaching replan; merges and splits mark them
  stale (epoch-tagged, so a stale slot assignment can never be read) and the
  next allocation rebuilds them.  The arrays replay the reference solver's
  exact operation order.  Its dict insertion order -- the *encounter order*
  that decides bottleneck ties -- is the order in which slots first occur
  along the edge array, whose rows are the live flows in index order, each
  in channel-tuple order; ``argmin`` over shares laid out in that order
  picks the same first-occurrence bottleneck as the reference's
  first-strict-minimum scan, and capacity decrements are applied in the
  same sequence -- so every allocation decision is bit-identical to the
  reference.  An allocation stops where its outcome is decided, in two
  places that follow from the reference procedure itself.  When one slot
  holds the unique minimum of ``caps / users`` and has as many edges as the
  component has flows (the switch, at scale), the reference's first round
  freezes every flow at that quotient and ends, whatever the encounter
  order: the rate is set from the slot arrays and nothing is assembled.  And
  the round that freezes the last flow writes no residual capacity, user
  count or share, since no later round reads them.  Smaller components (the
  size is observed per allocation, never configured) are solved by
  :func:`reference_allocation` itself: numpy's fixed per-call overhead loses
  to a handful of dict operations.

* **Oracle.**  :func:`reference_allocation` is the global water-filling
  solver, retained as the executable specification.
  :class:`~repro.util.config.SolverConfig` ``verify=True`` re-derives every
  flow's rate through it after each replan (rates must match *exactly*, not
  approximately) and re-checks the maintained connectivity and arrays
  against a from-scratch BFS (:meth:`BandwidthSystem._component`,
  which the engine itself never calls); the equivalence test suite drives
  randomised topologies through both, with the vector threshold forced down
  to 1 so the array path is checked on every component shape.
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
#: components below this size are solved by ``reference_allocation`` itself --
#: numpy's fixed per-call overhead loses to a handful of dict operations
#: (both solvers are bit-identical, so the threshold only decides speed; the
#: equivalence suite forces it to 1 to check the array path on every shape)
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
    def active_flows(self) -> int:
        return len(self.flows)

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
    """A bulk transfer in flight.

    ``remaining`` is the byte count as of ``settled_at`` -- flows are only
    advanced when their component is touched, so between events the true
    remaining count is ``remaining - rate * (now - settled_at)``.
    ``deadline`` is the absolute completion time backing the horizon heap;
    a heap entry is valid only while it still equals the flow's deadline.
    ``pending`` marks a flow that started at the current instant and has not
    been planned yet; it is attached to its channels and component (so
    failure injection sees it) but carries rate 0 until the end-of-instant
    flush.  ``done`` is the completion event until it succeeds; it is then
    cleared, because the event's value is the flow and the pair would
    otherwise be a reference cycle only the cyclic collector frees.
    """

    __slots__ = (
        "size",
        "remaining",
        "channels",
        "done",
        "rate",
        "started_at",
        "settled_at",
        "deadline",
        "index",
        "label",
        "pending",
    )

    def __init__(self, size: float, channels: Sequence[FairShareChannel], done: Event, label: str):
        self.size = float(size)
        self.remaining = float(size)
        self.channels = tuple(channels)
        self.done = done
        self.rate = 0.0
        self.started_at = done.env.now
        self.settled_at = done.env.now
        self.deadline = math.inf
        self.index = 0
        self.label = label
        self.pending = False

    @property
    def finished(self) -> bool:
        return self.remaining <= _EPSILON_BYTES

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
    connected component; because a freeze only mutates state inside its own
    component, the restriction is *exactly* equivalent -- which
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
    """One live connected component of the flow/channel sharing graph.

    The union-find cell that every busy channel points at, plus the flat
    solver arrays that survive between recomputations.  ``flows`` is always
    exact and sorted by flow index; the arrays mirror it only while ``dirty``
    is false (merges and splits mark them stale, and the next vector
    allocation rebuilds them -- ``epoch`` is a globally unique tag so a
    channel's ``_slot`` can never be read against arrays it was not assigned
    for).

    Array layout (lengths ``n_rows`` / ``n_edges`` / ``n_slots``; the
    buffers over-allocate and double on growth):

    * ``counts[i]`` -- number of channels of ``flows[i]``;
    * ``e_slot`` -- per-edge channel slot, rows concatenated in flow order
      (the CSR flow->channel membership, ``counts`` being the row lengths);
    * ``caps[s]`` -- capacity of the channel occupying slot ``s``; a slot
      whose channel left its component has no edge and counts in
      ``dead_slots``.
    """

    __slots__ = (
        "ident",
        "epoch",
        "flows",
        "dirty",
        "counts",
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
        self.dirty = True  # arrays are built lazily, on first vector allocation
        self.counts: Optional[np.ndarray] = None
        self.e_slot: Optional[np.ndarray] = None
        self.caps: Optional[np.ndarray] = None
        self.n_rows = 0
        self.n_edges = 0
        self.n_slots = 0
        self.dead_slots = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dirty" if self.dirty else f"{self.n_slots - self.dead_slots} slot(s)"
        return f"<_Component #{self.ident} {len(self.flows)} flow(s), {state}>"


def _fill_rounds(
    shares: np.ndarray,
    cap_left: List[float],
    users: List[int],
    lid_list: List[int],
    fstart: List[int],
    by_chan: List[int],
    cstart: List[int],
    n: int,
) -> List[float]:
    """The water-filling round loop over the assembled component arrays.

    ``shares`` is the per-channel fair share in encounter order (a numpy
    array, mutated in place); the Python-side mirrors carry residual
    capacity, user counts, the per-edge channel ids (rows delimited by
    ``fstart``) and the edges grouped by channel (``by_chan`` delimited by
    ``cstart``, flows in index order within each group).  The loop replays
    the reference solver's operation sequence exactly -- first-occurrence
    ``argmin`` bottleneck, per-flow decrements with an immediate clamp.

    The loop is hybrid on purpose: numpy picks the bottleneck over all k
    channels in one ``argmin``, then plain-Python scalar updates touch only
    the few flows/channels the freeze changed (the all-array variant spent
    more time on per-round numpy dispatch than on the data).

    A round first collects its batch -- the bottleneck's still-unfrozen
    flows, in index order -- and assigns their rate; the round that freezes
    the last flow stops there.  Its per-channel decrements would only feed
    the next round's ``argmin``, and there is none, so the returned rates
    are the very values the full loop returns (``cap_left``, ``users`` and
    ``shares`` are scratch: the caller reads none of them back).  Every
    earlier round decrements over its batch in the order the reference does.
    A flow lists a channel once (``transfer()`` rejects a repeat), so no
    flow is in a batch twice.
    """
    rates = [math.inf] * n
    unfrozen = [True] * n
    remaining = n
    inf = math.inf
    while remaining:
        bottleneck = int(shares.argmin())
        share = float(shares[bottleneck])
        if share == inf:
            # Remaining flows cross no constrained channel (the reference
            # solver's bottleneck-is-None branch); rates pre-filled inf.
            break
        batch = [f for f in by_chan[cstart[bottleneck] : cstart[bottleneck + 1]] if unfrozen[f]]
        for f in batch:
            rates[f] = share
        remaining -= len(batch)
        if not remaining:
            # The last round: no later round reads a residual, a user count
            # or a share, so the decrements below would be dead stores.
            break
        for f in batch:
            unfrozen[f] = False
            for c in lid_list[fstart[f] : fstart[f + 1]]:
                v = cap_left[c] - share
                if v < 0.0:
                    v = 0.0
                cap_left[c] = v
                u = users[c] - 1
                users[c] = u
                shares[c] = v / u if u else inf
    return rates


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
        #: the environment's sinks, cached for the hot paths
        self._counters = env.counters
        self._tracer = env.tracer
        #: globally unique epoch source for component array generations
        self._comp_epoch = 0
        self._comp_ident = 0
        # Insertion-ordered (dict): flows are registered in index order, so
        # iterating never needs a sort to recover creation order.
        self._flows: Dict[Flow, None] = {}
        self._flow_index = 0
        self._channel_index = 0
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
        channel_list = [c for c in channels if c is not None]
        for chan in channel_list:
            if chan.system is not self:
                raise SimulationError("flow crosses a channel from another BandwidthSystem")
        if len(set(channel_list)) != len(channel_list):
            # The solver would count two users where ``chan.flows`` holds one
            # flow, and the single-round exit of _allocate_vector reads "as
            # many edges as flows" as "every flow crosses this channel".
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
        # injection sees it) but keep it at rate 0 -- the flush hook settles
        # and re-plans each touched component exactly once per instant.
        # Indices are assigned in call order.
        self._flow_index += 1
        flow.index = self._flow_index
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
        self._settle(component)
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
        # Removing the failed channel's flows can leave the survivors in
        # several disconnected groups even though nobody *finished*.
        self._replan(comp, may_split=True)
        _SOLVER_WALL["seconds"] += perf_counter() - t0
        return len(victims)

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    # -- internals ----------------------------------------------------------------

    def _next_channel_index(self) -> int:
        self._channel_index += 1
        return self._channel_index

    def _flush_pending(self) -> None:
        """End-of-instant hook: plan every flow that started at this instant.

        Each still-unplanned pending flow seeds the replan of its component
        (an O(1) lookup: the attach already unioned the flow's channels into
        one component); flows whose component was already re-planned
        mid-instant (a timer or a channel failure landed on the same
        timestamp) or that were aborted are skipped.  Components are
        processed separately, never as one merged union, so the work
        counters keep reflecting the true partitioning.
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
            if not flow.pending or flow not in self._flows:
                continue
            comp = flow.channels[0].comp
            self._count_component(comp)
            self._settle(comp.flows)
            self._replan(comp)
        _SOLVER_WALL["seconds"] += perf_counter() - t0

    def _component(self, channels: Iterable[FairShareChannel]) -> List[Flow]:
        """Flows transitively sharing a channel with any of ``channels``.

        The connectivity oracle: a from-scratch BFS over the bipartite
        flow/channel graph, sorted by flow creation order.  The engine never
        calls it -- verify mode and the equivalence suite compare the
        maintained union-find components against it, so it moves no work
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

    def _live_groups(self, flows: List[Flow]) -> List[List[Flow]]:
        """Partition surviving flows into their connected groups.

        Called after a replan detached at least one flow: every member of
        ``flows`` is still attached and every flow reachable from their
        channels is itself in ``flows`` (detached flows have been removed
        from the channel sets), so a BFS seeded in index order recovers the
        post-split components exactly.  Each group is returned sorted by
        flow index so the heap entries derived from it are deterministic.
        """
        if len(flows) <= 1:
            return [flows]
        for chan in flows[0].channels:
            if len(chan.flows) == len(flows):
                # Some channel is crossed by every survivor (the shared
                # switch, at scale): still one connected group, no BFS.
                return [flows]
        seen_flows: Set[Flow] = set()
        groups: List[List[Flow]] = []
        for seed in flows:  # ``flows`` is sorted: seeds visit in index order
            if seed in seen_flows:
                continue
            seen_flows.add(seed)
            group = [seed]
            seen_channels: Set[FairShareChannel] = set(seed.channels)
            stack: List[FairShareChannel] = list(seen_channels)
            while stack:
                chan = stack.pop()
                for flow in chan.flows:
                    if flow in seen_flows:
                        continue
                    seen_flows.add(flow)
                    group.append(flow)
                    for other in flow.channels:
                        if other not in seen_channels:
                            seen_channels.add(other)
                            stack.append(other)
            if not groups and len(seen_flows) == len(flows):
                # Everyone reachable from the first seed: no split happened
                # (the common case -- e.g. the shared switch keeps every
                # network flow in one fabric).
                return [flows]
            group.sort(key=lambda f: f.index)
            groups.append(group)
        return groups

    def _settle(self, flows: List[Flow]) -> None:
        """Advance the given flows to the current time at their last rates."""
        now = self.env.now
        self._counters.bw_settles += 1
        self._counters.bw_flows_settled += len(flows)
        for flow in flows:
            elapsed = now - flow.settled_at
            flow.settled_at = now
            if elapsed <= _EPSILON_TIME:
                continue
            moved = flow.rate * elapsed
            if moved > 0.0:
                flow.remaining = max(0.0, flow.remaining - moved)

    def _detach(self, flow: Flow, delivered: float) -> None:
        self._flows.pop(flow, None)
        if flow.pending:  # aborted before its instant was flushed
            flow.pending = False
            self._unplanned -= 1
        for chan in flow.channels:
            flows = chan.flows
            if flow in flows:
                flows.discard(flow)
                if not flows:
                    # Last flow gone: the channel leaves its component
                    # (an empty channel is an isolated vertex).
                    comp = chan.comp
                    if not comp.dirty and chan._slot_epoch == comp.epoch:
                        comp.dead_slots += 1
                    chan.comp = None
            chan._carried_completed += delivered

    def _replan(self, comp: _Component, may_split: bool = False) -> None:
        """Complete finished flows, re-allocate the rest, re-arm the timer.

        ``comp.flows`` must already be settled.  ``may_split`` marks callers
        (channel failure) whose component may already span several connected
        groups even without a completion.  Completions are applied to the
        component's arrays as one mask compaction, and an actual
        disconnection re-homes the surviving groups into fresh components.
        """
        component = comp.flows
        live: List[Flow] = []
        detached = may_split
        keep: List[bool] = []
        for flow in component:
            if flow.remaining <= _EPSILON_BYTES:  # .finished, inlined (hot)
                self._detach(flow, flow.size)
                detached = True
                self.completed_flows += 1
                self.bytes_delivered += flow.size
                self._counters.bw_flows_completed += 1
                tracer = self._tracer
                if tracer is not None:
                    tracer.observe("flow.bytes", flow.size)
                    tracer.observe("flow.latency_s", self.env.now - flow.started_at)
                keep.append(False)
                if not flow.done.triggered:
                    flow.done.succeed(flow)
                flow.done = None
            else:
                if flow.pending:
                    flow.pending = False
                    self._unplanned -= 1
                keep.append(True)
                live.append(flow)
        if len(live) != len(component) and not comp.dirty:
            self._p_remove_rows(comp, keep)
        comp.flows = live
        if live:
            self._allocate(comp)
            if detached:
                # A detached flow may have been the bridge holding the
                # component together: each surviving connected group needs
                # its own min-entry in the horizon heap, or a split-off
                # group would never be woken again.
                groups = self._live_groups(live)
                if len(groups) > 1:
                    self._p_split(comp, groups)
                for group in groups:
                    self._push_deadlines(group)
            else:
                self._push_deadlines(live)
        if self.verify and self._unplanned == 0:
            # Parked flows elsewhere hold rate 0 by construction; the global
            # cross-check is only meaningful once the whole instant is
            # planned (the flush hook re-plans every pending component
            # before the clock advances).
            self._verify_against_reference()
            self._verify_persistent_components()
        self._arm_timer()

    def _allocate(self, comp: _Component) -> None:
        """Progressive filling restricted to one (settled) component.

        Small components run the reference procedure directly; larger ones
        run its bit-identical mirror over the persistent component arrays
        (see :meth:`_allocate_vector`).
        """
        flows = comp.flows
        self._counters.bw_allocations += 1
        self._counters.bw_flows_allocated += len(flows)
        if len(flows) < _VECTOR_MIN_FLOWS:
            for flow, rate in reference_allocation(flows).items():
                flow.rate = rate
        else:
            self._allocate_vector(comp)
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
        if not dirty:
            self._p_append_row(target, flow)

    def _p_merge(self, target: _Component, other: _Component) -> None:
        """Absorb ``other`` into ``target`` (relabel pointers, merge flows).

        Every member channel is crossed by at least one member flow, so the
        flow list reaches all pointers to relabel.  The merged arrays are
        *not* stitched together -- ``target`` is marked stale and rebuilt
        lazily on its next vector allocation (merges are rare: a flow
        bridging two live fabrics).
        """
        for flow in other.flows:
            for chan in flow.channels:
                chan.comp = target
        # Two runs already sorted by flow index: timsort merges in O(n).
        target.flows = sorted(target.flows + other.flows, key=lambda f: f.index)
        target.dirty = True
        self._counters.bw_cc_unions += 1

    def _p_split(self, comp: _Component, groups: List[List[Flow]]) -> None:
        """Re-home the surviving groups after a real disconnection.

        Union-find cannot split, but ``_live_groups`` just recovered the
        true partition: the largest group keeps the original component (its
        rows survive as one mask compaction), every other group moves to a
        fresh, lazily rebuilt component.
        """
        big = groups[0]
        for group in groups[1:]:
            if len(group) > len(big):
                big = group
        for group in groups:
            if group is big:
                continue
            new = self._new_component()
            new.flows = group
            for flow in group:
                for chan in flow.channels:
                    if chan.comp is not new:
                        if not comp.dirty and chan._slot_epoch == comp.epoch:
                            comp.dead_slots += 1
                        chan.comp = new
            self._counters.bw_cc_rebuilds += 1
        if not comp.dirty:
            in_big = set(big)
            self._p_remove_rows(comp, [f in in_big for f in comp.flows])
        comp.flows = big

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
        counts = comp.counts
        if counts is None or row == counts.size:
            grown = np.empty(max(32, row * 2), dtype=np.int64)
            if row:
                grown[:row] = counts[:row]
            comp.counts = counts = grown
        counts[row] = k
        comp.n_rows = row + 1
        self._counters.bw_array_delta_updates += 1

    def _p_remove_rows(self, comp: _Component, keep: List[bool]) -> None:
        """Delta update: drop the rows of detached flows by one boolean mask."""
        counts = comp.counts[: comp.n_rows]
        keep_arr = np.array(keep, dtype=bool)
        kept_counts = counts[keep_arr]
        edge_keep = np.repeat(keep_arr, counts)
        kept_edges = comp.e_slot[: comp.n_edges][edge_keep]
        comp.e_slot[: kept_edges.size] = kept_edges
        comp.n_edges = int(kept_edges.size)
        comp.counts[: kept_counts.size] = kept_counts
        comp.n_rows = int(kept_counts.size)
        self._counters.bw_array_delta_updates += 1

    def _p_rebuild(self, comp: _Component) -> None:
        """Full array rebuild from the (exact) flow list, under a new epoch.

        Runs lazily: after a merge or a split-off, on the component's next
        vector allocation (small components may stay dirty forever -- the
        reference solver never reads the arrays), or when dead slots pile up.
        """
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
        comp.e_slot = e_slot
        comp.caps = np.array(caps, dtype=np.float64)
        comp.n_rows = n
        comp.n_edges = total
        comp.n_slots = n_slots
        comp.dead_slots = 0
        comp.dirty = False
        self._counters.bw_array_full_rebuilds += 1

    def _allocate_vector(self, comp: _Component) -> None:
        """Progressive filling over the persistent component arrays.

        The assembly replays the reference solver's exact operation sequence,
        so the output bits are identical to :func:`reference_allocation`:

        * channels are ranked in *encounter order* (first occurrence over
          flows in index order, channel-tuple order) -- the reference
          solver's dict insertion order, which decides bottleneck ties.  The
          edge array's rows are exactly those flows in that order, so the
          order is each live slot's first occurrence along it, whatever the
          slot numbering (a dead slot has no edge and never enters);
        * ``shares.argmin()`` returns the first occurrence of the minimum,
          exactly like the reference's first-strict-minimum scan over that
          order, and every stored share is the same single IEEE division
          over the same operands (a share is recomputed only when its
          channel's residual or user count changed, so unchanged entries
          hold the very bits a full recomputation would produce);
        * capacity decrements run per flow in index order with an immediate
          ``max(0, .)`` clamp -- literally the reference's inner loop
          (:func:`_fill_rounds`).

        The assembly itself needs no BFS and no per-flow Python iteration:
        one first-occurrence scan over the edges plus C-speed gathers over
        arrays maintained by deltas.

        Before any of it, one shared bottleneck is resolved in slot space.
        The reference's first round divides each channel's full capacity by
        its user count -- ``caps / users`` per slot, the same operands in
        any order.  If exactly one slot attains the minimum, encounter order
        (which only breaks ties) cannot change the pick; if that slot has as
        many edges as the component has flows, every flow crosses it (a flow
        lists a channel once), so the first round freezes every flow at that
        quotient and the loop ends.  A tie of any kind, a flow off that
        channel or a second round takes the assembled path.
        """
        if comp.dirty or comp.dead_slots * 2 > comp.n_slots:
            self._p_rebuild(comp)
        flows = comp.flows
        n = comp.n_rows  # == len(flows): the arrays mirror the flow list
        slot_users = np.bincount(comp.e_slot[: comp.n_edges], minlength=comp.n_slots)
        # A dead slot has no edge left (they went with its last flow).
        slot_shares = np.full(comp.n_slots, math.inf)
        np.divide(comp.caps[: comp.n_slots], slot_users, out=slot_shares, where=slot_users > 0)
        hub = int(slot_shares.argmin())
        if slot_users[hub] == n and np.count_nonzero(slot_shares == slot_shares[hub]) == 1:
            rate = float(slot_shares[hub])
            for flow in flows:
                flow.rate = rate
            return
        counts = comp.counts[:n]
        edges = comp.e_slot[: comp.n_edges]
        positions = np.arange(edges.size, dtype=np.int64)
        first = np.full(comp.n_slots, edges.size, dtype=np.int64)
        np.minimum.at(first, edges, positions)
        order = edges[first[edges] == positions]
        k = int(order.size)
        rank = np.empty(comp.n_slots, dtype=np.int64)
        rank[order] = np.arange(k, dtype=np.int64)
        lid = rank[edges]
        users_arr = slot_users[order]
        enc_caps = comp.caps[order]
        shares = slot_shares[order]
        cap_left = enc_caps.tolist()
        users = users_arr.tolist()
        lid_list = lid.tolist()
        fl_ptr = np.repeat(np.arange(n, dtype=np.int64), counts)
        fstart = np.empty(n + 1, dtype=np.int64)
        fstart[0] = 0
        np.cumsum(counts, out=fstart[1:])
        fstart = fstart.tolist()
        # Edges grouped by channel; the stable sort keeps flows in index
        # order within each channel (fl_ptr is non-decreasing), which is the
        # order the reference solver freezes them in.
        by_chan = fl_ptr[np.argsort(lid, kind="stable")].tolist()
        cstart = np.empty(k + 1, dtype=np.int64)
        cstart[0] = 0
        np.cumsum(users_arr, out=cstart[1:])
        cstart = cstart.tolist()
        rates = _fill_rounds(shares, cap_left, users, lid_list, fstart, by_chan, cstart, n)
        for flow, rate in zip(flows, rates):
            flow.rate = rate

    def _verify_persistent_components(self) -> None:
        """Verify-mode cross-check of the maintained structure itself.

        Re-derives, from scratch, what the engine maintains incrementally:
        every flow's component must equal the BFS component of its channels,
        and a clean component's arrays must mirror its flow list edge for
        edge, with ``dead_slots`` counting exactly the slots no edge uses.
        O(global edges) -- dwarfed by the reference re-allocation that
        verify mode already runs.
        """
        seen: Set[int] = set()
        for flow in self._flows:
            comp = flow.channels[0].comp
            if comp is None or flow not in comp.flows:
                raise SimulationError(f"persistent component lost track of {flow!r}")
            if comp.ident in seen:
                continue
            seen.add(comp.ident)
            expected = self._component(flow.channels)
            if comp.flows != expected:
                raise SimulationError(
                    f"persistent component #{comp.ident} diverged from BFS "
                    f"({len(comp.flows)} flow(s) maintained, {len(expected)} discovered)"
                )
            for member in comp.flows:
                for chan in member.channels:
                    if chan.comp is not comp:
                        raise SimulationError(
                            f"channel {chan.name!r} points at component "
                            f"#{chan.comp.ident if chan.comp else None}, "
                            f"expected #{comp.ident}"
                        )
            if comp.dirty:
                continue
            if comp.n_rows != len(comp.flows):
                raise SimulationError(
                    f"persistent arrays of component #{comp.ident} hold "
                    f"{comp.n_rows} row(s) for {len(comp.flows)} flow(s)"
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
            live_slots = np.unique(comp.e_slot[: comp.n_edges]).size
            if comp.n_slots - comp.dead_slots != live_slots:
                raise SimulationError(
                    f"persistent arrays of component #{comp.ident} count "
                    f"{comp.n_slots - comp.dead_slots} live slot(s), its edges use {live_slots}"
                )

    def _push_deadlines(self, flows: List[Flow]) -> None:
        """Recompute the absolute completion deadline of each flow.

        Only the *earliest* deadline of the group enters the horizon heap:
        rates are frozen until the next event touching this group, and that
        next event is at most this minimum away -- when its timer fires the
        whole component is settled and re-planned, every finished flow is
        detected by its byte count (never by heap membership), and a fresh
        minimum is pushed.  One entry per connected
        group instead of one per flow keeps the heap's size (and the
        lazy-invalidation churn) proportional to the number of
        recomputations, not to flows x recomputations.
        """
        now = self.env.now
        best_deadline = math.inf
        best_flow = None
        for flow in flows:
            rate = flow.rate
            if rate <= 0.0:
                # Starved flow: no finite horizon of its own.  _arm_timer
                # raises if the whole system ends up in this state.
                flow.deadline = math.inf
                continue
            horizon = flow.remaining / rate  # 0.0 for rate == inf
            if horizon <= _EPSILON_TIME:
                # Float residue left a completion horizon below the settle
                # threshold: a timer there would fire, _settle() would skip
                # the sub-epsilon elapsed time and the same instant would be
                # rescheduled forever.  Nudge the horizon just past the
                # threshold so the residue is actually drained (rate changes
                # mid-flight -- e.g. failure injection detaching flows --
                # can produce this).
                horizon = _EPSILON_TIME * 10
            deadline = now + horizon
            flow.deadline = deadline
            if deadline < best_deadline:
                best_deadline = deadline
                best_flow = flow
        if best_flow is not None:
            self._heap_seq += 1
            heapq.heappush(self._heap, (best_deadline, self._heap_seq, best_flow))

    def _arm_timer(self) -> None:
        """Schedule the horizon timer at the earliest valid deadline."""
        heap = self._heap
        while heap:
            when, _seq, flow = heap[0]
            if flow in self._flows and flow.deadline == when:
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
        seeds: List[Flow] = []
        seen: Set[Flow] = set()
        heap = self._heap
        while heap and heap[0][0] <= now:
            when, _seq, flow = heapq.heappop(heap)
            if flow not in self._flows or flow.deadline != when:
                self._counters.bw_stale_deadlines += 1
                continue
            if flow not in seen:
                seen.add(flow)
                seeds.append(flow)
        if not seeds:
            self._arm_timer()
            _SOLVER_WALL["seconds"] += perf_counter() - t0
            return
        # Deadlines can coincide across components; each seed's component
        # is settled and re-planned separately.  A replan can complete or
        # re-home later seeds -- ``handled`` carries every flow already
        # covered by an earlier component.  Each replan ends by re-arming
        # the timer, which must still see the horizons of seeds in
        # components not replanned *yet* (their entries were popped above)
        # -- push them back; an entry goes stale the moment its component
        # replans (new deadline) or the flow completes (dropped from the
        # active set).
        for flow in seeds:
            self._heap_seq += 1
            heapq.heappush(heap, (flow.deadline, self._heap_seq, flow))
        handled: Set[Flow] = set()
        for flow in seeds:
            if flow in handled or flow not in self._flows:
                continue
            comp = flow.channels[0].comp
            handled.update(comp.flows)
            self._count_component(comp)
            self._settle(comp.flows)
            self._replan(comp)
        _SOLVER_WALL["seconds"] += perf_counter() - t0

    def _verify_against_reference(self) -> None:
        expected = reference_allocation(self._flows)
        for flow, rate in expected.items():
            if flow.rate != rate:
                raise SimulationError(
                    f"incremental allocation diverged from the reference solver for "
                    f"{flow!r}: incremental {flow.rate!r}, reference {rate!r}"
                )
