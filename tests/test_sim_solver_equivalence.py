"""Equivalence of the incremental bandwidth solver and the reference solver.

The incremental engine (``repro.sim.bandwidth``) settles and re-allocates
only the connected component of flows/channels touched by an event; the
retained :func:`~repro.sim.bandwidth.reference_allocation` water-filling
solver computes global max-min fair rates from scratch.  These tests assert
the two agree *exactly* (float equality, not approximately):

* ``SolverConfig(verify=True)`` re-derives every flow's rate globally
  after each incremental recomputation and raises on any mismatch -- the
  property tests drive randomised multi-channel topologies and start/finish
  schedules through it, both at the default vector threshold (small
  components solved by the reference procedure itself) and with
  ``_VECTOR_MIN_FLOWS`` forced to 1 (every component, down to a single
  flow, solved over the persistent arrays);
* component discovery must never cross disjoint fabrics, and a fabric's
  completion times must be bit-identical whether or not unrelated fabrics
  are busy (the strongest observable form of component independence).
"""

import math
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthSystem, Environment, bandwidth
from repro.sim.bandwidth import reference_allocation
from repro.util.config import SolverConfig
from repro.util.errors import SimulationError


def build_system(verify=True):
    env = Environment()
    return env, BandwidthSystem(env, config=SolverConfig(verify=verify))


#: the two sides of the engine's one size-based choice: 1 sends every
#: component through the array path, the default leaves components under
#: the threshold to ``reference_allocation``
vector_thresholds = st.sampled_from((1, bandwidth._VECTOR_MIN_FLOWS))


@contextmanager
def vector_threshold(min_flows):
    """Run the engine with ``_VECTOR_MIN_FLOWS`` patched to ``min_flows``.

    A context manager rather than the ``monkeypatch`` fixture: hypothesis
    draws the threshold per example, and function-scoped fixtures are not
    reset between examples.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bandwidth, "_VECTOR_MIN_FLOWS", min_flows)
        yield


# -- randomised schedules through the runtime cross-check -----------------------------


@st.composite
def topologies(draw):
    """A random multi-channel fabric plus a start/finish schedule over it."""
    n_channels = draw(st.integers(2, 6))
    capacities = [
        draw(st.floats(1.0, 1e4, allow_nan=False, allow_infinity=False))
        for _ in range(n_channels)
    ]
    n_flows = draw(st.integers(1, 12))
    flows = []
    for _ in range(n_flows):
        crossed = draw(
            st.lists(st.integers(0, n_channels - 1), min_size=1, max_size=3, unique=True)
        )
        size = draw(st.floats(1.0, 1e5))
        start = draw(st.floats(0.0, 50.0))
        flows.append((crossed, size, start))
    return capacities, flows


@settings(max_examples=120, deadline=None)
@given(topology=topologies(), min_flows=vector_thresholds)
def test_incremental_rates_match_reference_exactly(topology, min_flows):
    """Every recomputation along a random schedule matches the global solver.

    verify=True makes the engine raise SimulationError at the *first* event
    where any flow's incremental rate differs from the reference allocation
    over the whole system, so simply running to completion is the assertion.
    """
    capacities, flow_specs = topology
    env, bw = build_system(verify=True)
    channels = [bw.channel(cap, f"ch{i}") for i, cap in enumerate(capacities)]
    done_times = {}

    def mover(i, crossed, size, start):
        yield env.timeout(start)
        yield bw.transfer(size, [channels[c] for c in crossed], label=f"f{i}")
        done_times[i] = env.now

    for i, (crossed, size, start) in enumerate(flow_specs):
        env.process(mover(i, crossed, size, start))
    with vector_threshold(min_flows):
        env.run()
    assert len(done_times) == len(flow_specs)
    assert bw.active_flows == 0


def test_coinciding_deadlines_across_disjoint_components():
    """Regression: two disjoint fabrics whose flows complete at the same
    float instant.  The timer pops *both* heap entries as seeds; each
    component is replanned separately, and the first replan's re-armed timer
    must still account for the not-yet-replanned second component (its entry
    was already popped) instead of raising "active flows but no finite
    completion horizon".

    The sizes are tuned so both deadlines round to the identical double:
    4.0/3.0 == 1.0 + 1.0/3.0 in IEEE-754.
    """
    env, bw = build_system(verify=True)
    channels = [bw.channel(3.0, f"ch{i}") for i in range(2)]
    done_times = {}

    def mover(i, channel, size, start):
        yield env.timeout(start)
        yield bw.transfer(size, [channel], label=f"f{i}")
        done_times[i] = env.now

    env.process(mover(0, channels[0], 4.0, 0.0))
    env.process(mover(1, channels[1], 1.0, 1.0))
    env.run()
    assert done_times[0] == done_times[1] == 4.0 / 3.0
    assert bw.active_flows == 0


@settings(max_examples=80, deadline=None)
@given(
    topology=topologies(),
    fail_at=st.floats(0.5, 20.0),
    victim=st.integers(0, 5),
    min_flows=vector_thresholds,
)
def test_incremental_rates_match_reference_under_channel_failure(
    topology, fail_at, victim, min_flows
):
    """Aborting flows mid-flight (fail-stop) must keep rates reference-exact."""
    capacities, flow_specs = topology
    env, bw = build_system(verify=True)
    channels = [bw.channel(cap, f"ch{i}") for i, cap in enumerate(capacities)]
    outcomes = {}

    def mover(i, crossed, size, start):
        yield env.timeout(start)
        try:
            yield bw.transfer(size, [channels[c] for c in crossed], label=f"f{i}")
            outcomes[i] = "done"
        except RuntimeError:
            outcomes[i] = "failed"

    def killer():
        yield env.timeout(fail_at)
        bw.fail_channel(channels[victim % len(channels)], RuntimeError("fabric died"))

    for i, (crossed, size, start) in enumerate(flow_specs):
        env.process(mover(i, crossed, size, start))
    env.process(killer())
    with vector_threshold(min_flows):
        env.run()
    assert len(outcomes) == len(flow_specs)


# -- hub fabrics: exact ties, components on both sides of the threshold ---------------

#: shares tie as a rule with these (128/2 == 64/1), which random float
#: capacities never produce
HUB_CAPACITIES = (64.0, 128.0, 256.0)


@st.composite
def hub_topologies(draw):
    """A switch-like fabric: one hub channel crossed by (nearly) every flow.

    Leaves draw their capacity from ``HUB_CAPACITIES``; 1-40 flows cross the
    hub and at most one leaf (either first, so the hub's place in the
    encounter order varies), up to three more cross a leaf that hub flows
    also use and stay off the hub (the ``scale:qcow2-disk-app:512`` shape).
    The hub's capacity is set against the tightest leaf share of the full
    population: half of it (the hub is the unique minimum), equal to it (a
    tie, exact whenever the quotient is representable) or twice it (some
    leaf is).  Flows start in a few bursts; optionally one channel, hub or
    leaf, fails mid-run.  Channel 0 is the hub.
    """
    leaf_caps = draw(st.lists(st.sampled_from(HUB_CAPACITIES), min_size=1, max_size=6))
    n_leaves = len(leaf_caps)
    n_hub = draw(st.integers(1, 40))
    instants = [0.0] + draw(st.lists(st.floats(0.0, 20.0), max_size=2))
    sizes = st.one_of(st.sampled_from((512.0, 1024.0, 4096.0)), st.floats(1.0, 1e4))
    starts = st.sampled_from(instants)
    flows = []
    leaf_users = [0] * n_leaves
    for _ in range(n_hub):
        leaf = draw(st.integers(0, n_leaves))  # n_leaves: the hub alone
        if leaf == n_leaves:
            crossed = [0]
        else:
            leaf_users[leaf] += 1
            crossed = draw(st.permutations([0, 1 + leaf]))
        flows.append((crossed, draw(sizes), draw(starts)))
    shared = [leaf for leaf in range(n_leaves) if leaf_users[leaf]]
    if shared:
        for _ in range(draw(st.integers(0, 3))):
            leaf = draw(st.sampled_from(shared))
            leaf_users[leaf] += 1
            position = draw(st.integers(0, len(flows)))
            flows.insert(position, ([1 + leaf], draw(sizes), draw(starts)))
        tightest = min(leaf_caps[leaf] / leaf_users[leaf] for leaf in shared)
    else:
        tightest = min(leaf_caps)
    hub_cap = tightest * n_hub * draw(st.sampled_from((0.5, 1.0, 2.0)))
    failure = draw(st.none() | st.tuples(st.floats(0.5, 20.0), st.integers(0, n_leaves)))
    return [hub_cap] + leaf_caps, flows, failure


def run_hub_schedule(spec, verify):
    """Drive a hub schedule; returns {flow: ("done" | "failed", time)}."""
    capacities, flow_specs, failure = spec
    env, bw = build_system(verify=verify)
    channels = [bw.channel(cap, f"ch{i}") for i, cap in enumerate(capacities)]
    outcomes = {}

    def mover(i, crossed, size, start):
        yield env.timeout(start)
        try:
            yield bw.transfer(size, [channels[c] for c in crossed], label=f"f{i}")
            outcomes[i] = ("done", env.now)
        except RuntimeError:
            outcomes[i] = ("failed", env.now)

    def killer(fail_at, victim):
        yield env.timeout(fail_at)
        bw.fail_channel(channels[victim], RuntimeError("fabric died"))

    for i, (crossed, size, start) in enumerate(flow_specs):
        env.process(mover(i, crossed, size, start))
    if failure is not None:
        env.process(killer(*failure))
    env.run()
    assert len(outcomes) == len(flow_specs)
    assert bw.active_flows == 0
    return outcomes


def hub_spec(n_hub, hub_cap, off_hub=0, failure=None):
    """``n_hub`` flows over hub + own 64 B/s leaf pair, ``off_hub`` leaf-only."""
    flows = [([1 + i % 2, 0], 1024.0 + i, 0.0) for i in range(n_hub)]
    flows += [([1], 700.0, 0.0)] * off_hub
    return [hub_cap, 64.0, 64.0], flows, failure


@settings(max_examples=200, deadline=None)
@given(spec=hub_topologies(), min_flows=vector_thresholds)
# Above the unpatched threshold: a tight hub decides everything in one round ...
@example(spec=hub_spec(24, 48.0), min_flows=bandwidth._VECTOR_MIN_FLOWS)
# ... all but one flow on the hub needs a second round ...
@example(spec=hub_spec(24, 48.0, off_hub=1), min_flows=bandwidth._VECTOR_MIN_FLOWS)
# ... the hub ties with both leaves (128 / 24 == 64 / 12) ...
@example(spec=hub_spec(24, 128.0), min_flows=bandwidth._VECTOR_MIN_FLOWS)
# ... and the hub, then a leaf, fails mid-run.
@example(spec=hub_spec(24, 48.0, off_hub=2, failure=(3.0, 0)), min_flows=1)
@example(spec=hub_spec(24, 128.0, off_hub=2, failure=(3.0, 1)), min_flows=1)
# A tie that only the true encounter order breaks right once flows have left
# (ranking the channels by slot number instead picks the wrong one).
@example(
    spec=(
        [128.0, 64.0, 64.0, 64.0, 64.0, 64.0, 64.0],
        [
            ([0, 2], 512.0, 0.0),
            ([2, 0], 1024.0, 0.0),
            ([0, 2], 512.0, 1.0),
            ([0, 1], 512.0, 1.0),
            ([0, 1], 512.0, 0.0),
            ([0], 1024.0, 0.0),
            ([0, 1], 512.0, 0.0),
            ([0, 1], 1024.0, 0.0),
            ([0, 2], 512.0, 1.0),
            ([0, 1], 512.0, 0.0),
        ],
        None,
    ),
    min_flows=1,
)
def test_hub_fabrics_match_reference_exactly(spec, min_flows):
    """Hub fabrics with tied shares agree with the reference, bit for bit.

    Twice over: verify=True re-derives every replan through the global
    solver, and the completion times must equal those of a run whose vector
    threshold sits above the flow count, so that every component is solved
    by ``reference_allocation`` itself.
    """
    with vector_threshold(min_flows):
        outcomes = run_hub_schedule(spec, verify=True)
    with vector_threshold(len(spec[1]) + 1):
        expected = run_hub_schedule(spec, verify=False)
    assert outcomes == expected


class TestDecidedAllocations:
    """An allocation stops where its outcome is decided.

    Each step of the slot-space fill is spied on: a step that freezes every
    unfrozen flow calls neither ``_round`` nor ``_tie_run``, a tie run calls
    ``_tie_run`` (which returns None when it must fall back to one round).
    Every run here is under verify=True, so the rates are also the
    reference's.
    """

    @staticmethod
    def spy_on_steps(monkeypatch):
        """Count ``_round`` calls and ``_tie_run`` calls by outcome, and
        record, per array allocation, the component's ``(dirty, dead_slots)``."""
        seen = {"rounds": 0, "tie_runs": 0, "tie_fallbacks": 0, "entries": []}
        allocate, tie_run, one_round = (
            BandwidthSystem._allocate,
            bandwidth._tie_run,
            bandwidth._round,
        )

        def counting_round(*args):
            seen["rounds"] += 1
            return one_round(*args)

        def counting_tie_run(*args):
            batch = tie_run(*args)
            seen["tie_runs" if batch is not None else "tie_fallbacks"] += 1
            return batch

        def recording(self, comp):
            if len(comp.flows) >= bandwidth._VECTOR_MIN_FLOWS:
                seen["entries"].append((comp.dirty, comp.dead_slots))
            return allocate(self, comp)

        monkeypatch.setattr(bandwidth, "_round", counting_round)
        monkeypatch.setattr(bandwidth, "_tie_run", counting_tie_run)
        monkeypatch.setattr(BandwidthSystem, "_allocate", recording)
        return seen

    @staticmethod
    def run_hub(n_hub, off_hub=0, hub_cap=640.0):
        """``n_hub`` flows over own 100 B/s NIC + the hub, completing one by
        one; ``off_hub`` more on the last NIC alone."""
        env, bw = build_system(verify=True)
        hub = bw.channel(hub_cap, "hub")
        nics = [bw.channel(100.0, f"nic{i}") for i in range(n_hub)]
        done = [
            bw.transfer(1000.0 + 10.0 * i, [nic, hub], label=f"f{i}")
            for i, nic in enumerate(nics)
        ]
        done += [bw.transfer(5000.0, [nics[-1]], label=f"off{i}") for i in range(off_hub)]
        env.run()
        assert all(event.processed for event in done)

    def test_tight_hub_is_decided_by_the_first_step(self, monkeypatch):
        seen = self.spy_on_steps(monkeypatch)
        # 640 / n < 100 down to n = 16, where the reference solver takes over.
        self.run_hub(64)
        assert len(seen["entries"]) >= 64 - bandwidth._VECTOR_MIN_FLOWS
        assert seen["rounds"] == seen["tie_runs"] == seen["tie_fallbacks"] == 0

    def test_one_flow_off_the_hub_takes_one_round(self, monkeypatch):
        """The hub freezes its 64 flows in one round; the flow off the hub
        is then alone on its NIC, which the next step decides."""
        seen = self.spy_on_steps(monkeypatch)
        self.run_hub(64, off_hub=1)
        assert 0 < seen["rounds"] <= len(seen["entries"])

    def test_tied_hub_is_decided_by_the_first_encountered_slot(self, monkeypatch):
        """Two channels crossed by every flow at the same share: the
        reference picks the first encountered, which freezes every flow."""
        seen = self.spy_on_steps(monkeypatch)
        env, bw = build_system(verify=True)
        hubs = [bw.channel(640.0, "hub-a"), bw.channel(640.0, "hub-b")]
        for i in range(20):
            bw.transfer(1000.0 + 10.0 * i, hubs, label=f"f{i}")
        env.run()
        assert seen["entries"]
        assert seen["rounds"] == seen["tie_runs"] == seen["tie_fallbacks"] == 0

    def test_nic_bound_tie_is_one_tie_run(self, monkeypatch):
        """Every flow is held by its own NIC (100 B/s) under a hub that
        never comes near: the reference's one round per NIC is one step."""
        seen = self.spy_on_steps(monkeypatch)
        self.run_hub(24, hub_cap=1e6)
        assert seen["tie_runs"] >= 24 - bandwidth._VECTOR_MIN_FLOWS
        assert seen["rounds"] == seen["tie_fallbacks"] == 0

    def test_mid_run_tie_falls_back_to_rounds(self, monkeypatch):
        """The shared channel of ``MID_RUN_TIE`` reaches the tie after six
        decrements: the tie run must not be taken at once."""
        seen = self.spy_on_steps(monkeypatch)
        capacities, flow_specs = MID_RUN_TIE
        done = run_schedule(capacities, flow_specs, verify=True)
        assert len(done) == len(flow_specs)
        assert seen["tie_fallbacks"] > 0
        assert seen["rounds"] > 0

    def test_dead_slots_divide_nothing_by_zero(self, monkeypatch):
        """A completed flow's NIC leaves a dead slot (no users) in the clean
        arrays; the slot-space shares must skip it, not divide by it."""
        seen = self.spy_on_steps(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.run_hub(20)
        assert any(not dirty and dead > 0 for dirty, dead in seen["entries"])
        assert seen["rounds"] == seen["tie_runs"] == 0

    def test_last_round_leaves_the_residuals_alone(self, monkeypatch):
        """f0 over A, f1 over A+B, f2 over B; A = 10 B/s, B = 100 B/s.

        Round 1 freezes f0 and f1 at A's 10 / 2 and pays the decrements
        (A: 10 - 5 - 5, B: 100 - 5); then f2 is the only unfrozen flow and
        B's 95 / 1 decides it without a round, so nothing is written back.
        """
        seen = self.spy_on_steps(monkeypatch)
        caps = np.array([10.0, 100.0])
        rates = bandwidth._fill(
            np.array([0, 0, 1, 1]),  # per-edge channel slots, rows f0 | f1 | f2
            np.array([1, 2, 1]),
            caps,
            3,
        )
        assert rates.tolist() == [5.0, 5.0, 95.0]
        assert seen["rounds"] == 1
        assert caps.tolist() == [10.0, 100.0]  # the fill decrements a copy

        env, bw = build_system(verify=False)
        a, b = bw.channel(10.0, "A"), bw.channel(100.0, "B")
        for crossed in ([a], [a, b], [b]):
            bw.transfer(1000.0, crossed)
        assert list(reference_allocation(bw._flows).values()) == rates.tolist()


# -- star components: ties between private and shared channels ------------------------


def nudge(value, ulps):
    """``value`` moved ``ulps`` representable doubles up (or down, if negative)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, toward))
    return value


@st.composite
def star_components(draw):
    """2-40 flows, each over its own channel and one to three shared channels.

    Most private channels have the tie capacity, so their shares tie as a
    rule (the NIC-bound shape); the others have twice it, so a shared
    channel also carries flows outside the tie.  Each shared channel's
    capacity is the tie times its user count, moved 0-3 ulps either way: its
    first share lands on the tie or a few ulps beside it, and its
    sequentially decremented share may reach the tie mid-run.  The private
    channel's place in each flow's channel tuple varies, and so does the
    encounter order.
    """
    tie = draw(st.sampled_from((1.0 / 3.0, 0.1, 1.1, 2.0 / 7.0, 117.5e6)))
    n_flows = draw(st.integers(2, 40))
    n_shared = draw(st.integers(1, 3))
    users = [0] * n_shared
    private_caps = []
    flows = []
    for i in range(n_flows):
        shared = draw(
            st.lists(st.integers(0, n_shared - 1), min_size=1, max_size=n_shared, unique=True)
        )
        for c in shared:
            users[c] += 1
        crossed = draw(st.permutations([n_shared + i] + shared))
        private_caps.append(tie * draw(st.sampled_from((1.0, 1.0, 1.0, 2.0))))
        size = tie * draw(st.floats(1.0, 100.0))
        start = draw(st.sampled_from((0.0, 0.0, 5.0)))
        flows.append((crossed, size, start))
    shared_caps = [nudge(tie * max(u, 1), draw(st.integers(-3, 3))) for u in users]
    return shared_caps + private_caps, flows


#: a shared channel whose share starts 2 ulps above the private tie and,
#: decremented once per frozen flow, reaches the tie exactly after six of its
#: 30 users: 10.000000000000004 / 30 > 1/3, (10.000000000000004 - 6/3) / 24 == 1/3.
#: 28 of them are held at the tie by their own channels, the last two are not:
#: a fill that froze the 28 at once would give those two the residual of 28
#: decrements over 2, which is not the reference's 1/3
MID_RUN_TIE = (
    [nudge(10.0, 2)] + [1.0 / 3.0] * 28 + [2.0 / 3.0] * 2,
    [([1 + i, 0], 20.0 + i, 0.0) for i in range(30)],
)


@settings(max_examples=60, deadline=None)
@given(spec=star_components())
@example(spec=MID_RUN_TIE)
def test_star_components_match_reference_exactly(spec):
    """Every rate of every replan equals ``reference_allocation`` bit for bit
    (verify=True), with every component solved over the arrays."""
    capacities, flow_specs = spec
    with vector_threshold(1):
        done = run_schedule(capacities, flow_specs, verify=True)
    assert len(done) == len(flow_specs)


def test_mid_run_tie_is_reached():
    """The pinned example does what its comment says, in the reference's own
    arithmetic: the shared share sits above the tie, then lands on it, and
    skipping that would move the two flows outside the tie."""
    (shared_cap, tie, *_), flow_specs = MID_RUN_TIE
    users = len(flow_specs)
    assert shared_cap / users > tie
    left = shared_cap
    for frozen in range(1, 29):
        left = max(0.0, left - tie)
        assert left / (users - frozen) > tie or frozen == 6
        if frozen == 6:
            assert left / (users - frozen) == tie
    assert left / 2 != tie


def test_readers_see_the_last_settle_mid_flight():
    """Stopped mid-flight in a 20-flow component, ``bytes_carried``,
    ``repr(flow)`` and the bytes ``fail_channel`` credits as delivered read
    the state of the last settle, not an older one.

    f0 (1000 B) and 19 long flows share a 200 B/s link at 10 B/s each; f0
    completes at t=100, which settles the rest at ``size - 1000``.  Then
    ``run(until=101)`` stops between events, and a failure at t=101 settles
    once more before it credits the delivered bytes.
    """
    env, bw = build_system(verify=True)
    link = bw.channel(200.0, "link")
    sizes = [1000.0] + [5000.0 + 10.0 * i for i in range(19)]
    done = [bw.transfer(size, [link], label=f"f{i}") for i, size in enumerate(sizes)]
    env.run(until=101.0)
    assert done[0].processed and not any(event.triggered for event in done[1:])
    flows = list(bw._flows)
    rate = 200.0 / 19
    assert [repr(flow) for flow in flows] == [
        f"<Flow 'f{i}' {size - 1000.0:.0f}/{size:.0f} B @ {rate:.6g} B/s via link>"
        for i, size in enumerate(sizes[1:], start=1)
    ]
    assert link.bytes_carried == 1000.0 + 19 * 1000.0
    expected = 1000.0
    for size in sizes[1:]:
        expected += size - max(0.0, (size - 1000.0) - rate * 1.0)
    assert bw.fail_channel(link, RuntimeError("link died")) == 19
    assert link.bytes_carried == expected
    assert bw.active_flows == 0


# -- same-instant bursts vs the reference ----------------------------------------------


@st.composite
def burst_topologies(draw):
    """A fabric plus a schedule where whole groups of flows start at the
    same simulated instant (the case the end-of-instant flush
    coalesces into one recomputation per connected component).

    Both the burst sizes ``k`` and the component shapes (which channels each
    flow crosses) are randomised, so bursts land on one component, several
    disjoint ones, and everything in between.
    """
    n_channels = draw(st.integers(2, 8))
    capacities = [
        draw(st.floats(1.0, 1e4, allow_nan=False, allow_infinity=False))
        for _ in range(n_channels)
    ]
    instants = draw(
        st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3, unique=True)
    )
    flows = []
    for start in instants:
        k = draw(st.integers(1, 10))
        for _ in range(k):
            crossed = draw(
                st.lists(
                    st.integers(0, n_channels - 1), min_size=1, max_size=3, unique=True
                )
            )
            size = draw(st.floats(1.0, 1e5))
            flows.append((crossed, size, start))
    return capacities, flows


def run_schedule(capacities, flow_specs, verify=False, env=None):
    """Drive a schedule to completion; returns {flow index: completion time}."""
    env = env or Environment()
    bw = BandwidthSystem(env, config=SolverConfig(verify=verify))
    channels = [bw.channel(cap, f"ch{i}") for i, cap in enumerate(capacities)]
    done = {}

    def mover(i, crossed, size, start):
        yield env.timeout(start)
        yield bw.transfer(size, [channels[c] for c in crossed], label=f"f{i}")
        done[i] = env.now

    for i, (crossed, size, start) in enumerate(flow_specs):
        env.process(mover(i, crossed, size, start))
    env.run()
    return done


class TestSameInstantBursts:
    @settings(max_examples=50, deadline=None)
    @given(topology=burst_topologies())
    def test_batched_bursts_are_reference_exact(self, topology):
        """verify=True re-derives every batched allocation through the global
        reference solver and raises at the first mismatching float."""
        capacities, flow_specs = topology
        done = run_schedule(capacities, flow_specs, verify=True)
        assert len(done) == len(flow_specs)

    def test_burst_coalesces_into_one_batch(self):
        env = Environment()
        bw = BandwidthSystem(env, config=SolverConfig())
        link = bw.channel(100.0, "link")
        for i in range(8):
            # All eight transfers are issued at t=0: one flush, one batch.
            bw.transfer(1000.0 + i, [link], label=f"b{i}")
        env.run()
        after = env.counters
        assert after.bw_flows_completed == 8
        assert after.bw_max_batch_flows == 8

    def test_disjoint_burst_flushes_per_component(self):
        """A same-instant burst across disjoint fabrics is replanned once
        per connected component, never globally."""
        env = Environment()
        bw = BandwidthSystem(env, config=SolverConfig(verify=True))
        disks = [bw.channel(50.0, f"disk{i}") for i in range(4)]
        for i, disk in enumerate(disks):
            bw.transfer(500.0 + 10.0 * i, [disk], label=f"io{i}")
        env.run()
        after = env.counters
        assert after.bw_flows_completed == 4
        # One flush covers the whole instant (all four starts)...
        assert after.bw_batches == 1
        assert after.bw_max_batch_flows == 4
        # ...but each disk is its own component, so no single recomputation
        # ever spans more than one flow.
        assert after.bw_max_component_flows == 1


# -- persistent component / array state vs the BFS oracle ------------------------------


def assert_persistent_components_match_bfs(bw):
    """Every attached flow's persistent component must equal a fresh BFS
    discovery over its channels -- same members, consistent back-pointers."""
    for flow in bw._flows:
        if not flow.channels:
            continue
        comp = flow.channels[0].comp
        assert comp is not None
        assert flow in comp.flows
        assert set(comp.flows) == set(bw._component(flow.channels))
        for channel in flow.channels:
            assert channel.comp is comp


def drive_stepwise_checking_components(
    capacities, flow_specs, min_flows, fail_at=None, victim=0
):
    """Run a schedule one event at a time, re-validating the union-find
    component structure against the BFS oracle after *every* event (not just
    at replans)."""
    env = Environment()
    bw = BandwidthSystem(env, config=SolverConfig(verify=True))
    channels = [bw.channel(cap, f"ch{i}") for i, cap in enumerate(capacities)]
    outcomes = {}

    def mover(i, crossed, size, start):
        yield env.timeout(start)
        try:
            yield bw.transfer(size, [channels[c] for c in crossed], label=f"f{i}")
            outcomes[i] = "done"
        except RuntimeError:
            outcomes[i] = "failed"

    def killer():
        yield env.timeout(fail_at)
        bw.fail_channel(channels[victim % len(channels)], RuntimeError("fabric died"))

    for i, (crossed, size, start) in enumerate(flow_specs):
        env.process(mover(i, crossed, size, start))
    if fail_at is not None:
        env.process(killer())
    # The same drain loop as Environment.run(None), with the oracle check
    # inserted after every popped event and every end-of-instant flush.
    with vector_threshold(min_flows):
        while True:
            while env._queue:
                env.step()
                assert_persistent_components_match_bfs(bw)
            env._flush_instant()
            assert_persistent_components_match_bfs(bw)
            if not env._queue:
                break
    assert len(outcomes) == len(flow_specs)
    assert bw.active_flows == 0


class TestPersistentStateOracle:
    """The tentpole contracts of persistent solver state.

    The union-find connectivity and the delta-maintained flat arrays are
    pure caches of what a BFS discovery plus a from-scratch array build
    would produce; these tests pin that equivalence step-by-step (structure)
    and float-by-float (rates), including under mid-flight channel failures.
    """

    @settings(max_examples=80, deadline=None)
    @given(topology=topologies(), min_flows=vector_thresholds)
    def test_union_find_component_equals_bfs_at_every_step(self, topology, min_flows):
        capacities, flow_specs = topology
        drive_stepwise_checking_components(capacities, flow_specs, min_flows)

    @settings(max_examples=60, deadline=None)
    @given(
        topology=topologies(),
        min_flows=vector_thresholds,
        fail_at=st.floats(0.5, 20.0),
        victim=st.integers(0, 5),
    )
    def test_union_find_component_equals_bfs_under_failures(
        self, topology, min_flows, fail_at, victim
    ):
        capacities, flow_specs = topology
        drive_stepwise_checking_components(
            capacities, flow_specs, min_flows, fail_at=fail_at, victim=victim
        )

    @settings(max_examples=60, deadline=None)
    @given(topology=burst_topologies(), min_flows=vector_thresholds)
    def test_persistent_replans_are_reference_exact(self, topology, min_flows):
        """verify=True re-derives every replan through the global reference
        solver *and* re-validates the persistent component/array state
        against a fresh discovery; running to completion is the assertion."""
        capacities, flow_specs = topology
        with vector_threshold(min_flows):
            done = run_schedule(capacities, flow_specs, verify=True)
        assert len(done) == len(flow_specs)

    def test_verify_catches_a_miscounted_dead_slot(self):
        """``dead_slots`` is the only record of the slots whose channel left
        (it sizes ``bw_component_channels`` and triggers rebuilds): verify
        mode checks it against the slots a clean component's edges use."""
        env, bw = build_system(verify=True)
        hub = bw.channel(100.0, "hub")
        for i in range(3):
            bw.transfer(1000.0 + 10.0 * i, [hub, bw.channel(100.0, f"nic{i}")], label=f"f{i}")
        with vector_threshold(1):
            env.run(until=1.0)
            comp = hub.comp
            assert not comp.dirty and comp.dead_slots == 0
            comp.dead_slots += 1
            with pytest.raises(SimulationError, match="live slot"):
                env.run()

    def test_union_and_split_counters(self):
        """A flow bridging two live components records one union; its
        completion splits the component back apart and records rebuilds."""
        env = Environment()
        bw = BandwidthSystem(env, config=SolverConfig(verify=True))
        a = bw.channel(50.0, "a")
        b = bw.channel(50.0, "b")
        bw.transfer(1000.0, [a], label="fa")
        bw.transfer(2000.0, [b], label="fb")
        # Attached third, so both single-channel components already exist
        # and the bridge merges them: exactly one union.
        bw.transfer(10.0, [a, b], label="bridge")
        env.run()
        after = env.counters
        assert after.bw_flows_completed == 3
        assert after.bw_cc_unions == 1
        # The bridge finishes first, splitting {fa} from {fb} again.
        assert after.bw_cc_rebuilds >= 1

    def test_array_delta_counters_on_large_component(self):
        """A component big enough for the vectorised path materialises its
        arrays once (full rebuild) and then compacts them in place as flows
        complete (delta updates) instead of rebuilding."""
        env = Environment()
        bw = BandwidthSystem(env, config=SolverConfig(verify=True))
        link = bw.channel(100.0, "link")
        for i in range(24):
            # Distinct sizes: completions are spread over distinct instants,
            # each one a detach against the persistent arrays.
            bw.transfer(1000.0 + 10.0 * i, [link], label=f"f{i}")
        env.run()
        after = env.counters
        assert after.bw_flows_completed == 24
        assert after.bw_array_full_rebuilds >= 1
        assert after.bw_array_delta_updates >= 1


# -- the reference solver itself -------------------------------------------------------


class TestReferenceSolver:
    def test_single_bottleneck_split_evenly(self):
        env, bw = build_system(verify=False)
        link = bw.channel(90.0, "link")
        done = [bw.transfer(1000.0, [link], label=f"t{i}") for i in range(3)]
        rates = reference_allocation(bw._flows)
        assert sorted(rates.values()) == [30.0, 30.0, 30.0]
        env.run()
        assert all(d.processed for d in done)

    def test_cross_traffic_water_filling(self):
        env, bw = build_system(verify=False)
        a = bw.channel(100.0, "A")
        b = bw.channel(40.0, "B")
        bw.transfer(4000.0, [a, b], label="ab")
        bw.transfer(6000.0, [a], label="a")
        by_label = {f.label: r for f, r in reference_allocation(bw._flows).items()}
        # Max-min: the two-channel flow is limited by B to 40, the other
        # flow then takes the remaining 60 on A.
        assert by_label["ab"] == 40.0
        assert by_label["a"] == 60.0
        env.run()

    def test_empty_input(self):
        assert reference_allocation([]) == {}


# -- component partitioning ------------------------------------------------------------


class TestComponentPartitioning:
    def test_components_never_cross_disjoint_fabrics(self):
        """Two fabrics without a shared channel stay separate components."""
        env, bw = build_system(verify=False)
        # Fabric 1: a switch with two NICs.  Fabric 2: an isolated disk.
        switch = bw.channel(100.0, "switch")
        nic_a = bw.channel(50.0, "nic-a")
        nic_b = bw.channel(50.0, "nic-b")
        disk = bw.channel(80.0, "disk")
        bw.transfer(1000.0, [nic_a, switch], label="net-1")
        bw.transfer(1000.0, [nic_b, switch], label="net-2")
        bw.transfer(1000.0, [disk], label="disk-io")
        net = bw._component([switch])
        assert sorted(f.label for f in net) == ["net-1", "net-2"]
        isolated = bw._component([disk])
        assert [f.label for f in isolated] == ["disk-io"]
        env.run()

    def test_components_merge_through_shared_channels(self):
        env, bw = build_system(verify=False)
        a = bw.channel(10.0, "a")
        b = bw.channel(10.0, "b")
        c = bw.channel(10.0, "c")
        bw.transfer(100.0, [a, b], label="ab")
        bw.transfer(100.0, [b, c], label="bc")
        component = bw._component([a])
        assert sorted(f.label for f in component) == ["ab", "bc"]
        env.run()

    def test_fabric_times_independent_of_unrelated_traffic(self):
        """A fabric's completion times must not change when a disjoint
        fabric is busy -- not even in the last float ulp.

        This is the observable guarantee of component partitioning: under
        the historical global recomputation, unrelated events re-rounded
        every flow's remaining bytes, so heavy traffic elsewhere could shift
        completion times by a few ulps.
        """

        def run_fabric(with_noise):
            env = Environment()
            bw = BandwidthSystem(env)
            link = bw.channel(73.0, "fabric-a")
            times = {}

            def mover(i, delay, nbytes, channel):
                yield env.timeout(delay)
                yield bw.transfer(nbytes, [channel], label=f"m{i}")
                times[i] = env.now

            for i in range(5):
                env.process(mover(i, i * 0.13, 911.0 + 37.3 * i, link))
            if with_noise:
                noise = bw.channel(19.0, "fabric-b")
                for i in range(40):
                    env.process(mover(100 + i, i * 0.05, 131.7 + i, noise))
            env.run()
            return {k: v for k, v in times.items() if k < 100}

        quiet = run_fabric(with_noise=False)
        noisy = run_fabric(with_noise=True)
        assert quiet == noisy  # exact float equality, not approx

    def test_starved_system_raises(self):
        """No active flow with a finite horizon is a modelling error."""
        env, bw = build_system(verify=False)
        link = bw.channel(10.0, "link")
        bw.transfer(100.0, [link])
        bw._flush_pending()  # plan the flow; a parked flow may legally idle
        # Force an impossible state: zero out the rate behind the engine's
        # back and ask it to replan.
        (flow,) = bw._flows
        bw._rate[flow.slot] = 0.0
        bw._deadline[flow.slot] = math.inf
        bw._heap.clear()
        with pytest.raises(SimulationError):
            bw._arm_timer()


# -- deterministic work accounting -----------------------------------------------------


class TestSolverCounters:
    def test_component_counters_reflect_partitioning(self):
        env, bw = build_system(verify=False)
        disks = [bw.channel(50.0, f"disk{i}") for i in range(4)]
        for i, disk in enumerate(disks):
            # Distinct sizes so no two completions coincide (coinciding
            # deadlines are legitimately recomputed as one merged batch).
            bw.transfer(500.0 + 10.0 * i, [disk], label=f"io{i}")
        env.run()
        after = env.counters
        assert after.bw_flows_started == 4
        assert after.bw_flows_completed == 4
        # Single-channel fabrics: no recomputation ever spans more than one
        # flow, no matter how many disks are busy at once.
        assert after.bw_max_component_flows == 1
        assert after.bw_allocations >= 4

    @settings(max_examples=25, deadline=None)
    @given(topology=burst_topologies())
    # Two live components bridged by a third flow: merge, then split.
    @example(
        topology=(
            [50.0, 50.0],
            [([0], 1000.0, 0.0), ([1], 2000.0, 0.0), ([0, 1], 10.0, 0.0)],
        )
    )
    def test_verify_mode_moves_no_counter(self, topology):
        """Nothing in the model depends on how it is observed: the oracle
        checks of verify mode must leave every work counter where a plain
        run puts it."""
        capacities, flow_specs = topology
        snapshots = []
        for verify in (False, True):
            env = Environment()
            run_schedule(capacities, flow_specs, verify=verify, env=env)
            snapshots.append(env.counters)
        assert snapshots[0] == snapshots[1]
