"""Unit and property tests for the max-min fair bandwidth model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import BandwidthSystem, Environment
from repro.util.config import SolverConfig
from repro.util.errors import FailureInjected, SimulationError


def run_transfers(transfers, channels_spec):
    """Run a set of transfers and return their completion times.

    ``transfers`` is a list of (nbytes, [channel names]); ``channels_spec``
    maps channel name to capacity.
    """
    env = Environment()
    bw = BandwidthSystem(env)
    channels = {name: bw.channel(cap, name) for name, cap in channels_spec.items()}
    done_times = {}

    def mover(i, nbytes, names):
        yield bw.transfer(nbytes, [channels[n] for n in names], label=f"t{i}")
        done_times[i] = env.now

    for i, (nbytes, names) in enumerate(transfers):
        env.process(mover(i, nbytes, names))
    env.run()
    return done_times


class TestSingleChannel:
    def test_lone_transfer_duration(self):
        times = run_transfers([(1000.0, ["link"])], {"link": 100.0})
        assert times[0] == pytest.approx(10.0)

    def test_two_equal_transfers_share_fairly(self):
        times = run_transfers([(1000.0, ["link"]), (1000.0, ["link"])], {"link": 100.0})
        # Both get 50 B/s and finish together at t=20.
        assert times[0] == pytest.approx(20.0)
        assert times[1] == pytest.approx(20.0)

    def test_short_transfer_releases_bandwidth(self):
        times = run_transfers([(1000.0, ["link"]), (200.0, ["link"])], {"link": 100.0})
        # Until t=4 both run at 50 B/s; the short one finishes, the long one
        # then runs at 100 B/s with 800 bytes left -> finishes at t=12.
        assert times[1] == pytest.approx(4.0)
        assert times[0] == pytest.approx(12.0)

    def test_zero_byte_transfer_completes_immediately(self):
        times = run_transfers([(0.0, ["link"])], {"link": 10.0})
        assert times[0] == pytest.approx(0.0)

    def test_negative_bytes_rejected(self):
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(10.0)
        with pytest.raises(SimulationError):
            bw.transfer(-1, [link])

    def test_latency_added_after_transmission(self):
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(100.0)
        done = {}

        def mover():
            yield bw.transfer(1000.0, [link], latency=0.5)
            done["t"] = env.now

        env.process(mover())
        env.run()
        assert done["t"] == pytest.approx(10.5)


class TestInputChecks:
    """Bad inputs fail where they enter, naming the value and its owner."""

    def test_nan_capacity_rejected(self):
        bw = BandwidthSystem(Environment())
        with pytest.raises(SimulationError, match=r"uplink.*nan"):
            bw.channel(float("nan"), "uplink")
        with pytest.raises(SimulationError, match=r"<unnamed>.*-1"):
            bw.channel(-1)

    @pytest.mark.parametrize("n_flows", [1, 20])  # reference solver / array path
    def test_infinite_capacity_is_the_unlimited_channel(self, n_flows):
        env = Environment()
        bw = BandwidthSystem(env, config=SolverConfig(verify=True))
        free = bw.channel(math.inf, "free")
        nic = bw.channel(10.0, "nic")
        done = [bw.transfer(100.0, [free], label=f"f{i}") for i in range(n_flows)]
        done.append(bw.transfer(100.0, [free, nic], label="capped"))
        env.run()
        assert all(event.processed for event in done)
        # Only the flow that also crosses the NIC takes simulated time.
        assert env.now == pytest.approx(10.0)

    @pytest.mark.parametrize("nbytes", [float("nan"), math.inf, -math.inf])
    def test_non_finite_byte_count_rejected(self, nbytes):
        bw = BandwidthSystem(Environment())
        link = bw.channel(10.0)
        with pytest.raises(SimulationError, match=rf"'upload'.*{nbytes}"):
            bw.transfer(nbytes, [link], label="upload")
        assert bw.active_flows == 0

    @pytest.mark.parametrize("latency", [-5.0, float("nan"), math.inf])
    def test_bad_latency_rejected(self, latency):
        """Unchecked, -5 and NaN would run as no latency, and inf would park
        the completion at t = inf while the transmission counts as done."""
        bw = BandwidthSystem(Environment())
        link = bw.channel(10.0)
        with pytest.raises(SimulationError, match=rf"'upload'.*latency.*{latency}"):
            bw.transfer(100.0, [link], latency=latency, label="upload")
        assert bw.active_flows == 0 and not link.flows

    def test_repeated_channel_rejected(self):
        """``[a, a]`` would count two users of ``a`` for one attached flow
        (half the rate) and book the delivered bytes on ``a`` twice."""
        bw = BandwidthSystem(Environment())
        a = bw.channel(10.0, "a")
        b = bw.channel(10.0, "b")
        with pytest.raises(SimulationError, match=r"'twice'.*a\+b\+a"):
            bw.transfer(100.0, [a, b, a], label="twice")
        assert bw.active_flows == 0 and not a.flows and not b.flows


class TestMultiChannel:
    def test_bottleneck_is_min_capacity(self):
        times = run_transfers([(1000.0, ["fast", "slow"])], {"fast": 100.0, "slow": 10.0})
        assert times[0] == pytest.approx(100.0)

    def test_cross_traffic_on_one_link(self):
        # Flow 0 crosses A and B; flow 1 crosses only A. A=100, B=40.
        # Max-min: flow 0 is limited by B to 40; flow 1 then gets the
        # remaining 60 on A.
        times = run_transfers(
            [(400.0, ["A", "B"]), (600.0, ["A"])],
            {"A": 100.0, "B": 40.0},
        )
        assert times[0] == pytest.approx(10.0)
        assert times[1] == pytest.approx(10.0)

    def test_many_flows_through_switch(self):
        # 8 node-to-node transfers, each limited by its own NIC (10 B/s) but
        # all crossing a 40 B/s switch: the switch is the bottleneck.
        spec = {"switch": 40.0}
        transfers = []
        for i in range(8):
            spec[f"nic{i}"] = 10.0
            transfers.append((100.0, [f"nic{i}", "switch"]))
        times = run_transfers(transfers, spec)
        # Each flow gets 40/8 = 5 B/s -> 20 s.
        for i in range(8):
            assert times[i] == pytest.approx(20.0)


class TestFailure:
    def test_fail_channel_aborts_flows(self):
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(10.0, "link")
        outcome = {}

        def mover():
            try:
                yield bw.transfer(1000.0, [link])
                outcome["result"] = "done"
            except FailureInjected:
                outcome["result"] = ("failed", env.now)

        def killer():
            yield env.timeout(5)
            bw.fail_channel(link, FailureInjected("node died", node="n0"))

        env.process(mover())
        env.process(killer())
        env.run()
        assert outcome["result"] == ("failed", 5.0)

    def test_fail_channel_fails_a_transfer_with_latency_at_once(self):
        """Disk and network transfers all carry latency: a failure during
        transmission fails the caller's event with the injected exception
        at the failure instant, not a latency later and not as a success."""
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(10.0, "link")
        injected = FailureInjected("node died", node="n0")
        outcome = {}

        def mover():
            try:
                yield bw.transfer(1000.0, [link], latency=0.5)
                outcome["result"] = "done"
            except FailureInjected as exc:
                outcome["result"] = (exc, env.now)

        def killer():
            yield env.timeout(5)
            bw.fail_channel(link, injected)

        env.process(mover())
        env.process(killer())
        env.run()
        exc, when = outcome["result"]
        assert exc is injected
        assert when == 5.0

    def test_fail_channel_without_flows_returns_zero(self):
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(10.0)
        assert bw.fail_channel(link, FailureInjected()) == 0

    def test_unaffected_flows_continue(self):
        env = Environment()
        bw = BandwidthSystem(env)
        link_a = bw.channel(10.0, "a")
        link_b = bw.channel(10.0, "b")
        done = {}

        def mover(name, link):
            try:
                yield bw.transfer(100.0, [link], label=name)
                done[name] = env.now
            except FailureInjected:
                done[name] = "failed"

        def killer():
            yield env.timeout(1)
            bw.fail_channel(link_a, FailureInjected())

        env.process(mover("a", link_a))
        env.process(mover("b", link_b))
        env.process(killer())
        env.run()
        assert done["a"] == "failed"
        assert done["b"] == pytest.approx(10.0)


class TestConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=10),
        capacity=st.floats(1.0, 1e6),
    )
    def test_property_total_time_at_least_serial_bound(self, sizes, capacity):
        """A shared channel can never move data faster than its capacity."""
        transfers = [(s, ["link"]) for s in sizes]
        times = run_transfers(transfers, {"link": capacity})
        makespan = max(times.values())
        assert makespan >= sum(sizes) / capacity * (1 - 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.floats(1.0, 1e5), min_size=2, max_size=6))
    def test_property_completion_order_matches_size_order(self, sizes):
        """With equal start times and one shared link, smaller transfers
        never finish after strictly larger ones."""
        transfers = [(s, ["link"]) for s in sizes]
        times = run_transfers(transfers, {"link": 50.0})
        order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
        finish = [times[i] for i in order]
        assert all(finish[i] <= finish[i + 1] + 1e-6 for i in range(len(finish) - 1))

    def test_bytes_carried_accounting_is_exact(self):
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(100.0, "link")

        def mover():
            yield bw.transfer(500.0, [link])

        env.process(mover())
        env.run()
        # Exact, not approximate: completed flows contribute their size once,
        # at detach, instead of a rounding per-settle multiply-add.
        assert link.bytes_carried == 500.0
        assert bw.bytes_delivered == 500.0

    def test_bytes_carried_exact_under_many_rate_changes(self):
        """A staggered workload forces dozens of re-settles per flow; the
        carried-bytes totals must still be exact to the last bit."""
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(97.0, "link")
        sizes = [1000.0 + 13.7 * i for i in range(20)]

        def mover(delay, nbytes):
            yield env.timeout(delay)
            yield bw.transfer(nbytes, [link])

        for i, nbytes in enumerate(sizes):
            env.process(mover(i * 0.37, nbytes))
        env.run()
        # Conservation: sum of settled bytes == sum of completed flow sizes.
        assert bw.bytes_delivered == sum(sizes)
        assert link.bytes_carried == sum(sizes)
        assert bw.completed_flows == len(sizes)

    def test_aborted_flows_contribute_delivered_bytes_only(self):
        env = Environment()
        bw = BandwidthSystem(env)
        link = bw.channel(100.0, "link")

        def mover():
            try:
                yield bw.transfer(1000.0, [link])
            except FailureInjected:
                pass

        def killer():
            yield env.timeout(5)
            bw.fail_channel(link, FailureInjected())

        env.process(mover())
        env.process(killer())
        env.run()
        # 5 s at 100 B/s: the aborted flow carried 500 of its 1000 bytes.
        assert link.bytes_carried == pytest.approx(500.0)
        assert bw.bytes_delivered == 0.0
        assert bw.completed_flows == 0
