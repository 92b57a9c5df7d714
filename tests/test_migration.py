"""Live-migration tests: properties, determinism, registry, API, scenarios.

The migration engine rides on contracts the rest of the reproduction
already depends on, so its tests are mostly *invariant* tests:

* pre-copy -- every byte committed during the migration is accounted by
  exactly one round (conservation), the dirty set per round is monotone
  when the write rate decreases, and the residue COMMIT leaves nothing
  dirty behind;
* post-copy -- every residue block leaves the source exactly once, through
  exactly one of the switchover / demand-fault / prefetch channels
  (audited via the pump's serve log);
* determinism -- identical cells give byte-identical rows in-process,
  across worker counts, with tracing on or off, and independently of
  unrelated traffic on a disjoint fabric;
* the registry reads live-migration support off each backend's class.

The pre-copy threshold and round cap are module constants of
:mod:`repro.core.migration`; the tests that vary them patch the constants.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import SyntheticBenchmark
from repro.api import Session
from repro.cluster import Cloud
from repro.core.backends import backend_names, create_backend, get_backend
from repro.core import migration
from repro.core.migration import MIGRATION_MODES, PostCopyPump
from repro.guest.filesystem import METADATA_REGION
from repro.cluster.cloud import clouds
from repro.obs import merge_traces
from repro.runner import ParallelRunner, RunConfig, load_all, parse_selectors
from repro.scenarios.fault_tolerance import fault_tolerant_cluster
from repro.scenarios.migration import (
    EVAC_POLICIES,
    EVAC_SCENARIO,
    MIG_SCENARIO,
    run_evac_cell,
    run_mig_cell,
)
from repro.service.traffic import background_flow
from repro.util.bytesource import SyntheticBytes
from repro.util.config import GRAPHENE
from repro.util.errors import ConfigurationError, FailureInjected, MigrationError
from repro.util.units import MB

SMALL = fault_tolerant_cluster(GRAPHENE.scaled(compute_nodes=6, service_nodes=3))

BLOCK = SMALL.checkpoint.cow_block_size


def drive(cloud, gen, name="test-driver"):
    """Run one simulation generator to completion; return its value."""
    box = {}

    def wrapper():
        box["value"] = yield from gen

    cloud.run(cloud.process(wrapper(), name=name))
    return box["value"]


def make_deployment():
    cloud = Cloud(SMALL)
    return cloud, create_backend("blobcr", cloud)


@contextmanager
def precopy_constants(threshold_bytes, max_rounds=migration.PRECOPY_MAX_ROUNDS):
    """Run a block under other pre-copy convergence constants."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(migration, "PRECOPY_THRESHOLD_BYTES", threshold_bytes)
        patch.setattr(migration, "PRECOPY_MAX_ROUNDS", max_rounds)
        yield


def settled(deployment, bench, n=2):
    """Generator: deploy ``n`` instances, fill, take the anchor checkpoint."""
    yield from deployment.deploy(n, processes_per_instance=1)
    bench.fill_buffers()
    checkpoint = yield from bench.checkpoint_app_level()
    return checkpoint


# -- the post-copy pump: exactly-once, unit level --------------------------------------


class _Sink:
    """Minimal destination: what the pump needs (block size + writes)."""

    def __init__(self, block_size=BLOCK):
        self.block_size = block_size
        self.writes = []

    def write(self, offset, payload):
        self.writes.append((offset, payload.size))


def make_pump(sizes):
    """A pump over blocks {index: payload_bytes} between two real nodes."""
    cloud = Cloud(GRAPHENE.scaled(compute_nodes=2, service_nodes=2))
    sink = _Sink()
    payloads = {i: SyntheticBytes(("pump", i), size) for i, size in sizes.items()}
    pump = PostCopyPump(
        cloud, cloud.compute_nodes[0].name, cloud.compute_nodes[1].name,
        sink, payloads, "vm-test",
    )
    return cloud, pump, sink


@st.composite
def pump_workloads(draw):
    sizes = draw(
        st.dictionaries(st.integers(0, 63), st.integers(1, BLOCK), min_size=1, max_size=24)
    )
    windows = draw(
        st.lists(
            st.tuples(st.integers(0, 63 * BLOCK), st.integers(1, 8 * BLOCK)),
            max_size=6,
        )
    )
    return sizes, windows


class TestPostCopyPump:
    @settings(max_examples=25, deadline=None)
    @given(workload=pump_workloads())
    def test_every_block_served_exactly_once(self, workload):
        sizes, windows = workload
        cloud, pump, sink = make_pump(sizes)

        def scenario():
            for offset, length in windows:
                yield from pump.fault_range(offset, length)
            yield from pump.prefetch_sweep()

        drive(cloud, scenario())
        served = [block for block, _channel in pump.served]
        assert pump.drained
        assert sorted(served) == sorted(sizes)  # every block, and only those
        assert len(set(served)) == len(served)  # never twice
        assert len(sink.writes) == len(sizes)  # one install per block
        total = pump.remote_fault_bytes + pump.prefetched_bytes + pump.state_bytes
        assert total == sum(sizes.values())  # byte conservation per channel

    @settings(max_examples=25, deadline=None)
    @given(workload=pump_workloads())
    def test_serve_log_is_deterministic(self, workload):
        sizes, windows = workload

        def run():
            cloud, pump, _sink = make_pump(sizes)

            def scenario():
                for offset, length in windows:
                    yield from pump.fault_range(offset, length)
                yield from pump.prefetch_sweep()

            drive(cloud, scenario())
            return pump.served, cloud.now

        assert run() == run()

    def test_same_window_faulted_twice_is_a_noop(self):
        cloud, pump, sink = make_pump({0: BLOCK, 1: BLOCK, 5: 100})

        def scenario():
            first = yield from pump.fault_range(0, 2 * BLOCK)
            second = yield from pump.fault_range(0, 2 * BLOCK)
            return first, second

        first, second = drive(cloud, scenario())
        assert first == 2 * BLOCK
        assert second == 0
        assert len(sink.writes) == 2
        assert not pump.drained  # block 5 still pending

    def test_empty_window_serves_nothing(self):
        cloud, pump, _sink = make_pump({3: 10})
        assert drive(cloud, pump.fault_range(0, 0)) == 0
        assert drive(cloud, pump.fault_range(10 * BLOCK, BLOCK)) == 0
        assert not pump.drained

    def test_state_channel_counted_separately(self):
        cloud, pump, _sink = make_pump({0: BLOCK, 1: 7, 9: BLOCK})

        def scenario():
            yield from pump.fault_range(0, 2 * BLOCK, channel="state")
            yield from pump.prefetch_sweep()

        drive(cloud, scenario())
        assert pump.state_blocks == 2 and pump.state_bytes == BLOCK + 7
        assert pump.remote_faults == 0
        assert pump.prefetched_blocks == 1 and pump.prefetched_bytes == BLOCK
        assert [channel for _b, channel in pump.served] == ["state", "state", "prefetch"]

    def test_prefetch_sweep_moves_contiguous_runs(self):
        cloud, pump, _sink = make_pump({0: 1, 1: 1, 2: 1, 7: 1, 8: 1})
        drive(cloud, pump.prefetch_sweep())
        assert pump.drained
        assert [block for block, _c in pump.served] == [0, 1, 2, 7, 8]


# -- pre-copy invariants ---------------------------------------------------------------


def _writes_strategy():
    return st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 4 * MB)), min_size=1, max_size=5
    )


class TestPreCopyInvariants:
    @settings(max_examples=8, deadline=None)
    @given(writes=_writes_strategy())
    def test_bytes_moved_conservation(self, writes):
        """sum(round bytes) + residue == bytes committed by the migration."""
        cloud, deployment = make_deployment()
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def scenario():
            yield from settled(deployment, bench, n=1)
            instance = deployment.instances[0]
            for index, (slot, size) in enumerate(writes):
                data = SyntheticBytes(("conserve", index), size)
                yield from deployment.guest_write_and_sync(
                    instance, f"/data/w-{slot}.dat", data
                )
            source = instance.backend
            committed_before = source.commit_bytes_total
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            result = yield from deployment.migrate_instance(instance, target)
            return result, source, committed_before

        result, source, before = drive(cloud, scenario())
        moved = result.round_bytes + result.residue_bytes
        assert moved == source.commit_bytes_total - before
        assert source.dirty_bytes == 0  # the residue round left nothing behind
        assert result.rounds[0].bytes_moved > 0

    @settings(max_examples=8, deadline=None)
    @given(writes=_writes_strategy())
    def test_migrated_content_is_exact(self, writes):
        cloud, deployment = make_deployment()
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def scenario():
            yield from settled(deployment, bench, n=1)
            instance = deployment.instances[0]
            expected = {}
            for index, (slot, size) in enumerate(writes):
                data = SyntheticBytes(("exact", index), size)
                expected[f"/data/w-{slot}.dat"] = data
                yield from deployment.guest_write_and_sync(
                    instance, f"/data/w-{slot}.dat", data
                )
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            yield from deployment.migrate_instance(instance, target)
            for path, data in expected.items():
                found = yield from deployment.guest_read(instance, path)
                assert found.size == data.size
                assert found.read(0, found.size) == data.read(0, data.size)
            return instance

        instance = drive(cloud, scenario())
        assert instance.vm.is_running

    @settings(max_examples=6, deadline=None)
    @given(
        start_bytes=st.integers(8 * MB, 24 * MB),
        decay=st.floats(0.2, 0.7),
    )
    def test_dirty_rounds_monotone_under_decreasing_write_rate(self, start_bytes, decay):
        """With a geometrically decaying writer, round dirty sets shrink."""
        cloud, deployment = make_deployment()
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def writer(instance, stop):
            tick = 0
            while not stop["done"]:
                yield cloud.env.timeout(0.02)
                if stop["done"] or not instance.vm.is_running:
                    return
                size = max(1, int(start_bytes * decay ** tick))
                data = SyntheticBytes(("decay", tick), size)
                yield from deployment.guest_write_and_sync(
                    instance, "/data/hot.dat", data
                )
                tick += 1

        def scenario():
            yield from settled(deployment, bench, n=1)
            instance = deployment.instances[0]
            data = SyntheticBytes("decay-initial", start_bytes)
            yield from deployment.guest_write_and_sync(instance, "/data/hot.dat", data)
            stop = {"done": False}
            cloud.process(writer(instance, stop), name="decay-writer")
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            result = yield from deployment.migrate_instance(instance, target)
            stop["done"] = True
            return result

        with precopy_constants(0, max_rounds=6):
            result = drive(cloud, scenario())
        dirty = [r.dirty_blocks for r in result.rounds]
        assert dirty[0] > 0
        # Monotone from the second round on: each round ships what the
        # (slowing) writer dirtied during the previous, shorter round.
        assert all(a >= b for a, b in zip(dirty[1:], dirty[2:]))

    def test_round_cap_bounds_the_iterations(self):
        cloud, deployment = make_deployment()
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def writer(instance, stop):
            tick = 0
            while not stop["done"]:
                yield cloud.env.timeout(0.01)
                if stop["done"] or not instance.vm.is_running:
                    return
                data = SyntheticBytes(("agg", tick), 8 * MB)
                yield from deployment.guest_write_and_sync(
                    instance, "/data/hot.dat", data
                )
                tick += 1

        def scenario():
            yield from settled(deployment, bench, n=1)
            instance = deployment.instances[0]
            stop = {"done": False}
            cloud.process(writer(instance, stop), name="agg-writer")
            yield cloud.env.timeout(0.05)
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            result = yield from deployment.migrate_instance(instance, target)
            stop["done"] = True
            return result

        with precopy_constants(0, max_rounds=2):
            result = drive(cloud, scenario())
        assert len(result.rounds) <= 2
        assert not result.rolled_back

    def test_converged_dirty_set_stops_after_one_round(self):
        cloud, deployment = make_deployment()
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def scenario():
            yield from settled(deployment, bench, n=1)
            instance = deployment.instances[0]
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            result = yield from deployment.migrate_instance(instance, target)
            return result

        with precopy_constants(10**12):
            result = drive(cloud, scenario())
        assert len(result.rounds) == 1
        assert result.downtime_s > 0
        assert result.downtime_s <= result.total_migration_s


# -- post-copy, engine level -----------------------------------------------------------


class TestPostCopyEngine:
    def _migrate(self, demand=("/data/hot.dat",)):
        cloud, deployment = make_deployment()
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def scenario():
            yield from settled(deployment, bench, n=1)
            instance = deployment.instances[0]
            data = SyntheticBytes("postcopy-hot", 6 * MB)
            yield from deployment.guest_write_and_sync(instance, "/data/hot.dat", data)
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            result = yield from deployment.migrate_instance(
                instance, target, mode="post-copy", demand_paths=demand
            )
            found = yield from deployment.guest_read(instance, "/data/hot.dat")
            assert found.read(0, found.size) == data.read(0, data.size)
            return result, deployment, instance

        return cloud, drive(cloud, scenario())

    def test_exactly_once_across_all_channels(self):
        _cloud, (result, deployment, _instance) = self._migrate()
        pump = deployment.last_pump
        assert pump is not None and pump.drained
        blocks = [block for block, _channel in pump.served]
        assert len(set(blocks)) == len(blocks)
        assert result.remote_faults == pump.remote_faults > 0
        assert result.prefetched_blocks == pump.prefetched_blocks
        assert result.remote_fault_bytes == pump.remote_fault_bytes
        # Metadata blocks crossed on the state channel, below the region cap.
        state_blocks = [b for b, c in pump.served if c == "state"]
        assert state_blocks
        assert all(b < METADATA_REGION // BLOCK for b in state_blocks)

    def test_no_rounds_and_no_residue(self):
        _cloud, (result, _deployment, _instance) = self._migrate()
        assert result.mode == "post-copy"
        assert result.rounds == ()
        assert result.residue_bytes == 0
        assert result.state_bytes > 0

    def test_without_demand_paths_everything_prefetches(self):
        _cloud, (result, _deployment, _instance) = self._migrate(demand=())
        assert result.remote_faults == 0
        assert result.prefetched_blocks > 0

    def test_instance_lands_running_on_target(self):
        _cloud, (result, _deployment, instance) = self._migrate()
        assert instance.node_name == result.target_node
        assert instance.vm.is_running
        assert result.downtime_s < result.total_migration_s


# -- stop-and-copy (qcow2-full) ----------------------------------------------------------


class TestStopAndCopy:
    def _migrate_full(self):
        cloud = Cloud(SMALL)
        deployment = create_backend("qcow2-full", cloud)
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            bench.fill_buffers()
            yield from deployment.checkpoint_all(tag="full")
            instance = deployment.instances[0]
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            result = yield from deployment.migrate_instance(instance, target)
            return result, deployment, instance

        return drive(cloud, scenario())

    def test_monolithic_migration_completes(self):
        result, deployment, instance = self._migrate_full()
        assert result.mode == "stop-and-copy"
        assert instance.node_name == result.target_node
        assert instance.vm.is_running
        assert deployment.migrations == [result]

    def test_whole_window_is_downtime(self):
        result, _deployment, _instance = self._migrate_full()
        assert result.downtime_s == result.total_migration_s
        assert result.rounds == ()
        assert result.residue_bytes > 0  # the full image crossed the wire

    def test_live_modes_rejected(self):
        cloud = Cloud(SMALL)
        deployment = create_backend("qcow2-full", cloud)

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            instance = deployment.instances[0]
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            yield from deployment.migrate_instance(instance, target, mode="pre-copy")

        with pytest.raises(MigrationError, match=r"'pre-copy' \(supported: stop-and-copy\)"):
            drive(cloud, scenario())

    def test_precopy_beats_stop_and_copy_downtime(self):
        """Live pre-copy downtime is shorter than the monolithic copy's."""

        def downtime(backend, mode):
            cloud = Cloud(SMALL)
            deployment = create_backend(backend, cloud)
            bench = SyntheticBenchmark(deployment, 4 * MB)

            def scenario():
                yield from deployment.deploy(1, processes_per_instance=1)
                bench.fill_buffers()
                if backend == "qcow2-full":
                    yield from deployment.checkpoint_all(tag="ref")
                else:
                    yield from bench.checkpoint_app_level()
                instance = deployment.instances[0]
                target = cloud.reserve_nodes(1, owner=deployment)[0]
                result = yield from deployment.migrate_instance(
                    instance, target, mode=mode
                )
                return result

            return drive(cloud, scenario()).downtime_s

        assert downtime("blobcr", "pre-copy") < downtime(
            "qcow2-full", "stop-and-copy"
        )

    def test_reference_evacuation_rows_keep_the_downtime_ratio(self):
        """The rule of the retired CI migration gate, over the ``evac`` rows
        ``benchmarks/baseline.json`` pins: every cell verified, pre-copy
        downtime at least 2x below stop-and-copy, post-copy below it too."""
        rows = {row["policy"]: row for row in Session().run_scenario("evac").rows}
        assert all(row["verified"] for row in rows.values())
        stop_and_copy = rows["stop-and-copy"]["downtime_s"]
        assert stop_and_copy >= 2.0 * rows["pre-copy"]["downtime_s"]
        assert rows["post-copy"]["downtime_s"] < stop_and_copy


# -- error handling --------------------------------------------------------------------


class TestEngineErrors:
    def test_unknown_mode_rejected(self):
        cloud, deployment = make_deployment()

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            instance = deployment.instances[0]
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            yield from deployment.migrate_instance(instance, target, mode="warp")

        with pytest.raises(MigrationError, match=r"'warp' \(supported: pre-copy, post-copy\)"):
            drive(cloud, scenario())

    def test_not_running_rejected(self):
        cloud, deployment = make_deployment()

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            instance = deployment.instances[0]
            target = cloud.reserve_nodes(1, owner=deployment)[0]
            deployment.kill_all()
            yield from deployment.migrate_instance(instance, target)

        with pytest.raises(MigrationError, match="not running"):
            drive(cloud, scenario())

    def test_self_migration_rejected(self):
        cloud, deployment = make_deployment()

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            instance = deployment.instances[0]
            yield from deployment.migrate_instance(instance, instance.node_name)

        with pytest.raises(MigrationError, match="own host"):
            drive(cloud, scenario())

    def test_dead_target_rejected(self):
        cloud, deployment = make_deployment()

        def scenario():
            yield from deployment.deploy(1, processes_per_instance=1)
            instance = deployment.instances[0]
            target = cloud.compute_nodes[-1].name
            cloud.node(target).fail()
            yield from deployment.migrate_instance(instance, target)

        with pytest.raises(FailureInjected):
            drive(cloud, scenario())

    def test_unknown_option_rejected_by_registry(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            create_backend("blobcr", Cloud(SMALL), warp_factor=9)


# -- the registry ----------------------------------------------------------------------


class TestCapabilityFlags:
    def test_blobcr_is_the_one_live_migrating_blobcr_backend(self):
        assert backend_names() == ["blobcr", "qcow2-disk", "qcow2-full"]
        info = get_backend("blobcr")
        assert info.live_migration
        assert "pre-copy" in info.description
        assert [name for name in backend_names() if get_backend(name).live_migration] == [
            "blobcr",
            "qcow2-full",
        ]

    def test_flag_matches_implementation_for_every_backend(self):
        """What the registry advertises is what ``Session.migrate`` does: a
        backend listed as live-migrating moves an instance in some mode, any
        other is refused before anything moved."""
        for name in backend_names():
            info = get_backend(name)
            moved = []
            for mode in MIGRATION_MODES:
                session = Session(SMALL)
                session.deploy(name, n=1)
                session.checkpoint()
                migrant = session.deployment.instances[0]
                source = migrant.vm.host
                try:
                    session.migrate(mode=mode)
                except ConfigurationError:
                    assert not info.live_migration, f"{name} refused {mode}"
                    assert migrant.vm.is_running and migrant.vm.host == source
                except MigrationError:
                    assert info.live_migration, f"{name} is not advertised but tried {mode}"
                    assert migrant.vm.is_running and migrant.vm.host == source
                else:
                    assert migrant.vm.host != source
                    moved.append(mode)
            assert bool(moved) == info.live_migration, f"{name} moved in {moved}"

    def test_modes_constant_covers_all_modes(self):
        assert MIGRATION_MODES == ("pre-copy", "post-copy", "stop-and-copy")

    def test_tuning_options_are_honoured(self):
        """Pre-copy reads its threshold and round cap when it migrates: each
        one, patched, changes how many rounds the same migration runs."""
        assert (migration.PRECOPY_THRESHOLD_BYTES, migration.PRECOPY_MAX_ROUNDS) == (4 * MB, 8)

        def rounds(rewrite_bytes):
            """Pre-copy rounds of a 16 MB-dirty instance whose guest rewrites
            ``rewrite_bytes`` every 20 ms while it migrates."""
            cloud, deployment = make_deployment()
            bench = SyntheticBenchmark(deployment, 4 * MB)

            def writer(instance, stop):
                tick = 0
                while not stop["done"]:
                    yield cloud.env.timeout(0.02)
                    if stop["done"] or not instance.vm.is_running:
                        return
                    data = SyntheticBytes(("steady", tick), rewrite_bytes)
                    yield from deployment.guest_write_and_sync(instance, "/data/hot.dat", data)
                    tick += 1

            def scenario():
                yield from settled(deployment, bench, n=1)
                instance = deployment.instances[0]
                data = SyntheticBytes("steady-initial", 16 * MB)
                yield from deployment.guest_write_and_sync(instance, "/data/hot.dat", data)
                stop = {"done": False}
                cloud.process(writer(instance, stop), name="steady-writer")
                target = cloud.reserve_nodes(1, owner=deployment)[0]
                result = yield from deployment.migrate_instance(instance, target)
                stop["done"] = True
                return result

            result = drive(cloud, scenario())
            assert not result.rolled_back
            return len(result.rounds)

        # A 1 MB rewrite leaves less than the shipped 4 MB threshold dirty ...
        assert rounds(1 * MB) == 1
        with precopy_constants(0):
            # ... which a zero threshold ships in a round of its own.
            assert rounds(1 * MB) == 2
            assert rounds(4 * MB) == 3
        with precopy_constants(0, max_rounds=2):
            assert rounds(4 * MB) == 2


# -- the Session facade ----------------------------------------------------------------


class TestSessionMigrate:
    def _session(self):
        session = Session(SMALL)
        session.deploy("blobcr", n=2)
        session.checkpoint()
        return session

    def test_migrate_default_instance_and_target(self):
        session = self._session()
        result = session.migrate()
        assert result.instance_id == session.deployment.instances[0].instance_id
        assert session.deployment.instances[0].node_name == result.target_node
        assert result.mode == "pre-copy"
        assert result.downtime_s > 0
        assert result.total_bytes_moved > 0
        assert not result.rolled_back
        assert result.handle.mode == "pre-copy"

    def test_migrate_post_copy_explicit(self):
        session = self._session()
        instance_id = session.deployment.instances[1].instance_id
        result = session.migrate(instance_id=instance_id, mode="post-copy")
        assert result.instance_id == instance_id
        assert result.mode == "post-copy"
        assert result.rounds == 0

    def test_backend_without_capability_refused(self):
        session = Session(SMALL)
        session.deploy("qcow2-disk", n=1)
        with pytest.raises(ConfigurationError, match="live migration"):
            session.migrate()

    def test_qcow2_full_stop_and_copy_through_session(self):
        session = Session(SMALL)
        session.deploy("qcow2-full", n=1)
        session.checkpoint()
        result = session.migrate(mode="stop-and-copy")
        assert result.mode == "stop-and-copy"
        assert result.downtime_s == result.total_s

    def test_session_migrations_are_deterministic(self):
        def run():
            session = self._session()
            result = session.migrate(mode="post-copy", demand_paths=("/ckpt",))
            return (
                result.downtime_s, result.total_s, result.total_bytes_moved,
                result.remote_faults, result.target_node,
            )

        assert run() == run()


# -- concurrent migrations -------------------------------------------------------------


class TestMigrateAll:
    def test_two_instances_migrate_concurrently(self):
        cloud, deployment = make_deployment()
        bench = SyntheticBenchmark(deployment, 4 * MB)

        def scenario():
            yield from settled(deployment, bench, n=2)
            targets = cloud.reserve_nodes(2, owner=deployment)
            mapping = {
                inst.instance_id: target
                for inst, target in zip(deployment.instances, targets)
            }
            results = yield from deployment.migrate_all(mapping)
            return mapping, results

        mapping, results = drive(cloud, scenario())
        # Results come back in mapping order regardless of completion order.
        assert [r.instance_id for r in results] == list(mapping)
        assert [r.target_node for r in results] == list(mapping.values())
        assert all(not r.rolled_back for r in results)
        for instance in deployment.instances:
            assert instance.node_name == mapping[instance.instance_id]
            assert instance.vm.is_running
        assert sorted(m.instance_id for m in deployment.migrations) == sorted(mapping)

    def test_migrate_all_is_deterministic(self):
        def run():
            cloud, deployment = make_deployment()
            bench = SyntheticBenchmark(deployment, 4 * MB)

            def scenario():
                yield from settled(deployment, bench, n=2)
                targets = cloud.reserve_nodes(2, owner=deployment)
                mapping = {
                    inst.instance_id: target
                    for inst, target in zip(deployment.instances, targets)
                }
                results = yield from deployment.migrate_all(mapping, mode="post-copy")
                return results

            return [
                (r.instance_id, r.downtime_s, r.total_migration_s, r.total_bytes_moved)
                for r in drive(cloud, scenario())
            ]

        assert run() == run()


# -- scenario cells and their determinism contract -------------------------------------

FAST_EVAC = dict(instances=2, buffer_bytes=4 * MB, steady_s=6.0, spec=SMALL)


class TestEvacScenario:
    @pytest.mark.parametrize("policy", EVAC_POLICIES)
    def test_policy_survives_the_predicted_failure(self, policy):
        out = run_evac_cell(policy, 30.0, **FAST_EVAC)
        assert out["failures"] == 1
        assert out["survivors_ok"]
        assert out["verified"]
        assert out["downtime_s"] > 0
        assert out["bytes_moved"] > 0

    def test_live_policies_finish_before_the_crash(self):
        for policy in ("pre-copy", "post-copy"):
            out = run_evac_cell(policy, 30.0, **FAST_EVAC)
            assert out["completed_before_failure"]
            assert not out["rolled_back"]

    def test_ckpt_restart_pays_full_downtime(self):
        live = run_evac_cell("pre-copy", 30.0, **FAST_EVAC)
        reactive = run_evac_cell("ckpt-restart", 30.0, **FAST_EVAC)
        assert not reactive["completed_before_failure"]
        assert reactive["downtime_s"] > live["downtime_s"]

    def test_cell_is_deterministic_in_process(self):
        first = run_evac_cell("post-copy", 30.0, **FAST_EVAC)
        second = run_evac_cell("post-copy", 30.0, **FAST_EVAC)
        assert first == second

    def test_rows_independent_of_tracing(self):
        baseline = run_evac_cell("pre-copy", 30.0, **FAST_EVAC)
        with clouds(trace=True) as registered:
            traced = run_evac_cell("pre-copy", 30.0, **FAST_EVAC)
        assert merge_traces([cloud.env.tracer for cloud in registered])["spans"]
        assert traced == baseline

    def test_merge_preserves_cell_order(self):
        class FakeCell:
            def __init__(self, payload):
                self.payload = payload

        payloads = [
            run_evac_cell("pre-copy", 30.0, **FAST_EVAC),
            run_evac_cell("ckpt-restart", 30.0, **FAST_EVAC),
        ]
        rows = EVAC_SCENARIO.merge([FakeCell(p) for p in payloads]).rows
        assert [row["policy"] for row in rows] == ["pre-copy", "ckpt-restart"]
        assert all(row["verified"] for row in rows)

    def test_spec_enumerates_policy_times_lead(self):
        cells = EVAC_SCENARIO.build_cells()
        keys = [cell.key for cell in cells]
        assert keys == [f"evac:{policy}:45" for policy in EVAC_POLICIES]
        assert len({cell.seed for cell in cells}) == len(cells)


class TestMigScenario:
    def test_contention_slows_the_migration(self):
        quiet = run_mig_cell("pre-copy", 0, buffer_bytes=4 * MB, spec=SMALL)
        busy = run_mig_cell("pre-copy", 8, buffer_bytes=4 * MB, spec=SMALL)
        assert busy["total_s"] > quiet["total_s"]
        assert busy["downtime_s"] > quiet["downtime_s"]

    def test_post_copy_demands_cross_the_fabric(self):
        out = run_mig_cell("post-copy", 0, buffer_bytes=4 * MB, spec=SMALL)
        assert out["remote_faults"] > 0

    def test_cell_is_deterministic_in_process(self):
        first = run_mig_cell("post-copy", 8, buffer_bytes=4 * MB, spec=SMALL)
        second = run_mig_cell("post-copy", 8, buffer_bytes=4 * MB, spec=SMALL)
        assert first == second

    def test_rows_independent_of_disjoint_fabric_traffic(self):
        """Unrelated traffic on a *separate* cloud must not leak in."""
        quiet = run_mig_cell("post-copy", 0, buffer_bytes=4 * MB, spec=SMALL)
        other = Cloud(SMALL)
        stop = {"done": False}

        def noisy():
            src = other.compute_nodes[0].name
            dst = other.compute_nodes[1].name
            other.process(background_flow(other, src, dst, 64 * MB, stop), name="noise")
            yield other.env.timeout(30.0)
            stop["done"] = True

        other.run(other.process(noisy()))
        again = run_mig_cell("post-copy", 0, buffer_bytes=4 * MB, spec=SMALL)
        assert again == quiet

    def test_merge_one_row_per_flow_count(self):
        class FakeCell:
            def __init__(self, payload):
                self.payload = payload

        payloads = [
            run_mig_cell(mode, flows, buffer_bytes=4 * MB, spec=SMALL)
            for mode in ("pre-copy", "post-copy")
            for flows in (0, 8)
        ]
        rows = MIG_SCENARIO.merge([FakeCell(p) for p in payloads]).rows
        assert [row["flows"] for row in rows] == [0, 8]
        for row in rows:
            assert "pre-copy downtime_s" in row
            assert "post-copy total_s" in row

    def test_spec_enumerates_mode_times_flows(self):
        keys = [cell.key for cell in MIG_SCENARIO.build_cells()]
        assert keys[0] == "mig:pre-copy:0"
        assert len(keys) == 6


class TestWorkerDeterminism:
    def test_workers_do_not_change_migration_rows(self):
        load_all()
        config = RunConfig(
            spec=SMALL,
            overrides=(
                "evac.instances=2",
                "evac.buffer_bytes=4000000",
                "evac.lead=20",
            ),
        )
        selectors = parse_selectors(["evac:pre-copy,evac:post-copy"])
        sequential = ParallelRunner(workers=1).run(["evac"], config, selectors)
        parallel = ParallelRunner(workers=4).run(["evac"], config, selectors)
        assert [r.rows for r in sequential.results] == [r.rows for r in parallel.results]
        assert [c.payload for c in sequential.cell_results] == [
            c.payload for c in parallel.cell_results
        ]
