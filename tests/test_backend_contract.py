"""What every registered deployment backend owes its callers.

Parametrised over ``Session.backends()``, so a backend that registers itself
is held to the same contract as the built-in ones, through the public
:class:`~repro.api.Session` surface only:

* **round trip** -- bytes written into a guest survive checkpoint -> kill ->
  restart and read back unchanged;
* **placement** -- after every step each running instance's ``node_name`` is
  its ``vm.host``, and that host is not reserved by another deployment;
* **live migration** (backends implementing it) -- every migration mode is
  either carried out, keeping the guest's bytes (those written after the last
  checkpoint included) and the placement, or rejected before anything moved;
* **rollback** -- when the source dies mid-migration the migration completes
  (the source was no longer needed), or the instance comes back on the target
  from what was durable (``rolled_back``), or the failure propagates and a
  plain ``restart`` from the last checkpoint recovers it.
"""

import pytest

from repro.api import Session
from repro.cluster.failures import FailureInjector
from repro.core.migration import MIGRATION_MODES
from repro.scenarios.fault_tolerance import fault_tolerant_cluster
from repro.util.bytesource import SyntheticBytes
from repro.util.config import GRAPHENE
from repro.util.errors import FailureInjected, MigrationError, RestartError

#: two replicas, so the provider that dies with a migration source holds no
#: only copy of a chunk
SPEC = fault_tolerant_cluster(GRAPHENE.scaled(compute_nodes=6, service_nodes=3))

BACKENDS = [info.name for info in Session.backends()]
MIGRATING = [info.name for info in Session.backends() if info.live_migration]

#: a checkpoint file (read back by the restart path itself) and a plain data
#: file; both straddle a 256 KiB copy-on-write block
SAVED = "/ckpt/contract.dat"
LATER = "/data/after-checkpoint.dat"


def content(instance_id: str, path: str) -> bytes:
    return SyntheticBytes(("contract", instance_id, path), 300_000).read()


def assert_placement(session: Session) -> None:
    foreign = set(session.cloud.reserved_by_others(session.deployment))
    for inst in session.deployment.instances:
        if inst.vm.is_running:
            assert inst.vm.host == inst.node_name, inst.instance_id
            assert inst.vm.host not in foreign, inst.instance_id


def deployed_and_checkpointed(backend: str) -> Session:
    """Two instances, ``SAVED`` written and checkpointed, ``LATER`` written after."""
    session = Session.from_spec(SPEC)
    session.deploy(backend, n=2)
    assert_placement(session)
    for instance_id in session.instance_ids:
        session.guest_write(instance_id, SAVED, content(instance_id, SAVED))
    session.checkpoint()
    assert_placement(session)
    for instance_id in session.instance_ids:
        session.guest_write(instance_id, LATER, content(instance_id, LATER))
    return session


def assert_reads_back(session: Session, paths) -> None:
    for instance_id in session.instance_ids:
        for path in paths:
            assert session.guest_read(instance_id, path) == content(instance_id, path), (
                instance_id,
                path,
            )


def assert_survives_a_restart(session: Session, paths) -> None:
    session.checkpoint()
    assert_placement(session)
    session.kill()
    assert_placement(session)
    assert not any(inst.vm.is_running for inst in session.deployment.instances)
    session.restart()
    assert_placement(session)
    assert all(inst.vm.is_running for inst in session.deployment.instances)
    assert_reads_back(session, paths)


@pytest.mark.parametrize("backend", BACKENDS)
def test_written_bytes_survive_checkpoint_kill_restart(backend):
    session = Session.from_spec(SPEC)
    session.deploy(backend, n=2)
    assert_placement(session)
    for instance_id in session.instance_ids:
        session.guest_write(instance_id, SAVED, content(instance_id, SAVED))
        assert_placement(session)
    assert_survives_a_restart(session, [SAVED])


@pytest.mark.parametrize("backend", MIGRATING)
def test_every_migration_mode_moves_the_guest_or_is_rejected_cleanly(backend):
    supported = []
    for mode in MIGRATION_MODES:
        session = deployed_and_checkpointed(backend)
        migrant = session.deployment.instances[0]
        source = migrant.vm.host
        try:
            result = session.migrate(migrant.instance_id, mode=mode, demand_paths=(LATER,))
        except MigrationError:
            # An unsupported mode is turned away before anything moved.
            assert migrant.vm.is_running and migrant.vm.host == source
        else:
            supported.append(mode)
            assert not result.rolled_back
            assert result.source_node == source
            assert migrant.vm.is_running and migrant.vm.host == result.target_node != source
        assert_placement(session)
        assert_reads_back(session, [SAVED, LATER])
        assert_survives_a_restart(session, [SAVED, LATER])
    assert supported, f"{backend} implements migrate_instance but supports no mode"


def _about_to_lose_its_source(backend: str, after_s):
    """A checkpointed deployment whose instance 0 loses its host in ``after_s`` s."""
    session = deployed_and_checkpointed(backend)
    migrant = session.deployment.instances[0]
    if after_s is not None:
        FailureInjector(session.cloud, seed="contract").fail_at(
            session.now + after_s, migrant.vm.host
        )
    return session, migrant


@pytest.mark.parametrize("backend", MIGRATING)
def test_source_failure_mid_migration_rolls_back_to_durable_state(backend):
    exercised = 0
    for mode in MIGRATION_MODES:
        # The deterministic timeline of a clean run says where "mid" is.
        session, migrant = _about_to_lose_its_source(backend, None)
        try:
            clean = session.migrate(migrant.instance_id, mode=mode)
        except MigrationError:
            continue
        exercised += 1
        # early (a copy round / the suspend), the handover, the very end
        # (post-copy's drain)
        for fraction in (0.002, 0.5, 0.998):
            session, migrant = _about_to_lose_its_source(backend, clean.total_s * fraction)
            try:
                result = session.migrate(migrant.instance_id, mode=mode)
            except FailureInjected:
                # Nothing of this migration was durable: recover the way any
                # fail-stop crash is recovered, from the last global checkpoint.
                session.restart()
            else:
                assert migrant.vm.host == result.target_node
                # Rolled back, a copy round that completed before the crash is
                # durable too; not rolled back, the source was no longer
                # needed and nothing may be missing.
                if not result.rolled_back or migrant.vm.filesystem.exists(LATER):
                    assert session.guest_read(migrant.instance_id, LATER) == content(
                        migrant.instance_id, LATER
                    )
            assert all(inst.vm.is_running for inst in session.deployment.instances)
            assert_placement(session)
            assert_reads_back(session, [SAVED])
    assert exercised


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_checkpoint_after_rolling_back_snapshots_the_rolled_back_disk(backend):
    """The snapshot of a restarted instance derives from the version it runs
    on, not from whatever was committed last before the rollback."""
    session = Session.from_spec(SPEC)
    session.deploy(backend, n=2)
    checkpoints = []
    for fill in (1, 2, 3):
        for instance_id in session.instance_ids:
            session.guest_write(instance_id, SAVED, bytes([fill]) * 300_000)
        checkpoints.append(session.checkpoint())
    session.restart(checkpoints[0])
    assert_placement(session)
    for instance_id in session.instance_ids:
        assert session.guest_read(instance_id, SAVED) == bytes([1]) * 300_000
        session.guest_write(instance_id, LATER, content(instance_id, LATER))
    session.restart(session.checkpoint())
    assert_placement(session)
    for instance_id in session.instance_ids:
        assert session.guest_read(instance_id, SAVED) == bytes([1]) * 300_000
        assert session.guest_read(instance_id, LATER) == content(instance_id, LATER)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_checkpoint_that_misses_an_instance_is_refused_with_everything_running(backend):
    """``restart_all`` used to kill every instance before it found the record missing."""
    session = deployed_and_checkpointed(backend)
    deployment = session.deployment
    partial = session.drive(
        deployment.checkpoint_all(instances=deployment.instances[:1]), name="partial-checkpoint"
    )
    assert list(partial.records) == [deployment.instances[0].instance_id]
    with pytest.raises(RestartError, match=f"no snapshot of {deployment.instances[1].instance_id}"):
        session.drive(deployment.restart_all(partial), name="refused-restart")
    assert all(inst.vm.is_running for inst in deployment.instances)
    assert_placement(session)
    assert_reads_back(session, [SAVED, LATER])
    # and the deployment is none the worse for it
    assert_survives_a_restart(session, [SAVED, LATER])


def test_node_name_is_a_read_only_view_of_vm_host():
    """Placement is one fact: there is no second record to fall out of step."""
    session = Session.from_spec(SPEC)
    session.deploy(BACKENDS[0], n=1)
    instance = session.deployment.instances[0]
    instance.vm.host = "node-005"
    assert instance.node_name == "node-005"
    with pytest.raises(AttributeError):
        instance.node_name = "node-004"
