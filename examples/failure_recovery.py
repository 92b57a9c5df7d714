#!/usr/bin/env python3
"""Fault tolerance end to end: periodic checkpoints, a crash, rollback, GC.

A long-running synthetic application takes periodic global checkpoints
through the ``repro.api`` session facade.  After the third checkpoint the
whole application is lost (under the paper's fail-stop model every VM
instance and its local state disappears -- here we restart from the last
checkpoint, which is exactly what recovery from a crash does).  The example
rolls back to the last globally consistent checkpoint, restarts on different
nodes, verifies the restored state, and finally runs the transparent
snapshot garbage collector (the paper's future-work extension) to reclaim
the space of the two obsoleted checkpoints.

Run with:  python examples/failure_recovery.py
"""

from repro.api import GRAPHENE, Session
from repro.apps.synthetic import SyntheticBenchmark
from repro.util import format_bytes, format_duration
from repro.util.units import MB


def main() -> None:
    session = Session.from_spec(GRAPHENE.scaled(compute_nodes=10, service_nodes=3))
    session.deploy("blobcr", n=6)
    bench = SyntheticBenchmark(session.deployment, 20 * MB)

    # Periodic checkpointing: three epochs of work, checkpoint after each.
    for _ in range(3):
        bench.fill_buffers()
        session.drive(bench.checkpoint_app_level(), name="periodic-checkpoint")
        session.advance(30.0)  # the application keeps computing

    # Crash: all instances (and everything they wrote since the last
    # checkpoint) are gone.  Roll back to the most recent globally
    # consistent checkpoint and restart on different compute nodes.
    latest = session.deployment.checkpoints[-1]
    t0 = session.now
    session.drive(bench.restart(latest), name="rollback-restart")
    restart_time = session.now - t0
    state_ok = bench.verify_restored_state()

    # Reclaim the space of the two obsoleted checkpoints.
    before = session.deployment.storage_used_bytes()
    gc_report = session.collect(keep_latest=1)
    after = session.deployment.storage_used_bytes()

    print("Crash recovery with BlobCR (periodic checkpoints + rollback + GC)")
    print(f"  checkpoints taken before crash : {len(session.deployment.checkpoints)}")
    print(f"  rollback + restart duration    : {format_duration(restart_time)}")
    print(f"  restored state verified        : {state_ok}")
    print(f"  storage before GC              : {format_bytes(before)}")
    print(f"  reclaimed by snapshot GC       : {format_bytes(gc_report.reclaimed_bytes)}")
    print(f"  storage after GC               : {format_bytes(after)}")


if __name__ == "__main__":
    main()
