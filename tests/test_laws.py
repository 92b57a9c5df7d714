"""Laws the model keeps across its settings.

The seed law: ``cluster.seed`` moves times and never bytes.  On the
synthetic cells (no dedup, replication 1) what a checkpoint stores and
whether the restart restores it do not depend on the seed; the times the
jitter draws from it do.
"""

from repro.runner import ParallelRunner, load_all, resolve_run_inputs
from repro.scenarios.workloads import APPROACHES

_CELLS = [f"fig3:{approach}:4:50MB" for approach in APPROACHES]
_BYTES = ("snapshot_bytes_per_instance", "storage_after_checkpoint", "restored_ok")


def _payloads(seed):
    experiments, selectors, config = resolve_run_inputs(
        load_all(), ["fig3"], _CELLS, (), seed=seed
    )
    report = ParallelRunner().run(experiments, config, selectors)
    return {result.key: result.payload for result in report.cell_results}


def test_the_seed_moves_times_and_never_bytes():
    runs = [_payloads(seed) for seed in (None, 1, 2)]
    assert all(sorted(run) == sorted(_CELLS) for run in runs)
    for key in _CELLS:
        stored = [{name: run[key][name] for name in _BYTES} for run in runs]
        assert stored[0]["restored_ok"] is True
        assert stored[1:] == [stored[0]] * 2, key
    moved = [key for key in _CELLS if len({run[key]["restart_time"] for run in runs}) > 1]
    assert moved, "no seed reached a restart time"
