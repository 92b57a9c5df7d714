"""fig2, fig3 and fig4 report phases of one deploy -> checkpoint -> restart cycle.

fig2 and fig4 are views of fig3: one runner call, or one ``Session``,
executes each cycle once and reports it through every scenario that selects
it.  A view's record does not depend on whether its fig3 twin runs beside
it, and a byte corrupted in the checkpointed content after the checkpoint
turns the cycle's ``restored_ok`` -- seen through any of them -- ``False``.
Every ``restored_ok`` a synthetic or ``ft`` cell reports comes from a
verification of the restored state.
"""

import dataclasses
import gc
import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import Session
from repro.apps.synthetic import SyntheticBenchmark
from repro.baselines.common import BASE_IMAGE_FILE
from repro.runner import CellResult, ParallelRunner, RunConfig, load_all
from repro.runner import parallel, parse_selectors
from repro.scenarios import get_scenario
from repro.scenarios.workloads import APPROACHES
from repro.util.bytesource import LiteralBytes, concat
from repro.util.errors import ConfigurationError


def _smallest(experiment, approach):
    return f"{experiment}:{approach}:4:50MB"


_VIEWS = ("fig2", "fig4")


def _view_and_twin(view, approach):
    """A view's smallest cell and the fig3 cell whose cycle it reports."""
    key = _smallest(view, approach) if view == "fig2" else f"fig4:{approach}:50MB"
    return key, _smallest("fig3", approach)


def _run(experiments, keys):
    load_all()
    return ParallelRunner().run(experiments, RunConfig(), parse_selectors(keys))


def _payload(experiments, keys, key):
    return {result.key: result for result in _run(experiments, keys).cell_results}[key].payload


def _flip_a_middle_byte(data):
    at = data.size // 2
    flipped = LiteralBytes(bytes([data.read(at, 1)[0] ^ 1]))
    return concat([data.slice(0, at), flipped, data.slice(at + 1, data.size - at - 1)])


def _flip_a_checkpointed_byte(deployment, flipped):
    """Flip the middle byte of the largest run a checkpoint stored that no earlier
    call flipped: a BlobSeer stored run of an instance's snapshot, or a run of a
    checkpoint image in PVFS.  ``flipped`` holds the payloads this hook made.

    The hook runs after every checkpoint, so over several checkpoints (fig5)
    it flips one run per checkpoint and never flips a byte back.  It can still
    hit an older epoch's run, which no restart reads, and under a replication
    factor of 2 (ft) a restart can read the replica that kept its byte."""

    def fresh(payload):
        return not any(payload is made for made in flipped)

    def flip(payload):
        flipped.append(_flip_a_middle_byte(payload))
        return flipped[-1]

    repository = getattr(deployment, "repository", None)
    if repository is not None:
        providers = repository.client.providers._providers.values()
        runs = {
            id(run): run
            for provider in providers
            for run in provider._runs.values()
            if run.blob_id != deployment.base_blob_id and fresh(run.payload)
        }
        run = max(runs.values(), key=lambda run: run.payload.size)
        run.payload = flip(run.payload)
        return
    images = [
        entry.payload
        for name, entry in deployment.pvfs._files.items()
        if name != BASE_IMAGE_FILE
    ]
    tables = [image._map for image in images]
    tables += [snapshot.cluster_table for image in images for snapshot in image._snapshots.values()]
    table, i = max(
        ((table, i) for table in tables for i in range(len(table.runs)) if fresh(table.runs[i][1])),
        key=lambda pair: pair[0].runs[pair[1]][1].size,
    )
    count, payload, shared = table.runs[i]
    table.runs[i] = (count, flip(payload), shared)


@pytest.fixture
def corrupted(monkeypatch):
    """Every synthetic checkpoint of the test is corrupted once it is taken."""
    checkpoint = SyntheticBenchmark.checkpoint
    flipped = []

    def corrupting(bench):
        taken = yield from checkpoint(bench)
        _flip_a_checkpointed_byte(bench.deployment, flipped)
        return taken

    monkeypatch.setattr(SyntheticBenchmark, "checkpoint", corrupting)


_FULL_XFAIL = pytest.mark.xfail(
    strict=True, reason="the full level saves no segment content, so it compares no byte"
)
_APPROACHES = [pytest.param(a, marks=_FULL_XFAIL) if a == "qcow2-full" else a for a in APPROACHES]


@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("approach", APPROACHES)
def test_a_view_record_is_the_same_alone_or_beside_its_twin(approach, view):
    key, twin = _view_and_twin(view, approach)
    alone = _payload([view], [key], key)
    beside = _payload([view, "fig3"], [key, twin], key)
    assert json.dumps(alone) == json.dumps(beside)


@pytest.mark.parametrize("approach", _APPROACHES)
def test_a_corrupted_checkpoint_does_not_restore(approach, corrupted):
    key = _smallest("fig3", approach)
    assert _payload(["fig3"], [key], key)["restored_ok"] is False


@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("approach", _APPROACHES)
def test_a_corrupted_checkpoint_does_not_restore_through_a_view(approach, view, corrupted):
    key, _twin = _view_and_twin(view, approach)
    assert _payload([view], [key], key)["restored_ok"] is False


@pytest.mark.parametrize("approach", ["BlobCR-app", "BlobCR-blcr"])
def test_a_corrupted_checkpoint_does_not_restore_after_successive_checkpoints(
    approach, corrupted
):
    key = f"fig5:{approach}"
    assert _payload(["fig5"], [key], key)["restored_ok"] is False


@pytest.fixture
def unverified(monkeypatch):
    """Every restored state fails its check, so a flag that reads ``True``
    was never computed."""
    monkeypatch.setattr(SyntheticBenchmark, "verify_restored_state", lambda *_, **__: False)


_FLAGGED = [_smallest("fig2", "BlobCR-app"), _smallest("fig3", "BlobCR-app")]
_FLAGGED += [
    key
    for approach in ("BlobCR-app", "qcow2-full")
    for key in (f"fig4:{approach}:50MB", f"fig5:{approach}")
]
_FLAGGED += [
    f"ft:{approach}:{mtbf}"
    for approach in ("BlobCR-app", "qcow2-disk-app", "qcow2-full")
    for mtbf in ("nofail", "150", "600")
]


@pytest.mark.parametrize("key", _FLAGGED)
def test_every_restored_ok_comes_from_a_verification(key, unverified):
    assert _payload([key.split(":")[0]], [key], key)["restored_ok"] is False


@pytest.fixture
def executed(monkeypatch):
    """The keys of the cells the runner executes, in this process or in a pool
    (which cannot pickle an in-process spy, so its submissions are counted)."""
    keys = []
    execute_cell = parallel.execute_cell

    def spy(cell, trace=False):
        keys.append(cell.key)
        return execute_cell(cell, trace)

    class Pool(ProcessPoolExecutor):
        def submit(self, fn, cell, *args):
            keys.append(cell.key)
            return super().submit(execute_cell, cell, *args)

    monkeypatch.setattr(parallel, "execute_cell", spy)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Pool)
    return keys


def _rows(experiment, keys):
    return json.dumps(_run([experiment], keys).results[0].rows)


@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("workers", [1, 2])
def test_one_call_executes_a_cell_and_its_twin_once(workers, view, executed):
    pairs = [_view_and_twin(view, approach) for approach in ("BlobCR-app", "qcow2-full")]
    views, fig3 = [key for key, _ in pairs], [twin for _, twin in pairs]
    load_all()
    selectors = parse_selectors(views + fig3)
    together = ParallelRunner(workers).run([view, "fig3"], RunConfig(), selectors)
    assert sorted(executed) == fig3
    assert [result.key for result in together.cell_results] == views + fig3
    for merged, cells in zip(together.results, (views, fig3)):
        assert json.dumps(merged.rows) == _rows(merged.experiment, cells)


def test_a_session_runs_each_cycle_once_for_every_scenario(executed):
    session, records = Session(), []
    fig3 = [_smallest("fig3", approach) for approach in APPROACHES]
    fig2, fig4 = ([_view_and_twin(view, a)[0] for a in APPROACHES] for view in _VIEWS)
    calls = [("fig2", fig2), ("fig3", fig3), ("fig4", fig4)]

    def record(_done, _total, result):
        records.append(result.key)

    reports = [session.run_scenario(name, cells=cells, progress=record) for name, cells in calls]
    assert executed == fig3  # five executions ...
    assert records == fig2 + fig3 + fig4  # ... for 15 records
    session.run_scenario("fig3", cells=fig3)
    assert executed == fig3 + fig3  # a second call runs its cells again
    for report, (name, cells) in zip(reports, calls):
        assert json.dumps(report.rows) == _rows(name, cells)


def _reachable(root):
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            yield obj
            stack.extend(gc.get_referents(obj))


def test_the_store_keeps_plain_data_only():
    session = Session()
    session.trace("fig2", cells=[_smallest("fig2", "BlobCR-app")])
    session.run_scenario("fig2", cells=[_smallest("fig2", "qcow2-disk-app")])
    assert len(session._cycles) == 2
    plain = {CellResult, dict, list, tuple, set, str, int, float, bool, type(None)}
    held = list(session._cycles.values())
    assert {type(obj) for obj in _reachable(held)} <= plain


def test_a_view_names_both_its_source_and_its_view():
    fig2 = get_scenario("fig2")
    with pytest.raises(ConfigurationError, match="view_of and view"):
        dataclasses.replace(fig2, view=None).validate()
