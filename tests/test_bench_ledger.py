"""The perf ledger tool (tools/bench_ledger.py) and the committed entries.

The tool lives outside the package, so it is loaded here by file path.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_ledger", REPO_ROOT / "tools" / "bench_ledger.py"
)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


def stat(value):
    return {"median": value, "q1": value, "q3": value, "n": 1}


def report(sim_total_s=8.25, hits=12):
    """What ``python -m perfbench --trace --json`` writes, cut down to one workload."""
    end_to_end = {name: stat(1.5) for name in ledger.HOST_METRICS}
    end_to_end["sim_total_s"] = stat(sim_total_s)
    return {
        "environment": {"nproc": 2},
        "workloads": [
            {
                "workload": "dedup_commit",
                "seed": None,
                "passes": 1,
                "failed": 0,
                "end_to_end": end_to_end,
                "raw": {"wall_s": stat(1.6)},
                "reference_s": [0.93],
                # an exact counter, a traced exact counter, a host timing, an unresolved row
                "per_layer": {
                    "sim.core.events_popped": 151,
                    "dedup.hits": hits,
                    "dedup.self_s": 0.2,
                    "blobseer.provider.fetch_calls": None,
                },
            }
        ],
    }


@pytest.fixture
def scratch_ledger(tmp_path, monkeypatch):
    monkeypatch.setattr(ledger, "LEDGER", tmp_path)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report()))
    assert ledger.record(str(path), pr=7, backfilled=True) == 0
    return tmp_path


def write(tmp_path, document):
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(document))
    return str(path)


def test_record_keeps_the_exact_numbers_and_the_host_medians(scratch_ledger):
    entry = json.loads((scratch_ledger / "BENCH_7.json").read_text())
    assert (entry["pr"], entry["backfilled"]) == (7, True)
    row = entry["workloads"]["dedup_commit"]
    assert row["sim_total_s"] == 8.25
    assert row["exact"] == {"dedup.hits": 12, "sim.core.events_popped": 151}
    assert row["end_to_end"]["wall_s"] == [1.5, 1.5, 1.5] and row["raw"]["wall_s"] == [1.6] * 3


def test_check_passes_on_equal_numbers_and_names_what_moved(scratch_ledger, capsys):
    assert ledger.check(write(scratch_ledger, report())) == 0
    slower = copy.deepcopy(report())
    slower["workloads"][0]["end_to_end"]["wall_s"] = stat(99.0)  # host time is not its business
    assert ledger.check(write(scratch_ledger, slower)) == 0
    capsys.readouterr()
    assert ledger.check(write(scratch_ledger, report(hits=13))) == 1
    assert "dedup_commit dedup.hits: BENCH_7 has 12, this tree 13" in capsys.readouterr().out
    assert ledger.check(write(scratch_ledger, report(sim_total_s=8.250000000000002))) == 1
    assert "dedup_commit sim_total_s" in capsys.readouterr().out


def test_show_prints_one_column_per_entry(scratch_ledger, capsys):
    assert ledger.record(write(scratch_ledger, report(hits=13)), pr=9, backfilled=True) == 0
    capsys.readouterr()
    assert ledger.show() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["PR", "7", "PR", "9"]
    assert lines[1].split() == ["dedup_commit", "wall_s", "1.5", "1.5"]


def test_the_committed_ledger_reads_as_a_trajectory(capsys):
    entries = ledger._entries()
    assert [entry["pr"] for entry in entries] == sorted(entry["pr"] for entry in entries)
    assert entries[0]["pr"] == 11 and entries[0]["backfilled"] and len(entries) >= 2
    newest = entries[-1]
    assert not newest.get("backfilled") and len(newest["git_sha"]) == 40
    assert set(newest["workloads"]) == set(entries[0]["workloads"])
    for before, after in zip(entries, entries[1:]):
        for name, row in after["workloads"].items():
            # the model moves only where a PR announced it: at PR 51, fig5's cells
            # restart and fig4 reports fig3's 4-instance cycles
            if (after["pr"], name) != (51, "reduced_suite"):
                assert row["sim_total_s"] == before["workloads"][name]["sim_total_s"], name
    assert ledger.show() == 0
    assert capsys.readouterr().out.splitlines()[0].split()[:2] == ["PR", "11"]
