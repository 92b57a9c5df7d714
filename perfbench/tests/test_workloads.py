"""Workload definitions, cell-key resolution and BENCHMARK.json consistency."""

import json
import re
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.workloads import (
    REDUCED_SUITE_SCENARIOS,
    WORKLOAD_NAMES,
    WORKLOADS,
    get_workload,
    resolve_cell_keys,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("workload", WORKLOADS, ids=WORKLOAD_NAMES)
def test_workload_resolves_to_exactly_its_expected_cells(workload):
    assert tuple(resolve_cell_keys(workload)) == workload.expected_cells


def test_expected_cell_counts():
    counts = {w.name: len(w.expected_cells) for w in WORKLOADS}
    assert counts == {
        "reduced_suite": 125,
        "blobcr_120": 2,
        "scale_512": 2,
        "dedup_commit": 3,
        "service_mtc_256": 1,
    }


def test_reduced_suite_pins_scenarios_by_name_and_keeps_ft_at_the_default_seed():
    calls = get_workload("reduced_suite").calls
    assert tuple(call.scenario for call in calls) == REDUCED_SUITE_SCENARIOS
    for call in calls:
        assert call.kwargs(7)["seed"] == (None if call.scenario == "ft" else 7)


def test_unknown_workload_is_a_key_error():
    with pytest.raises(KeyError):
        get_workload("nope")


def test_benchmark_json_matches_the_code():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert document["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in document["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.CONTRACT_END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.LAYER_METRICS
    ]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in document[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in document["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert len(document["per_layer"]) <= 128
