"""The output check: what counts as a failed cell, and how it reaches failed_share."""

import copy

import pytest

from perfbench import checks
from perfbench.cli import compare_sets, contract_line
from perfbench.harness import build_report
from perfbench.workloads import Workload

WORKLOAD = Workload(name="toy", why="test", calls=(), expected_cells=("toy:a", "toy:b"))


def make_pass(**payload_updates):
    """One worker report with two healthy cells; ``payload_updates`` patch cell ``toy:b``."""
    cells = [
        {"key": "toy:a", "wall_s": 1.0, "sim_s": 10.0,
         "payload": {"restored_ok": True, "checkpoint_time": 2.0, "restart_time": 3.0,
                     "storage_after_checkpoint": 300, "instances": 2, "buffer_bytes": 100}},
        {"key": "toy:b", "wall_s": 2.0, "sim_s": 20.0,
         "payload": {"verified": True, "survivors_ok": True, "unrecoverable": False}},
    ]  # fmt: skip
    cells[1]["payload"].update(payload_updates)
    return {
        "workload": "toy", "seed": None, "setup_s": 0.3, "wall_s": 3.1, "cpu_s": 3.0,
        "peak_rss_mb": 50.0, "cells": cells, "errors": [], "notes": [],
        "counters": {"events_popped": 1000, "bw_allocations": 7}, "solver_s": 0.31,
    }  # fmt: skip


def test_healthy_passes_report_zero_failed_share_and_pooled_metrics():
    report = build_report(WORKLOAD, None, [make_pass(), make_pass()], [{"setup_s": 0.5}])
    assert report["problems"] == [] and report["failed"] == 0 and report["attempted"] == 4
    e2e = report["end_to_end"]
    assert e2e["failed_share"]["median"] == 0
    assert e2e["setup_s"]["n"] == 3 and e2e["setup_s"]["median"] == 0.3
    assert e2e["sim_total_s"]["median"] == 30.0
    assert e2e["sim_checkpoint_s"]["median"] == 2.0
    assert e2e["stored_bytes_per_user_byte"]["median"] == 1.5
    assert e2e["sim_ckpt_p99_s"]["median"] is None  # not a service workload
    layers = report["per_layer"]
    assert layers["sim.core.events_popped"] == 1000
    assert layers["sim.core.us_per_event"] == 3100.0
    assert layers["sim.bandwidth.solver_share"] == pytest.approx(0.1)
    assert layers["runner.overhead_s"] == pytest.approx(0.1)


def test_each_payload_flag_fails_its_cell():
    for update in ({"verified": False}, {"survivors_ok": False}, {"unrecoverable": True}):
        report = build_report(WORKLOAD, None, [make_pass(**update)], [])
        assert report["failed"] == 1 and report["end_to_end"]["failed_share"]["median"] == 0.5
    assert checks.payload_failure({"restored_ok": False}) == "restored_ok is false"
    assert checks.payload_failure({"anything": 1}) is None


def test_cross_repeat_mismatch_is_a_failure_of_the_later_pass():
    report = build_report(WORKLOAD, None, [make_pass(), make_pass(extra=1e-15)], [])
    assert report["failed"] == 1 and report["attempted"] == 4
    assert report["end_to_end"]["failed_share"]["median"] == 0.25
    assert "1:toy:b: payload differs" in report["problems"][0]


def test_a_cell_that_never_reported_counts_as_failed():
    broken = make_pass()
    broken["cells"].pop()
    broken["errors"].append({"scenario": "toy", "error": "RuntimeError('x')"})
    report = build_report(WORKLOAD, None, [broken], [])
    assert report["failed"] == 1
    assert any("RuntimeError" in problem for problem in report["problems"])


def test_an_unexpected_cell_means_the_workload_drifted():
    extra = make_pass()
    extra["cells"].append({"key": "toy:c", "wall_s": 0.1, "sim_s": 1.0, "payload": {}})
    assert build_report(WORKLOAD, None, [extra], [])["failed"] == 1


def test_contract_line_carries_failures_and_only_numbers():
    import json

    report = build_report(WORKLOAD, None, [make_pass(verified=False)], [])
    line = json.loads(contract_line(report, trace=False))
    assert line["correct"] is False and (line["attempted"], line["failed"]) == (2, 1)
    assert set(line["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb", "sim_total_s"}
    traced = json.loads(contract_line(report, trace=True))
    assert traced["metrics"]["sim_ckpt_p99_s"]["value"] == 0  # not applicable reads 0
    assert all(isinstance(m["value"], (int, float)) for m in traced["metrics"].values())


def test_repeatability_compares_host_metrics_by_bound_and_the_rest_exactly(capsys):
    first = [build_report(WORKLOAD, None, [make_pass()], [])]
    same = copy.deepcopy(first)
    same[0]["end_to_end"]["wall_s"]["median"] *= 1.05  # inside the host bound
    assert compare_sets(first, same) == []
    drift = copy.deepcopy(first)
    drift[0]["end_to_end"]["wall_s"]["median"] *= 1.5
    drift[0]["end_to_end"]["sim_total_s"]["median"] += 1e-9
    drift[0]["per_layer"]["sim.bandwidth.allocations"] += 1
    assert compare_sets(first, drift) == [
        "toy.wall_s", "toy.sim_total_s", "toy.sim.bandwidth.allocations",
    ]  # fmt: skip
    assert "DISAGREE" in capsys.readouterr().out
