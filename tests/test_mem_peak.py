"""tools/mem_peak.py: the allocation sites at one small cell's traced peak (loaded by file path)."""

import argparse
import importlib.util
import pathlib
import tracemalloc

from repro.sim.core import Environment

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mem_peak", REPO_ROOT / "tools" / "mem_peak.py")
mem_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mem_peak)


def test_one_small_cell_reports_its_peak_sites(capsys, monkeypatch):
    # the cell runs fewer kernel steps than the tool's 500 between checks
    monkeypatch.setattr(mem_peak, "EVERY_STEPS", 20)
    step = Environment.step
    assert mem_peak.main(["--cell", "fig3:BlobCR-blcr:4:50MB", "--top", "5"]) == 0
    assert Environment.step is step and not tracemalloc.is_tracing()  # left as found
    out = capsys.readouterr().out.splitlines()
    steps = int(out[0].split()[-1])
    checked, at = float(out[1].split()[2]), int(out[1].split()[-1])
    traced = float(out[2].split()[2])
    assert 0 < at <= steps and at % 20 == 0
    assert 0 < checked <= traced
    assert out[3] == "top 5 sites at the checked peak, by line:"
    sites = [line.split() for line in out[4:]]
    assert len(sites) == 5
    sizes = [float(site[0]) for site in sites]
    assert sizes == sorted(sizes, reverse=True) and sum(sizes) <= checked
    # sites inside the package are named by their path under src/repro
    assert any(site[-1].startswith(("sim/", "guest/", "blobseer/", "cluster/")) for site in sites)


def test_a_workload_resolves_to_its_calls():
    calls = mem_peak._calls(argparse.Namespace(workload="blobcr_120"))
    assert [scenario for scenario, _kwargs in calls] == ["fig3"]
    assert calls[0][1]["paper_scale"] is True
