"""The five benchmark workloads and the cells each must resolve to.

A workload is a fixed list of ``Session.run_scenario`` calls.  Sizes are not
tunable: each was chosen so that one pass takes 6-23 s on the 2-core sandbox
and spends its host time in a different layer (see ``README.md`` for the
"why" of each; ``BENCHMARK.json`` carries the one-line version below).

``--seed N`` is forwarded as ``run_scenario(seed=N)`` (= ``cluster.seed``),
which re-draws execution jitter.  The one exception is ``ft`` inside
``reduced_suite``: its failure *schedule* is drawn from the seed, so another
seed is another workload (its simulated time moves by +-8 %), not another
sample of the same one.  ``ft`` therefore always runs at the default seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: the 13 scenarios registered when the benchmark was defined, pinned by name
#: so a scenario added later cannot inflate ``reduced_suite``
REDUCED_SUITE_SCENARIOS = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "table1",
    "ft", "scale", "contention", "mtc", "evac", "mig",
)  # fmt: skip


@dataclass(frozen=True)
class ScenarioCall:
    """One ``Session.run_scenario`` call of a workload."""

    scenario: str
    cells: Tuple[str, ...] = ()
    overrides: Tuple[Tuple[str, object], ...] = ()
    paper_scale: bool = False
    #: False pins the call to the default seed whatever ``--seed`` says
    seeded: bool = True

    def kwargs(self, seed: Optional[int]) -> Dict[str, object]:
        return {
            "overrides": dict(self.overrides),
            "cells": list(self.cells),
            "paper_scale": self.paper_scale,
            "seed": seed if self.seeded else None,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Tuple[ScenarioCall, ...]
    #: every cell key the calls must produce, in execution order
    expected_cells: Tuple[str, ...] = field(repr=False, default=())


def _reduced_suite_cells() -> Tuple[str, ...]:
    text = (Path(__file__).parent / "reduced_suite_cells.txt").read_text()
    return tuple(line for line in text.splitlines() if line)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="reduced_suite",
        why=(
            "the 13 registered scenarios at reduced axes (125 short cells): what every "
            "developer and CI run pays; per-cell fixed cost dominates, which no big cell shows"
        ),
        calls=tuple(
            ScenarioCall(name, seeded=name != "ft") for name in REDUCED_SUITE_SCENARIOS
        ),
        expected_cells=_reduced_suite_cells(),
    ),
    Workload(
        name="blobcr_120",
        why=(
            "the paper's headline point, 120 VMs x 200 MB deploy/checkpoint/restart: two thirds "
            "of traced wall is the BlobSeer write (COMMIT) and lazy-read paths, 4 % the solver"
        ),
        calls=(
            ScenarioCall(
                "fig3",
                cells=("fig3:BlobCR-app:120:200MB", "fig3:BlobCR-blcr:120:200MB"),
                paper_scale=True,
            ),
        ),
        expected_cells=("fig3:BlobCR-app:120:200MB", "fig3:BlobCR-blcr:120:200MB"),
    ),
    Workload(
        name="scale_512",
        why=(
            "512 instances: the bandwidth-solver workload (30 % of wall); its qcow2 cell "
            "bypasses BlobSeer entirely and is where vdisk.qcow2 and PVFS do their work"
        ),
        calls=(
            ScenarioCall(
                "scale",
                cells=("scale:BlobCR-app:512", "scale:qcow2-disk-app:512"),
                paper_scale=True,
            ),
        ),
        expected_cells=("scale:BlobCR-app:512", "scale:qcow2-disk-app:512"),
    ),
    Workload(
        name="dedup_commit",
        why=(
            "5 commits of 64 MiB of real content through dedup off/on/zlib, verified per version: "
            "83 % of traced wall in util.bytesource, solver idle; bypasses every sim change"
        ),
        calls=(ScenarioCall("fig7", overrides=(("fig7.state_bytes", 64 * 1024 * 1024),)),),
        expected_cells=("fig7:off", "fig7:dedup", "fig7:zlib"),
    ),
    Workload(
        name="service_mtc_256",
        why=(
            "256 tenants on one long-lived cloud through admission queues: most events per host "
            "second, so kernel, resource, service and guest per-operation overhead show here"
        ),
        calls=(
            ScenarioCall(
                "mtc",
                cells=("mtc:256:2:fair",),
                overrides=(
                    ("mtc.max_queue", 1024),
                    ("mtc.boot_slots", 16),
                    ("mtc.checkpoints", 4),
                    ("mtc.instances", 2),
                ),
                paper_scale=True,
            ),
        ),
        expected_cells=("mtc:256:2:fair",),
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)


def get_workload(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r} (known: {', '.join(WORKLOAD_NAMES)})")


def resolve_cell_keys(workload: Workload) -> List[str]:
    """The cell keys ``workload`` enumerates to, without running anything.

    ``Session.run_scenario`` offers no dry run, so this mirrors its
    validation + enumeration half through ``repro.runner``.  The worker calls
    it before timing to fail fast on a drifted workload; the check that
    counts is made on the keys of the cells that actually ran.
    """
    from repro.runner import ParallelRunner, RunConfig, load_all, parse_selectors
    from repro.scenarios.overrides import resolve_cluster_spec

    names = load_all()
    runner = ParallelRunner()
    keys: List[str] = []
    for call in workload.calls:
        raw = [f"{key}={value}" for key, value in call.overrides]
        spec = resolve_cluster_spec(raw, names, [call.scenario])
        config = RunConfig(paper_scale=call.paper_scale, spec=spec, overrides=tuple(raw))
        selectors = parse_selectors(list(call.cells))
        keys.extend(cell.key for cell in runner.enumerate([call.scenario], config, selectors))
    return keys
