"""One pass of one workload, in this (fresh) interpreter.

Run by ``perfbench.harness`` as ``python -m perfbench.worker ...``; prints
one JSON document as the last line of stdout.  Modes:

* default -- set up, run the workload's ``run_scenario`` calls, report host
  clocks, every cell's payload and the always-on counters;
* ``--trace PATH`` -- the same with the layer boundaries wrapped; the spans
  go to ``PATH``, the per-cell aggregates come back on stdout;
* ``--setup-only`` -- stop when the first ``run_scenario`` call would start
  (one more ``setup_s`` sample);
* ``--preflight`` -- the full-content round trip of ``perfbench.checks``.

``setup_s`` runs from the instant the parent spawned this process
(``--spawned-at``, ``time.time()`` of the parent) to the instant the first
``run_scenario`` call is about to start: interpreter start-up, ``import
repro.api``, registry load, override/selector validation and cell
enumeration.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional


def _soft_counters(notes: List[str]) -> Dict[str, Optional[Any]]:
    """The always-on accessors; a missing one yields ``None`` plus a note."""
    out: Dict[str, Optional[Any]] = {"counters": None, "solver_s": None}
    try:
        from repro.sim.instrumentation import counters_snapshot

        out["counters"] = counters_snapshot().as_dict()
    except (ImportError, AttributeError) as exc:
        notes.append(f"counters unavailable: {exc!r}")
    try:
        from repro.sim.bandwidth import solver_wall_seconds

        out["solver_s"] = solver_wall_seconds()
    except (ImportError, AttributeError) as exc:
        notes.append(f"solver wall unavailable: {exc!r}")
    return out


def run(args: argparse.Namespace) -> Dict[str, Any]:
    from perfbench.workloads import get_workload, resolve_cell_keys

    if args.preflight:
        from perfbench.checks import preflight

        return {"problems": preflight()}

    from repro.api import Session

    workload = get_workload(args.workload)
    notes: List[str] = []
    try:
        keys = resolve_cell_keys(workload)
    except (ImportError, AttributeError, TypeError) as exc:
        notes.append(f"cell pre-resolution unavailable: {exc!r}")
    else:
        if tuple(keys) != workload.expected_cells:
            raise SystemExit(
                f"workload {workload.name} resolves to {len(keys)} cells, expected "
                f"{len(workload.expected_cells)}: {sorted(set(keys) ^ set(workload.expected_cells))}"
            )
    tracer = None
    if args.trace:
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    session = Session()
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s, "notes": notes}

    cells: List[Dict[str, Any]] = []
    errors: List[Dict[str, str]] = []

    def collect(_done: int, _total: int, result: Any) -> None:
        if tracer is not None:
            tracer.end_cell(result.key, result.wall_time_s)
        cells.append(
            {
                "key": result.key,
                "wall_s": result.wall_time_s,
                "sim_s": result.sim_time_s,
                "payload": result.payload,
            }
        )

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for call in workload.calls:
        try:
            session.run_scenario(call.scenario, progress=collect, **call.kwargs(args.seed))
        except Exception as exc:  # a raising cell fails the output check, not the harness
            errors.append({"scenario": call.scenario, "error": repr(exc)})
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "sys_s": usage.ru_stime - usage0.ru_stime,
        "minor_faults": usage.ru_minflt - usage0.ru_minflt,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cells": cells,
        "errors": errors,
        "notes": notes,
    }
    report.update(_soft_counters(notes))
    if tracer is not None:
        document = {
            "workload": workload.name,
            "seed": args.seed,
            "unresolved_boundaries": tracer.unresolved,
            "cells": tracer.cells,
        }
        with open(args.trace, "w") as handle:
            json.dump(document, handle)
        report["trace"] = {
            "file": args.trace,
            "unresolved_boundaries": tracer.unresolved,
            "cells": [
                {k: v for k, v in cell.items() if k != "spans"} for cell in tracer.cells
            ],
        }
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker", description=__doc__)
    parser.add_argument("workload", nargs="?")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", metavar="PATH", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--preflight", action="store_true")
    args = parser.parse_args(argv)
    if args.spawned_at is None:
        args.spawned_at = time.time()
    report = run(args)
    sys.stdout.write("\n" + json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
