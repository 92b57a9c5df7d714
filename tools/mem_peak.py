#!/usr/bin/env python
"""Which source lines hold the memory at a workload's traced peak.

    python tools/mem_peak.py --workload blobcr_120 [--top 15]
    python tools/mem_peak.py --cell fig3:BlobCR-blcr:120:200MB --paper-scale [--top 15]

Runs a perfbench workload's ``Session.run_scenario`` calls (or one cell,
optionally at paper scale) in this interpreter under ``tracemalloc``.  Every
``EVERY_STEPS`` (500) kernel steps (``Environment.step``) it reads the traced
size; at each new maximum it takes a snapshot, so the snapshot it keeps is the
one at the traced peak, to within 500 steps.  It prints that peak, the step it
was seen at, and the ``--top`` allocation sites of the snapshot by line (size,
count of live blocks, ``file:line`` under ``src/repro``).

Limits:

* tracemalloc counts the bytes Python asked for.  It does not count
  pymalloc's arena slack (free slots of partly used 256 KiB arenas) or
  allocator fragmentation, so the traced peak reads below ``peak_rss_mb``,
  and memory freed at the peak can still be resident.
* Tracing costs about 2-3x the wall of the run, and each snapshot costs
  time in proportion to the live blocks; neither is in the sizes printed.
* Memory allocated between two checks and freed before the next one is
  not seen.

Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: the checkout this file is in, whose ``perfbench`` defines the workloads
ROOT = Path(__file__).resolve().parent.parent

#: kernel steps between two reads of the traced size
EVERY_STEPS = 500

#: allocations that are the tracer's own or the import system's
_IGNORED = (
    tracemalloc.Filter(False, tracemalloc.__file__),
    tracemalloc.Filter(False, "<frozen importlib._bootstrap>"),
    tracemalloc.Filter(False, "<frozen importlib._bootstrap_external>"),
)


def peak_sites(calls: Sequence[Tuple[str, dict]], top: int = 15) -> Dict[str, object]:
    """Run ``calls`` under tracemalloc; the top sites of the snapshot at the traced peak."""
    import repro
    from repro.api import Session
    from repro.runner import load_all
    from repro.sim.core import Environment

    load_all()  # scenario modules and their imports are not a cell's
    session = Session()
    step = Environment.step
    seen = {"steps": 0, "peak": -1, "at": 0, "snapshot": None}

    def counted(env: Environment) -> None:
        step(env)
        seen["steps"] += 1
        if seen["steps"] % EVERY_STEPS == 0:
            current = tracemalloc.get_traced_memory()[0]
            if current > seen["peak"]:
                seen.update(peak=current, at=seen["steps"], snapshot=tracemalloc.take_snapshot())

    Environment.step = counted
    tracemalloc.start()
    try:
        for scenario, kwargs in calls:
            session.run_scenario(scenario, **kwargs)
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        Environment.step = step
    root = os.path.dirname(repro.__file__) + os.sep
    sites: List[Tuple[int, int, str]] = []
    if seen["snapshot"] is not None:
        statistics = seen["snapshot"].filter_traces(_IGNORED).statistics("lineno")
        for stat in statistics[:top]:
            frame = stat.traceback[0]
            path = frame.filename
            path = path[len(root) :].replace(os.sep, "/") if path.startswith(root) else path
            sites.append((stat.size, stat.count, f"{path}:{frame.lineno}"))
    return {
        "steps": seen["steps"],
        "checked_peak_at": seen["at"],
        "checked_peak_bytes": max(seen["peak"], 0),
        "traced_peak_bytes": traced_peak,
        "sites": sites,
    }


def _calls(args: argparse.Namespace) -> List[Tuple[str, dict]]:
    if args.workload is not None:
        sys.path.insert(0, str(ROOT))
        from perfbench.workloads import get_workload

        workload = get_workload(args.workload)
        return [(call.scenario, call.kwargs(None)) for call in workload.calls]
    return [(args.cell.split(":")[0], {"cells": [args.cell], "paper_scale": args.paper_scale})]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a perfbench workload, e.g. blobcr_120")
    what.add_argument("--cell", help="one cell selector, e.g. fig3:BlobCR-blcr:120:200MB")
    parser.add_argument("--paper-scale", action="store_true", help="with --cell")
    parser.add_argument("--top", type=int, default=15, help="sites to print (default 15)")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be at least 1")
    result = peak_sites(_calls(args), top=args.top)
    mib = 1024 * 1024
    print(f"kernel steps     {result['steps']}")
    print(
        f"checked peak     {result['checked_peak_bytes'] / mib:.2f} MiB traced,"
        f" at step {result['checked_peak_at']}"
    )
    print(f"traced peak      {result['traced_peak_bytes'] / mib:.2f} MiB (tracemalloc's own)")
    print(f"top {len(result['sites'])} sites at the checked peak, by line:")
    for size, count, where in result["sites"]:
        print(f"  {size / mib:9.2f} MiB  {count:9d} blocks  {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
