#!/usr/bin/env python
"""What Python's cyclic collector costs a cell, and whether the cell's graph outlives it.

Runs the selected cell(s) in-process through :class:`repro.api.Session` and
prints the wall time, the time spent inside garbage collections and their
number per generation (``gc.callbacks``), and a census by type of the
GC-tracked objects that survive each cell's own collection.  ``execute_cell``
runs a cell with the collector paused and frees the cell's cyclic graph with
one generation-0 collection before it returns, so a cell should show exactly
one generation-0 collection and leave only module and runner bookkeeping
alive.  Exits 1 when a cell leaves any ``Cloud``, ``Environment``, ``Flow`` or
``Event`` alive: something outside the cell still holds its graph.  Typical
use::

    python tools/gc_census.py fig3:BlobCR-app:120:200MB --paper-scale

``--override KEY=VALUE`` (repeatable) is forwarded to ``run_scenario``, so a
cell can be counted exactly as a perfbench workload runs it; ``service_mtc_256``::

    python tools/gc_census.py mtc:256:2:fair --paper-scale --override mtc.max_queue=1024 \\
        --override mtc.boot_slots=16 --override mtc.checkpoints=4 --override mtc.instances=2
"""

from __future__ import annotations

import argparse
import gc
import time
from collections import Counter

from repro.api import Session
from repro.cluster.cloud import Cloud
from repro.runner import load_all
from repro.sim.bandwidth import Flow
from repro.sim.core import Environment, Event

#: a cell leaving one of these (or of a subclass) alive leaked its graph
GATED = (Cloud, Environment, Flow, Event)


def census() -> Counter:
    return Counter(type(obj) for obj in gc.get_objects())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("selector", help="cell selector, e.g. fig2:BlobCR-app:24")
    parser.add_argument("--paper-scale", action="store_true")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="forwarded to run_scenario(overrides=...); repeatable",
    )
    args = parser.parse_args(argv)

    pauses, collections = [0.0] * 3, [0] * 3
    left: Counter = Counter()
    clock = {"gc": 0.0, "census": 0.0}  # a collection's start; seconds spent counting

    def on_gc(phase, info):
        if phase == "start":
            clock["gc"] = time.perf_counter()
        else:
            pauses[info["generation"]] += time.perf_counter() - clock["gc"]
            collections[info["generation"]] += 1

    def after_cell(_done, _total, _result):  # not the cell's time, nor its collections
        nonlocal before
        begin = time.perf_counter()
        gc.callbacks.remove(on_gc)
        left.update(census() - before)
        gc.collect()
        before = census()
        gc.callbacks.append(on_gc)
        clock["census"] += time.perf_counter() - begin

    load_all()  # scenario modules and their imports are not a cell's
    gc.collect()
    before = census()
    gc.callbacks.append(on_gc)
    begin = time.perf_counter()
    try:
        report = Session().run_scenario(
            args.selector.split(":")[0],
            cells=[args.selector],
            overrides=args.override,
            paper_scale=args.paper_scale,
            progress=after_cell,
        )
    finally:
        gc.callbacks.remove(on_gc)
    wall = time.perf_counter() - begin - clock["census"]

    print(f"cells        {' '.join(report.cell_keys)}")
    print(f"wall_s       {wall:.2f}")
    print(f"gc_s         {sum(pauses):.2f}  ({sum(pauses) / wall:.0%} of wall)")
    for generation, (count, seconds) in enumerate(zip(collections, pauses)):
        print(f"  gen {generation}      {count:5d} collections  {seconds:.2f} s")
    print(f"left alive   {sum(left.values())} GC-tracked objects")
    for kind, count in left.most_common(12):
        print(f"  {count:9d}  {kind.__name__}")
    leaked = sorted(
        (kind.__name__, count) for kind, count in left.items() if issubclass(kind, GATED)
    )
    if leaked:
        names = ", ".join(f"{count} {name}" for name, count in leaked)
        print(f"FAIL         a cell's graph outlived the cell: {names}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
