#!/usr/bin/env python
"""Exact work counts of one perfbench workload: Python calls, and bytecodes.

    python tools/work_count.py TREE --workload service_mtc_256 [--seed N] [--opcodes]

Runs the workload's ``Session.run_scenario`` calls (``perfbench.workloads``
of ``TREE``) in a fresh interpreter that imports ``TREE``'s ``src``, as
``tools/ab_pairs.py`` does, and prints one JSON object:

* ``calls``: every Python function call made while the calls ran (cProfile's
  count: generators count once per resumption, C functions not at all);
* ``layers``: those calls by layer of ``docs/architecture.md``'s layer map
  (the package under ``src/repro``; ``other`` is the standard library,
  numpy and the rest);
* ``modules``: the calls of each ``src/repro`` module, by its path there;
* with ``--opcodes``, ``opcodes``: the bytecodes executed, counted under
  ``sys.settrace`` (that pass costs several times the run's wall).

The counts are exact: the interpreter runs with ``PYTHONHASHSEED=0``, so
two runs of one tree at one seed count alike, and a change in them is a
change in the work done.  Limits:

* Bytecodes do not see time spent in C: numpy, ``sorted``, hashing and
  ``bytes`` joins.  A change that moves work from Python into numpy lowers
  the count without lowering wall; claim such a change on wall pairs alone.
* The counts move with the seed, because jitter reorders events.  Compare
  two trees at the same seed.

Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: the statement a fresh interpreter runs: import this file, count, print JSON
_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import work_count; "
    "print(json.dumps(work_count.count(**json.loads(sys.argv[2]))))"
)


def _layer(module: str) -> str:
    return module.split("/", 1)[0] if "/" in module else module.removesuffix(".py")


def count(
    workload: Optional[str] = None,
    seed: Optional[int] = None,
    calls: Sequence[Tuple[str, dict]] = (),
    opcodes: bool = False,
) -> Dict[str, object]:
    """Count the work of ``calls`` (or of ``workload``'s calls) in this interpreter."""
    import cProfile

    import repro
    from repro.api import Session

    if workload is not None:
        from perfbench.workloads import get_workload

        calls = [(call.scenario, call.kwargs(seed)) for call in get_workload(workload).calls]
    root = os.path.dirname(repro.__file__) + os.sep
    session = Session()
    executed = 0

    def trace(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def local(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return local

    profiler = cProfile.Profile()
    if opcodes:
        sys.settrace(trace)
    profiler.enable()
    try:
        for scenario, kwargs in calls:
            session.run_scenario(scenario, **kwargs)
    finally:
        profiler.disable()
        sys.settrace(None)
    modules: Dict[str, int] = {}
    total = 0
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):  # a C function
            continue
        total += entry.callcount
        path = code.co_filename
        module = path[len(root) :].replace(os.sep, "/") if path.startswith(root) else "other"
        modules[module] = modules.get(module, 0) + entry.callcount
    layers: Dict[str, int] = {}
    for module, n in modules.items():
        layers[_layer(module)] = layers.get(_layer(module), 0) + n
    result: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "calls": total,
        "layers": dict(sorted(layers.items())),
        "modules": dict(sorted(modules.items())),
    }
    if opcodes:
        result["opcodes"] = executed
    return result


def run_fresh(tree: str, **request) -> Dict[str, object]:
    """:func:`count` in a fresh interpreter that imports ``tree``'s ``src``."""
    tree_path = Path(tree).resolve()
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(tree_path / "src"), str(tree_path)]),
        PYTHONHASHSEED="0",
    )
    command = [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent)]
    out = subprocess.run(
        [*command, json.dumps(request)],
        cwd=tree_path,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="checkout whose src and perfbench to run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--opcodes", action="store_true", help="also count executed bytecodes")
    args = parser.parse_args(argv)
    result = run_fresh(args.tree, workload=args.workload, seed=args.seed, opcodes=args.opcodes)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
