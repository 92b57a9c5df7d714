#!/usr/bin/env python
"""Alternating parent/change timing pairs of one perfbench workload.

    python tools/ab_pairs.py PARENT_TREE CHANGE_TREE --workload dedup_commit \\
        --pairs 10 --seeds 1 2

Pair *i* runs ``python -m perfbench --workload W --seconds S --trace 0 --seed
SEED`` once in each tree, ``S`` being the ``run_seconds`` of ``BENCHMARK.json``.
Which tree goes first alternates from pair to pair, so neither side always
runs on a warmer host, and each seed holds for two pairs in turn, so every
seed runs both trees first (see :func:`schedule`).  Every end-to-end
metric of ``BENCHMARK.json`` is then summarised: the median and IQR/median of
each side, the change/parent ratio and how many pairs the change won.  A
metric whose IQR/median exceeds its bound on either side is ``unresolved``:
the runs spread too widely to tell, unless every change run reads better than
every parent run.  Otherwise it is ``better`` when the change won at least
nine pairs in ten and its median gain exceeds the parent's IQR, ``worse`` when
the ratio is past the bound, and ``same`` in between.

``--work`` times nothing: it counts the work of one run of each tree per seed
with ``tools/work_count.py --opcodes`` and prints both trees' Python calls
and bytecodes, in total and by layer.  The counts are exact, so pairs add
nothing.

Stdlib only.  The trees are two checkouts (``git clone`` the parent
commit); each run imports the ``src`` and ``perfbench`` of its own tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: str, workload: str, seconds: float, seed: int) -> dict:
    """One perfbench run in ``tree``: its end-to-end values by metric name."""
    flags = f"--workload {workload} --seconds {seconds} --trace 0 --seed {seed}"
    command = [sys.executable, "-m", "perfbench", *flags.split()]
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    out = subprocess.run(
        command, cwd=tree, env=env, check=True, capture_output=True, text=True
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def _spread(values: list) -> tuple:
    """Median and IQR of a sample (quartiles as perfbench takes them)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1


def summarise(metrics: list, parent: list, change: list) -> list:
    """One row per end-to-end metric of paired runs.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries (``name``,
    ``better``, ``bound``); ``parent`` and ``change`` are equally long lists
    of per-run ``{name: value}``, pair *i* being ``parent[i]``/``change[i]``.
    """
    return [_row(metric, parent, change) for metric in metrics]


def _row(metric: dict, parent: list, change: list) -> dict:
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    old = [run[name] for run in parent]
    new = [run[name] for run in change]
    old_median, old_iqr = _spread(old)
    new_median, new_iqr = _spread(new)
    old_rel = old_iqr / old_median if old_median else 0.0
    new_rel = new_iqr / new_median if new_median else 0.0
    ratio = new_median / old_median if old_median else 1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    disjoint_gain = max(sign * b for b in new) < min(sign * a for a in old)
    if max(old_rel, new_rel) > bound and not disjoint_gain:
        verdict = "unresolved"
    elif 10 * wins >= 9 * len(old) and sign * (old_median - new_median) > old_iqr:
        verdict = "better"
    elif sign * (ratio - 1) > bound:
        verdict = "worse"
    else:
        verdict = "same"
    return {
        "metric": name,
        "parent_median": old_median,
        "parent_iqr_rel": old_rel,
        "change_median": new_median,
        "change_iqr_rel": new_rel,
        "ratio": ratio,
        "wins": wins,
        "pairs": len(old),
        "verdict": verdict,
    }


def schedule(pairs: int, seeds: list) -> list:
    """``(seed, parent runs first)`` of each pair.

    The first tree alternates every pair and the seed every two pairs, so
    each seed runs both trees first and an order effect is not a seed effect.
    """
    return [(seeds[(i // 2) % len(seeds)], i % 2 == 0) for i in range(pairs)]


def format_work(parent: dict, change: dict) -> str:
    """Two ``tools/work_count.py`` results side by side: totals, then each layer."""
    rows = [("opcodes", parent.get("opcodes"), change.get("opcodes"))]
    rows.append(("calls", parent["calls"], change["calls"]))
    for layer in sorted(parent["layers"].keys() | change["layers"].keys()):
        rows.append((f"  {layer}", parent["layers"].get(layer, 0), change["layers"].get(layer, 0)))
    lines = [f"{'count':<14} {'parent':>13} {'change':>13} {'ratio':>7}"]
    for name, old, new in rows:
        if old is None or new is None:
            continue
        ratio = f"{new / old:>7.4f}" if old else f"{'-':>7}"
        lines.append(f"{name:<14} {old:>13,} {new:>13,} {ratio}")
    return "\n".join(lines)


def format_rows(rows: list) -> str:
    lines = [
        f"{'metric':<12} {'parent':>10} {'IQR/med':>8} {'change':>10} {'IQR/med':>8} "
        f"{'ratio':>7} {'wins':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<12} {row['parent_median']:>10.4g} {row['parent_iqr_rel']:>8.3f} "
            f"{row['change_median']:>10.4g} {row['change_iqr_rel']:>8.3f} {row['ratio']:>7.3f} "
            f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--work", action="store_true", help="count work instead of timing pairs")
    args = parser.parse_args(argv)
    if args.work:
        from work_count import run_fresh

        for seed in args.seeds:
            old, new = (
                run_fresh(tree, workload=args.workload, seed=seed, opcodes=True)
                for tree in (args.parent, args.change)
            )
            print(f"seed {seed}\n{format_work(old, new)}")
        return 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    parent, change = [], []
    for i, (seed, parent_first) in enumerate(schedule(args.pairs, args.seeds)):
        order = [(args.parent, parent), (args.change, change)]
        for tree, runs in order if parent_first else order[::-1]:
            runs.append(run_once(tree, args.workload, seconds, seed))
        print(
            f"pair {i + 1}/{args.pairs} seed {seed}: wall_s "
            f"{parent[-1]['wall_s']:.3f} -> {change[-1]['wall_s']:.3f}",
            file=sys.stderr,
        )
    print(format_rows(summarise(metrics, parent, change)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
