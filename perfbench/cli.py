"""Command line of the benchmark (``python -m perfbench``).

Three ways to run it::

    python -m perfbench [--workloads a,b] [--repeats 3] [--seed N] [--trace] [--json out.json]
    python -m perfbench --check-repeatability [--workloads a,b] [--repeats 3]
    python -m perfbench --workload NAME --seed N --seconds S --trace 0|1

The first prints every end-to-end metric of every workload by name with its
unit (and, with ``--trace``, the per-layer metrics of one extra traced pass
per workload).  The second runs two complete sets of the same code and fails
if they disagree by more than the benchmark's own bounds.  The third is the
form ``BENCHMARK.json`` declares: one workload, passes repeated while they
fit in ``--seconds``, and one JSON object as the last line of stdout.

Exit status: 0 on success, 1 if any cell failed the output check or the two
sets disagree, 2 if the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata
from typing import Any, Dict, List, Optional, Sequence

from perfbench import harness, metrics
from perfbench.reference import NOMINAL_S
from perfbench.workloads import WORKLOAD_NAMES, get_workload

DEFAULT_REPEATS = 3
DEFAULT_SECONDS = 10


def _format(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value)}"
    return f"{value:.6g}"


def environment() -> Dict[str, Any]:
    """Context for the host numbers (each report also carries its reference samples)."""
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "load": "closed loop, 1 client, 1 thread; a fresh interpreter per pass",
    }


def print_report(report: Dict[str, Any], per_layer: bool) -> None:
    print(f"== {report['workload']}  seed={report['seed']}  passes={report['passes']}")
    for metric in metrics.END_TO_END:
        stat = report["end_to_end"][metric.name]
        if stat["median"] is None:
            print(f"  {metric.name:<28} n/a")
            continue
        spread = f"  [q1 {_format(stat['q1'])}, q3 {_format(stat['q3'])}]" if stat["n"] > 1 else ""
        raw = report["raw"].get(metric.name)
        unscaled = f"  (raw {_format(raw['median'])} s)" if raw else ""
        print(
            f"  {metric.name:<28} {_format(stat['median']):>12} {metric.unit:<6} "
            f"clock={metric.clock:<5} n={stat['n']}{spread}{unscaled}"
        )
    if per_layer:
        for layer_metric in metrics.LAYER_METRICS:
            if layer_metric.name in report["per_layer"]:
                value = report["per_layer"][layer_metric.name]
                print(f"  {layer_metric.name:<44} {_format(value):>14} {layer_metric.unit}")
        trace = report.get("trace")
        if trace:
            print(
                f"  traced pass: sum of self times {trace['self_sum_s']:.3f} s over "
                f"{trace['cell_wall_sum_s']:.3f} s of cell wall; spans in {trace['file']}"
            )
            for row in trace["unresolved_boundaries"]:
                print(f"  unresolved boundary {row['target']}: {row['reason']}")
    references = ", ".join(f"{value:.3f}" for value in report["reference_s"])
    print(f"  reference work: {references} s (nominal {NOMINAL_S} s); host timings above are scaled by it")
    for note in report["notes"]:
        print(f"  note: {note}")
    for problem in report["problems"]:
        print(f"  FAILED {problem}")


def run_set(names: Sequence[str], seed: Optional[int], repeats: int, trace: bool) -> List[Dict[str, Any]]:
    reports = []
    for name in names:
        report = harness.measure(get_workload(name), seed=seed, repeats=repeats, trace=trace)
        print_report(report, per_layer=trace)
        reports.append(report)
    return reports


def compare_sets(first: List[Dict[str, Any]], second: List[Dict[str, Any]]) -> List[str]:
    """Disagreements between two sets of the same code, beyond the bounds."""
    disagreements: List[str] = []
    for a, b in zip(first, second):
        workload = a["workload"]
        for metric in metrics.END_TO_END:
            x, y = a["end_to_end"][metric.name]["median"], b["end_to_end"][metric.name]["median"]
            if x is None and y is None:
                continue
            gap = abs(y - x) / abs(x) if x else abs(y - x)
            exact = metric.clock != "host"
            verdict = "ok" if (gap == 0 if exact else gap <= metric.bound) else "DISAGREE"
            print(
                f"  {workload:<16} {metric.name:<28} {_format(x):>12} {_format(y):>12} "
                f"gap {gap:.4%} (allowed {'0' if exact else format(metric.bound, '.0%')}) {verdict}"
            )
            if verdict != "ok":
                disagreements.append(f"{workload}.{metric.name}")
        for name in sorted(metrics.EXACT_LAYER_METRICS & set(a["per_layer"])):
            x, y = a["per_layer"][name], b["per_layer"].get(name)
            if x != y:
                print(f"  {workload:<16} {name:<28} {x!s:>12} {y!s:>12} counter DISAGREE")
                disagreements.append(f"{workload}.{name}")
    return disagreements


def contract_line(report: Dict[str, Any], trace: bool) -> str:
    """The JSON object ``BENCHMARK.json``'s caller reads off the last line."""
    values: Dict[str, Dict[str, Any]] = {}
    if trace:
        for layer_metric in metrics.LAYER_METRICS:
            if layer_metric.source == "sim":
                value = report["end_to_end"][layer_metric.name]["median"]
            else:
                value = report["per_layer"].get(layer_metric.name)
            # the contract wants a number: not-applicable and unresolved read 0 here,
            # the text above this line says which it was
            values[layer_metric.name] = {"value": value or 0, "unit": layer_metric.unit}
    else:
        for metric in metrics.CONTRACT_END_TO_END:
            values[metric.name] = {
                "value": report["end_to_end"][metric.name]["median"],
                "unit": metric.unit,
            }
    return json.dumps(
        {
            "correct": not report["problems"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": values,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )  # fmt: skip
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES),
                        help="comma-separated subset (default: all five)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="untraced passes per workload (default %(default)s)")
    parser.add_argument("--seed", type=int, default=None,
                        help="forwarded as run_scenario(seed=N); default: the model's own seed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one traced pass per workload and report per-layer metrics")
    parser.add_argument("--json", metavar="PATH", help="also write the full report here")
    parser.add_argument("--check-repeatability", action="store_true",
                        help="run two sets and compare them against the bounds")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="BENCHMARK.json form: one workload, JSON result on the last line")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="with --workload: keep adding passes while one more fits")
    args = parser.parse_args(argv)  # fmt: skip
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.stdout.reconfigure(line_buffering=True)  # progress is visible when piped to a file

    try:
        harness.require_preflight()
        if args.workload:
            report = harness.measure(
                get_workload(args.workload),
                seed=args.seed,
                repeats=1 if args.trace else None,
                seconds=args.seconds,
                trace=bool(args.trace),
            )
            print_report(report, per_layer=True)
            print(contract_line(report, trace=bool(args.trace)))
            return 1 if report["problems"] else 0

        names = [name for name in args.workloads.split(",") if name]
        for name in names:
            get_workload(name)
        env = environment()
        print("environment: " + json.dumps(env))
        reports = run_set(names, args.seed, args.repeats, bool(args.trace))
        failed = any(report["problems"] for report in reports)
        document: Dict[str, Any] = {"environment": env, "workloads": reports}
        if args.check_repeatability:
            print("-- second set")
            second = run_set(names, args.seed, args.repeats, bool(args.trace))
            print("-- first vs second set (medians)")
            disagreements = compare_sets(reports, second)
            failed = failed or bool(disagreements) or any(r["problems"] for r in second)
            document["second_set"] = second
            document["disagreements"] = disagreements
            print(f"repeatability: {len(disagreements)} disagreement(s)")
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(document, handle, indent=1)
        return 1 if failed else 0
    except (harness.HarnessError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

