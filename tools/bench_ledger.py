#!/usr/bin/env python
"""The append-only perf ledger: one ``benchmarks/ledger/BENCH_<pr>.json`` per PR.

    python -m perfbench --trace --json report.json
    python tools/bench_ledger.py record report.json --pr 24
    python tools/bench_ledger.py show
    python tools/bench_ledger.py check [report.json]

``record`` reduces a perfbench report to what a later PR is compared with: per
workload the end-to-end host medians with their quartiles (scaled and raw),
``sim_total_s`` to the last digit and every exact counter, plus the tier-1 test
count, the ``src/repro`` line count and the git SHA of the tree that was
measured.  ``show`` prints the trajectory over the committed entries.  ``check``
fails when ``sim_total_s`` or an exact counter of a report (by default a fresh
one-pass ``python -m perfbench --trace``) differs from the newest entry: the
model moved, and the PR that moved it has to say so with an entry of its own.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "ledger"
HOST_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def _run(*command: str) -> str:
    return subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _entries() -> list:
    entries = [json.loads(path.read_text()) for path in LEDGER.glob("BENCH_*.json")]
    return sorted(entries, key=lambda entry: entry["pr"])


def _reduce(report: dict) -> dict:
    """Per workload of a perfbench report, the numbers the ledger keeps."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.metrics import EXACT_LAYER_METRICS  # which counters repeat exactly

    def stat(row):
        return [row["median"], row["q1"], row["q3"]]

    return {
        workload["workload"]: {
            "seed": workload["seed"],
            "passes": workload["passes"],
            "failed": workload["failed"],
            "end_to_end": {name: stat(workload["end_to_end"][name]) for name in HOST_METRICS},
            "raw": {name: stat(row) for name, row in workload["raw"].items()},
            "reference_s": workload["reference_s"],
            "sim_total_s": workload["end_to_end"]["sim_total_s"]["median"],
            "exact": {
                name: value
                for name, value in sorted(workload["per_layer"].items())
                if name in EXACT_LAYER_METRICS and value is not None
            },
        }
        for workload in report["workloads"]
    }


def record(report_path: str, pr: int, backfilled: bool) -> int:
    report = json.loads(Path(report_path).read_text())
    entry = {"pr": pr, "environment": report.get("environment")}
    if backfilled:  # the tree that was measured is not the one checked out
        entry.update(backfilled=True, source=report_path)
    else:
        collected = _run(sys.executable, "-m", "pytest", "--collect-only", "-q")
        entry.update(
            git_sha=_run("git", "rev-parse", "HEAD").strip(),
            tier1_tests=int(re.search(r"(\d+) tests collected", collected).group(1)),
            src_repro_lines=sum(
                len(path.read_text().splitlines()) for path in (ROOT / "src/repro").rglob("*.py")
            ),
        )
    entry["workloads"] = _reduce(report)
    LEDGER.mkdir(parents=True, exist_ok=True)
    target = LEDGER / f"BENCH_{pr}.json"
    target.write_text(json.dumps(entry, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


def show() -> int:
    entries = _entries()
    print(f"{'':<28}" + "".join(f"{'PR ' + str(entry['pr']):>12}" for entry in entries))
    for name in dict.fromkeys(name for entry in entries for name in entry["workloads"]):
        for metric in ("wall_s", "peak_rss_mb", "sim_total_s"):
            cells = []
            for entry in entries:
                row = entry["workloads"].get(name, {})
                value = row.get(metric) or row.get("end_to_end", {}).get(metric, [None])[0]
                cells.append("-" if value is None else f"{value:.6g}")
            print(f"{name + ' ' + metric:<28}" + "".join(f"{cell:>12}" for cell in cells))
    for field in ("src_repro_lines", "tier1_tests"):
        cells = [str(entry.get(field, "-")) for entry in entries]
        print(f"{field:<28}" + "".join(f"{cell:>12}" for cell in cells))
    return 0


def check(report_path: str | None) -> int:
    newest = _entries()[-1]
    with tempfile.TemporaryDirectory() as scratch:
        if report_path is None:
            report_path = str(Path(scratch) / "report.json")
            command = ("-m", "perfbench", "--repeats", "1", "--trace", "--json", report_path)
            subprocess.run((sys.executable, *command), cwd=ROOT, check=True)
        fresh = _reduce(json.loads(Path(report_path).read_text()))
    differences = []
    for name, now in fresh.items():
        then = newest["workloads"].get(name)
        if then is None:
            continue
        pairs = {"sim_total_s": (then["sim_total_s"], now["sim_total_s"])}
        for key in then["exact"].keys() & now["exact"].keys():
            pairs[key] = (then["exact"][key], now["exact"][key])
        differences += [
            f"{name} {key}: BENCH_{newest['pr']} has {old!r}, this tree {new!r}"
            for key, (old, new) in sorted(pairs.items())
            if old != new
        ]
    for line in differences:
        print(line)
    compared = len(fresh.keys() & newest["workloads"].keys())
    print(
        f"ledger check against BENCH_{newest['pr']}.json: "
        f"{len(differences)} difference(s) over {compared} workload(s)"
    )
    return 1 if differences else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="reduce a perfbench --json report to an entry")
    rec.add_argument("report")
    rec.add_argument("--pr", type=int, required=True)
    rec.add_argument(
        "--backfilled",
        action="store_true",
        help="measured on an older tree: keep no SHA, test or line count",
    )
    commands.add_parser("show", help="print the trajectory table")
    chk = commands.add_parser("check", help="compare exact numbers with the newest entry")
    chk.add_argument("report", nargs="?", help="default: run a fresh one-pass traced perfbench")
    args = parser.parse_args(argv)
    if args.command == "record":
        return record(args.report, args.pr, args.backfilled)
    return show() if args.command == "show" else check(args.report)


if __name__ == "__main__":
    raise SystemExit(main())
