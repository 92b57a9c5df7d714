#!/usr/bin/env python
"""CI benchmark gate: compare run artifacts for exact model equality.

Thin command-line shim over :mod:`repro.runner.regression`.  Typical CI use::

    python benchmarks/check_regression.py \
        --baseline benchmarks/baseline.json \
        --artifact bench-sequential.json
    python benchmarks/check_regression.py \
        --artifact bench-parallel.json \
        --sequential bench-sequential.json \
        --min-speedup 1.05

Exits non-zero when ``--artifact`` differs from ``--baseline`` or from
``--sequential`` anywhere outside the ``host`` section (cell keys, payloads,
per-cell work counters, rows: all properties of the model, so the comparison
is exact -- an intended change is announced by committing a regenerated
baseline), or when the parallel run missed ``--min-speedup``.
"""

from __future__ import annotations

import argparse
import sys

from repro.runner.artifact import ArtifactError, load_artifact
from repro.runner.regression import check_determinism, check_speedup, speedup_summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline artifact: --artifact must equal it outside 'host' "
        "(omit to only check --sequential determinism/speedup)",
    )
    parser.add_argument("--artifact", required=True, help="freshly recorded artifact to gate")
    parser.add_argument(
        "--sequential",
        default=None,
        help="optional single-worker artifact: --artifact must equal it outside "
        "'host'; also used for the speedup summary",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="require the --artifact run to beat the --sequential run by this "
        "factor (use on multi-core CI only; default: report, don't gate)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_artifact(args.baseline) if args.baseline else None
        artifact = load_artifact(args.artifact)
        sequential = load_artifact(args.sequential) if args.sequential else None
        if sequential is not None and not ("host" in artifact and "host" in sequential):
            raise ArtifactError("the speedup comparison needs artifacts with a 'host' section")
    except ArtifactError as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        return 1

    failed = False
    if baseline is not None:
        gate = check_determinism(baseline, artifact)
        print("== model equality vs baseline ==")
        print("\n".join(gate.lines))
        failed |= not gate.ok

    if sequential is not None:
        determinism = check_determinism(sequential, artifact)
        print("== determinism (sequential vs parallel) ==")
        print("\n".join(determinism.lines))
        failed |= not determinism.ok
        print("== speedup ==")
        if args.min_speedup is not None:
            gate = check_speedup(sequential, artifact, args.min_speedup)
            print("\n".join(gate.lines))
            failed |= not gate.ok
        else:
            print("\n".join(speedup_summary(sequential, artifact)))

    print("RESULT:", "FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
