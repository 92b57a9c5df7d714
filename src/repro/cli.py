"""Command-line entry point: ``python -m repro`` / ``blobcr-repro``.

Runs any subset of the paper's experiments at a chosen scale through the
registry-driven parallel runner and prints the resulting tables.

* ``--paper-scale`` uses the original axes (up to 120 VMs / 400 CM1
  processes); the default reduced scale reproduces the same qualitative
  shapes in well under a minute.
* ``--workers N`` fans the independent (approach x scale-point) cells out
  over N worker processes; results are bit-identical to ``--workers 1``.
* ``--cells fig2:BlobCR-app:24`` restricts the run to matching cells
  (``--list-cells`` shows the addressable keys).
* ``--override cluster.compute_nodes=64`` rewrites one field of the
  simulated cluster; ``--override 'ft.mtbf=300|900'`` replaces one sweep axis
  of one scenario (``|`` separates sweep points).  ``--seed N`` re-seeds the
  whole simulation.  Overrides are recorded in the run artifact.
* ``--json`` dumps every regenerated table as machine-readable JSON;
  ``--artifact`` writes the schema-versioned run artifact (per cell: payload,
  simulated time and the deterministic simulator work counters; merged rows;
  plus a ``host`` section with everything that varies between runs) the CI
  benchmark gate consumes.  ``docs/performance.md`` explains how to read it.
* ``--list-backends`` shows the deployment-backend registry (capabilities and
  option schemas); programmatic use goes through :mod:`repro.api`.

``blobcr-repro trace [cells...]`` runs the selected cells through the
sim-time tracer (over ``--workers N`` processes like any run) and writes
(a) the same artifact with each cell's trace and span rollups and without
the ``host`` section, hence byte-identical across runs and worker counts,
and (b) a Chrome trace-event JSON loadable in Perfetto /
``chrome://tracing``.  Cell selectors may be passed positionally
(``blobcr-repro trace fig2:BlobCR-app:24``); see ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatchcase
from typing import List, Optional, Tuple

from repro.core.backends import backend_names, get_backend
from repro.obs import chrome_trace, format_rollups, merge_rollups
from repro.runner import (
    ParallelRunner,
    ProgressMeter,
    RunConfig,
    build_artifact,
    load_all,
    parse_selectors,
    write_artifact,
)
from repro.runner.select import CellSelector
from repro.scenarios.overrides import resolve_cluster_spec
from repro.util.errors import ConfigurationError


def _add_selection_arguments(parser: argparse.ArgumentParser, names: List[str], verb: str) -> None:
    """The experiment/cell/override selection surface shared by run and trace.

    One definition keeps the two namespaces structurally identical, which
    ``_resolve_run_inputs`` and ``_runner`` rely on (both entry points must
    validate and fold configuration the same way, with the same flags and
    defaults).
    """
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"which experiments to {verb} (default: all of {', '.join(names)})",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full scale (slower)",
    )
    parser.add_argument(
        "--cells",
        action="append",
        default=[],
        metavar="SELECTOR",
        help=f"{verb} only cells matching the selector prefix, e.g. "
        "fig2:BlobCR-app:24 (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one cluster field (cluster.blobseer.replication=3) or "
        "one scenario sweep axis ('ft.mtbf=300|900', quoted); repeatable",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="base RNG seed of the simulated cluster (shorthand for "
        "--override cluster.seed=N)",
    )
    parser.add_argument(
        "--solver-verify",
        action="store_true",
        help="cross-check every incremental bandwidth allocation against the "
        "reference solver (slow; shorthand for --override cluster.solver.verify=true)",
    )
    parser.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help=f"{verb} experiment cells over N worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the per-cell progress lines on stderr",
    )


def _build_parser(names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobcr-repro",
        description="Reproduce the evaluation of BlobCR (SC'11).",
        epilog="subcommand (must be the first argument): `blobcr-repro trace "
        "[cells...]` records cells through the sim-time tracer and emits "
        "Perfetto-loadable Chrome trace JSON (docs/observability.md).  "
        "Per-cell simulator work counters ride in every --artifact "
        "(docs/performance.md).",
    )
    _add_selection_arguments(parser, names, verb="run")
    parser.add_argument(
        "--list-cells",
        action="store_true",
        help="list the addressable cell keys of the selected experiments and exit",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the registered deployment backends (capabilities, options) and exit",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as JSON to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--artifact",
        metavar="PATH",
        default=None,
        help="write the structured run artifact (JSON) to PATH ('-' for stdout)",
    )
    return parser


def resolve_run_inputs(
    names: List[str],
    experiments: List[str],
    cells: List[str],
    overrides: List[str],
    *,
    paper_scale: bool = False,
    seed: Optional[int] = None,
    solver_verify: bool = False,
) -> Tuple[List[str], List[CellSelector], RunConfig]:
    """Validate experiments/selectors/overrides and fold them into a RunConfig.

    The one selection pipeline behind ``blobcr-repro run``/``trace`` *and*
    out-of-process harnesses: anything accepted here is accepted
    identically everywhere, by construction.  Raises
    :class:`~repro.util.errors.ConfigurationError` on unknown experiments,
    foreign selectors or misdirected overrides; the CLI wrapper converts
    that into ``parser.error``.
    """
    unknown = [e for e in experiments if e not in names]
    if unknown:
        raise ConfigurationError(f"unknown experiment(s): {', '.join(unknown)}")

    selectors = parse_selectors(cells)
    # Selector experiments may carry fnmatch wildcards (e.g. `mtc:*` or
    # `fig*:BlobCR-app`); they resolve against the registered names here.
    foreign = sorted(
        {
            s.experiment
            for s in selectors
            if not any(fnmatchcase(n, s.experiment) for n in names)
        }
    )
    if foreign:
        raise ConfigurationError(f"unknown experiment(s) in --cells: {', '.join(foreign)}")

    experiments = list(experiments)
    if not experiments:
        if selectors:
            experiments = [
                n
                for n in names
                if any(fnmatchcase(n, s.experiment) for s in selectors)
            ]
        else:
            experiments = list(names)
    outside = [
        s.text
        for s in selectors
        if not any(fnmatchcase(n, s.experiment) for n in experiments)
    ]
    if outside:
        raise ConfigurationError(
            f"--cells selector(s) outside the requested experiments: {', '.join(outside)}"
        )

    # The solver switch is folded into the override stream (rather than
    # into the spec directly) so every artifact records exactly which solver
    # configuration produced it -- on a copy: the caller's list is not ours.
    overrides = list(overrides)
    if solver_verify:
        overrides.append("cluster.solver.verify=true")

    # One shared pipeline with repro.api: validate every override (the
    # misdirected ones would be silently inert yet recorded in the
    # artifact) and fold the cluster-level ones plus --seed into the
    # run's cluster spec.
    cluster_spec = resolve_cluster_spec(overrides, names, experiments, seed=seed)

    config = RunConfig(
        paper_scale=paper_scale,
        spec=cluster_spec,
        overrides=tuple(overrides),
        seed=seed,
    )
    return experiments, selectors, config


def _resolve_run_inputs(
    parser: argparse.ArgumentParser, args: argparse.Namespace, names: List[str]
) -> Tuple[List[str], List[CellSelector], RunConfig]:
    """:func:`resolve_run_inputs` over an argparse namespace.

    Shared between the run and trace entry points so both accept exactly
    the same selection surface (and error identically).
    """
    try:
        return resolve_run_inputs(
            names,
            args.experiments,
            args.cells,
            args.override,
            paper_scale=args.paper_scale,
            seed=args.seed,
            solver_verify=args.solver_verify,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))


def _runner(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ParallelRunner:
    """The runner both entry points execute through (``--workers``, progress)."""
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    return ParallelRunner(
        workers=args.workers,
        progress=None if args.no_progress else ProgressMeter(workers=args.workers),
    )


def _write_text(parser: argparse.ArgumentParser, path: str, payload: str, what: str) -> None:
    """Write one text output to ``path`` (``-`` for stdout)."""
    if path == "-":
        print(payload)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    except OSError as exc:
        parser.error(f"cannot write {what} to {path}: {exc}")


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    if raw_argv and raw_argv[0] == "trace":
        return trace_main(raw_argv[1:])
    if raw_argv and raw_argv[0] == "run":
        # `blobcr-repro run ...` is an explicit alias of the default form,
        # mirroring the trace subcommand.
        raw_argv = raw_argv[1:]
    names = load_all()
    parser = _build_parser(names)
    args = parser.parse_args(raw_argv)

    if args.list_backends:
        for name in backend_names():
            info = get_backend(name)
            options = ", ".join(info.options) or "-"
            print(f"{info.name}: {info.description}")
            print(f"    capabilities: {info.capabilities.summary()}")
            print(f"    options: {options}")
        return 0

    runner = _runner(parser, args)
    experiments, selectors, config = _resolve_run_inputs(parser, args, names)

    if args.list_cells:
        try:
            cells = runner.enumerate(experiments, config, selectors)
        except ConfigurationError as exc:
            parser.error(str(exc))
        for cell in cells:
            print(cell.key)
        return 0

    try:
        report = runner.run(experiments, config, selectors)
    except ConfigurationError as exc:
        parser.error(str(exc))

    collected = {}
    for result in report.results:
        print(result.to_table())
        print()
        collected[result.experiment] = {
            "experiment": result.experiment,
            "description": result.description,
            "rows": result.rows,
        }

    if args.json is not None:
        payload = json.dumps(collected, indent=2, default=str)
        _write_text(parser, args.json, payload, "JSON output")

    if args.artifact is not None:
        document = build_artifact(report, argv=raw_argv)
        try:
            write_artifact(args.artifact, document)
        except OSError as exc:
            parser.error(f"cannot write artifact to {args.artifact}: {exc}")
    return 0


# -- the tracing harness (`blobcr-repro trace`) ---------------------------------


def _build_trace_parser(names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobcr-repro trace",
        description="Record experiment cells through the deterministic sim-time "
        "tracer; writes the run artifact with each cell's trace (no host "
        "section, so byte-identical across runs and worker counts) plus a "
        "Chrome trace-event JSON (load it in Perfetto / chrome://tracing).",
        epilog="cell selectors may be passed positionally: "
        "`blobcr-repro trace fig2:BlobCR-app:24`",
    )
    _add_selection_arguments(parser, names, verb="trace")
    parser.add_argument(
        "--trace-artifact",
        metavar="PATH",
        default="trace-artifact.json",
        help="write the traced run artifact (JSON) to PATH "
        "('-' for stdout, default: %(default)s)",
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        default="trace.chrome.json",
        help="write the Chrome trace-event JSON to PATH "
        "('-' for stdout, default: %(default)s)",
    )
    return parser


def trace_main(argv: List[str]) -> int:
    """Entry point of ``blobcr-repro trace``.

    The same runner call as a plain run with ``trace=True``: every cell runs
    under the tracer in whatever worker it lands and the fragments merge in
    canonical cell order.  All recorded data is sim-time and the ``host``
    section is left out, so the artifact is byte-identical across runs of
    the same cells at any ``--workers``.
    """
    names = load_all()
    parser = _build_trace_parser(names)
    args = parser.parse_args(argv)
    # `blobcr-repro trace fig2:BlobCR-app:24`: positionals with a ":" are
    # cell selectors, not experiment names.
    args.cells.extend(e for e in args.experiments if ":" in e)
    args.experiments = [e for e in args.experiments if ":" not in e]
    runner = _runner(parser, args)
    experiments, selectors, config = _resolve_run_inputs(parser, args, names)
    try:
        report = runner.run(experiments, config, selectors, trace=True)
    except ConfigurationError as exc:
        parser.error(str(exc))

    document = build_artifact(report, host=False)
    cell_records = document["cells"]
    try:
        write_artifact(args.trace_artifact, document)
    except OSError as exc:
        parser.error(f"cannot write trace artifact to {args.trace_artifact}: {exc}")
    chrome = chrome_trace(cell_records)
    payload = json.dumps(chrome, indent=None, separators=(",", ":"))
    _write_text(parser, args.chrome, payload, "Chrome trace")

    spans = sum(len(record["trace"]["spans"]) for record in cell_records)
    events = len(chrome["traceEvents"])
    print(f"traced {len(cell_records)} cell(s): {spans} span(s), {events} Chrome event(s)")
    if args.trace_artifact != "-":
        print(f"trace artifact: {args.trace_artifact}")
    if args.chrome != "-":
        print(f"chrome trace:   {args.chrome}  (open in https://ui.perfetto.dev)")
    print()
    print("sim-time span rollups:")
    print(format_rollups(merge_rollups([record["rollups"] for record in cell_records])))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
