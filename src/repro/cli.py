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
  whole simulation.  Overrides are recorded in the perf artifact.
* ``--json`` dumps every regenerated table as machine-readable JSON;
  ``--artifact`` writes the schema-versioned perf artifact (per-cell wall and
  simulated times, environment, calibration) the CI benchmark gate consumes.
* ``--list-backends`` shows the deployment-backend registry (capabilities and
  option schemas); programmatic use goes through :mod:`repro.api`.

``blobcr-repro profile [experiments...]`` is the profiling harness: it runs
the selected cells in-process under cProfile while collecting the
deterministic simulator work counters (events popped, bandwidth
recomputations, flows settled, component sizes -- see
:mod:`repro.sim.instrumentation`) and the sim-time span rollups of
:mod:`repro.obs`, prints all three, and with ``--profile-artifact`` writes
the schema-versioned profile artifact next to the bench artifact.
``docs/performance.md`` explains how to read it.

``blobcr-repro trace [cells...]`` records the selected cells through the
sim-time tracer and writes (a) the byte-deterministic
``blobcr-repro/trace-artifact`` document and (b) a Chrome trace-event JSON
loadable in Perfetto / ``chrome://tracing``.  Cell selectors may be passed
positionally (``blobcr-repro trace fig2:BlobCR-app:24``); see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fnmatch import fnmatchcase
from typing import Any, Dict, List, Optional, Tuple

from repro.core.backends import backend_names, get_backend
from repro.runner import (
    ParallelRunner,
    ProgressMeter,
    RunConfig,
    build_artifact,
    build_profile_artifact,
    build_trace_artifact,
    load_all,
    parse_selectors,
    write_artifact,
    write_profile_artifact,
    write_trace_artifact,
)
from repro.runner.select import CellSelector
from repro.scenarios.overrides import resolve_cluster_spec
from repro.util.errors import ConfigurationError


def _add_selection_arguments(parser: argparse.ArgumentParser, names: List[str], verb: str) -> None:
    """The experiment/cell/override selection surface shared by run and profile.

    One definition keeps the two namespaces structurally identical, which
    ``_resolve_run_inputs`` relies on (both entry points must validate and
    fold configuration the same way, with the same flags and defaults).
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
        "--no-progress",
        action="store_true",
        help="suppress the per-cell progress lines on stderr",
    )


def _build_parser(names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobcr-repro",
        description="Reproduce the evaluation of BlobCR (SC'11).",
        epilog="subcommands (must be the first argument): `blobcr-repro "
        "profile [experiments...]` runs cells under cProfile with "
        "deterministic simulator work counters (docs/performance.md); "
        "`blobcr-repro trace [cells...]` records cells through the sim-time "
        "tracer and emits Perfetto-loadable Chrome trace JSON "
        "(docs/observability.md).",
    )
    _add_selection_arguments(parser, names, verb="run")
    parser.add_argument(
        "--workers",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="run experiment cells over N worker processes (default: 1)",
    )
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
        help="write the structured perf artifact (JSON) to PATH ('-' for stdout)",
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

    The one selection pipeline behind ``blobcr-repro run``/``profile``/
    ``trace`` *and* out-of-process harnesses: anything accepted here is
    accepted identically everywhere, by construction.  Raises
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

    Shared between the run, profile and trace entry points so all three
    accept exactly the same selection surface (and error identically).
    """
    try:
        return resolve_run_inputs(
            names,
            args.experiments,
            args.cells,
            args.override,
            paper_scale=args.paper_scale,
            seed=args.seed,
            solver_verify=getattr(args, "solver_verify", False),
        )
    except ConfigurationError as exc:
        parser.error(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    if raw_argv and raw_argv[0] == "profile":
        return profile_main(raw_argv[1:], raw_argv)
    if raw_argv and raw_argv[0] == "trace":
        return trace_main(raw_argv[1:], raw_argv)
    if raw_argv and raw_argv[0] == "run":
        # `blobcr-repro run ...` is an explicit alias of the default form,
        # mirroring the profile/trace subcommands.
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

    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    experiments, selectors, config = _resolve_run_inputs(parser, args, names)
    runner = ParallelRunner(
        workers=args.workers,
        progress=None if args.no_progress else ProgressMeter(workers=args.workers),
    )

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
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
            except OSError as exc:
                parser.error(f"cannot write JSON output to {args.json}: {exc}")

    if args.artifact is not None:
        document = build_artifact(report, argv=raw_argv)
        try:
            write_artifact(args.artifact, document)
        except OSError as exc:
            parser.error(f"cannot write artifact to {args.artifact}: {exc}")
    return 0


# -- the profiling harness (`blobcr-repro profile`) ---------------------------------


def _build_profile_parser(names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobcr-repro profile",
        description="Profile experiment cells: cProfile hotspots plus the "
        "deterministic simulator work counters.",
    )
    _add_selection_arguments(parser, names, verb="profile")
    parser.add_argument(
        "--profile-artifact",
        metavar="PATH",
        default=None,
        help="write the schema-versioned profile artifact (JSON) to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        metavar="N",
        help="number of cProfile hotspots to report (default: %(default)s)",
    )
    return parser


def _shorten_path(filename: str) -> str:
    """Make profiler paths readable: anchor at the package root if possible."""
    marker = filename.rfind("/repro/")
    if marker != -1:
        return "repro/" + filename[marker + len("/repro/") :]
    return filename


def _top_hotspots(profiler: Any, top: int) -> List[Dict[str, Any]]:
    """The ``top`` most expensive functions by self time, as JSON rows."""
    import pstats

    stats = pstats.Stats(profiler)
    entries: List[Dict[str, Any]] = []
    for (filename, lineno, funcname), row in stats.stats.items():  # type: ignore[attr-defined]
        _cc, ncalls, tottime, cumtime = row[0], row[1], row[2], row[3]
        entries.append(
            {
                "function": f"{_shorten_path(filename)}:{lineno}({funcname})",
                "ncalls": ncalls,
                "tottime_s": tottime,
                "cumtime_s": cumtime,
            }
        )
    entries.sort(key=lambda e: (-e["tottime_s"], e["function"]))
    return entries[: max(top, 0)]


def profile_main(argv: List[str], raw_argv: Optional[List[str]] = None) -> int:
    """Entry point of ``blobcr-repro profile``.

    Cells always run in-process (the counters are process-global and
    cProfile cannot look into worker processes), sequentially and in
    canonical order; the counter block and the tracer are reset around every
    cell so the artifact carries exact per-cell work counts and sim-time
    span rollups.
    """
    import cProfile

    from repro.obs import TRACER, format_rollups, merge_rollups, span_rollups
    from repro.runner.cells import execute_cell
    from repro.sim.instrumentation import counters_reset, counters_snapshot

    names = load_all()
    parser = _build_profile_parser(names)
    args = parser.parse_args(argv)
    experiments, selectors, config = _resolve_run_inputs(parser, args, names)
    runner = ParallelRunner(workers=1)
    try:
        cells = runner.enumerate(experiments, config, selectors)
    except ConfigurationError as exc:
        parser.error(str(exc))

    profiler = cProfile.Profile()
    progress = ProgressMeter() if not args.no_progress else None
    cell_records: List[Dict[str, Any]] = []
    t0 = time.perf_counter()
    for index, cell in enumerate(cells):
        counters_reset()
        TRACER.reset()
        TRACER.enable()
        profiler.enable()
        try:
            result = execute_cell(cell)
        finally:
            profiler.disable()
            TRACER.disable()
        cell_records.append(
            {
                "key": result.key,
                "experiment": result.experiment,
                "wall_time_s": result.wall_time_s,
                "sim_time_s": result.sim_time_s,
                "counters": counters_snapshot().as_dict(),
                "spans": span_rollups(TRACER.collect()),
            }
        )
        if progress is not None:
            progress(index + 1, len(cells), result)
    wall = time.perf_counter() - t0

    hotspots = _top_hotspots(profiler, args.top)
    document = build_profile_artifact(
        experiments=experiments,
        cells=cell_records,
        hotspots=hotspots,
        wall_time_s=wall,
        paper_scale=args.paper_scale,
        overrides=list(config.overrides),
        seed=args.seed,
        argv=raw_argv if raw_argv is not None else ["profile"] + list(argv),
    )
    rollups = merge_rollups([record["spans"] for record in cell_records])
    document["span_rollups"] = rollups

    # Write the artifact before printing: a truncated stdout (head, a full
    # disk behind a redirect) must not cost CI the recorded document.
    if args.profile_artifact is not None:
        try:
            write_profile_artifact(args.profile_artifact, document)
        except OSError as exc:
            parser.error(f"cannot write profile artifact to {args.profile_artifact}: {exc}")

    aggregate = document["counters"]["aggregate"]
    print(f"profiled {len(cell_records)} cell(s) in {wall:.2f}s (wall)")
    print()
    print("simulator work counters (deterministic):")
    for name, value in aggregate.items():
        print(f"  {name:<26} {value:>14,}")
    print()
    print("sim-time span rollups (deterministic):")
    print(format_rollups(rollups))
    print()
    print(f"top {len(hotspots)} functions by self time:")
    for entry in hotspots:
        print(
            f"  {entry['tottime_s']:9.3f}s self {entry['cumtime_s']:9.3f}s cum "
            f"{entry['ncalls']:>10} calls  {entry['function']}"
        )
    return 0


# -- the tracing harness (`blobcr-repro trace`) ---------------------------------


def _build_trace_parser(names: List[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blobcr-repro trace",
        description="Record experiment cells through the deterministic sim-time "
        "tracer; writes the trace artifact plus a Chrome trace-event JSON "
        "(load it in Perfetto / chrome://tracing).",
        epilog="cell selectors may be passed positionally: "
        "`blobcr-repro trace fig2:BlobCR-app:24`",
    )
    _add_selection_arguments(parser, names, verb="trace")
    parser.add_argument(
        "--trace-artifact",
        metavar="PATH",
        default="trace-artifact.json",
        help="write the schema-versioned trace artifact (JSON) to PATH "
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


def trace_main(argv: List[str], raw_argv: Optional[List[str]] = None) -> int:
    """Entry point of ``blobcr-repro trace``.

    Cells run in-process (the tracer is process-global), sequentially and in
    canonical order, with the tracer reset around every cell.  All recorded
    data is sim-time, so the artifact is byte-identical across runs of the
    same cells (the bench/profile artifacts are not: they carry wall times).
    """
    from repro.obs import TRACER, chrome_trace, format_rollups, merge_rollups, span_rollups
    from repro.runner.cells import execute_cell

    names = load_all()
    parser = _build_trace_parser(names)
    args = parser.parse_args(argv)
    # `blobcr-repro trace fig2:BlobCR-app:24`: positionals with a ":" are
    # cell selectors, not experiment names.
    args.cells.extend(e for e in args.experiments if ":" in e)
    args.experiments = [e for e in args.experiments if ":" not in e]
    experiments, selectors, config = _resolve_run_inputs(parser, args, names)
    runner = ParallelRunner(workers=1)
    try:
        cells = runner.enumerate(experiments, config, selectors)
    except ConfigurationError as exc:
        parser.error(str(exc))

    progress = ProgressMeter() if not args.no_progress else None
    cell_records: List[Dict[str, Any]] = []
    for index, cell in enumerate(cells):
        TRACER.reset()
        TRACER.enable()
        try:
            result = execute_cell(cell)
        finally:
            TRACER.disable()
        trace = TRACER.collect()
        cell_records.append(
            {
                "key": result.key,
                "experiment": result.experiment,
                "sim_time_s": result.sim_time_s,
                "trace": trace,
                "rollups": span_rollups(trace),
            }
        )
        if progress is not None:
            progress(index + 1, len(cells), result)

    document = build_trace_artifact(
        experiments=experiments,
        cells=cell_records,
        paper_scale=args.paper_scale,
        overrides=list(config.overrides),
        seed=args.seed,
        argv=raw_argv if raw_argv is not None else ["trace"] + list(argv),
    )
    try:
        write_trace_artifact(args.trace_artifact, document)
    except OSError as exc:
        parser.error(f"cannot write trace artifact to {args.trace_artifact}: {exc}")
    chrome = chrome_trace(cell_records)
    try:
        payload = json.dumps(chrome, indent=None, separators=(",", ":"))
        if args.chrome == "-":
            print(payload)
        else:
            with open(args.chrome, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    except OSError as exc:
        parser.error(f"cannot write Chrome trace to {args.chrome}: {exc}")

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
