"""Parent side: spawn passes, pool their numbers, check their outputs.

Every pass is a fresh single-threaded interpreter (``perfbench.worker``):
closed loop, one client, cells strictly sequential, modelled caches empty at
the start of every cell.  The parent never imports ``repro``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import checks, metrics
from perfbench.reference import NOMINAL_S
from perfbench.workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: extra set-up-only interpreters per measured workload, so ``setup_s`` is a
#: median over several samples even when the run fits a single pass
SETUP_PROBES = 4
#: host timings scaled by the same-window reference (see ``perfbench.reference``)
SCALED = ("setup_s", "wall_s", "cpu_s")
#: a pass that takes longer than this is a hang, not a measurement
PASS_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed cell)."""


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # one client, one thread: numpy must not start a BLAS pool on the second core
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _run_module(module: str, *argv: str) -> Dict[str, Any]:
    """Run ``python -m module`` to completion; return the JSON document on its last line."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", module, *argv], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )  # fmt: skip
    except subprocess.TimeoutExpired as exc:  # run() has already killed and reaped the child
        raise HarnessError(f"{module} {' '.join(argv)} exceeded {PASS_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise HarnessError(
            f"{module} {' '.join(argv)} exited {done.returncode}:\n{done.stderr.strip()[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spawn_worker(*argv: str) -> Dict[str, Any]:
    """One ``perfbench.worker``, told when it was spawned so it can report ``setup_s``."""
    return _run_module("perfbench.worker", *argv, "--spawned-at", repr(time.time()))


def require_preflight() -> None:
    problems = spawn_worker("--preflight")["problems"]
    if problems:
        raise HarnessError("pre-flight round trip failed: " + "; ".join(problems))


def reference_seconds() -> float:
    """One run of the fixed reference work in its own interpreter."""
    return _run_module("perfbench.reference")["reference_s"]


def _seed_args(seed: Optional[int]) -> List[str]:
    return [] if seed is None else ["--seed", str(seed)]


def measure(
    workload: Workload,
    seed: Optional[int] = None,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
) -> Dict[str, Any]:
    """Measure one workload: untraced passes, set-up probes, optionally one traced pass.

    ``repeats`` fixes the number of untraced passes; otherwise passes are
    added while another one of the same length still fits in ``seconds``
    (always at least one -- the workloads are fixed-size).
    """
    passes: List[Dict[str, Any]] = []
    spent = 0.0
    before = reference_seconds()
    while True:
        started = time.perf_counter()
        passes.append(spawn_worker(workload.name, *_seed_args(seed)))
        after = reference_seconds()
        passes[-1]["reference_s"] = (before + after) / 2
        before = after
        took = time.perf_counter() - started
        spent += took
        if repeats is not None:
            if len(passes) >= repeats:
                break
        elif seconds is None or spent + took > seconds:
            break
    probes = [
        spawn_worker(workload.name, "--setup-only", *_seed_args(seed)) for _ in range(SETUP_PROBES)
    ]
    for probe in probes:
        probe["reference_s"] = before

    report = build_report(workload, seed, passes, probes)
    if trace:
        _add_traced_pass(report, workload, seed, passes[0], before)
    return report


def build_report(
    workload: Workload,
    seed: Optional[int],
    passes: List[Dict[str, Any]],
    probes: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Pool the untraced passes of one workload and apply the output check."""
    raw: Dict[str, List[float]] = {name: [p[name] for p in passes] for name in metrics.HOST_METRICS}
    raw["setup_s"] += [probe["setup_s"] for probe in probes]
    scale = [NOMINAL_S / p.get("reference_s", NOMINAL_S) for p in passes]
    setup_scale = scale + [NOMINAL_S / p.get("reference_s", NOMINAL_S) for p in probes]
    samples = dict(raw)
    for name in SCALED:
        factors = setup_scale if name == "setup_s" else scale
        samples[name] = [value * factor for value, factor in zip(raw[name], factors)]
    per_pass_sim = [metrics.sim_metrics(p["cells"]) for p in passes]
    failures = checks.failed_cells(
        workload.expected_cells,
        [{cell["key"]: cell["payload"] for cell in p["cells"]} for p in passes],
    )
    attempted = len(workload.expected_cells) * len(passes)
    problems = [f"{key}: {reason}" for key, reason in failures.items()]
    problems += [f"{e['scenario']}: {e['error']}" for p in passes for e in p["errors"]]
    if any(sim != per_pass_sim[0] for sim in per_pass_sim[1:]):
        problems.append("sim-clock metrics differ between passes of the same seed")

    end_to_end: Dict[str, Dict[str, Any]] = {
        name: metrics.summarise(values) for name, values in samples.items()
    }
    for name, value in per_pass_sim[0].items():
        end_to_end[name] = (
            {"median": None, "q1": None, "q3": None, "n": 0}
            if value is None
            else {"median": value, "q1": value, "q3": value, "n": len(passes)}
        )
    share = len(failures) / attempted
    end_to_end["failed_share"] = {"median": share, "q1": share, "q3": share, "n": len(passes)}

    median_wall = end_to_end["wall_s"]["median"]
    reference = min(passes, key=lambda p: abs(p["wall_s"] - median_wall))
    return {
        "workload": workload.name,
        "seed": seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "problems": problems,
        "notes": sorted({note for p in passes for note in p["notes"]}),
        "end_to_end": end_to_end,
        #: the unscaled seconds behind the scaled host timings, and the reference samples
        "raw": {name: metrics.summarise(raw[name]) for name in SCALED},
        "reference_s": [p.get("reference_s", NOMINAL_S) for p in passes],
        "per_layer": metrics.counter_metrics(reference),
        "cell_wall_s": {cell["key"]: cell["wall_s"] for cell in reference["cells"]},
    }


def _add_traced_pass(
    report: Dict[str, Any],
    workload: Workload,
    seed: Optional[int],
    untraced: Dict[str, Any],
    reference_before: float,
) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}.json"
    traced = spawn_worker(workload.name, "--trace", str(trace_file), *_seed_args(seed))
    scale = NOMINAL_S / ((reference_before + reference_seconds()) / 2)
    # both sides of the overhead ratio at the reference speed of their own window
    report["per_layer"].update(
        metrics.trace_metrics(traced, report["end_to_end"]["wall_s"]["median"] / scale)
    )
    self_s, wall_s = metrics.trace_closure(traced)
    report["trace"] = {
        "file": str(trace_file.relative_to(ROOT)),
        "wall_s": traced["wall_s"],
        "self_sum_s": self_s,
        "cell_wall_sum_s": wall_s,
        "unresolved_boundaries": traced["trace"]["unresolved_boundaries"],
    }
    # tracing must only observe: the traced cells produce the very same payloads
    digests = {c["key"]: checks.payload_digest(c["payload"]) for c in untraced["cells"]}
    for cell in traced["cells"]:
        if checks.payload_digest(cell["payload"]) != digests.get(cell["key"]):
            report["problems"].append(f"traced:{cell['key']}: payload differs from the untraced pass")
