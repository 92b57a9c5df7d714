"""Benchmark-gate logic: compare two run artifacts.

An artifact's body (everything outside ``host``, see
:mod:`repro.runner.artifact`) holds only properties of the model, so the gate
on it is **exact equality**, with no threshold and no noise:

* a fresh sequential run against the committed ``benchmarks/baseline.json``
  -- same cells, payloads, work counters and rows; an intended model change
  is announced by committing a regenerated baseline;
* a ``--workers 4`` run against the sequential one -- simulated results may
  never depend on the worker count.

Wall-clock time lives in ``host`` (which ``run --artifact`` always records)
and is only ever used for the parallel speedup check; tracking host
performance over time is ``perfbench``'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Any, Dict, List, Optional


@dataclass
class GateReport:
    """Outcome of one determinism/speedup check."""

    failures: List[str] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self.lines.append(f"FAIL  {message}")

    def note(self, message: str) -> None:
        self.lines.append(f"      {message}")


def _first_difference(first: Dict[str, Any], second: Dict[str, Any]) -> Optional[str]:
    """The first key (in ``first``'s order, then ``second``'s) whose values differ."""
    for key in list(first) + [k for k in second if k not in first]:
        if key not in first or key not in second or first[key] != second[key]:
            return key
    return None


def check_determinism(first: Dict[str, Any], second: Dict[str, Any]) -> GateReport:
    """Fail unless the two documents are equal outside ``host``.

    Compared: the run identity, the cell keys in order, every cell's
    simulated time, payload, counters (and trace, when recorded), the
    aggregate counters and every experiment's rows.  A cell or an experiment
    present on one side only fails; each failure names the first differing
    cell key / experiment / counter.
    """
    report = GateReport()
    field_name = _first_difference(first["run"], second["run"])
    if field_name is not None:
        report.fail(
            f"run.{field_name} differs: {first['run'].get(field_name)!r} "
            f"vs {second['run'].get(field_name)!r}"
        )

    keys_a = [cell["key"] for cell in first["cells"]]
    keys_b = [cell["key"] for cell in second["cells"]]
    for index, (key_a, key_b) in enumerate(zip_longest(keys_a, keys_b)):
        if key_a != key_b:
            report.fail(
                f"cell keys differ at position {index}: {key_a!r} vs {key_b!r} "
                f"({len(keys_a)} vs {len(keys_b)} cells)"
            )
            break
    by_key = {cell["key"]: cell for cell in second["cells"]}
    identical = 0
    for cell in first["cells"]:
        other = by_key.get(cell["key"])
        if other is None:
            continue
        field_name = _first_difference(cell, other)
        if field_name == "counters":
            counter = _first_difference(cell["counters"], other["counters"])
            report.fail(
                f"cell {cell['key']!r}: counter {counter} differs: "
                f"{cell['counters'].get(counter)!r} vs {other['counters'].get(counter)!r}"
            )
        elif field_name is not None:
            report.fail(f"cell {cell['key']!r}: {field_name} differs between artifacts")
        else:
            identical += 1
    report.note(f"{identical} of {len(keys_a)} cells identical (payload, counters, sim time)")

    counter = _first_difference(first["counters"]["aggregate"], second["counters"]["aggregate"])
    if counter is not None:
        report.fail(f"aggregate counter {counter} differs between artifacts")

    experiments_a, experiments_b = first["experiments"], second["experiments"]
    for name in sorted(set(experiments_a) ^ set(experiments_b)):
        report.fail(f"experiment {name!r} is present in only one artifact")
    for name, entry in experiments_a.items():
        if name not in experiments_b:
            continue
        rows_a, rows_b = entry["rows"], experiments_b[name]["rows"]
        if rows_a == rows_b:
            report.note(f"{name}: {len(rows_a)} rows identical")
        else:
            report.fail(
                f"{name}: rows differ between artifacts "
                f"({len(rows_a)} vs {len(rows_b)} rows) -- results must not "
                f"depend on the machine or the worker count"
            )
    return report


def speedup(sequential: Dict[str, Any], parallel: Dict[str, Any]) -> float:
    """Elapsed-wall speedup of the parallel run over the sequential one."""
    seq_wall = float(sequential["host"]["wall_time_s"])
    par_wall = float(parallel["host"]["wall_time_s"])
    return seq_wall / par_wall if par_wall > 0 else float("inf")


def speedup_summary(sequential: Dict[str, Any], parallel: Dict[str, Any]) -> List[str]:
    """Human-readable wall-time comparison of a sequential vs parallel run."""
    seq_host = sequential["host"]
    par_host = parallel["host"]
    return [
        f"sequential ({seq_host['workers']} worker): {float(seq_host['wall_time_s']):.2f}s wall",
        f"parallel ({par_host['workers']} workers): {float(par_host['wall_time_s']):.2f}s wall",
        f"speedup: {speedup(sequential, parallel):.2f}x over {int(parallel['run']['cells'])} cells",
    ]


def check_speedup(
    sequential: Dict[str, Any],
    parallel: Dict[str, Any],
    min_speedup: float,
) -> GateReport:
    """Fail unless the parallel run beat the sequential one by ``min_speedup``.

    Only meaningful on multi-core machines: when the parallel artifact was
    recorded on a single core there is no parallelism to win, so the check
    reports the ratio but does not gate on it.
    """
    report = GateReport()
    ratio = speedup(sequential, parallel)
    for line in speedup_summary(sequential, parallel):
        report.note(line)
    cpu_count = parallel["host"].get("cpu_count")
    if isinstance(cpu_count, int) and cpu_count < 2:
        report.note(f"single-core environment (cpu_count={cpu_count}): speedup gate skipped")
        return report
    if ratio < min_speedup:
        report.fail(f"parallel speedup {ratio:.2f}x is below the required {min_speedup:.2f}x")
    return report
