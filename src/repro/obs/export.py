"""Exports of a recorded trace: Chrome trace-event JSON and span rollups.

The Chrome trace-event mapping (loadable in Perfetto or ``chrome://tracing``):

* each ``(cell, group)`` pair becomes a Chrome **process** (one per simulated
  cloud, since a cell simulates one cloud per approach under test);
* each track (VM instance, node, subsystem) becomes a **thread** of that
  process, numbered in first-use order;
* spans become complete events (``ph: "X"``) with simulated seconds scaled
  to trace microseconds (``ts = t0 * 1e6``); spans never closed are emitted
  as lone begin events (``ph: "B"``) so they remain visible;
* failure injections and other point occurrences become instant events
  (``ph: "i"``) with thread scope;
* gauges become counter events (``ph: "C"``).

Everything here consumes the plain-dict trace fragment produced by
:func:`repro.obs.tracer.merge_traces` (or the ``trace`` section of a cell
inside a traced run artifact), so exports work on loaded artifacts without a
live tracer.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

#: simulated seconds -> Chrome trace microseconds
_US_PER_S = 1_000_000.0


def _scale(t_s: float) -> float:
    ts = t_s * _US_PER_S
    # Integral timestamps serialise without a trailing ".0", which keeps the
    # JSON compact and stable; sub-microsecond times keep their fraction.
    return int(ts) if ts == int(ts) else ts


class _TidAllocator:
    """First-use-ordered (pid, track) -> tid assignment with name metadata."""

    def __init__(self, events: List[Dict[str, Any]]):
        self._events = events
        self._tids: Dict[Tuple[int, str], int] = {}

    def tid(self, pid: int, track: str) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = len(self._tids) + 1
            self._events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid


def chrome_trace(cells: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event JSON for the traced cells of an artifact.

    ``cells`` is an iterable of dicts with at least ``key`` and ``trace``
    (a :func:`~repro.obs.tracer.merge_traces` fragment) -- exactly the
    shape of a traced run artifact's ``cells`` list.
    """
    events: List[Dict[str, Any]] = []
    tids = _TidAllocator(events)
    next_pid = 1
    for cell in cells:
        trace = cell["trace"]
        groups = trace.get("groups", ["run"])
        pid_of: Dict[int, int] = {}
        for group_id, label in enumerate(groups):
            pid = pid_of[group_id] = next_pid
            next_pid += 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{cell['key']} · {label}"},
                }
            )
        for span in trace.get("spans", ()):
            pid = pid_of[span.get("group", 0)]
            tid = tids.tid(pid, span["track"])
            event: Dict[str, Any] = {
                "name": span["name"],
                "cat": span.get("cat", "phase"),
                "pid": pid,
                "tid": tid,
                "ts": _scale(span["t0_s"]),
            }
            if span.get("t1_s") is None:
                event["ph"] = "B"
            else:
                event["ph"] = "X"
                event["dur"] = _scale(span["t1_s"] - span["t0_s"])
            if span.get("args"):
                event["args"] = span["args"]
            events.append(event)
        for inst in trace.get("instants", ()):
            pid = pid_of[inst.get("group", 0)]
            event = {
                "name": inst["name"],
                "cat": inst.get("cat", "instant"),
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tids.tid(pid, inst["track"]),
                "ts": _scale(inst["t_s"]),
            }
            events.append(event)
        for series in trace.get("counters", ()):
            pid = pid_of[series.get("group", 0)]
            tid = tids.tid(pid, series["track"])
            for t_s, value in series["points"]:
                events.append(
                    {
                        "name": f"{series['track']}:{series['name']}",
                        "ph": "C",
                        "pid": pid,
                        "tid": tid,
                        "ts": _scale(t_s),
                        "args": {series["name"]: value},
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_rollups(trace: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-span-name totals of one trace fragment, sorted by descending time.

    Only closed spans contribute; each entry reports how many spans carried
    the name and the total/max simulated seconds they covered.  This is the
    ``rollups`` block of a traced cell in a run artifact.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for span in trace.get("spans", ()):
        t1 = span.get("t1_s")
        if t1 is None:
            continue
        duration = t1 - span["t0_s"]
        entry = totals.get(span["name"])
        if entry is None:
            totals[span["name"]] = {"count": 1, "total_sim_s": duration, "max_sim_s": duration}
        else:
            entry["count"] += 1
            entry["total_sim_s"] += duration
            entry["max_sim_s"] = max(entry["max_sim_s"], duration)
    return dict(
        sorted(totals.items(), key=lambda item: (-item[1]["total_sim_s"], item[0]))
    )


def merge_rollups(
    per_cell: Iterable[Dict[str, Dict[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Fold per-cell span rollups into one aggregate block."""
    merged: Dict[str, Dict[str, Any]] = {}
    for rollup in per_cell:
        for name, entry in rollup.items():
            into = merged.get(name)
            if into is None:
                merged[name] = dict(entry)
            else:
                into["count"] += entry["count"]
                into["total_sim_s"] += entry["total_sim_s"]
                into["max_sim_s"] = max(into["max_sim_s"], entry["max_sim_s"])
    return dict(
        sorted(merged.items(), key=lambda item: (-item[1]["total_sim_s"], item[0]))
    )


def format_rollups(rollups: Dict[str, Dict[str, Any]]) -> str:
    """A fixed-width text table of span rollups for terminal output."""
    lines = [f"  {'span':<18} {'count':>7} {'total sim s':>12} {'max sim s':>10}"]
    for name, entry in rollups.items():
        lines.append(
            f"  {name:<18} {entry['count']:>7} "
            f"{entry['total_sim_s']:>12.3f} {entry['max_sim_s']:>10.3f}"
        )
    if not rollups:
        lines.append("  (no closed spans recorded)")
    return "\n".join(lines)
