"""The process-global sim-time tracer.

The simulator already *is* a perfect profiler: every duration it produces is
a deterministic function of the model, so a trace of "what happened when on
the simulated clock" is exact, machine-independent evidence -- not a noisy
sample.  This module records that evidence:

* **spans** -- named intervals on the simulated clock (a per-instance
  checkpoint, the COMMIT's blob write, a restart's fault-in), grouped into
  *tracks* (one per VM instance / node / subsystem) inside *groups* (one per
  simulated cloud);
* **instant events** -- point occurrences such as failure injections;
* **gauges** -- time series sampled at model events (channel utilisation,
  resource queue depth, horizon-heap size);
* **histograms** -- distributions without a time axis (per-flow bytes,
  completion latencies), summarised with *exact* nearest-rank quantiles over
  every recorded value.

Design rules:

* **Zero overhead when off.**  The tracer is disabled by default and every
  instrumentation point in the simulator guards itself with a single
  ``if TRACER.enabled:`` attribute test; nothing is allocated, formatted or
  stored on the hot path of an untraced run.
* **Write-only.**  Nothing in the simulation ever reads the tracer, so
  enabling it cannot change any result -- experiment rows are byte-identical
  with tracing on and off.
* **Deterministic.**  All timestamps are simulated seconds and every
  recording site iterates in deterministic (creation/index) order, so two
  runs of the same cell produce byte-identical traces.  That is what makes a
  trace diffable regression evidence rather than just a picture; the
  determinism contract is spelled out in ``docs/observability.md``.

The module imports nothing from the simulator (only the stdlib and the
shared exact-statistics helpers of :mod:`repro.util.stats`), so every layer
(``sim``, ``blobseer``, ``core``, ``cluster``) can instrument itself without
creating an import cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.util.stats import SUMMARY_QUANTILES, exact_quantile, summarize

#: quantiles reported for every histogram (exact nearest-rank, not estimates;
#: shared with the service layer's SLO rows via :mod:`repro.util.stats`)
HISTOGRAM_QUANTILES = SUMMARY_QUANTILES

# indices into the mutable span record (a list, so `end` can patch in place)
_NAME, _CAT, _TRACK, _GROUP, _T0, _T1, _ARGS = range(7)

__all__ = ["HISTOGRAM_QUANTILES", "TRACER", "Tracer", "exact_quantile", "tracing"]


class Tracer:
    """Recorder of sim-time spans, instants, gauges and histograms.

    One process-global instance (:data:`TRACER`) exists.  A process runs one
    cell at a time, so :func:`repro.runner.cells.execute_cell` -- in whatever
    worker the cell landed -- is the one place under ``src/`` that scopes it
    (:func:`tracing` around the cell when the run asks for a trace); the
    fragment travels back on ``CellResult.trace``.  ``begin``/``end``
    return/consume integer span handles so open spans survive generator
    suspension (a ``with`` block is unnecessary and explicit handles keep
    the hot path allocation-free).
    """

    __slots__ = ("enabled", "_spans", "_instants", "_series", "_hists", "_groups", "_group")

    def __init__(self) -> None:
        self.enabled = False
        self._clear()

    def _clear(self) -> None:
        self._spans: List[list] = []
        self._instants: List[tuple] = []
        #: (group, track, name) -> [(t, value), ...], insertion-ordered
        self._series: Dict[Tuple[int, str, str], List[Tuple[float, float]]] = {}
        #: name -> recorded values, insertion-ordered
        self._hists: Dict[str, List[float]] = {}
        #: group labels; group id 0 is the implicit root group
        self._groups: List[str] = ["run"]
        self._group = 0

    # -- lifecycle -----------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded data; keeps the enabled flag."""
        self._clear()

    def begin_group(self, label: str) -> int:
        """Open a new group (one per simulated cloud); returns its id.

        Subsequent spans/instants/gauges attach to the new group, which the
        Chrome export renders as a separate "process".
        """
        self._groups.append(label)
        self._group = len(self._groups) - 1
        return self._group

    # -- recording -----------------------------------------------------------------

    def begin(
        self,
        name: str,
        track: str,
        t: float,
        cat: str = "phase",
        args: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Open a span at simulated time ``t``; returns its handle."""
        self._spans.append([name, cat, track, self._group, t, None, args])
        return len(self._spans) - 1

    def end(self, handle: int, t: float, args: Optional[Dict[str, Any]] = None) -> None:
        """Close the span behind ``handle`` at simulated time ``t``."""
        span = self._spans[handle]
        span[_T1] = t
        if args:
            merged = dict(span[_ARGS]) if span[_ARGS] else {}
            merged.update(args)
            span[_ARGS] = merged

    def instant(self, name: str, track: str, t: float, cat: str = "instant") -> None:
        """Record a point event (e.g. a failure injection) at time ``t``."""
        self._instants.append((name, cat, track, self._group, t))

    def gauge(self, name: str, track: str, t: float, value: float) -> None:
        """Append one sample to the ``(track, name)`` time series."""
        self._series.setdefault((self._group, track, name), []).append((t, value))

    def observe(self, name: str, value: float) -> None:
        """Record one value into the named histogram (no time axis)."""
        self._hists.setdefault(name, []).append(value)

    # -- introspection ----------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._spans)

    def collect(self) -> Dict[str, Any]:
        """The recorded trace as one JSON-serialisable document fragment.

        Span/instant/gauge order is recording order and histogram values are
        summarised with exact quantiles; the result is byte-stable across
        runs of the same deterministic simulation.  Spans still open (a
        process alive when the simulation ran out of events) carry
        ``t1_s: null``.
        """
        spans = []
        for record in self._spans:
            span: Dict[str, Any] = {
                "name": record[_NAME],
                "cat": record[_CAT],
                "track": record[_TRACK],
                "group": record[_GROUP],
                "t0_s": record[_T0],
                "t1_s": record[_T1],
            }
            if record[_ARGS]:
                span["args"] = record[_ARGS]
            spans.append(span)
        instants = [
            {"name": name, "cat": cat, "track": track, "group": group, "t_s": t}
            for name, cat, track, group, t in self._instants
        ]
        counters = [
            {
                "name": name,
                "track": track,
                "group": group,
                "points": [[t, value] for t, value in points],
            }
            for (group, track, name), points in self._series.items()
        ]
        histograms = {
            name: summarize(values, HISTOGRAM_QUANTILES)
            for name, values in self._hists.items()
        }
        return {
            "groups": list(self._groups),
            "spans": spans,
            "instants": instants,
            "counters": counters,
            "histograms": histograms,
        }


#: the process-global tracer (disabled by default; see the module docstring)
TRACER = Tracer()


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Enable :data:`TRACER` for the duration of a ``with`` block.

    The block starts from an empty trace; the tracer is disabled again on
    exit, but the recorded data stays available for :meth:`Tracer.collect`
    until the next reset.
    """
    TRACER.reset()
    TRACER.enable()
    try:
        yield TRACER
    finally:
        TRACER.disable()
