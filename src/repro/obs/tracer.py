"""The per-cloud sim-time tracer.

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

* **One tracer per cloud, and only when tracing.**  A cloud built inside a
  traced :func:`repro.cluster.cloud.clouds` scope gets its own
  :class:`Tracer` on ``env.tracer``; otherwise ``env.tracer`` is ``None``,
  and no cloud can record into another's trace.  A phase is one call,
  ``with env.phase(...)``, which returns a shared inert object when
  untraced; gauges and histograms guard with ``tracer is not None``.
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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.util.stats import SUMMARY_QUANTILES, exact_quantile, summarize

#: quantiles reported for every histogram (exact nearest-rank, not estimates;
#: shared with the service layer's SLO rows via :mod:`repro.util.stats`)
HISTOGRAM_QUANTILES = SUMMARY_QUANTILES

# indices into the mutable span record (a list, so `end` can patch in place)
_NAME, _CAT, _TRACK, _T0, _T1, _ARGS = range(6)

__all__ = ["HISTOGRAM_QUANTILES", "Tracer", "exact_quantile", "merge_traces"]


class Tracer:
    """Recorder of one simulated cloud's spans, instants, gauges and histograms.

    ``label`` names the cloud's group in a merged trace (:func:`merge_traces`).
    ``begin``/``end`` return/consume integer span handles, so a span stays
    open across its phase's generator suspensions; only the kernel calls
    them (processes and :meth:`repro.sim.core.Environment.phase`).
    """

    __slots__ = ("label", "_spans", "_instants", "_series", "_hists")

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self._spans: List[list] = []
        self._instants: List[tuple] = []
        #: (track, name) -> [(t, value), ...], insertion-ordered
        self._series: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        #: name -> recorded values, insertion-ordered
        self._hists: Dict[str, List[float]] = {}

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
        self._spans.append([name, cat, track, t, None, args])
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
        self._instants.append((name, cat, track, t))

    def gauge(self, name: str, track: str, t: float, value: float) -> None:
        """Append one sample to the ``(track, name)`` time series."""
        self._series.setdefault((track, name), []).append((t, value))

    def observe(self, name: str, value: float) -> None:
        """Record one value into the named histogram (no time axis)."""
        self._hists.setdefault(name, []).append(value)


def merge_traces(tracers: Sequence[Tracer]) -> Dict[str, Any]:
    """One JSON-serialisable trace fragment; tracer *i* becomes group *i*.

    Span/instant/gauge order is tracer order, then recording order;
    histograms fold every tracer's values under one name and are summarised
    with exact quantiles.  The result is byte-stable across runs of the same
    deterministic simulation.  Spans still open (a process alive when the
    simulation ran out of events) carry ``t1_s: null``.
    """
    spans: List[Dict[str, Any]] = []
    instants: List[Dict[str, Any]] = []
    counters: List[Dict[str, Any]] = []
    hists: Dict[str, List[float]] = {}
    for group, tracer in enumerate(tracers):
        for record in tracer._spans:
            span: Dict[str, Any] = {
                "name": record[_NAME],
                "cat": record[_CAT],
                "track": record[_TRACK],
                "group": group,
                "t0_s": record[_T0],
                "t1_s": record[_T1],
            }
            if record[_ARGS]:
                span["args"] = record[_ARGS]
            spans.append(span)
        instants.extend(
            {"name": name, "cat": cat, "track": track, "group": group, "t_s": t}
            for name, cat, track, t in tracer._instants
        )
        counters.extend(
            {
                "name": name,
                "track": track,
                "group": group,
                "points": [[t, value] for t, value in points],
            }
            for (track, name), points in tracer._series.items()
        )
        for name, values in tracer._hists.items():
            hists.setdefault(name, []).extend(values)
    return {
        "groups": [tracer.label for tracer in tracers],
        "spans": spans,
        "instants": instants,
        "counters": counters,
        "histograms": {
            name: summarize(values, HISTOGRAM_QUANTILES) for name, values in hists.items()
        },
    }
