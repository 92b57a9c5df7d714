"""Deterministic sim-time tracing and metrics (``repro.obs``).

A process-global :data:`~repro.obs.tracer.TRACER` records spans, instant
events, gauges and histograms on the *simulated* clock; exports render the
recording as Chrome trace-event JSON (Perfetto-loadable) or fold it into
the span rollups ``blobcr-repro trace`` prints.  Disabled by default with zero
overhead; see ``docs/observability.md`` for the design and the determinism
contract.
"""

from repro.obs.export import chrome_trace, format_rollups, merge_rollups, span_rollups
from repro.obs.tracer import HISTOGRAM_QUANTILES, TRACER, Tracer, exact_quantile, tracing

__all__ = [
    "TRACER",
    "Tracer",
    "tracing",
    "exact_quantile",
    "HISTOGRAM_QUANTILES",
    "chrome_trace",
    "span_rollups",
    "merge_rollups",
    "format_rollups",
]
