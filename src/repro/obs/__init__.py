"""Deterministic sim-time tracing and metrics (``repro.obs``).

Each simulated cloud built inside a traced
:func:`~repro.cluster.cloud.clouds` scope records spans, instant events,
gauges and histograms on the *simulated* clock into its own
:class:`~repro.obs.tracer.Tracer`; :func:`~repro.obs.tracer.merge_traces`
joins a cell's clouds into one fragment, and the exports render it as Chrome
trace-event JSON (Perfetto-loadable) or fold it into the span rollups
``blobcr-repro trace`` prints.  An untraced cloud has no tracer and pays
nothing; see ``docs/observability.md`` for the design and the determinism
contract.
"""

from repro.obs.export import chrome_trace, format_rollups, merge_rollups, span_rollups
from repro.obs.tracer import HISTOGRAM_QUANTILES, Tracer, exact_quantile, merge_traces

__all__ = [
    "Tracer",
    "merge_traces",
    "exact_quantile",
    "HISTOGRAM_QUANTILES",
    "chrome_trace",
    "span_rollups",
    "merge_rollups",
    "format_rollups",
]
