"""repro.obs — tracing and unified metrics.

The observability subsystem sits at the bottom of the layering
(stdlib-only, no engine imports), so the service, pipeline, cluster,
graph and store layers can all record into it without cycles:

* :mod:`repro.obs.trace` — hierarchical spans with context-local
  propagation, a ring-buffer span store, JSONL export, the slow-op log
  and the structured-line helpers;
* :mod:`repro.obs.metrics` — the process-global metric registry
  (counters, gauges, named and per-route histograms) rendered at
  ``/metrics``.
"""

from repro.obs.metrics import (
    BUCKETS,
    Histogram,
    Metrics,
    escape_label_value,
    get_metrics,
    reset_metrics,
    set_global_metrics,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    collect_notes,
    configure_tracing,
    current_span,
    format_fields,
    get_tracer,
    note,
    render_trace,
    set_tracer,
)

__all__ = [
    "BUCKETS",
    "Histogram",
    "Metrics",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "collect_notes",
    "configure_tracing",
    "current_span",
    "escape_label_value",
    "format_fields",
    "get_metrics",
    "get_tracer",
    "note",
    "render_trace",
    "reset_metrics",
    "set_global_metrics",
    "set_tracer",
]
