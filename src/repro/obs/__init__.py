"""Observability subsystem: spans, metrics, exporters and trace analysis.

The substrate's per-rank :class:`~repro.simmpi.trace.Trace` accounts raw
communication volumes per *phase*; this package turns those recordings into
a first-class observability layer:

* :mod:`repro.obs.spans` — hierarchical, timestamped spans (name, rank,
  start/end, parent, attributes) recorded per rank when a trace is
  configured at ``level="span"``.  Near-zero overhead when disabled.
* :mod:`repro.obs.metrics` — a per-rank metrics registry (counters,
  gauges, fixed-bucket histograms, quantile sketches) plus cross-rank
  aggregation with min/max/mean/p50/p99.
* :mod:`repro.obs.sketch` — streaming fixed-compression quantile sketches
  (t-digest family): online p50/p95/p99/p999 without raw samples,
  mergeable across ranks with a documented rank-error bound.
* :mod:`repro.obs.timeline` — the continuous telemetry timeline: a bounded
  ring buffer of tick-tagged operation samples (``repro.obs/timeline/v1``)
  fed by the checkpoint service and the dst executor.
* :mod:`repro.obs.slo` — declarative SLOs with deterministic multi-window
  burn-rate alerting over the timeline (``repro.obs/slo/v1`` verdicts).
* :mod:`repro.obs.export` — exporters: a stable run-snapshot JSON schema,
  Chrome trace-event JSON (loadable in Perfetto, one track per rank) and
  Prometheus-style text exposition.
* :mod:`repro.obs.schema` — structural validators for the run snapshot,
  timelines and SLO verdicts.
* :mod:`repro.obs.analyzer` — loads an exported run and computes per-phase
  critical-path breakdowns, rank skew (straggler detection) and A/B diffs
  between two runs (the engine behind ``repro-eval trace``).

Spans and metrics ride the per-rank trace, so they transport through the
process backend's child→parent pickle path exactly like the phase counters
and merge rank-ordered on the parent (``world.comms[r].trace``).

Enable span recording per dump with ``DumpConfig(trace_level="span")`` or
globally with ``REPRO_TRACE=span``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
    aggregate_registries,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.spans import Span
from repro.obs.timeline import TimelineSample, TimelineStore

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "QuantileSketch",
    "SIZE_BUCKETS",
    "Span",
    "TimelineSample",
    "TimelineStore",
    "aggregate_registries",
    # lazily re-exported (see __getattr__): capture_run, merge_traces,
    # chrome_trace, prometheus_text, write_run, write_chrome_trace,
    # validate_run, validate_timeline, validate_slo, load_run, SLOEngine,
    # Objective, parse_objective, format_slo_report
]

#: Lazy re-exports.  ``repro.simmpi.trace`` imports :mod:`repro.obs.spans`
#: and :mod:`repro.obs.metrics` at module level, which executes this
#: ``__init__``; importing the exporters/analyzer here eagerly would close
#: an import cycle back into ``repro.simmpi``.  PEP 562 keeps the public
#: surface flat without the cycle.
_LAZY = {
    "capture_run": "repro.obs.export",
    "merge_traces": "repro.obs.export",
    "chrome_trace": "repro.obs.export",
    "prometheus_text": "repro.obs.export",
    "write_run": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "SchemaError": "repro.obs.schema",
    "validate_run": "repro.obs.schema",
    "validate_timeline": "repro.obs.schema",
    "validate_slo": "repro.obs.schema",
    "load_run": "repro.obs.analyzer",
    "SLOEngine": "repro.obs.slo",
    "Objective": "repro.obs.slo",
    "parse_objective": "repro.obs.slo",
    "format_slo_report": "repro.obs.slo",
    "DEFAULT_OBJECTIVES": "repro.obs.slo",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
