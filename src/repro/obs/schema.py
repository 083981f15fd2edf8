"""Stable JSON schemas for observability exports.

Three document families share this module:

* **run snapshots** (``repro.obs/run/v1``) — the machine-readable export of
  one traced collective run: per-rank phase counters, spans and metrics
  plus the cross-rank aggregation.  Written by
  :func:`repro.obs.export.write_run`, consumed by
  :mod:`repro.obs.analyzer` and the ``repro-eval trace`` subcommand.
* **telemetry timelines** (``repro.obs/timeline/v1``) — serialized
  :class:`~repro.obs.timeline.TimelineStore` ring buffers: tick-tagged
  operation samples plus the online quantile sketches.
* **SLO verdicts** (``repro.obs/slo/v1``) — the deterministic output of
  the :class:`~repro.obs.slo.SLOEngine`: objectives, windows and the
  fire/resolve alert timeline.

Validation is structural (no external jsonschema dependency): required
keys, types and value ranges.  Failures raise :class:`SchemaError` naming
the offending path.
"""

from __future__ import annotations

import numbers
from typing import Any, Mapping

RUN_SCHEMA_ID = "repro.obs/run/v1"
TIMELINE_SCHEMA_ID = "repro.obs/timeline/v1"
SLO_SCHEMA_ID = "repro.obs/slo/v1"


class SchemaError(ValueError):
    """A document does not conform to its declared schema."""


def _fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


def _require(doc: Mapping, key: str, kind, path: str):
    if key not in doc:
        _fail(f"{path}.{key}", "missing required key")
    value = doc[key]
    if kind is float:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            _fail(f"{path}.{key}", f"expected a number, got {type(value).__name__}")
    elif kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(f"{path}.{key}", f"expected an int, got {type(value).__name__}")
    elif not isinstance(value, kind):
        _fail(
            f"{path}.{key}",
            f"expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}",
        )
    return value


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# -- run snapshots ------------------------------------------------------------
def validate_run(doc: Mapping[str, Any]) -> Mapping[str, Any]:
    """Validate a run snapshot; returns it unchanged on success."""
    if not isinstance(doc, Mapping):
        _fail("$", f"expected an object, got {type(doc).__name__}")
    schema = _require(doc, "schema", str, "$")
    if schema != RUN_SCHEMA_ID:
        _fail("$.schema", f"expected {RUN_SCHEMA_ID!r}, got {schema!r}")
    _require(doc, "host", str, "$")
    cores = _require(doc, "cores", int, "$")
    if cores < 1:
        _fail("$.cores", f"must be >= 1, got {cores}")
    _require(doc, "meta", Mapping, "$")
    ranks = _require(doc, "ranks", list, "$")
    if not ranks:
        _fail("$.ranks", "must contain at least one rank")
    seen = set()
    for i, entry in enumerate(ranks):
        path = f"$.ranks[{i}]"
        if not isinstance(entry, Mapping):
            _fail(path, "expected an object")
        rank = _require(entry, "rank", int, path)
        if rank < 0:
            _fail(f"{path}.rank", f"must be >= 0, got {rank}")
        if rank in seen:
            _fail(f"{path}.rank", f"duplicate rank {rank}")
        seen.add(rank)
        phases = _require(entry, "phases", Mapping, path)
        for name, counters in phases.items():
            if not isinstance(counters, Mapping):
                _fail(f"{path}.phases[{name!r}]", "expected an object")
            for key, value in counters.items():
                if not _is_number(value):
                    _fail(
                        f"{path}.phases[{name!r}].{key}",
                        f"expected a number, got {type(value).__name__}",
                    )
        spans = _require(entry, "spans", list, path)
        for j, span in enumerate(spans):
            spath = f"{path}.spans[{j}]"
            if not isinstance(span, Mapping):
                _fail(spath, "expected an object")
            _require(span, "name", str, spath)
            start = _require(span, "start", float, spath)
            end = _require(span, "end", float, spath)
            if end < start:
                _fail(spath, f"end {end} before start {start}")
            parent = _require(span, "parent", int, spath)
            if not -1 <= parent < j:
                _fail(
                    f"{spath}.parent",
                    f"must reference an earlier span, got {parent}",
                )
            _require(span, "attrs", Mapping, spath)
        _require(entry, "metrics", Mapping, path)
    _require(doc, "metrics", Mapping, "$")
    return doc


# -- telemetry timelines -------------------------------------------------------
def validate_timeline(doc: Mapping[str, Any]) -> Mapping[str, Any]:
    """Validate a serialized timeline; returns it unchanged on success."""
    if not isinstance(doc, Mapping):
        _fail("$", f"expected an object, got {type(doc).__name__}")
    schema = _require(doc, "schema", str, "$")
    if schema != TIMELINE_SCHEMA_ID:
        _fail("$.schema", f"expected {TIMELINE_SCHEMA_ID!r}, got {schema!r}")
    capacity = _require(doc, "capacity", int, "$")
    if capacity < 0:
        _fail("$.capacity", f"must be >= 0, got {capacity}")
    recorded = _require(doc, "recorded", int, "$")
    dropped = _require(doc, "dropped", int, "$")
    if recorded < 0 or dropped < 0 or dropped > recorded:
        _fail("$", f"inconsistent counts: recorded={recorded} dropped={dropped}")
    samples = _require(doc, "samples", list, "$")
    last_tick = None
    for i, sample in enumerate(samples):
        path = f"$.samples[{i}]"
        if not isinstance(sample, Mapping):
            _fail(path, "expected an object")
        tick = _require(sample, "tick", int, path)
        if last_tick is not None and tick < last_tick:
            _fail(f"{path}.tick", f"ticks must be non-decreasing, "
                                  f"got {tick} after {last_tick}")
        last_tick = tick
        op = _require(sample, "op", str, path)
        if not op:
            _fail(f"{path}.op", "must be non-empty")
        values = _require(sample, "values", Mapping, path)
        for key, value in values.items():
            if not _is_number(value):
                _fail(
                    f"{path}.values[{key!r}]",
                    f"expected a number, got {type(value).__name__}",
                )
    sketches = _require(doc, "sketches", Mapping, "$")
    for name, sk in sketches.items():
        path = f"$.sketches[{name!r}]"
        if not isinstance(sk, Mapping):
            _fail(path, "expected an object")
        count = _require(sk, "count", int, path)
        if count < 0:
            _fail(f"{path}.count", f"must be >= 0, got {count}")
        means = _require(sk, "means", list, path)
        weights = _require(sk, "weights", list, path)
        if len(means) != len(weights):
            _fail(path, f"means/weights length mismatch: "
                        f"{len(means)} vs {len(weights)}")
    return doc


# -- SLO verdicts --------------------------------------------------------------
def validate_slo(doc: Mapping[str, Any]) -> Mapping[str, Any]:
    """Validate an SLO verdict document; returns it unchanged on success."""
    if not isinstance(doc, Mapping):
        _fail("$", f"expected an object, got {type(doc).__name__}")
    schema = _require(doc, "schema", str, "$")
    if schema != SLO_SCHEMA_ID:
        _fail("$.schema", f"expected {SLO_SCHEMA_ID!r}, got {schema!r}")
    objectives = _require(doc, "objectives", list, "$")
    if not objectives:
        _fail("$.objectives", "must contain at least one objective")
    for i, obj in enumerate(objectives):
        path = f"$.objectives[{i}]"
        if not isinstance(obj, Mapping):
            _fail(path, "expected an object")
        for key in ("op", "field", "stat", "cmp"):
            _require(obj, key, str, path)
        _require(obj, "threshold", float, path)
    windows = _require(doc, "windows", list, "$")
    if not windows:
        _fail("$.windows", "must contain at least one window")
    _require(doc, "ticks", int, "$")
    alerts = _require(doc, "alerts", list, "$")
    for i, alert in enumerate(alerts):
        path = f"$.alerts[{i}]"
        if not isinstance(alert, Mapping):
            _fail(path, "expected an object")
        _require(alert, "tick", int, path)
        _require(alert, "objective", str, path)
        event = _require(alert, "event", str, path)
        if event not in ("fire", "resolve"):
            _fail(f"{path}.event",
                  f"expected 'fire' or 'resolve', got {event!r}")
    _require(doc, "ok", bool, "$")
    return doc
