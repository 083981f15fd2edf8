"""Structural validation of run snapshots."""

import pytest

from repro.obs.schema import RUN_SCHEMA_ID, SchemaError, validate_run


def minimal_run():
    return {
        "schema": RUN_SCHEMA_ID,
        "host": "testhost",
        "cores": 2,
        "meta": {},
        "ranks": [
            {
                "rank": 0,
                "level": "span",
                "phases": {"hash": {"sent_bytes": 1, "seconds": 0.5}},
                "spans": [
                    {"name": "dump", "rank": 0, "start": 1.0, "end": 2.0,
                     "parent": -1, "attrs": {}},
                    {"name": "hash", "rank": 0, "start": 1.1, "end": 1.9,
                     "parent": 0, "attrs": {"chunks": 4}},
                ],
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            }
        ],
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


class TestValidateRun:
    def test_accepts_minimal(self):
        assert validate_run(minimal_run()) is not None

    def test_rejects_wrong_schema_id(self):
        doc = minimal_run()
        doc["schema"] = "repro.obs/run/v0"
        with pytest.raises(SchemaError, match="schema"):
            validate_run(doc)

    def test_rejects_missing_host(self):
        doc = minimal_run()
        del doc["host"]
        with pytest.raises(SchemaError, match="host"):
            validate_run(doc)

    def test_rejects_empty_ranks(self):
        doc = minimal_run()
        doc["ranks"] = []
        with pytest.raises(SchemaError, match="ranks"):
            validate_run(doc)

    def test_rejects_duplicate_ranks(self):
        doc = minimal_run()
        doc["ranks"].append(dict(doc["ranks"][0]))
        with pytest.raises(SchemaError, match="duplicate rank"):
            validate_run(doc)

    def test_rejects_span_end_before_start(self):
        doc = minimal_run()
        doc["ranks"][0]["spans"][0]["end"] = 0.5
        with pytest.raises(SchemaError, match="before start"):
            validate_run(doc)

    def test_rejects_forward_parent_reference(self):
        doc = minimal_run()
        doc["ranks"][0]["spans"][0]["parent"] = 1
        with pytest.raises(SchemaError, match="earlier span"):
            validate_run(doc)

    def test_rejects_parent_below_root(self):
        doc = minimal_run()
        doc["ranks"][0]["spans"][1]["parent"] = -5
        with pytest.raises(SchemaError, match="earlier span"):
            validate_run(doc)

    def test_rejects_negative_rank(self):
        doc = minimal_run()
        doc["ranks"][0]["rank"] = -3
        with pytest.raises(SchemaError, match="rank"):
            validate_run(doc)

    def test_rejects_non_numeric_phase_counter(self):
        doc = minimal_run()
        doc["ranks"][0]["phases"]["hash"]["sent_bytes"] = "many"
        with pytest.raises(SchemaError, match="number"):
            validate_run(doc)

    def test_rejects_non_mapping(self):
        with pytest.raises(SchemaError):
            validate_run([])

