"""DumpConfig / Strategy validation."""

import dataclasses

import pytest

from repro.core.config import DumpConfig, Strategy


class TestStrategy:
    def test_parse_value(self):
        assert Strategy.parse("coll-dedup") is Strategy.COLL_DEDUP
        assert Strategy.parse("no-dedup") is Strategy.NO_DEDUP
        assert Strategy.parse("local-dedup") is Strategy.LOCAL_DEDUP

    def test_parse_name(self):
        assert Strategy.parse("NO_DEDUP") is Strategy.NO_DEDUP

    def test_parse_passthrough(self):
        assert Strategy.parse(Strategy.COLL_DEDUP) is Strategy.COLL_DEDUP

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.parse("super-dedup")


class TestDumpConfig:
    def test_defaults_match_paper(self):
        cfg = DumpConfig()
        assert cfg.replication_factor == 3
        assert cfg.chunk_size == 4096
        assert cfg.f_threshold == 1 << 17
        assert cfg.hash_name == "sha1"
        assert cfg.strategy is Strategy.COLL_DEDUP
        assert cfg.shuffle is True

    def test_string_strategy_coerced(self):
        assert DumpConfig(strategy="no-dedup").strategy is Strategy.NO_DEDUP

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replication_factor": 0},
            {"chunk_size": 0},
            {"f_threshold": 0},
            {"replication_factor": -3},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            DumpConfig(**kwargs)

    def test_with_creates_modified_copy(self):
        base = DumpConfig(replication_factor=3)
        other = base.with_(replication_factor=5, shuffle=False)
        assert other.replication_factor == 5
        assert other.shuffle is False
        assert base.replication_factor == 3

    def test_effective_k_caps_at_world(self):
        cfg = DumpConfig(replication_factor=6)
        assert cfg.effective_k(4) == 4
        assert cfg.effective_k(100) == 6

    def test_frozen(self):
        with pytest.raises(Exception):
            DumpConfig().replication_factor = 9

    def test_field_names_are_pinned(self):
        """Every knob of the dump, by name: a new field shows up here."""
        assert [f.name for f in dataclasses.fields(DumpConfig)] == [
            "replication_factor", "chunk_size", "f_threshold", "hash_name",
            "strategy", "shuffle", "chunking", "compress",
            "redundancy", "stripe_data", "dedup_domain_size", "trace_level",
            "pipelined", "chain_delta",
        ]
