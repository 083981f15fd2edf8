"""The ``repro-eval serve`` subcommand: report output, GC, metrics file;
and the other subcommands that dump through the service."""

import json

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke

BASE = [
    "serve", "--tenants", "2", "--dumps", "2", "--overlap", "0.5",
    "--n", "4", "--chunks-per-rank", "8", "--chunk-size", "64",
]


class TestServe:
    def test_prints_the_service_report(self, capsys):
        assert main(BASE) == 0
        text = capsys.readouterr().out
        assert "service: 2 tenants on 4 ranks" in text
        assert "tenant-0" in text and "tenant-1" in text
        assert "cross-tenant:" in text
        assert "dedup ratio" in text
        assert "store:" in text and "8 shards" in text
        assert "queue:" in text

    def test_ranks_per_node_builds_the_block_map(self, capsys, monkeypatch):
        from repro.svc import CheckpointService

        built = []
        init = CheckpointService.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.cluster.rank_to_node)

        monkeypatch.setattr(CheckpointService, "__init__", spy)
        assert main(BASE + ["--ranks-per-node", "2"]) == 0
        assert built == [[0, 0, 1, 1]]
        assert "placement: 4 ranks on 2 nodes" in capsys.readouterr().out

    def test_bad_ranks_per_node_is_refused(self):
        with pytest.raises(SystemExit, match="ranks-per-node"):
            main(BASE + ["--ranks-per-node", "0"])

    def test_gc_oldest_reports_cross_tenant_retention(self, capsys):
        assert main(BASE + ["--gc-oldest"]) == 0
        text = capsys.readouterr().out
        assert "gc tenant-0 dump 0:" in text
        assert "cross-tenant" in text

    def test_out_writes_a_valid_run_snapshot(self, capsys, tmp_path):
        out = str(tmp_path / "svc_run.json")
        assert main(BASE + ["--out", out]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        run = json.load(open(out))
        assert run["schema"] == "repro.obs/run/v1"
        assert run["meta"]["source"] == "repro.svc"
        (entry,) = run["ranks"]
        gauges = entry["metrics"]["gauges"]
        assert "svc_queue_depth" in gauges
        assert "svc_cross_tenant_dedup_ratio" in gauges
        assert entry["metrics"]["counters"]["svc_dumps_completed"] == 4

    def test_quota_rejections_are_reported_not_fatal(self, capsys):
        argv = BASE + ["--quota-rate", "1", "--dumps", "3"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "rejected tenant-0 dump" in text
        assert "rejections" in text

    def test_split_attribution(self, capsys):
        assert main(BASE + ["--attribution", "split"]) == 0
        assert "split attribution" in capsys.readouterr().out

    def test_bad_tenant_count_is_a_one_line_error(self, capsys):
        assert main(["serve", "--tenants", "not-a-number"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1


class TestServeSLO:
    def test_slo_flag_adds_the_report_section(self, capsys):
        assert main(BASE + ["--slo"]) == 0
        text = capsys.readouterr().out
        assert "slo:" in text

    def test_top_every_prints_dashboard_lines(self, capsys):
        assert main(BASE + ["--slo", "--top-every", "1"]) == 0
        text = capsys.readouterr().out
        assert "top · " in text
        assert "queue=" in text


class TestSloCommand:
    ARGS = [
        "slo", "--seed", "7", "--tenants", "2", "--bursts", "4",
        "--n", "4", "--chunks-per-rank", "4", "--chunk-size", "64",
    ]

    def test_prints_a_burn_rate_report(self, capsys):
        assert main(self.ARGS) == 0
        text = capsys.readouterr().out
        assert "slo report" in text
        assert "dump.queue_wait_ticks.p95 < 2" in text

    def test_same_seed_same_verdict_bytes(self, tmp_path, capsys):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert main(self.ARGS + ["--out", out_a]) == 0
        assert main(self.ARGS + ["--out", out_b]) == 0
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        from repro.obs.schema import validate_slo
        validate_slo(json.loads(a))

    def test_timeline_out_is_a_valid_document(self, tmp_path, capsys):
        out = str(tmp_path / "timeline.json")
        assert main(self.ARGS + ["--timeline-out", out]) == 0
        from repro.obs.schema import validate_timeline
        validate_timeline(json.loads((tmp_path / "timeline.json").read_text()))

    def test_custom_objective(self, capsys):
        argv = self.ARGS + ["--objective", "dump.latency_s.p99 < 100"]
        assert main(argv) == 0
        assert "dump.latency_s.p99 < 100" in capsys.readouterr().out

    def test_malformed_objective_is_a_one_line_error(self, capsys):
        argv = self.ARGS + ["--objective", "nope"]
        assert main(argv) == 2
        assert "repro-eval:" in capsys.readouterr().err

    def test_check_exits_one_when_alerts_fired(self, capsys):
        # Seeded bursty driver with a hair-trigger objective: any queue
        # wait at all violates, so the alert fires and --check gates.
        argv = [
            "slo", "--seed", "3", "--tenants", "3", "--bursts", "6",
            "--n", "4", "--chunks-per-rank", "4", "--chunk-size", "64",
            "--objective", "dump.queue_wait_ticks.p50 <= 0",
            "--check",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "fire@t" in out

    def test_check_passes_a_quiet_run(self):
        # A permissive objective never violates, so --check is clean.
        argv = self.ARGS + [
            "--objective", "dump.queue_wait_ticks.p95 < 1e9", "--check",
        ]
        assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["repair", "--n", "3", "--k", "2", "--fail", "1"],
    ["trace-record", "--n", "3", "--out", "{tmp}/run.json"],
], ids=["repair", "trace-record"])
def test_cli_dumps_reach_dump_output_only_through_chain_dump(
    argv, tmp_path, monkeypatch, capsys
):
    """A CLI dump is an epoch of a service tenant's chain: every rank's
    ``dump_output`` runs inside ``ChainManager.chain_dump``."""
    import repro.core.dump
    from repro.chain import ChainManager

    real_dump, real_chain_dump = (
        repro.core.dump.dump_output, ChainManager.chain_dump
    )
    inside, calls = [], []

    def chain_dump(self, *args, **kwargs):
        inside.append(True)
        try:
            return real_chain_dump(self, *args, **kwargs)
        finally:
            inside.pop()

    def dump_output(*args, **kwargs):
        calls.append(bool(inside))
        return real_dump(*args, **kwargs)

    monkeypatch.setattr(ChainManager, "chain_dump", chain_dump)
    monkeypatch.setattr(repro.core.dump, "dump_output", dump_output)
    argv = [arg.format(tmp=tmp_path) for arg in argv] + [
        "--chunks-per-rank", "4", "--chunk-size", "64", "--backend", "thread",
    ]
    assert main(argv) == 0
    assert calls == [True] * 3
