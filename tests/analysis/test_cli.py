"""The repro-eval command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import own_shm_segments


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.app == "hpccg"
        assert args.n == [64]
        assert args.k == 3

    def test_multi_n(self):
        args = build_parser().parse_args(["fig3a", "--app", "cm1", "--n", "12", "120"])
        assert args.n == [12, 120]

    def test_bad_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--app", "lammps"])


class TestCommands:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "200" in out and "110" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--app", "hpccg", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "no-dedup" in out and "baseline" in out

    def test_fig3a_small(self, capsys):
        assert main(["fig3a", "--app", "cm1", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "unique content" in out
        assert "%" in out

    def test_sweep_k_small(self, capsys):
        assert main(["sweep-k", "--app", "cm1", "--n", "9", "--k", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "coll-dedup" in out

    def test_shuffle_small(self, capsys):
        assert main(["shuffle", "--app", "cm1", "--n", "9", "--k", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "coll-no-shuffle" in out


class TestRepairCommand:
    def test_repair_small(self, capsys):
        assert main(["repair", "--n", "6", "--k", "3", "--fail", "2"]) == 0
        out = capsys.readouterr().out
        assert "post-repair audit: all recoverable" in out
        assert "moved (repair)" in out
        assert "modelled repair time" in out

    def test_repair_defaults(self):
        args = build_parser().parse_args(["repair"])
        assert args.n == [8] and args.k == 3 and args.fail == 2

    def test_repair_rejects_failing_every_node(self):
        with pytest.raises(SystemExit):
            main(["repair", "--n", "4", "--fail", "4"])


class TestTraceCommands:
    def test_record_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        perfetto = tmp_path / "perfetto.json"
        assert main([
            "trace-record", "--n", "3", "--chunks-per-rank", "4",
            "--out", str(out), "--perfetto", str(perfetto),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "3 ranks" in stdout and "spans" in stdout
        assert "ui.perfetto.dev" in stdout
        assert out.exists() and perfetto.exists()

        assert main(["trace", str(out)]) == 0
        report = capsys.readouterr().out
        assert "critical path" in report
        assert "rank skew" in report

    def test_trace_record_defaults(self):
        args = build_parser().parse_args(["trace-record"])
        assert args.n == 4 and args.k == 3
        assert args.backend is None
        assert args.out == "trace_run.json"


class TestErrorExitCodes:
    def test_unknown_subcommand_one_line_error(self, capsys):
        assert main(["bogus-subcmd"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "invalid choice" in err

    def test_no_subcommand_exits_nonzero(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_bad_backend_exits_nonzero(self, capsys):
        assert main(["trace-record", "--backend", "banana"]) == 2
        err = capsys.readouterr().err
        assert "repro-eval: unknown SPMD backend 'banana'" in err

    def test_missing_trace_file_exits_nonzero(self, capsys):
        assert main(["trace", "/nonexistent/run.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-eval: ")
        assert err.count("\n") == 1

    def test_malformed_snapshot_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["trace", str(path)]) == 2
        assert "repro-eval: " in capsys.readouterr().err

    def test_bad_flag_value_one_line_error(self, capsys):
        assert main(["trace-record", "--n", "many"]) == 2
        assert "invalid int value" in capsys.readouterr().err


@pytest.fixture
def worlds(monkeypatch):
    """The backend of every world the command spawns, in order."""
    import repro.core.runner as runner

    seen = []
    real = runner.create_world

    def spy(size, backend=None, timeout=None):
        seen.append(backend)
        return real(size, backend=backend, timeout=timeout)

    monkeypatch.setattr(runner, "create_world", spy)
    return seen


WORLD_COMMANDS = {
    "repair": ["repair", "--n", "3", "--k", "2", "--fail", "1"],
    "trace-record": ["trace-record", "--n", "2", "--out", "{tmp}/run.json"],
    "chain": ["chain", "--n", "2", "--epochs", "3"],
    "serve": ["serve", "--tenants", "2", "--dumps", "1", "--n", "2"],
    "slo": ["slo", "--tenants", "2", "--bursts", "2", "--n", "2"],
}


@pytest.mark.parametrize("command", sorted(WORLD_COMMANDS))
class TestWorldDrivingCommands:
    """Every subcommand that spawns a world resolves its backend the same
    way: the flag, else ``REPRO_SPMD_BACKEND``, else thread."""

    @staticmethod
    def argv(command, tmp_path, *extra):
        tiny = ["--chunks-per-rank", "4", "--chunk-size", "64"]
        base = [arg.format(tmp=tmp_path) for arg in WORLD_COMMANDS[command]]
        return base + tiny + list(extra)

    def test_process_flag_runs_clean(self, command, tmp_path, worlds, capsys):
        before = own_shm_segments()
        assert main(self.argv(command, tmp_path, "--backend", "process")) == 0
        assert worlds and set(worlds) == {"process"}
        assert own_shm_segments() <= before

    def test_environment_reaches_the_world(
        self, command, tmp_path, worlds, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SPMD_BACKEND", "process")
        assert main(self.argv(command, tmp_path)) == 0
        assert worlds and set(worlds) == {"process"}

    def test_bad_backend_is_one_line_before_any_world(
        self, command, tmp_path, worlds, capsys
    ):
        assert main(self.argv(command, tmp_path, "--backend", "banana")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown SPMD backend 'banana'" in err
        assert worlds == []
