"""The ``repro-eval fuzz`` subcommand: sources, exit codes, artifacts."""

import contextlib
import io
import json

import pytest

from repro.cli import main
from repro.dst import Scenario, Step, load_scenario, save_scenario


def run_cli(argv):
    """main() returns 0/2; a failing fuzz run raises SystemExit(1)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSources:
    def test_seed_run_is_clean(self, capsys, tmp_path):
        out = str(tmp_path / "verdict.json")
        assert run_cli(["fuzz", "--seed", "3", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "seed 3: ok" in text
        doc = json.loads(open(out).read())
        assert doc["ok"] is True
        assert len(doc["runs"]) == 1

    def test_runs_window(self, capsys):
        assert run_cli(["fuzz", "--seed", "0", "--runs", "3"]) == 0
        text = capsys.readouterr().out
        assert "seed 0: ok" in text
        assert "seed 2: ok" in text

    def test_corpus_replay(self, capsys, memo):
        with memo.patched():
            assert run_cli(["fuzz", "--corpus"]) == 0
        text = capsys.readouterr().out
        assert "seed-0003.json: ok" in text

    def test_replay_file(self, capsys, tmp_path):
        path = str(tmp_path / "case.json")
        save_scenario(path, Scenario(seed=4, n_ranks=3, k=2,
                                     chunks_per_rank=3))
        assert run_cli(["fuzz", "--replay", path]) == 0
        assert f"{path}: ok" in capsys.readouterr().out

    def test_exactly_one_source_required(self, capsys):
        assert run_cli(["fuzz"]) == 2
        assert run_cli(["fuzz", "--seed", "1", "--corpus"]) == 2

    def test_unknown_flag_exits_2(self):
        assert run_cli(["fuzz", "--seed", "1", "--frobnicate"]) == 2

    @pytest.mark.parametrize("source", [
        ["--corpus", "EMPTY"],
        ["--seed", "3", "--runs", "0"],
        ["--seed", "3", "--runs", "-1"],
        ["--seed", "3", "--runs", "0", "--chain"],
    ])
    def test_a_sweep_that_checked_nothing_exits_2(
        self, source, capsys, tmp_path
    ):
        """No scenarios is a usage error, never a green run — and no
        vacuous ``{"ok": true, "runs": []}`` verdict file is written."""
        empty = tmp_path / "empty-corpus"
        empty.mkdir()
        out = tmp_path / "verdict.json"
        argv = [str(empty) if arg == "EMPTY" else arg for arg in source]
        assert run_cli(["fuzz", *argv, "--out", str(out)]) == 2
        assert "no scenarios to run" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_same_seed_identical_verdict_files(self, tmp_path):
        """Acceptance criterion: two runs of the same seed write
        byte-identical verdict documents."""
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run_cli(["fuzz", "--seed", "12", "--out", a]) == 0
        assert run_cli(["fuzz", "--seed", "12", "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


class TestFailurePath:
    @pytest.fixture(scope="class")
    def failing_run(self, tmp_path_factory, memo):
        shrunk = str(tmp_path_factory.mktemp("fuzz") / "shrunk.json")
        text = io.StringIO()
        with memo.patched(), contextlib.redirect_stdout(text):
            code = run_cli([
                "fuzz", "--seed", "12", "--inject-bug", "drop-replica",
                "--scenario-out", shrunk,
            ])
        return code, shrunk, text.getvalue()

    def test_injected_bug_exits_1(self, failing_run):
        code, _shrunk, text = failing_run
        assert code == 1
        assert "FAIL" in text and "[replication]" in text

    def test_shrunk_scenario_written_and_replayable(self, failing_run):
        code, shrunk, _text = failing_run
        assert code == 1
        minimal = load_scenario(shrunk)
        assert minimal.n_ranks <= 4
        assert minimal.crash_count <= 2
        # the artifact replays: clean without the bug, failing with it
        assert run_cli(["fuzz", "--replay", shrunk]) == 0
        assert run_cli([
            "fuzz", "--replay", shrunk, "--inject-bug", "drop-replica",
            "--no-shrink", "--scenario-out", shrunk + ".again",
        ]) == 1

    def test_trace_export(self, capsys, tmp_path):
        from repro.obs.analyzer import load_run

        trace = str(tmp_path / "run.json")
        assert run_cli(["fuzz", "--seed", "3", "--trace", trace]) == 0
        run = load_run(trace)  # schema-validates on load
        assert run["meta"]["source"] == "fuzz"
        assert sum(len(e["spans"]) for e in run["ranks"]) > 0

    def test_trace_needs_single_scenario(self, capsys, tmp_path):
        trace = str(tmp_path / "run.json")
        assert run_cli(
            ["fuzz", "--seed", "0", "--runs", "2", "--trace", trace]
        ) == 2


class TestStepError:
    def test_raised_step_is_a_failure_with_every_artifact(
        self, monkeypatch, capsys, tmp_path
    ):
        """A step that raises must not escape ``main()``: the sweep goes
        on, the verdict file holds every run, the failure is shrunk and
        the written scenario replays to the same finding."""
        from repro.chain import ChainManager
        from repro.storage.local_store import StorageError

        def prune(self, epoch):
            raise StorageError(f"epoch {epoch} is on fire")

        monkeypatch.setattr(ChainManager, "prune", prune)
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        small = Scenario(seed=4, n_ranks=3, k=2, chunks_per_rank=3)
        save_scenario(str(sweep / "a-chain.json"), small.with_(
            chain=True,
            steps=(
                Step("dump"), Step("dump", kind="delta"), Step("prune"),
                Step("dump", kind="delta"),
            ),
        ))
        save_scenario(str(sweep / "b-plain.json"), small)
        out = str(tmp_path / "verdicts.json")
        failure = str(tmp_path / "dst-failure.json")
        assert run_cli([
            "fuzz", "--corpus", str(sweep),
            "--out", out, "--scenario-out", failure,
        ]) == 1
        text = capsys.readouterr().out
        assert "[step-error] step 2: prune raised StorageError" in text
        assert "b-plain.json: ok" in text
        doc = json.loads(open(out).read())
        assert [run["ok"] for run in doc["runs"]] == [False, True]
        assert doc["ok"] is False
        failed = doc["runs"][0]
        assert failed["steps"][-1]["error"] == "StorageError"
        assert [st["op"] for st in failed["steps"]] == [
            "dump", "dump", "prune",
        ]
        minimal = load_scenario(failure)
        assert any(st.op == "prune" for st in minimal.steps)
        assert run_cli([
            "fuzz", "--replay", failure, "--no-shrink",
            "--scenario-out", failure + ".again",
        ]) == 1
        assert "[step-error]" in capsys.readouterr().out
