"""The ``repro-eval chain`` subcommand and the fuzz ``--chain`` filter."""

import pytest

from repro.cli import main

pytestmark = pytest.mark.smoke


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestChainCommand:
    def test_chain_run_verifies_every_epoch(self, capsys):
        assert run_cli([
            "chain", "--n", "3", "--epochs", "4",
            "--chunks-per-rank", "8", "--chunk-size", "64",
        ]) == 0
        text = capsys.readouterr().out
        # 4 epochs x 3 ranks, every restore checked against the oracle
        assert "12/12 epoch-rank restores byte-identical" in text
        assert "delta" in text
        assert "% saved" in text

    def test_chain_prune_and_compact_print_outcomes(self, capsys):
        assert run_cli([
            "chain", "--n", "3", "--epochs", "5", "--prune", "1",
            "--compact", "--chunks-per-rank", "8", "--chunk-size", "64",
        ]) == 0
        text = capsys.readouterr().out
        assert "prune epoch 0" in text
        assert "compact epoch 4" in text
        assert "chain depth now 1" in text

    def test_process_backend_prune_and_compact_verify_every_epoch(self, capsys):
        assert run_cli([
            "chain", "--n", "3", "--epochs", "4", "--backend", "process",
            "--prune", "1", "--compact",
            "--chunks-per-rank", "8", "--chunk-size", "64",
        ]) == 0
        text = capsys.readouterr().out
        assert "12/12 epoch-rank restores byte-identical" in text
        assert "prune epoch 0: dropped" in text and "distinct chunks" in text
        assert "compact epoch 3" in text and "chain depth now 1" in text

    def test_full_every_resets_chain_depth(self, capsys):
        assert run_cli([
            "chain", "--n", "3", "--epochs", "6", "--full-every", "3",
            "--chunks-per-rank", "8", "--chunk-size", "64",
        ]) == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.strip().startswith("3")
        ]
        assert any("full" in line for line in lines)


class TestFuzzChainFilter:
    def test_chain_filter_selects_only_chain_scenarios(self, capsys):
        from repro.dst import generate_scenario

        assert run_cli(["fuzz", "--seed", "0", "--runs", "2", "--chain"]) == 0
        text = capsys.readouterr().out
        ran = [
            int(line.split()[1].rstrip(":"))
            for line in text.splitlines() if line.startswith("seed ")
        ]
        assert len(ran) == 2
        for seed in ran:
            assert generate_scenario(seed).chain

    def test_chain_filter_requires_seed_source(self, capsys):
        assert run_cli(["fuzz", "--chain"]) == 2
