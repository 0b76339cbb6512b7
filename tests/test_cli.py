"""CLI tests (direct main() invocation, no subprocesses)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_platform_and_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--platform", "spr"])


class TestRunCommand:
    def test_basic_run(self, capsys):
        assert main(["run", "--platform", "spr", "--model", "opt-13b",
                     "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "OPT-13B on SPR-Max-9468" in out
        assert "TTFT ms" in out

    def test_offloaded_run_reports_mode(self, capsys):
        assert main(["run", "--platform", "a100", "--model", "opt-30b"]) == 0
        assert "offload" in capsys.readouterr().out

    def test_numa_and_cores_flags(self, capsys):
        assert main(["run", "--platform", "spr", "--model", "opt-1.3b",
                     "--cores", "24", "--numa", "snc_flat"]) == 0

    def test_unknown_platform_raises(self, capsys):
        assert main(["run", "--platform", "tpu", "--model", "opt-13b"]) == 2
        assert "unknown platform 'tpu'" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep(self, capsys):
        assert main(["sweep", "--platforms", "icl,spr",
                     "--models", "opt-1.3b", "--batches", "1,8"]) == 0
        out = capsys.readouterr().out
        assert out.count("OPT-1.3B") == 4  # 2 platforms x 2 batches


class TestExperimentCommand:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "fig6"]) == 0
        assert "[fig6]" in capsys.readouterr().out

    def test_missing_id_errors(self, capsys):
        assert main(["experiment"]) == 2
        assert "known ids" in capsys.readouterr().err


class TestClusterCommand:
    def test_cluster_fleet_summary(self, capsys):
        assert main(["cluster", "--platforms", "spr,h100",
                     "--model", "llama2-7b", "--rate", "1.0",
                     "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "router=phase_aware" in out
        assert "SPR-Max-9468" in out and "H100-80GB" in out
        assert "goodput" in out and "$/Mtok" in out

    def test_cluster_bursty_round_robin(self, capsys):
        assert main(["cluster", "--platforms", "spr,spr",
                     "--model", "opt-1.3b", "--router", "round_robin",
                     "--rate", "0.5", "--burst-rate", "4.0",
                     "--requests", "8"]) == 0
        assert "router=round_robin" in capsys.readouterr().out

    @staticmethod
    def replica_names(out):
        """The replica column of the fleet table."""
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("replica ")) + 2
        names = []
        for line in lines[start:]:
            if not line.strip():
                break
            names.append(line.split()[0])
        return names

    def test_replica_names_match_across_legs(self, capsys):
        argv = ["cluster", "--platforms", "spr-max-9468,spr",
                "--model", "llama2-7b", "--requests", "8"]
        assert main(argv) == 0
        single = self.replica_names(capsys.readouterr().out)
        assert main(argv + ["--workers", "2"]) == 0
        sharded = self.replica_names(capsys.readouterr().out)
        assert single == sharded == ["spr-0", "spr-1"]

    def test_cluster_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--platforms", "spr",
                                       "--model", "opt-1.3b",
                                       "--router", "random"])


class TestInfoCommands:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        for name in ("ICL-8352Y", "SPR-Max-9468", "A100-40GB", "H100-80GB"):
            assert name in out

    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "LLaMA2-70B" in out and "GQA" in out

    def test_roofline(self, capsys):
        assert main(["roofline", "--platform", "spr",
                     "--model", "opt-6.7b"]) == 0
        assert "roofline: SPR-Max-9468" in capsys.readouterr().out


class TestAdviseCommand:
    def test_advise_oversize_model(self, capsys):
        assert main(["advise", "--model", "opt-66b", "--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "SPR" in out

    def test_advise_metric_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["advise", "--model", "opt-13b", "--metric", "speed"])


class TestCalibrationCommand:
    def test_all_targets_ok(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "OUT" not in out
        assert out.count("OK") >= 16
