import json
import sys
from pathlib import Path

import pytest

from edgenas.cli import main
from edgenas.space import space_to_json
from conftest import MOCK_EVALUATOR


@pytest.fixture()
def reduced_space_file(tmp_path, reduced_space):
    path = tmp_path / "reduced_space.json"
    space_to_json(reduced_space, path)
    return path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpaceCommands:
    def test_count_with_discrepancy_note(self, capsys):
        code, out, _ = _run(capsys, "space", "count")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "4167450"
        assert ">13M" in lines[1]
        assert "9,525,600" in lines[1]

    def test_enumerate_limit(self, capsys, reduced_space_file):
        code, out, _ = _run(
            capsys, "space", "enumerate", "--space", str(reduced_space_file), "--limit", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["block"] == 2

    def test_sample_deterministic(self, capsys, reduced_space_file):
        code, first, _ = _run(
            capsys, "space", "sample", "--space", str(reduced_space_file), "--n", "3", "--seed", "9"
        )
        code2, second, _ = _run(
            capsys, "space", "sample", "--space", str(reduced_space_file), "--n", "3", "--seed", "9"
        )
        assert code == code2 == 0
        assert first == second

    def test_missing_space_file(self, capsys):
        code, _, err = _run(capsys, "space", "count", "--space", "/nonexistent.json")
        assert code == 1
        assert "not found" in err


class TestArchDescribe:
    def test_describe_pi_best(self, capsys, tmp_path, pi_best):
        config_path = tmp_path / "pi_best.json"
        config_path.write_text(json.dumps(pi_best.to_json_dict()))
        code, out, _ = _run(capsys, "arch", "describe", "--config", str(config_path))
        assert code == 0
        data = json.loads(out)
        assert data["total_params"] == 365_515
        assert data["total_macs"] == 10_970_992

    def test_describe_invalid_against_space(self, capsys, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(
            json.dumps(
                {
                    "block": 2,
                    "k1": 18,
                    "k2": 24,
                    "fc1": 110,
                    "do1_hundredths": 15,
                    "fc2": 95,
                    "do2_hundredths": 29,
                }
            )
        )
        from edgenas._data import TABLE1_SPACE_PATH

        code, _, err = _run(
            capsys,
            "arch",
            "describe",
            "--config",
            str(config_path),
            "--space",
            str(TABLE1_SPACE_PATH),
        )
        assert code == 1
        assert "off-grid" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, "space", "count", "--bogus")
        assert code == 1
        assert "usage" in err.lower()


class TestPipelineCli:
    def _pipeline(self, capsys, out_dir, space_file, seed="1"):
        return _run(
            capsys,
            "pipeline",
            "--space",
            str(space_file),
            "--evaluator",
            "surrogate",
            "--budget",
            "120",
            "--keep1",
            "15",
            "--keep2",
            "5",
            "--seed",
            seed,
            "--out",
            str(out_dir),
            "--no-timestamps",
        )

    def test_two_runs_byte_identical(self, capsys, tmp_path, reduced_space_file):
        code_a, out_a, _ = self._pipeline(capsys, tmp_path / "a", reduced_space_file)
        code_b, out_b, _ = self._pipeline(capsys, tmp_path / "b", reduced_space_file)
        assert code_a == code_b == 0
        assert out_a == out_b
        for name in ("trials.jsonl", "stage1.json", "stage2.json", "stage3.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_emitted_files_reparse(self, capsys, tmp_path, reduced_space_file):
        code, _, _ = self._pipeline(capsys, tmp_path / "run", reduced_space_file)
        assert code == 0
        from edgenas.pipeline import RankedSet, TrialLog

        stage2 = json.loads((tmp_path / "run" / "stage2.json").read_text())
        assert all(RankedSet.from_json_dict(r).records for r in stage2.values())
        assert TrialLog(tmp_path / "run" / "trials.jsonl").load()

    def test_preflight_failure_leaves_no_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "never"
        code, _, err = _run(
            capsys,
            "pipeline",
            "--space",
            "/nonexistent.json",
            "--out",
            str(out_dir),
        )
        assert code == 1
        assert not out_dir.exists()

    def test_staged_commands_match_pipeline(self, capsys, tmp_path, reduced_space_file):
        full = tmp_path / "full"
        code, _, _ = self._pipeline(capsys, full, reduced_space_file)
        assert code == 0

        staged = tmp_path / "staged"
        code, _, _ = _run(
            capsys,
            "search",
            "--space",
            str(reduced_space_file),
            "--budget",
            "120",
            "--keep1",
            "15",
            "--seed",
            "1",
            "--out",
            str(staged),
            "--no-timestamps",
        )
        assert code == 0
        code, _, _ = _run(capsys, "stage2", "--out", str(staged), "--keep2", "5")
        assert code == 0
        code, _, _ = _run(capsys, "stage3", "--out", str(staged))
        assert code == 0
        assert (staged / "stage3.json").read_text() == (full / "stage3.json").read_text()

    def test_run_config_file(self, capsys, tmp_path, reduced_space_file):
        run_config = tmp_path / "run.json"
        run_config.write_text(
            json.dumps(
                {
                    "space": str(reduced_space_file),
                    "evaluator": "surrogate",
                    "budget": 120,
                    "keep1": 15,
                    "keep2": 5,
                    "seed": 1,
                    "optimizer": {"gamma": 0.25, "n_startup": 20, "n_candidates": 24},
                }
            )
        )
        out_dir = tmp_path / "fromcfg"
        code, _, _ = _run(
            capsys,
            "pipeline",
            "--config",
            str(run_config),
            "--out",
            str(out_dir),
            "--no-timestamps",
        )
        assert code == 0
        flag_run = tmp_path / "fromflags"
        code, _, _ = self._pipeline(capsys, flag_run, reduced_space_file)
        assert (out_dir / "stage3.json").read_text() == (flag_run / "stage3.json").read_text()


    def test_explicit_flags_override_run_config(self, capsys, tmp_path, reduced_space_file):
        run_config = tmp_path / "run.json"
        run_config.write_text(
            json.dumps(
                {
                    "space": str(reduced_space_file),
                    "budget": 40,
                    "keep1": 5,
                    "keep2": 2,
                    "seed": 7,
                    "jitter": {"latency_sigma_ms": 0.02, "power_sigma_w": 0.05},
                }
            )
        )
        from_file = tmp_path / "file"
        code, _, _ = _run(capsys, "search", "--config", str(run_config), "--out", str(from_file))
        assert code == 0
        assert json.loads((from_file / "manifest.json").read_text())["seed"] == 7

        searched = tmp_path / "search"
        code, _, _ = _run(
            capsys, "search", "--config", str(run_config), "--seed", "42", "--out", str(searched)
        )
        assert code == 0
        assert json.loads((searched / "manifest.json").read_text())["seed"] == 42

        piped = tmp_path / "pipeline"
        code, _, _ = _run(
            capsys,
            "pipeline",
            "--config",
            str(run_config),
            "--latency-jitter",
            "0",
            "--out",
            str(piped),
        )
        assert code == 0
        manifest = json.loads((piped / "manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["jitter"] == {"latency_sigma_ms": 0.0, "power_sigma_w": 0.05}

    def test_torn_trial_log_resumes(self, capsys, tmp_path, reduced_space_file):
        run = tmp_path / "run"
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        stages = {name: (run / name).read_bytes() for name in ("stage2.json", "stage3.json")}
        log = run / "trials.jsonl"
        log.write_bytes(log.read_bytes()[:-40])
        for command in ("stage2", "stage3"):
            code, _, _ = _run(capsys, command, "--out", str(run))
            assert code == 0
        assert {name: (run / name).read_bytes() for name in stages} == stages
        assert log.read_bytes().endswith(b"\n")

        lines = log.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:30] + "\n"
        log.write_text("".join(lines))
        code, _, err = _run(capsys, "stage2", "--out", str(run))
        assert code == 1
        assert "trials.jsonl:3" in err


class TestExternalEvaluatorCli:
    def test_exec_selector(self, capsys, tmp_path, reduced_space_file):
        command = f"{sys.executable} {MOCK_EVALUATOR} per_config"
        out_dir = tmp_path / "ext"
        code, out, _ = _run(
            capsys,
            "search",
            "--space",
            str(reduced_space_file),
            "--evaluator",
            f"exec:{command}",
            "--budget",
            "40",
            "--keep1",
            "5",
            "--seed",
            "2",
            "--out",
            str(out_dir),
            "--no-timestamps",
        )
        assert code == 0
        assert (out_dir / "stage1.json").exists()

    @pytest.mark.parametrize("command", ["search", "pipeline"])
    def test_evaluator_child_exits(self, command, capsys, tmp_path, reduced_space_file, monkeypatch):
        import edgenas.cli

        channels = []

        class RecordingChannel(edgenas.cli.JsonLineChannel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                channels.append(self)

        monkeypatch.setattr(edgenas.cli, "JsonLineChannel", RecordingChannel)
        argv = [
            command,
            "--space",
            str(reduced_space_file),
            "--evaluator",
            f"exec:{sys.executable} {MOCK_EVALUATOR} per_config",
            "--budget",
            "40",
            "--keep1",
            "5",
            "--out",
            str(tmp_path / "ext"),
        ]
        if command == "pipeline":
            argv += ["--keep2", "2"]
        code, _, _ = _run(capsys, *argv)
        assert code == 0
        assert len(channels) == 1
        assert channels[0]._proc.returncode is not None
        assert not channels[0]._reader.is_alive()

    def test_bad_selector(self, capsys, tmp_path, reduced_space_file):
        code, _, err = _run(
            capsys,
            "search",
            "--space",
            str(reduced_space_file),
            "--evaluator",
            "telepathy",
            "--out",
            str(tmp_path / "x"),
        )
        assert code == 1
        assert "unknown evaluator" in err


class TestReportCli:
    def test_report_emits_all_files(self, capsys, tmp_path, reduced_space_file):
        out_dir = tmp_path / "run"
        code, _, _ = TestPipelineCli()._pipeline(capsys, out_dir, reduced_space_file)
        assert code == 0
        code, out, _ = _run(capsys, "report", "--out", str(out_dir), "--format", "json")
        assert code == 0
        for name in ("summary.csv", "best_models.csv", "ratios.json", "pareto.json", "report.md"):
            assert (out_dir / name).exists(), name
        ratios = json.loads((out_dir / "ratios.json").read_text())
        assert len(ratios["claims"]) == 20
        assert all(claim["pass"] for claim in ratios["claims"])
        pareto = json.loads((out_dir / "pareto.json").read_text())
        assert pareto["records"]

    def test_report_requires_finished_run(self, capsys, tmp_path):
        code, _, err = _run(capsys, "report", "--out", str(tmp_path))
        assert code == 1
        assert "missing" in err


class TestProfileCli:
    def test_devices_list(self, capsys):
        code, out, _ = _run(capsys, "devices", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert any(line.startswith("coral-dev:") for line in lines)

    def test_fit_profile_from_fixture(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "fit-profile", "--device", "coral-dev", "--out", str(tmp_path))
        assert code == 0
        from edgenas.devices import load_profile

        profile = load_profile(tmp_path / "coral-dev.json")
        assert profile.fit_residuals

    def test_fit_profile_unknown_device(self, capsys, tmp_path):
        code, _, err = _run(capsys, "fit-profile", "--device", "toaster", "--out", str(tmp_path))
        assert code == 1
