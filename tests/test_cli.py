import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgenas
from edgenas.cli import main
from edgenas.devices import DeviceMeasurer
from edgenas.pipeline import TrialLog
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


# Run in a fresh interpreter where a meta-path finder refuses scipy: fits
# every shipped device and one observations file, so no path of the
# profile fit imports scipy.
_WITHOUT_SCIPY = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy was not refused")

from edgenas.calibration import DEVICE_PRECISIONS
from edgenas.cli import main

out, observations = sys.argv[1:]
for device in sorted(DEVICE_PRECISIONS):
    assert main(["fit-profile", "--device", device, "--out", out]) == 0, device
argv = ["fit-profile", "--device", "custom", "--out", out, "--observations", observations]
assert main([*argv, "--precision", "fp16"]) == 0
"""


def test_cli_runs_without_scipy(tmp_path):
    from edgenas.calibration import calibration_observations
    from edgenas.reporting import load_paper_tables
    from edgenas.space import table1_space

    observations = tmp_path / "observations.json"
    rows = [
        {
            "config": obs.arch.config.to_json_dict(),
            "latency_ms": obs.latency_ms,
            "dynamic_power_w": obs.dynamic_power_w,
            "label": obs.label,
        }
        for obs in calibration_observations("pi-ncs2", load_paper_tables(), table1_space())
    ]
    observations.write_text(json.dumps(rows))
    out = tmp_path / "profiles"
    env = {**os.environ, "PYTHONPATH": str(Path(edgenas.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(out), str(observations)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    names = sorted(path.name for path in out.iterdir())
    assert len(names) == 7 and "custom.json" in names, names


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

    @pytest.mark.parametrize("flag", ["--offset", "--limit"])
    def test_enumerate_negative_bound_refused(self, capsys, reduced_space_file, flag):
        code, out, err = _run(
            capsys, "space", "enumerate", "--space", str(reduced_space_file), flag, "-1"
        )
        assert code == 1
        assert out == ""
        assert "error: --offset and --limit must be >= 0" in err

    def test_sample_negative_n_refused(self, capsys, reduced_space_file):
        code, out, err = _run(
            capsys, "space", "sample", "--space", str(reduced_space_file), "--n", "-2"
        )
        assert code == 1
        assert out == ""
        assert "error: --n must be >= 0" in err

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

    def test_space_file_missing_key_is_named(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text('{"block": {"lo": 2}}')
        code, _, err = _run(capsys, "space", "count", "--space", str(path))
        assert code == 1
        assert f"{path}: KeyError: 'hi'" in err

    def test_space_file_step_that_is_not_an_integer_is_named(self, capsys, tmp_path):
        from edgenas._data import TABLE1_SPACE_PATH

        space = json.loads(TABLE1_SPACE_PATH.read_text())
        space["k1"]["step"] = 2.9
        path = tmp_path / "space.json"
        path.write_text(json.dumps(space))
        code, out, err = _run(capsys, "space", "count", "--space", str(path))
        assert code == 1
        assert out == ""
        assert f"{path}: TypeError: k1.step must be a JSON integer, got 2.9" in err


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

    @pytest.mark.parametrize("key, value", [("k1", 6.7), ("k1", True), ("k1", "6"),
                                            ("do2_hundredths", 20.0), ("output_classes", None)])
    def test_describe_non_integer_field_refused(self, capsys, tmp_path, pi_best, key, value):
        from edgenas._data import TABLE1_SPACE_PATH

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**pi_best.to_json_dict(), key: value}))
        for extra in ([], ["--space", str(TABLE1_SPACE_PATH)]):
            code, out, err = _run(capsys, "arch", "describe", "--config", str(config_path), *extra)
            assert code == 1
            message = f"{key} must be a JSON integer, got {value!r}"
            assert f"error: {config_path}: TypeError: {message}" in err, err
            assert out == ""


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        code, _, err = _run(capsys, "space", "count", "--bogus")
        assert code == 1
        assert "usage" in err.lower()


    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("search", "--seed", "-1", "seed -1 must be >= 0"),
            ("search", "--budget", "0", "budget must be >= 1"),
            ("search", "--keep1", "0", "keep1 must be >= 1"),
            ("pipeline", "--keep2", "0", "keep2 must be >= 1"),
            ("pipeline", "--warmup-runs", "-1", "warmup_runs must be >= 0"),
            ("pipeline", "--latency-jitter", "-0.5", "latency_jitter must be >= 0"),
            ("pipeline", "--power-jitter", "-0.5", "power_jitter must be >= 0"),
            ("pipeline", "--latency-jitter", "nan", "latency_jitter must be finite"),
            ("pipeline", "--power-jitter", "inf", "power_jitter must be finite"),
            ("search", "--evaluator-timeout", "0", "evaluator_timeout must be > 0"),
            ("pipeline", "--evaluator-timeout", "-1", "evaluator_timeout must be > 0"),
            ("search", "--evaluator-timeout", "nan", "evaluator_timeout must be finite"),
        ],
    )
    def test_bad_run_number_writes_nothing(
        self, capsys, tmp_path, reduced_space_file, command, flag, value, message
    ):
        out_dir = tmp_path / "run"
        code, _, err = _run(
            capsys, command, "--space", str(reduced_space_file), "--budget", "40",
            flag, value, "--out", str(out_dir),
        )
        assert code == 1
        assert message in err
        assert not out_dir.exists()

    def test_bad_run_number_from_config_writes_nothing(self, capsys, tmp_path, reduced_space_file):
        run_config = tmp_path / "run.json"
        out_dir = tmp_path / "run"
        cases = (
            ("search", {"budget": 0}, "budget must be >= 1"),
            ("pipeline", {"budget": 40, "jitter": {"power_sigma_w": -0.5}}, "power_jitter must be >= 0"),
            ("search", {"optimizer": {"gamma": "0.25"}},
             f"{run_config}: TypeError: optimizer.gamma must be a JSON number, got '0.25'"),
            ("search", {"optimizer": {"n_candidates": 2.5}},
             f"{run_config}: TypeError: optimizer.n_candidates must be a JSON integer, got 2.5"),
            ("pipeline", {"optimizer": {"n_startup": True}},
             f"{run_config}: TypeError: optimizer.n_startup must be a JSON integer, got True"),
            ("search", {"optimizer": {"gamma": 1.5}},
             f"{run_config}: ValueError: gamma 1.5 outside (0, 1)"),
        )
        for command, settings, message in cases:
            run_config.write_text(json.dumps({"space": str(reduced_space_file), **settings}))
            code, _, err = _run(capsys, command, "--config", str(run_config), "--out", str(out_dir))
            assert code == 1
            assert message in err, err
            assert "Traceback" not in err
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--config"],
            ["pipeline", "--space"],
            ["fit-profile", "--device", "pi", "--precision", "fp32", "--observations"],
        ],
    )
    def test_directory_input_is_named_and_writes_nothing(self, capsys, tmp_path, argv):
        directory, out_dir = tmp_path / "input", tmp_path / "out"
        directory.mkdir()
        code, _, err = _run(capsys, *argv, str(directory), "--out", str(out_dir))
        assert code == 1
        assert f"{directory}: IsADirectoryError" in err
        assert not out_dir.exists()


class _FullDisk:
    """A text file handle on a disk with room for ``room`` more characters.
    The write that overflows it puts what fits on disk, adds the file's
    size to ``partial`` and raises ENOSPC."""

    def __init__(self, handle, room, partial):
        self.handle, self.room, self.partial = handle, room, partial

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        if len(text) <= self.room:
            self.room -= len(text)
            return self.handle.write(text)
        self.handle.write(text[: self.room])
        self.handle.flush()
        self.partial.append(os.path.getsize(self.handle.name))
        raise OSError(errno.ENOSPC, "No space left on device")


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

    def test_pipeline_reads_its_log_only_on_a_rerun(
        self, capsys, tmp_path, reduced_space_file, monkeypatch
    ):
        reads, records = [], TrialLog._records

        def spy(log, stage):
            reads.append(stage)
            return records(log, stage)

        monkeypatch.setattr(TrialLog, "_records", spy)
        run = tmp_path / "run"
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        assert reads == []  # stages 2 and 3 know from the shared log that it holds none of theirs

        # A rerun into the finished run serves every stage-2 and stage-3 pair
        # from the log, read once: nothing is measured and only stage 1 appends.
        measured = []
        monkeypatch.setattr(DeviceMeasurer, "latency", lambda *_: measured.append("latency"))
        monkeypatch.setattr(DeviceMeasurer, "power", lambda *_: measured.append("power"))
        files = {name: (run / name).read_bytes() for name in ("stage2.json", "stage3.json")}
        log = (run / "trials.jsonl").read_bytes()
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        assert reads == [2] and measured == []
        assert {name: (run / name).read_bytes() for name in files} == files
        appended = (run / "trials.jsonl").read_bytes()[len(log) :].decode().splitlines()
        assert appended and {json.loads(line)["stage"] for line in appended} == {1}

        # A staged stage 2, then a staged stage 3, each reads the log once.
        for stage in (2, 3):
            del reads[:]
            assert _run(capsys, f"stage{stage}", "--out", str(run))[0] == 0
            assert reads == [stage] and measured == []

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

    def test_pipeline_hands_stage_results_over_in_memory(
        self, capsys, tmp_path, reduced_space_file, monkeypatch
    ):
        reads, read = [], edgenas.rundir.read

        def spy(out, key):
            reads.append(key)
            return read(out, key)

        monkeypatch.setattr(edgenas.rundir, "read", spy)
        run = tmp_path / "run"
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        assert reads == []  # no run file is read back, stage1.json and stage2.json included
        code, _, _ = _run(capsys, "stage2", "--out", str(run))
        assert code == 0
        assert reads == ["manifest", "space", "stage1"]  # a staged command reads its inputs

    def test_pipeline_loads_the_profiles_once(self, capsys, tmp_path, reduced_space_file, monkeypatch):
        loads, load = [], edgenas.cli.load_profiles

        def spy(devices):
            loads.append(devices)
            return load(devices)

        monkeypatch.setattr(edgenas.cli, "load_profiles", spy)
        run = tmp_path / "run"
        assert self._pipeline(capsys, run, reduced_space_file)[0] == 0
        assert len(loads) == 1  # the preflight's profiles serve stages 2 and 3
        for command in ("stage2", "stage3"):
            del loads[:]
            assert _run(capsys, command, "--out", str(run))[0] == 0
            assert len(loads) == 1, command

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

    def test_manifest_reruns_its_run(self, capsys, tmp_path, reduced_space_file):
        run, again = tmp_path / "run", tmp_path / "again"
        code, _, _ = _run(
            capsys, "pipeline", "--space", str(reduced_space_file), "--budget", "60",
            "--keep1", "10", "--keep2", "3", "--seed", "3", "--latency-jitter", "0.02",
            "--power-jitter", "0.05", "--warmup-runs", "2", "--no-timestamps", "--out", str(run),
        )
        assert code == 0
        argv = ["pipeline", "--config", str(run / "manifest.json"), "--out", str(again)]
        code, _, _ = _run(capsys, *argv)
        assert code == 0
        for name in ("manifest.json", "space.json", "trials.jsonl", "stage1.json", "stage2.json",
                     "stage3.json"):
            assert (again / name).read_bytes() == (run / name).read_bytes(), name

    def test_unknown_optimizer_settings_refused(self, capsys, tmp_path, reduced_space_file):
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps({"optimizer": {"gama": 0.5, "n_candidate": 4}}))
        argv = [
            "search", "--space", str(reduced_space_file), "--budget", "40", "--keep1", "10",
            "--no-timestamps",
        ]
        out = tmp_path / "typo"
        code, _, err = _run(capsys, *argv, "--config", str(run_config), "--out", str(out))
        assert code == 1
        assert "unknown optimizer settings: gama, n_candidate" in err
        assert not (out / "manifest.json").exists()

        # So are misspelt run settings, at the top level and under jitter.
        for data, names in (
            ({"kep1": 5, "budgett": 40, "seed": 3}, "kep1, budgett"),
            ({"jitter": {"latency_sigma": 0.1, "power_sigma_w": 0.0}}, "jitter.latency_sigma"),
        ):
            run_config.write_text(json.dumps(data))
            code, _, err = _run(capsys, *argv, "--config", str(run_config), "--out", str(out))
            assert code == 1, data
            assert f"error: {run_config}: ValueError: unknown run settings: {names}" in err, err
            assert not out.exists()

        # A wrongly typed setting is refused naming the file, for search too.
        for data, kind in (
            ({"budget": "40"}, "budget must be a JSON integer, got '40'"),
            ({"seed": True}, "seed must be a JSON integer, got True"),
            ({"timestamps": 0}, "timestamps must be a JSON boolean, got 0"),
            ({"jitter": {"power_sigma_w": "0.1"}}, "jitter.power_sigma_w must be a JSON number, got '0.1'"),
            ({"jitter": [0.1]}, "jitter must be a JSON object, got [0.1]"),
        ):
            run_config.write_text(json.dumps(data))
            code, _, err = _run(capsys, *argv, "--config", str(run_config), "--out", str(out))
            assert code == 1, data
            assert f"error: {run_config}: TypeError: {kind}" in err, err
            assert not out.exists()

        # A run's own manifest, optimizer section included, loads as a run config.
        first, again = tmp_path / "first", tmp_path / "again"
        run_config.write_text(json.dumps({"optimizer": {"gamma": 0.5, "n_candidates": 4}}))
        code, _, _ = _run(capsys, *argv, "--config", str(run_config), "--out", str(first))
        assert code == 0
        manifest = json.loads((first / "manifest.json").read_text())
        settings = {"gamma": 0.5, "n_startup": 20, "n_candidates": 4, "seed": 42}
        assert manifest["optimizer"] == settings
        code, _, _ = _run(
            capsys, *argv, "--config", str(first / "manifest.json"), "--out", str(again)
        )
        assert code == 0
        assert json.loads((again / "manifest.json").read_text()) == manifest
        assert (again / "trials.jsonl").read_bytes() == (first / "trials.jsonl").read_bytes()

    def test_failed_write_keeps_previous_stage_file(
        self, capsys, tmp_path, reduced_space_file, monkeypatch
    ):
        run, profiles = tmp_path / "run", tmp_path / "profiles"
        commands = (
            ["stage2", "--out", str(run)],
            ["report", "--out", str(run)],
            ["fit-profile", "--device", "pi", "--out", str(profiles)],
        )
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        for argv in commands[1:]:
            assert main(argv) == 0
        capsys.readouterr()

        def files():
            return {path: path.read_bytes() for d in (run, profiles) for path in d.iterdir()}

        before = files()
        real_open = Path.open

        # Each command's writes fail in turn: the first n files are written
        # whole, and the next one fills the disk partway, its temporary
        # file holding what fitted when the write raises. With n = writes,
        # all succeed.
        for argv, writes in zip(commands, (1, 4, 1)):
            for n in range(writes + 1):
                calls, partial = [], []

                def open_on_full_disk(path, mode="r", *args, **kwargs):
                    handle = real_open(path, mode, *args, **kwargs)
                    if not path.name.endswith(".tmp"):
                        return handle
                    calls.append(path)
                    return handle if len(calls) <= n else _FullDisk(handle, 64, partial)

                monkeypatch.setattr(Path, "open", open_on_full_disk)
                if n < writes:
                    with pytest.raises(OSError, match="No space left"):
                        main(argv)
                    assert partial == [64], (argv, n)
                else:
                    assert main(argv) == 0
                    assert len(calls) == writes, argv
                assert files() == before, (argv, n)
        capsys.readouterr()

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


    def test_stage3_checks_every_line_report_checks_every_record(
        self, capsys, tmp_path, reduced_space_file
    ):
        run = tmp_path / "run"
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        stage3 = (run / "stage3.json").read_bytes()
        log = run / "trials.jsonl"
        whole = log.read_text()
        lines = whole.splitlines(keepends=True)
        assert json.loads(lines[4])["stage"] == 1

        def with_line_5(text):
            log.write_text("".join(lines[:4] + [text] + lines[5:]))

        for broken in (lines[4][:30] + "\n", json.dumps({"config": {}}) + "\n"):
            with_line_5(broken)
            code, _, err = _run(capsys, "stage3", "--out", str(run))
            assert code == 1
            assert "trials.jsonl:5" in err

        record = json.loads(lines[4])
        del record["accuracy_pct"]
        with_line_5(json.dumps(record, sort_keys=True) + "\n")
        code, _, _ = _run(capsys, "stage3", "--out", str(run), "--no-timestamps")
        assert code == 0  # every stage-3 pair is a cache hit; stage-1 records are not built
        assert (run / "stage3.json").read_bytes() == stage3
        code, _, err = _run(capsys, "report", "--out", str(run))
        assert code == 1
        assert "trials.jsonl:5" in err and "accuracy_pct" in err

    def test_off_grid_stage1_candidate_rejected_before_measuring(
        self, capsys, tmp_path, reduced_space_file
    ):
        run = tmp_path / "run"
        code, _, _ = _run(
            capsys, "search", "--space", str(reduced_space_file), "--budget", "120",
            "--keep1", "15", "--seed", "1", "--out", str(run), "--no-timestamps",
        )
        assert code == 0
        stage1 = json.loads((run / "stage1.json").read_text())
        stage1["records"][-1]["config"]["k1"] = 7  # the grid is 6..10 step 2
        (run / "stage1.json").write_text(json.dumps(stage1))
        code, _, err = _run(capsys, "stage2", "--out", str(run), "--no-timestamps")
        assert code == 1
        assert '"k1":7' in err and "K1=7 off-grid" in err
        stages = {json.loads(line)["stage"] for line in (run / "trials.jsonl").read_text().splitlines()}
        assert stages == {1}
        assert not (run / "stage2.json").exists()

    def test_empty_stage2_refused_by_stage3(self, capsys, tmp_path, reduced_space_file):
        run = tmp_path / "run"
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        (run / "stage3.json").unlink()
        (run / "stage2.json").write_text("{}\n")
        code, _, err = _run(capsys, "stage3", "--out", str(run))
        assert code == 2
        assert "stage 3 requires a non-empty per-device map" in err
        assert not (run / "stage3.json").exists()

    def test_stage2_device_without_profile_refused_before_measuring(
        self, capsys, tmp_path, reduced_space_file
    ):
        run = tmp_path / "run"
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        (run / "stage3.json").unlink()
        stage2 = json.loads((run / "stage2.json").read_text())
        stage2["nano-x"] = stage2.pop("pi")
        (run / "stage2.json").write_text(json.dumps(stage2))
        log = run / "trials.jsonl"
        lines = [line for line in log.read_text().splitlines(keepends=True) if '"stage": 3' not in line]
        log.write_text("".join(lines))
        code, _, err = _run(capsys, "stage3", "--out", str(run))
        assert code == 2
        devices_dir = json.loads((run / "manifest.json").read_text())["devices_dir"]
        assert "nano-x" in err and devices_dir in err
        assert "Traceback" not in err
        assert log.read_text() == "".join(lines)  # nothing was measured
        assert not (run / "stage3.json").exists()

    def test_corrupt_run_files_are_named(self, capsys, tmp_path, reduced_space_file):
        run = tmp_path / "run"
        code, _, _ = self._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        cases = (
            ("stage1.json", "stage2"),
            ("manifest.json", "stage2"),
            ("stage2.json", "stage3"),
            ("stage2.json", "report"),
            ("stage3.json", "report"),
        )
        for name, command in cases:
            path = run / name
            whole = path.read_bytes()
            path.write_bytes(whole[:45])
            code, _, err = _run(capsys, command, "--out", str(run))
            assert code == 1, (name, command)
            assert re.search(rf"error: {re.escape(str(path))}: .* line \d+ column \d+", err), err
            path.write_bytes(whole)

        # Well-formed JSON of the wrong shape is named too.
        cases = (
            ("manifest.json", "[]", "stage2", "TypeError"),
            ("manifest.json", "{}", "stage3", "KeyError: 'seed'"),
            ("manifest.json", '{"seed": 1, "jitter": []}', "stage2", "TypeError: jitter"),
            ("manifest.json", '{"seed": 1, "keep2": "5"}', "stage2", "TypeError: keep2"),
            ("manifest.json", '{"seed": 1, "warmup_runs": 1.5}', "stage3", "TypeError: warmup_runs"),
            ("manifest.json", '{"seed": 1, "kep2": 5}', "stage2", "ValueError: unknown run settings: kep2"),
            ("stage1.json", "[1]", "stage2", "TypeError"),
            ("stage2.json", '{"pi": {}}', "stage3", "KeyError: 'fitness'"),
            ("stage2.json", "[]", "report", "AttributeError"),
            ("stage3.json", '{"pi": {"stage": 3}}', "report", "KeyError: 'config'"),
            ("stage2.json", "{}", "report", "empty per-device map"),
            ("stage3.json", "{}", "report", "empty per-device map"),
        )
        for name, content, command, kind in cases:
            path = run / name
            whole = path.read_bytes()
            path.write_text(content)
            code, _, err = _run(capsys, command, "--out", str(run))
            assert code == 1, (name, command)
            assert f"error: {path}: {kind}" in err, err
            assert "Traceback" not in err
            path.write_bytes(whole)


    def test_wrongly_typed_run_values_are_named(self, capsys, tmp_path, reduced_space_file):
        # each exits 1 naming the file and the line or key: a stage-2 log
        # line of a pair stage 2 did not keep, a stage-3 log line, a
        # stage-1 survivor, and each device's k in stage2.json
        run = tmp_path / "run"
        assert self._pipeline(capsys, run, reduced_space_file)[0] == 0
        log = run / "trials.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        kept = {
            (device, json.dumps(r["config"], sort_keys=True))
            for device, ranked in json.loads((run / "stage2.json").read_text()).items()
            for r in ranked["records"]
        }
        dropped = next(
            number for number, r in enumerate(records, 1)
            if r["stage"] == 2 and (r["device"], json.dumps(r["config"], sort_keys=True)) not in kept
        )
        last = len(records)
        assert records[last - 1]["stage"] == 3

        def set_line(number, key, value):
            record = dict(records[number - 1], **{key: value})
            return log, "".join([*lines[: number - 1], json.dumps(record, sort_keys=True) + "\n", *lines[number:]])

        def set_file(name, change):
            data = json.loads((run / name).read_text())
            change(data)
            return run / name, json.dumps(data)

        cases = [
            (*set_line(dropped, "latency_mean_ms", "abc"), "report",
             f"{log}:{dropped}: bad trial record: latency_mean_ms must be a JSON number, got 'abc'"),
            (*set_line(last, "accuracy_pct", True), "report",
             f"{log}:{last}: bad trial record: accuracy_pct must be a JSON number, got True"),
            (*set_file("stage1.json", lambda data: data["records"][0].update(accuracy_pct=True)), "stage2",
             f"{run / 'stage1.json'}: TypeError: accuracy_pct must be a JSON number, got True"),
        ]
        for k in (5.7, "5", True):
            for command in ("stage3", "report"):
                cases.append((*set_file("stage2.json", lambda data: data["pi"].update(k=k)), command,
                              f"{run / 'stage2.json'}: TypeError: k must be a JSON integer, got {k!r}"))
        for path, text, command, message in cases:
            whole = path.read_bytes()
            path.write_text(text)
            code, _, err = _run(capsys, command, "--out", str(run))
            assert code == 1, message
            assert f"error: {message}" in err, err
            assert "Traceback" not in err
            path.write_bytes(whole)

    def test_trial_log_stage_outside_1_to_3_is_named(self, capsys, tmp_path, reduced_space_file):
        # a copy of the last (stage-3) line, at a stage no run writes
        run = tmp_path / "run"
        assert self._pipeline(capsys, run, reduced_space_file)[0] == 0
        log = run / "trials.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        for stage in (0, 4, 7):
            record = dict(json.loads(lines[-1]), stage=stage, latency_mean_ms=1000.0)
            log.write_text("".join(lines) + json.dumps(record, sort_keys=True) + "\n")
            code, out, err = _run(capsys, "report", "--out", str(run))
            assert code == 1
            assert out == ""
            reason = f"stage must be 1, 2 or 3, got {stage}"
            assert f"error: {log}:{len(lines) + 1}: bad trial record: {reason}" in err, err


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
        assert channels[0]._proc.stdout.closed

    @pytest.mark.parametrize("mode", ["bool", "numeric_string", "string", "null"])
    def test_accuracy_that_is_not_a_json_number_exits_2(
        self, capsys, tmp_path, reduced_space_file, mode
    ):
        code, _, err = _run(
            capsys, "search", "--space", str(reduced_space_file),
            "--evaluator", f"exec:{sys.executable} {MOCK_EVALUATOR} {mode}",
            "--budget", "10", "--keep1", "2", "--out", str(tmp_path / "ext"),
        )
        assert code == 2
        assert "error: accuracy_pct must be a JSON number, got " in err
        assert "Traceback" not in err
        assert not (tmp_path / "ext" / "stage1.json").exists()

    @pytest.mark.parametrize("mode", ["true_id", "float_id", "false_id"])
    def test_reply_id_that_is_not_an_integer_exits_2(
        self, capsys, tmp_path, reduced_space_file, mode
    ):
        code, _, err = _run(
            capsys, "search", "--space", str(reduced_space_file),
            "--evaluator", f"exec:{sys.executable} {MOCK_EVALUATOR} {mode}",
            "--budget", "10", "--keep1", "2", "--out", str(tmp_path / "ext"),
        )
        assert code == 2
        assert "does not match request" in err
        assert not (tmp_path / "ext" / "stage1.json").exists()

    def test_missing_evaluator_command_exits_1_before_writing(
        self, capsys, tmp_path, reduced_space_file
    ):
        out = tmp_path / "ext"
        code, _, err = _run(
            capsys, "search", "--space", str(reduced_space_file),
            "--evaluator", "exec:/nonexistent/cmd --flag", "--out", str(out),
        )
        assert code == 1
        assert "/nonexistent/cmd" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_evaluator_that_cannot_be_executed_exits_2(
        self, capsys, tmp_path, reduced_space_file
    ):
        # executable but no shebang: it passes the lookup and fails at exec
        script = tmp_path / "no_shebang"
        script.write_text("echo hello\n")
        script.chmod(0o755)
        code, _, err = _run(
            capsys, "search", "--space", str(reduced_space_file),
            "--evaluator", f"exec:{script}", "--budget", "10", "--keep1", "2",
            "--out", str(tmp_path / "ext"),
        )
        assert code == 2
        assert f"error: cannot start {script}: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "ext" / "stage1.json").exists()

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
        before = set(os.listdir(out_dir))
        code, out, _ = _run(capsys, "report", "--out", str(out_dir), "--format", "json")
        assert code == 0
        added = set(os.listdir(out_dir)) - before
        assert added == {"summary.csv", "best_models.csv", "ratios.json", "report.md"}
        ratios = json.loads((out_dir / "ratios.json").read_text())
        assert len(ratios["claims"]) == 20
        assert all(claim["pass"] for claim in ratios["claims"])

    def test_corrupt_paper_tables_are_named(self, capsys, tmp_path, reduced_space_file, monkeypatch):
        import edgenas.reporting

        run = tmp_path / "run"
        code, _, _ = TestPipelineCli()._pipeline(capsys, run, reduced_space_file)
        assert code == 0
        bad = tmp_path / "paper_tables.json"
        bad.write_text('{"table2": [')
        monkeypatch.setattr(edgenas.reporting, "PAPER_TABLES_PATH", bad)
        code, _, err = _run(capsys, "report", "--out", str(run))
        assert code == 1
        assert f"error: {bad}: JSONDecodeError" in err, err
        assert not (run / "report.md").exists()

    def test_bad_log_line_fails_the_report_before_it_writes(
        self, capsys, tmp_path, reduced_space_file
    ):
        # a stage-1 line the summary skips, and the last line (a stage-3
        # one): either fails the report, which then writes no file, and
        # leaves an earlier report's files as they were
        run = tmp_path / "run"
        assert TestPipelineCli()._pipeline(capsys, run, reduced_space_file)[0] == 0
        log = run / "trials.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        names = ("summary.csv", "best_models.csv", "ratios.json", "report.md")

        def report_files():
            return {name: (run / name).read_bytes() for name in names if (run / name).exists()}

        for number in (5, len(lines)):
            record = json.loads(lines[number - 1])
            assert record["stage"] == (1 if number == 5 else 3)
            del record["accuracy_pct"]
            broken = [*lines[: number - 1], json.dumps(record, sort_keys=True) + "\n"]
            broken += lines[number:]
            for name in names:
                (run / name).unlink(missing_ok=True)
            for earlier in (False, True):
                if earlier:
                    log.write_text("".join(lines))
                    assert _run(capsys, "report", "--out", str(run))[0] == 0
                before = report_files()
                assert len(before) == (4 if earlier else 0)
                log.write_text("".join(broken))
                code, _, err = _run(capsys, "report", "--out", str(run))
                assert code == 1
                assert f"trials.jsonl:{number}: bad trial record" in err and "accuracy_pct" in err
                assert report_files() == before

    def test_report_streams_the_log_and_never_loads_it(
        self, capsys, tmp_path, reduced_space_file, monkeypatch
    ):
        run = tmp_path / "run"
        assert TestPipelineCli()._pipeline(capsys, run, reduced_space_file)[0] == 0
        streamed = []
        records = TrialLog.records

        def spy(self):
            streamed.append(self.path)
            return records(self)

        def refuse(self):
            raise AssertionError("report called TrialLog.load")

        monkeypatch.setattr(TrialLog, "records", spy)
        monkeypatch.setattr(TrialLog, "load", refuse)
        code, _, err = _run(capsys, "report", "--out", str(run))
        assert code == 0, err
        assert streamed == [run / "trials.jsonl"]

    def test_report_summarises_only_the_current_runs_pairs(self, capsys, tmp_path):
        # a second search into a finished run, then its stages 2 and 3
        run = str(tmp_path / "run")
        sizes = ("--budget", "120", "--keep1", "15", "--no-timestamps")
        assert _run(capsys, "pipeline", "--out", run, "--seed", "1", *sizes, "--keep2", "5")[0] == 0
        assert _run(capsys, "search", "--out", run, "--seed", "2", *sizes)[0] == 0
        for command in ("stage2", "stage3"):
            assert _run(capsys, command, "--out", run)[0] == 0
        code, out, _ = _run(capsys, "report", "--out", run, "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        stage2_lines = [r for r in TrialLog(Path(run, "trials.jsonl")).load() if r.stage == 2]
        assert len(stage2_lines) == 2 * 15 * len(rows)  # the seed-1 pairs are still in the log
        assert rows and {row["n_models"] for row in rows} == {"15"}

    def test_report_requires_finished_run(self, capsys, tmp_path, reduced_space_file):
        empty, started, finished = tmp_path / "empty", tmp_path / "started", tmp_path / "finished"
        empty.mkdir()
        started.mkdir()
        (started / "manifest.json").write_text(json.dumps({"seed": 1}))
        (started / "space.json").write_bytes(reduced_space_file.read_bytes())
        cases = (
            (empty, "stage2", "manifest.json", "search"),
            (empty, "stage3", "manifest.json", "search"),
            (empty, "report", "stage2.json", "stage2"),
            (started, "stage2", "stage1.json", "search"),
            (started, "stage3", "stage2.json", "stage2"),
            (started, "report", "stage2.json", "stage2"),
            (finished, "report", "stage3.json", "stage3"),
            (finished, "report", "stage1.json", "search"),
            (finished, "report", "trials.jsonl", "search"),
        )
        code, _, _ = TestPipelineCli()._pipeline(capsys, finished, reduced_space_file)
        assert code == 0
        for run, command, name, writer in cases:
            if run == finished:
                whole = (run / name).read_bytes()
                (run / name).unlink()
            code, _, err = _run(capsys, command, "--out", str(run))
            assert code == 1, (run, command)
            assert f"error: missing {name} in {run}; run {writer} or pipeline first" in err, err
            if run == finished:
                (run / name).write_bytes(whole)


class TestProfileCli:
    def test_devices_list(self, capsys):
        code, out, _ = _run(capsys, "devices", "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert any(line.startswith("coral-dev:") for line in lines)

    def test_two_profiles_with_one_name_refused(self, capsys, tmp_path):
        from edgenas._data import PROFILES_DIR

        for path in PROFILES_DIR.glob("*.json"):
            (tmp_path / path.name).write_text(path.read_text())
        renamed = dict(json.loads((PROFILES_DIR / "pi.json").read_text()), name="coral-dev")
        (tmp_path / "zz.json").write_text(json.dumps(renamed))
        code, out, err = _run(capsys, "devices", "list", "--devices", str(tmp_path))
        assert code == 1
        assert out == ""
        files = f"{tmp_path / 'coral-dev.json'} and {tmp_path / 'zz.json'}"
        assert f"error: {files} both name device 'coral-dev'" in err, err

    def test_corrupt_device_profile_is_named(self, capsys, tmp_path, reduced_space_file):
        from edgenas._data import PROFILES_DIR

        shipped = (PROFILES_DIR / "pi.json").read_text()
        no_latency_model = json.loads(shipped)
        del no_latency_model["latency_model"]
        cases = (("missing-key", json.dumps(no_latency_model, indent=2)), ("truncated", shipped[:10]))
        for case, text in cases:
            devices, run = tmp_path / case, tmp_path / f"run-{case}"
            devices.mkdir()
            (devices / "pi.json").write_text(text)
            for argv in (
                ["devices", "list", "--devices", str(devices)],
                ["pipeline", "--space", str(reduced_space_file), "--budget", "120",
                 "--keep1", "15", "--keep2", "5", "--devices", str(devices), "--out", str(run)],
            ):
                code, _, err = _run(capsys, *argv)
                assert code == 1, (case, argv[0])
                assert f"error: {devices / 'pi.json'}: " in err, err
                assert "Traceback" not in err
            assert not run.exists()

    @pytest.mark.parametrize(
        "value, reason",
        [
            (True, "TypeError: accuracy_delta_pct must be a JSON number, got True"),
            ("3.43", "TypeError: accuracy_delta_pct must be a JSON number, got '3.43'"),
            (-0.5, "ValueError: accuracy_delta_pct must be finite and >= 0"),
            (True, "TypeError: latency_model.fixed_ms must be a JSON number, got True"),
            ("1.0", "TypeError: latency_model.fixed_ms must be a JSON number, got '1.0'"),
            (True, "TypeError: power_model.idle_w must be a JSON number, got True"),
            (5, "TypeError: name must be a JSON string, got 5"),
            (None, "TypeError: precision must be a JSON string, got None"),
        ],
    )
    def test_accuracy_delta_that_is_not_a_number_is_named(self, capsys, tmp_path, value, reason):
        from edgenas._data import PROFILES_DIR

        # the reason names the key the value replaces, a model's as "model.name"
        section, _, key = reason.split()[1].rpartition(".")
        profile = json.loads((PROFILES_DIR / "pi-ncs2.json").read_text())
        (profile[section] if section else profile)[key] = value
        (tmp_path / "pi-ncs2.json").write_text(json.dumps(profile))
        code, out, err = _run(capsys, "devices", "list", "--devices", str(tmp_path))
        assert code == 1
        assert out == ""
        assert f"error: {tmp_path / 'pi-ncs2.json'}: {reason}" in err, err

    def test_fit_profile_from_fixture(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "fit-profile", "--device", "coral-dev", "--out", str(tmp_path))
        assert code == 0
        from edgenas.devices import load_profile

        profile = load_profile(tmp_path / "coral-dev.json")
        assert profile.fit_residuals

    def test_bad_observations_are_named(self, capsys, tmp_path):
        path = tmp_path / "observations.json"
        config = '{"block": 2, "k1": 6, "k2": 24, "fc1": 100, "do1_hundredths": 10, "fc2": 80, "do2_hundredths": 10}'
        fractional_k1 = config.replace('"k1": 6', '"k1": 6.5')
        cases = (
            ('[{"latency_ms": 1.0}]', "KeyError: 'config'"),
            ('{"latency_ms": 1.0}', "TypeError"),
            ('[{"config": {"block": 2, "k1": 6}, "latency_ms": 1.0}]', "SpaceValidationError"),
            ("[{", "JSONDecodeError"),
            (f'[{{"config": {config}, "latency_ms": 1.0, "dynamic_power_w": true}}]',
             "TypeError: dynamic_power_w must be a JSON number, got True"),
            (f'[{{"config": {config}, "latency_ms": 1.0, "dynamic_power_w": "abc"}}]',
             "TypeError: dynamic_power_w must be a JSON number, got 'abc'"),
            (f'[{{"config": {config}, "latency_ms": 1.0, "dynamic_power_w": -0.1}}]',
             "ValueError: dynamic_power_w must be a finite JSON number >= 0, got -0.1"),
            (f'[{{"config": {config}, "latency_ms": 1.0, "dynamic_power_w": Infinity}}]',
             "ValueError: dynamic_power_w must be a finite JSON number >= 0, got inf"),
            (f'[{{"config": {fractional_k1}, "latency_ms": 1.0}}]',
             "TypeError: k1 must be a JSON integer, got 6.5"),
        )
        for text, kind in cases:
            path.write_text(text)
            argv = ["fit-profile", "--device", "x", "--out", str(tmp_path / "out")]
            code, _, err = _run(capsys, *argv, "--observations", str(path), "--precision", "fp32")
            assert code == 1, text
            assert f"error: {path}: {kind}" in err, err
            assert "Traceback" not in err

    @pytest.mark.parametrize("latency", ["0", "-1", "NaN", "Infinity", "true", '"1.5"', "null"])
    def test_non_positive_or_non_finite_latency_refused(self, capsys, tmp_path, latency):
        path, out_dir = tmp_path / "observations.json", tmp_path / "profiles"
        config = '{"block": 2, "k1": 6, "k2": 24, "fc1": 100, "do1_hundredths": 10, "fc2": 80, "do2_hundredths": 10}'
        path.write_text(f'[{{"config": {config}, "latency_ms": {latency}}}]')
        argv = ["fit-profile", "--device", "x", "--out", str(out_dir), "--observations", str(path)]
        code, _, err = _run(capsys, *argv, "--precision", "fp32")
        assert code == 1
        value = json.loads(latency)
        if latency in ("true", '"1.5"', "null"):
            message = f"TypeError: latency_ms must be a JSON number, got {value!r}"
        else:
            message = f"ValueError: latency_ms must be a finite JSON number > 0, got {value!r}"
        assert f"error: {path}: {message}" in err, err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_fit_profile_unknown_device(self, capsys, tmp_path):
        out_dir = tmp_path / "profiles"
        observations = tmp_path / "observations.json"
        observations.write_text("[]")
        cases = (
            (["--device", "toaster"], "unknown device 'toaster'"),
            (["--device", "x", "--observations", str(observations)], "--precision is required"),
        )
        for argv, message in cases:
            code, _, err = _run(capsys, "fit-profile", *argv, "--out", str(out_dir))
            assert code == 1
            assert message in err
            assert not out_dir.exists()
