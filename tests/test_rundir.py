import pytest

from edgenas import rundir
from edgenas.cli import main
from edgenas.pipeline import TrialLog
from edgenas.space import space_to_json


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, reduced_space):
    root = tmp_path_factory.mktemp("rundir")
    space_to_json(reduced_space, root / "reduced_space.json")
    argv = ["pipeline", "--space", str(root / "reduced_space.json"), "--budget", "120"]
    argv += ["--keep1", "15", "--keep2", "5", "--seed", "1", "--no-timestamps"]
    assert main(argv + ["--out", str(root / "run")]) == 0
    return root / "run"


@pytest.mark.parametrize("key", list(rundir.FILES))
def test_write_then_read_gives_equal_objects(finished_run, tmp_path, key):
    value = rundir.read(finished_run, key)
    if key == "trials":
        value = list(value)
        with TrialLog(rundir.path(tmp_path, key)) as log:
            for record in value:
                log.append(record)
        again = list(rundir.read(tmp_path, key))
    else:
        rundir.write(tmp_path, key, value)
        again = rundir.read(tmp_path, key)
    assert value
    assert again == value
    assert rundir.path(tmp_path, key).read_bytes() == rundir.path(finished_run, key).read_bytes()


def test_settings_read_what_the_manifest_writer_writes(tmp_path):
    values = {
        "space": "reduced.json", "seed": 3, "budget": 60, "keep1": 10, "evaluator": "surrogate",
        "optimizer_settings": {"gamma": 0.5}, "no_timestamps": True, "keep2": 4,
        "devices": "profiles", "warmup_runs": 2, "latency_jitter": 0.02, "power_jitter": 0.0,
    }
    data = rundir.manifest({**values, "out": "run", "command": "pipeline"})
    assert list(data) == [
        "space_file", "seed", "budget", "keep1", "evaluator", "optimizer", "timestamps",
        "keep2", "devices_dir", "warmup_runs", "jitter",
    ]
    assert data["space_file"] == "space.json" and data["timestamps"] is False
    assert data["jitter"] == {"latency_sigma_ms": 0.02, "power_sigma_w": 0.0}
    assert rundir.settings(data, tmp_path) == {**values, "space": str(tmp_path / "space.json")}


def test_settings_load_the_manifests_search_and_pipeline_write(finished_run, tmp_path):
    argv = ["search", "--space", str(finished_run / "space.json"), "--budget", "40"]
    assert main(argv + ["--keep1", "10", "--out", str(tmp_path)]) == 0
    for run in (finished_run, tmp_path):
        data = rundir.read(run, "manifest")
        assert rundir.manifest(rundir.settings(data, run)) == data
