"""Golden outputs of a small seeded `edgenas pipeline` run.

The hashes pin every byte the stages write, so a refactor or a speed-up
that changes a seeded output fails here. A change that is meant to alter
the outputs updates these values and says why.
"""

import hashlib
import json

import pytest

from edgenas.cli import main
from edgenas.space import space_to_json

STAGE_FILES = ("trials.jsonl", "stage1.json", "stage2.json", "stage3.json")

MANIFEST = {
    "space_file": "space.json",
    "seed": 1,
    "budget": 120,
    "keep1": 15,
    "evaluator": "surrogate",
    "optimizer": {"gamma": 0.25, "n_startup": 20, "n_candidates": 24, "seed": 1},
    "timestamps": False,
    "keep2": 5,
}

GOLDEN = {
    "noiseless": (
        [],
        {
            "trials.jsonl": "36b4794fe7b778671f8939fc2667894ecf5a2d7af8c2260181f373425b4b022e",
            "stage1.json": "bc4cfe9c653e4afa3e62ba56f3f8a149c21bedc5a057fcbf521db8d38a1b8514",
            "stage2.json": "047eceb0f7d3b7fdec23c4908eae2be00b54c034d5f62e8987ff6336705dae73",
            "stage3.json": "ac58bc75814692b66096a9bb47d0ce8f963cdc1275720dbb82091a08c4d14210",
        },
        {"warmup_runs": 0, "jitter": {"latency_sigma_ms": 0.0, "power_sigma_w": 0.0}},
    ),
    "jitter": (
        ["--latency-jitter", "0.02", "--power-jitter", "0.05", "--warmup-runs", "5"],
        {
            "trials.jsonl": "446196c9c9de96b24c60b710436a4219894063afc92bbdb1cb4eca4c10c0a578",
            "stage1.json": "bc4cfe9c653e4afa3e62ba56f3f8a149c21bedc5a057fcbf521db8d38a1b8514",
            "stage2.json": "9ca7c9fbd07b66433d033c2d37b3c18a72a2c22b7d8c599546f669fa6c754464",
            "stage3.json": "d262acd3de943d40b9e0fc965dabb8d77163ad0b9a1679bd238a3b1405f1c2ac",
        },
        {"warmup_runs": 5, "jitter": {"latency_sigma_ms": 0.02, "power_sigma_w": 0.05}},
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_outputs_match_golden(case, tmp_path, reduced_space, capsys):
    extra, hashes, manifest_extra = GOLDEN[case]
    space_file = tmp_path / "space.json"
    space_to_json(reduced_space, space_file)
    out = tmp_path / "run"
    argv = [
        "pipeline", "--space", str(space_file), "--budget", "120", "--keep1", "15",
        "--keep2", "5", "--seed", "1", "--out", str(out), "--no-timestamps",
    ]
    assert main(argv + extra) == 0
    capsys.readouterr()
    for name in STAGE_FILES:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == hashes[name], name
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["devices_dir"]  # absolute path of the profile directory
    assert manifest == {**MANIFEST, **manifest_extra}
