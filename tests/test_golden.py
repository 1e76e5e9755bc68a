"""Golden outputs of seeded `edgenas` runs.

The hashes pin every byte the stages write, so a refactor or a speed-up
that changes a seeded output fails here. A change that is meant to alter
the outputs updates these values and says why. The small pipeline runs
cover stages 2 and 3 and, without jitter, the report files; the searches
on the Table-1 grid pin whole stage-1 histories: at the defaults on
seeds 1, 2 and 3, and at budget 600 with a non-default gamma and
candidate count.
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


# `report` over the noiseless run above. The ratio sheet gained its run
# column when the claim catalog became data; the other three files are
# as the report wrote them before that change.
REPORT_GOLDEN = {
    "summary.csv": "d5a96461662c537b716a7af849a5d8fdc7eb56e1410a39e5bcc8b821aa5799f8",
    "best_models.csv": "99d4395cfbef0c091816723b6b7cfef5edcaadcc61844232ed86bdf1d6da66c7",
    "ratios.json": "950d6adf28ae5dceb76b116c02fd0875816b2f40d6847ccb301a1902ef7efbae",
    "report.md": "10a156fde4ce44dde1d4cc5c57e8963f841fdd99200997d5080d9a7070c636ea",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _small_pipeline(tmp_path, reduced_space, capsys, extra):
    space_file = tmp_path / "space.json"
    space_to_json(reduced_space, space_file)
    out = tmp_path / "run"
    argv = [
        "pipeline", "--space", str(space_file), "--budget", "120", "--keep1", "15",
        "--keep2", "5", "--seed", "1", "--out", str(out), "--no-timestamps",
    ]
    assert main(argv + extra) == 0
    capsys.readouterr()
    return out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pipeline_outputs_match_golden(case, tmp_path, reduced_space, capsys):
    extra, hashes, manifest_extra = GOLDEN[case]
    out = _small_pipeline(tmp_path, reduced_space, capsys, extra)
    for name in STAGE_FILES:
        assert _sha256(out / name) == hashes[name], name
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["devices_dir"]  # absolute path of the profile directory
    assert manifest == {**MANIFEST, **manifest_extra}


def test_report_matches_golden(tmp_path, reduced_space, capsys):
    out = _small_pipeline(tmp_path, reduced_space, capsys, GOLDEN["noiseless"][0])
    assert main(["report", "--out", str(out), "--format", "md"]) == 0
    capsys.readouterr()
    for name, digest in REPORT_GOLDEN.items():
        assert _sha256(out / name) == digest, name


# `edgenas search --seed 1 --no-timestamps` at its defaults: the Table-1
# space, budget 2000, keep1 1000.
DEFAULT_SEARCH = {
    "trials.jsonl": "07a67088e5be2dc603fec5d2c6c981ed2594fb1c45a2fe193d2c4380723fa02b",
    "stage1.json": "17179621ea4810d8327e6fe4e1580531a8bdd7ee584d6c3e6586f3a207d6b276",
}


def _assert_search_matches(tmp_path, capsys, argv, hashes):
    out = tmp_path / "run"
    assert main(["search", "--no-timestamps", "--out", str(out), *argv]) == 0
    capsys.readouterr()
    for name, digest in hashes.items():
        assert _sha256(out / name) == digest, name


def test_default_search_matches_golden(tmp_path, capsys):
    _assert_search_matches(tmp_path, capsys, ["--seed", "1"], DEFAULT_SEARCH)


# More stage-1 histories on the Table-1 grid: the defaults on two other
# seeds, and a shorter run whose --config moves the good/bad split to half
# the successes with few candidates per suggestion. Each case gives its
# flags, the optimizer section of its --config file (or None), and hashes.
SEARCH_GOLDEN = {
    "seed2": (
        ["--seed", "2"],
        None,
        {
            "trials.jsonl": "cafd6b58a8dc4bc9d1829dba249f6976e95cc26154572b78b026cdc4ffee7cb5",
            "stage1.json": "227689cb28ca5d55819f23d0bcb2f3ae1676a0103d6fe9f4470cf88396f0fd8b",
        },
    ),
    "seed3": (
        ["--seed", "3"],
        None,
        {
            "trials.jsonl": "08b9eb55ba20052c08aa5254701cecb5f674104b22d984add62b6e0c8f35a2fa",
            "stage1.json": "c66afd546115fd602657571eb3041c6fc8c1198f79ed3db6e69c194be0d5f428",
        },
    ),
    "gamma-half": (
        ["--seed", "1", "--budget", "600", "--keep1", "200"],
        {"gamma": 0.5, "n_candidates": 8},
        {
            "trials.jsonl": "5fed356bfd4e06ee2503f4732dafd83d1ab729cb3f4be00f963b4da02c0820c8",
            "stage1.json": "10ca83cdc2a555cbaaee9c4d33a04c820a23d4ef7431ae149740c8caec1e5d79",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(SEARCH_GOLDEN))
def test_search_matches_golden(case, tmp_path, capsys):
    argv, optimizer, hashes = SEARCH_GOLDEN[case]
    if optimizer is not None:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"optimizer": optimizer}))
        argv = [*argv, "--config", str(config)]
    _assert_search_matches(tmp_path, capsys, argv, hashes)
