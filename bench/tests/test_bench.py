"""Tests of the benchmark: the oracle agrees with the program and the
stubs, each workload passes its checks at a reduced size, and every
check rejects a planted wrong answer; the speed probe rescales wall
time and leaves no timer behind.

    python3 -m pytest bench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import oracle
import speed
from edgenas.architecture import build_architecture
from edgenas.space import Configuration, index_of, table1_space
from tracing import Tracer
from workloads import STUBS, BridgeResume, MeasureJitter, SearchDefault

BENCH = Path(__file__).resolve().parent.parent


def run_one(workload, workdir: Path):
    out = workdir / "pass-000"
    info = {"dir": out.name, **workload.run_pass(out, Tracer())}
    return out, info


def findings(workload, workdir: Path, out: Path, info: dict) -> checks.Findings:
    ctx = checks.Context({"workload": workload.name, "meta": workload.meta}, workdir)
    return checks.check_pass(ctx, out, info)


def unexpected_kinds(f: checks.Findings) -> set:
    return {item[0] for item in f.unexpected}


@pytest.fixture(scope="module")
def search_pass(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("search-default")
    workload = SearchDefault(5, workdir, budget=120, keep1=40)
    return workload, workdir, *run_one(workload, workdir)


@pytest.fixture(scope="module")
def jitter_pass(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("measure-jitter")
    workload = MeasureJitter(5, workdir, candidates=60)
    return workload, workdir, *run_one(workload, workdir)


@pytest.fixture(scope="module")
def bridge_pass(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bridge-resume")
    workload = BridgeResume(5, workdir, budget=40, keep1=20)
    return workload, workdir, *run_one(workload, workdir)


def tampered(fixture, tmp_path: Path):
    """A copy of a pass directory to plant a wrong answer in."""
    workload, workdir, out, info = fixture
    copy = tmp_path / "pass"
    shutil.copytree(out, copy)
    return workload, workdir, copy, json.loads(json.dumps(info))


def edit_log(out: Path, edit) -> None:
    path = out / "trials.jsonl"
    records = checks.read_log(path)
    records = edit(records) or records
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def rescale(record: dict, field: str, factor: float = 1.0, shift: float = 0.0) -> None:
    """Change one measured value and the fitness that follows from it, so
    that only the check on the value itself can see the change."""
    record[field] = record[field] * factor + shift
    pdp = record["dynamic_power_w"] or 1.0
    record["fitness"]["value"] = record["accuracy_pct"] / (record["latency_mean_ms"] * pdp)


def edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    path.write_text(json.dumps(edit(data) or data, indent=2) + "\n")


# The oracle against the program and the stubs.


def test_layer_walk_and_index_agree_with_the_program():
    grid, space = oracle.load_grid(), table1_space()
    rng = random.Random(0)
    for _ in range(200):
        index = rng.randrange(oracle.grid_size(grid))
        wire = oracle.config_at(index, grid)
        config = Configuration.from_json_dict(wire)
        arch = build_architecture(config)
        walk = oracle.layer_walk(wire)
        assert (walk["conv_macs"], walk["fc_macs"], walk["params"], walk["weighted_layers"]) == (
            arch.conv_macs, arch.fc_macs, arch.total_params, arch.weighted_layer_count
        )
        assert oracle.canonical_index(wire, grid) == index_of(space, config) == index
        assert oracle.on_grid(wire, grid)
    assert not oracle.on_grid({**oracle.config_at(0, grid), "k1": 7}, grid)


def test_stub_answers_match_the_oracle():
    config = oracle.config_at(123_456, oracle.load_grid())
    requests = [
        {"id": 0, "cmd": "measure_latency", "config": config, "runs": 42},
        {"id": 1, "cmd": "measure_power", "config": config, "window_s": 180, "sample_hz": 1},
    ]
    device = subprocess.run(
        [sys.executable, str(STUBS / "device.py"), "pi-tpu"],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    latency, power = (json.loads(line) for line in device)
    assert latency["latency_ms"] == oracle.stub_latency_samples(config, "pi-tpu", 42)
    assert power["active_w"][0] - power["idle_w"][0] == pytest.approx(
        oracle.stub_dynamic_power_w(config, "pi-tpu"), rel=1e-12
    )
    evaluator = subprocess.run(
        [sys.executable, str(STUBS / "evaluator.py")],
        input=json.dumps({"id": 0, "cmd": "evaluate", "config": config}) + "\n",
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(evaluator)["accuracy_pct"] == oracle.stub_accuracy(config)


# Each workload at a reduced size passes its checks.


def test_search_default_passes(search_pass):
    f = findings(*search_pass)
    assert not f.items


def test_measure_jitter_passes(jitter_pass):
    workload, workdir, out, info = jitter_pass
    blocks = {r["config"]["block"] for r in checks.read_json(workdir / "candidates.json")["records"]}
    assert blocks == {2, 3, 4}
    assert not findings(*jitter_pass).items


def test_bridge_resume_fails_only_by_the_known_rerun(bridge_pass):
    f = findings(*bridge_pass)
    assert set(f.items) == {("stage1-rerun",)} and f.known == {("stage1-rerun",)}


def test_traced_bridge_pass_counts(tmp_path):
    workload = BridgeResume(6, tmp_path, budget=30, keep1=15)
    layers = []
    for i in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            workload.run_pass(tmp_path / f"pass-{i}", tracer)
        finally:
            tracer.restore()
        layers.append(tracer.layer_metrics())
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in layers]
    assert counts[0] == counts[1]
    assert counts[0]["protocol.channels_opened"] == 26
    assert counts[0]["pipeline.cache_hit_ratio"] == 1.0
    assert counts[0]["tpe.suggest_calls"] == 60 and counts[0]["tpe.unique_yield"] == 1.0
    assert counts[0]["evaluators.external_calls"] == 60
    assert counts[0]["pipeline.log_appends"] == 30 + 6 * (15 + 10) + 30


# Each check rejects a planted wrong answer.


def test_rejects_a_stub_device_off_by_one_percent(tmp_path):
    workload = BridgeResume(5, tmp_path, budget=40, keep1=20, device_skew=1.01)
    out, info = run_one(workload, tmp_path)
    f = findings(workload, tmp_path, out, info)
    assert "s2" in unexpected_kinds(f)


def test_rejects_a_swapped_stage2_record(search_pass, tmp_path):
    workload, workdir, out, info = tampered(search_pass, tmp_path)
    log = checks.read_log(out / "trials.jsonl")

    def swap(stage2):
        kept = stage2["pi"]["records"]
        keys = {oracle.config_key(r["config"]) for r in kept}
        outside = next(
            r for r in log
            if r["stage"] == 2 and r["device"] == "pi" and oracle.config_key(r["config"]) not in keys
        )
        kept[-1] = outside

    edit_json(out / "stage2.json", swap)
    assert ("stage2-set", "pi") in findings(workload, workdir, out, info).unexpected


def test_rejects_a_stage1_set_with_a_lower_trial(search_pass, tmp_path):
    workload, workdir, out, info = tampered(search_pass, tmp_path)
    log = checks.read_log(out / "trials.jsonl")

    def swap(stage1):
        keys = {oracle.config_key(r["config"]) for r in stage1["records"]}
        stage1["records"][-1] = next(
            r for r in log if r["stage"] == 1 and oracle.config_key(r["config"]) not in keys
        )

    edit_json(out / "stage1.json", swap)
    assert ("stage1-set",) in findings(workload, workdir, out, info).unexpected


def test_rejects_a_latency_off_the_cost_model(search_pass, tmp_path):
    workload, workdir, out, info = tampered(search_pass, tmp_path)

    def skew(records):
        rescale(next(r for r in records if r["stage"] == 2), "latency_mean_ms", 1.01)

    edit_log(out, skew)
    assert "s2" in unexpected_kinds(findings(workload, workdir, out, info))


def test_rejects_a_power_off_the_cost_model(search_pass, tmp_path):
    workload, workdir, out, info = tampered(search_pass, tmp_path)

    def skew(records):
        rescale(next(r for r in records if r["stage"] == 3), "dynamic_power_w", 1.01)

    edit_log(out, skew)
    assert "s3" in unexpected_kinds(findings(workload, workdir, out, info))


def test_rejects_a_winner_that_is_not_the_best(search_pass, tmp_path):
    workload, workdir, out, info = tampered(search_pass, tmp_path)
    stage2 = checks.read_json(out / "stage2.json")

    def replace(stage3):
        stage3["pi"] = next(
            r for r in stage2["pi"]["records"]
            if oracle.config_key(r["config"]) != oracle.config_key(stage3["pi"]["config"])
        )

    edit_json(out / "stage3.json", replace)
    assert ("stage3-winner", "pi") in findings(workload, workdir, out, info).unexpected


def test_rejects_a_duplicate_trial_line(search_pass, tmp_path):
    workload, workdir, out, info = tampered(search_pass, tmp_path)
    edit_log(out, lambda records: records + [next(r for r in records if r["stage"] == 2)])
    assert "s2" in unexpected_kinds(findings(workload, workdir, out, info))


@pytest.mark.parametrize("field", ["latency_mean_ms", "dynamic_power_w"])
def test_rejects_a_jittered_measure_beyond_its_error(jitter_pass, tmp_path, field):
    workload, workdir, out, info = tampered(jitter_pass, tmp_path)
    if field == "latency_mean_ms":
        stage, se = 2, workload.meta["latency_sigma_ms"] / oracle.LATENCY_RUNS ** 0.5
    else:
        stage, se = 3, workload.meta["power_sigma_w"] * (2 / oracle.POWER_SAMPLES) ** 0.5

    def shift(records):
        rescale(next(r for r in records if r["stage"] == stage), field, shift=16 * se)

    edit_log(out, shift)
    assert f"s{stage}" in unexpected_kinds(findings(workload, workdir, out, info))


def test_rejects_a_changed_evaluator_answer(bridge_pass, tmp_path):
    workload, workdir, out, info = tampered(bridge_pass, tmp_path)

    def change(records):
        for r in records:
            if r["stage"] == 1:
                r["accuracy_pct"] += 0.01

    edit_log(out, change)
    assert "s1" in unexpected_kinds(findings(workload, workdir, out, info))


def test_rejects_a_resume_that_appends_or_rewrites(bridge_pass, tmp_path):
    workload, workdir, out, info = tampered(bridge_pass, tmp_path)
    info["log_sizes"]["resumed"] += 1
    with (out / "stage3.json").open("a") as handle:
        handle.write(" ")
    kinds = unexpected_kinds(findings(workload, workdir, out, info))
    assert {"resume-append", "resume-rewrite"} <= kinds


def test_rejects_a_report_that_disagrees_with_the_log(bridge_pass, tmp_path):
    workload, workdir, out, info = tampered(bridge_pass, tmp_path)
    summary = (out / "summary.csv").read_text().splitlines()
    summary[1] = summary[1].replace(",20,", ",19,", 1)
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    assert ("report",) in findings(workload, workdir, out, info).unexpected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout


def test_speed_probe_rescales_kernel_work_to_reference_seconds():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    n = 3000
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        for _ in range(n):
            speed.kernel()
        wall = time.perf_counter() - start
    assert probe.samples > 0
    # The loop runs the probe's own kernel, so it takes about n kernels
    # in reference seconds, however fast the machine runs today.
    assert 0.7 < probe.reference_s(wall) / (n * speed.REF_KERNEL_S) < 1.4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
