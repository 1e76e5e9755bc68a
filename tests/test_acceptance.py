"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import statistics
import sys
import time

import numpy as np
import pytest

from edgenas.architecture import build_architecture
from edgenas.devices import DeviceMeasurer, ExternalDevice, MeasurementError, SimulatedDevice
from edgenas.evaluators import SurrogateEvaluator
from edgenas.pipeline import (
    FitnessKind,
    RankedSet,
    TrialRecord,
    fitness,
    rank_records,
    stage1,
    stage2,
)
from edgenas.protocol import JsonLineChannel
from edgenas.reporting import evaluate_claims
from edgenas.space import (
    Configuration,
    cardinality,
    config_from_index,
    sample_uniform,
    space_to_json,
)
from edgenas.tpe import OptimizerSettings, best_accuracy, random_search, run_optimization
from conftest import MOCK_DEVICE
from oracles import conv_subspace_count, fc_subspace_count, layer_walk_counts


def _ok(n, message):
    print(f"[acceptance] criterion {n:2d} PASS: {message}")


def test_criterion_01_accuracy_per_pdp_arithmetic():
    cases = [
        ((96.95, 0.39, 0.52), 478.06),
        ((97.46, 6.95, 0.50), 28.04),
        ((95.93, 0.65, 0.67), 220.27),
    ]
    for (accuracy, latency, power), expected in cases:
        value = fitness(accuracy, latency, power, FitnessKind.ACCURACY_PER_PDP)
        assert abs(value - expected) <= 0.01, (accuracy, value, expected)
    _ok(1, "accuracy/PDP reproduces 478.06, 28.04, 220.27 within 0.01")


def test_criterion_02_ratio_sheet():
    claims = {c.label: c for c in evaluate_claims()}
    expectations = {
        "average latency reduction: pi-ncs2 vs pi": 1.87,
        "average latency reduction: pi-tpu vs pi": 2.51,
        "average latency reduction: coral-dev vs pi": 10.0,
        "average latency reduction: jetson-low vs pi": 2.43,
        "average latency reduction: jetson-high vs pi": 2.44,
        "best-model speedup: coral-dev vs jetson-low": 4.02,
        "best-model speedup: coral-dev vs jetson-high": 3.92,
        "best-model latency: pi-tpu fraction lower than pi-ncs2": 0.26,
        "best-model accuracy: pi-tpu points above pi-ncs2": 1.52,
        "average dynamic power: pi-tpu less than pi-ncs2": 2.62,
        "best-model dynamic power: pi-tpu less than pi-ncs2": 2.70,
        "average dynamic power: coral-dev less than jetson-high": 4.30,
        "average dynamic power: coral-dev less than jetson-low": 1.87,
        "best-model dynamic power: coral-dev less than jetson-high": 2.58,
        "best-model dynamic power: coral-dev less than jetson-low": 1.75,
        "comparison latency: ours vs [18]": 17.82,
        "comparison latency: ours vs [19]": 1.67,
        "comparison dynamic power: ours vs [19]": 1.29,
        "comparison accuracy/PDP: ours vs [19]": 2.17,
        "comparison accuracy/PDP: ours vs [18]": 17.0,
    }
    assert set(expectations) == set(claims)
    for label, expected in expectations.items():
        claim = claims[label]
        assert claim.expected == expected, label
        assert claim.computed is not None, label
        assert abs(claim.computed - expected) <= 0.05, (label, claim.computed)
        assert claim.passed, label
    jetson = claims["average latency reduction: jetson-low vs pi"]
    assert jetson.note and "inconsistent" in jetson.note
    _ok(2, "all 20 published ratio claims reproduce within 0.05 from the fixture")


def test_criterion_03_cardinality(capsys, table1):
    start = time.monotonic()
    from edgenas.cli import main

    assert main(["space", "count"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "4167450"
    assert ">13M" in lines[1]

    assert cardinality(table1) == 4_167_450
    conv = conv_subspace_count(table1)
    assert conv == 378
    assert conv * fc_subspace_count(table1) == 4_167_450
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        _ok(3, f"cardinality 4,167,450 = 378 x 11,025 with >13M note ({elapsed:.2f}s)")


def test_criterion_04_architecture_oracle(table1, pi_best):
    start = time.monotonic()
    arch = build_architecture(pi_best)
    assert arch.total_params == 365_515
    assert arch.total_macs == 10_970_992
    rng = np.random.default_rng(404)
    for index in rng.integers(cardinality(table1), size=100):
        config = config_from_index(table1, int(index))
        built = build_architecture(config)
        params, macs = layer_walk_counts(
            config.block, list(config.kernels), config.fc1, config.fc2, config.output_classes
        )
        assert built.total_params == params
        assert built.total_macs == macs
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(4, f"100 random configs match the layer-walk oracle exactly ({elapsed:.2f}s)")


def test_criterion_05_layer_count_claims():
    configs = {
        2: Configuration(block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10),
        3: Configuration(block=3, k1=6, k2=24, k3=36, fc1=100, do1=10, fc2=80, do2=10),
        4: Configuration(block=4, k1=6, k2=24, k3=36, k4=52, fc1=100, do1=10, fc2=80, do2=10),
    }
    for block, expected in ((2, 7), (3, 9), (4, 11)):
        assert build_architecture(configs[block]).weighted_layer_count == expected == 2 * block + 3
    _ok(5, "blocks 2/3/4 give 7/9/11 weighted layers")


def test_criterion_06_tpe_superiority(table1):
    start = time.monotonic()
    evaluator = SurrogateEvaluator(table1)
    evaluate = lambda c: evaluator.evaluate(c).accuracy_pct
    tpe_best, random_best, wins = [], [], 0
    for seed in range(20):
        tpe_value = best_accuracy(
            run_optimization(table1, evaluate, 200, OptimizerSettings(seed=seed))
        )
        random_value = best_accuracy(random_search(table1, evaluate, 200, seed))
        tpe_best.append(tpe_value)
        random_best.append(random_value)
        wins += tpe_value > random_value
    elapsed = time.monotonic() - start
    assert np.median(tpe_best) >= np.median(random_best)
    assert wins >= 12
    assert elapsed < 30.0
    _ok(
        6,
        f"TPE median {np.median(tpe_best):.3f} >= random {np.median(random_best):.3f}, "
        f"wins {wins}/20 ({elapsed:.1f}s)",
    )


def test_criterion_07_end_to_end_determinism(tmp_path, reduced_space, shipped_profiles):
    from edgenas.cli import main

    assert cardinality(reduced_space) <= 5000
    assert len(shipped_profiles) == 6
    space_file = tmp_path / "space.json"
    space_to_json(reduced_space, space_file)

    start = time.monotonic()

    def run(name):
        out = tmp_path / name
        code = main(
            [
                "pipeline",
                "--space",
                str(space_file),
                "--budget",
                "500",
                "--keep1",
                "50",
                "--keep2",
                "10",
                "--seed",
                "7",
                "--out",
                str(out),
                "--no-timestamps",
            ]
        )
        assert code == 0
        return out

    first, second = run("one"), run("two")
    elapsed = time.monotonic() - start
    winners_a = json.loads((first / "stage3.json").read_text())
    winners_b = json.loads((second / "stage3.json").read_text())
    assert winners_a == winners_b
    assert (first / "trials.jsonl").read_bytes() == (second / "trials.jsonl").read_bytes()

    stage1_set = {
        json.dumps(r["config"], sort_keys=True)
        for r in json.loads((first / "stage1.json").read_text())["records"]
    }
    stage2_sets = json.loads((first / "stage2.json").read_text())
    for device, ranked in stage2_sets.items():
        configs = {json.dumps(r["config"], sort_keys=True) for r in ranked["records"]}
        assert configs <= stage1_set
        assert json.dumps(winners_a[device]["config"], sort_keys=True) in configs
    assert set(winners_a) == set(shipped_profiles)
    assert elapsed < 60.0
    _ok(7, f"two seeded pipeline runs byte-identical; nesting holds ({elapsed:.1f}s)")


def test_criterion_08_stage1_brute_force(toy8_space):
    evaluator = SurrogateEvaluator(toy8_space)
    ranked = stage1(
        toy8_space, evaluator, OptimizerSettings(seed=5, n_startup=300), budget=200, keep=3
    )
    exhaustive = []
    for index in range(cardinality(toy8_space)):
        config = config_from_index(toy8_space, index)
        accuracy = evaluator.evaluate(config).accuracy_pct
        exhaustive.append(
            TrialRecord(
                config=config,
                stage=1,
                fitness_kind=FitnessKind.ACCURACY,
                fitness_value=accuracy,
                accuracy_pct=accuracy,
            )
        )
    expected = rank_records(exhaustive, FitnessKind.ACCURACY, 3, toy8_space)
    assert [r.config for r in ranked.records] == [r.config for r in expected.records]
    _ok(8, "stage 1 keep-3 equals the exhaustive top-3 on the 8-config space")


def test_criterion_09_measurement_protocol(pi_best):
    arch = build_architecture(pi_best)

    def channel(mode):
        return JsonLineChannel([sys.executable, str(MOCK_DEVICE), mode], timeout_s=10.0)

    def measure(backend):
        measurer = DeviceMeasurer(backend)
        return measurer.latency(pi_best, arch), measurer.power(pi_best, arch)

    class CountingBackend:
        block_pairs = 1

        def __init__(self):
            self.requested_runs = []

        def expect_latency(self, pairs, runs):
            pass

        def expect_power(self, pairs, window_s, sample_hz):
            pass

        def latency_block(self, pairs, runs):
            self.requested_runs.append(runs)
            return np.full((len(pairs), runs), 2.35)

        def power_block(self, pairs, window_s, sample_hz):
            shape = (len(pairs), window_s * sample_hz)
            return np.full(shape, 2.00), np.full(shape, 4.08)

    with channel("ok") as ok_channel:
        (mean, std), power = measure(ExternalDevice(ok_channel))
    assert mean == pytest.approx(2.35)
    assert std == 0.0
    assert power == pytest.approx(4.08 - 2.00)
    counting = CountingBackend()
    assert measure(counting) == ((mean, std), power)
    assert counting.requested_runs == [40]

    with channel("short") as short_channel:
        with pytest.raises(MeasurementError, match="expected 40 latency runs"):
            measure(ExternalDevice(short_channel))

    with channel("negative") as negative_channel:
        with pytest.raises(MeasurementError, match="negative dynamic power"):
            measure(ExternalDevice(negative_channel))
    _ok(9, "NDJSON device protocol: stats match hand arithmetic; bad responses rejected")


def test_criterion_11_surrogate_contract(table1, shipped_profiles):
    evaluator = SurrogateEvaluator(table1)
    rng = np.random.default_rng(1111)
    configs = list(dict.fromkeys(sample_uniform(table1, rng) for _ in range(1000)))
    fp32 = [evaluator.evaluate(c).accuracy_pct for c in configs]
    assert all(88.32 < v < 99.49 for v in fp32)
    assert fp32 == [evaluator.evaluate(c).accuracy_pct for c in configs]
    # The FP16 loss is the device's: stage 2 subtracts its profile's delta.
    records = [TrialRecord(c, 1, FitnessKind.ACCURACY, a, a, seed=1) for c, a in zip(configs, fp32)]
    candidates = RankedSet(FitnessKind.ACCURACY, records, len(records))
    profiles = {name: shipped_profiles[name] for name in ("pi", "pi-ncs2")}
    ranked = stage2(
        table1, candidates, profiles, lambda p: DeviceMeasurer(SimulatedDevice(p)), len(records)
    )
    pi, ncs2 = ([r.accuracy_pct for r in ranked[name].records] for name in profiles)
    assert len(pi) == len(ncs2) == len(configs)
    gap = statistics.mean(pi) - statistics.mean(ncs2)
    assert abs(gap - 3.43) <= 0.01
    _ok(11, f"{len(configs)} configs in (88.32, 99.49); bit-exact repeats; "
            f"stage-2 pi - pi-ncs2 gap {gap:.4f}")
