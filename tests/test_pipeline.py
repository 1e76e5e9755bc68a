import hashlib
import json
import math
import os
import pathlib
import sys
import time
import zlib

import numpy as np
import pytest

import edgenas.devices as devices_module
import edgenas.pipeline as pipeline_module
import edgenas.protocol as protocol_module
from edgenas import rundir
from edgenas.architecture import build_architecture
from edgenas.devices import (
    DeviceMeasurer,
    ExternalDevice,
    JitterSpec,
    MeasurementError,
    SimulatedDevice,
)
from edgenas.evaluators import ExternalEvaluator, SurrogateEvaluator
from edgenas.pipeline import (
    FitnessKind,
    PipelineError,
    RankedSet,
    TrialLog,
    TrialRecord,
    fitness,
    rank_records,
    stage1,
    stage2,
    stage3,
)
from edgenas.protocol import JsonLineChannel, ProtocolError
from edgenas.space import (
    Configuration,
    SpaceValidationError,
    cardinality,
    config_from_index,
    index_of,
)
from edgenas.tpe import OptimizerSettings
from conftest import MOCK_DEVICE, MOCK_EVALUATOR, traced_peak
from oracles import recomputed_fitness

# sha256 of the files of TestStage1's startup-window run, as the channel
# wrote them when it sent one request at a time
STARTUP_WINDOW_DIGESTS = {
    "stage1.json": "415cff46c995dafedb643a19ff27edb896a48a56bb414b91c41853547635c832",
    "trials.jsonl": "64652515cf5a2f62eec3ca6dd634c0b63c61ae2e6a50f3b03e31c0025a9b1f33",
}


class FakeMeasurer:
    """Canned per-config latency/power; counts calls for exhaustiveness checks."""

    def __init__(self, latency_by_key=None, power_by_key=None, default_latency=1.0, default_power=0.5):
        self.latency_by_key = latency_by_key or {}
        self.power_by_key = power_by_key or {}
        self.default_latency = default_latency
        self.default_power = default_power
        self.latency_calls = 0
        self.power_calls = 0

    def expect(self, measurement, configs):
        pass

    def latency(self, config, arch):
        self.latency_calls += 1
        value = self.latency_by_key.get(config.canonical_json(), self.default_latency)
        if value is None:
            raise MeasurementError("synthetic latency failure")
        return value, 0.0

    def power(self, config, arch):
        self.power_calls += 1
        value = self.power_by_key.get(config.canonical_json(), self.default_power)
        if value is None:
            raise MeasurementError("synthetic power failure")
        return value


class _AppendHandle:
    """An append handle that records the bytes each write took; with a
    ``limit``, a write takes at most that many, as a short write does."""

    limit: int | None = None

    def __init__(self, handle):
        self._handle, self.writes = handle, []

    def write(self, data) -> int:
        taken = self._handle.write(bytes(data[: self.limit]))
        self.writes.append(bytes(data[:taken]))
        return taken

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _stage1_record(config, accuracy, seed=1):
    return TrialRecord(
        config=config,
        stage=1,
        fitness_kind=FitnessKind.ACCURACY,
        fitness_value=accuracy,
        accuracy_pct=accuracy,
        seed=seed,
    )


def _candidates(configs_with_accuracy):
    records = [_stage1_record(c, a) for c, a in configs_with_accuracy]
    return RankedSet(fitness=FitnessKind.ACCURACY, records=records, k=len(records))


class TestFitness:
    @pytest.mark.parametrize(
        "accuracy,latency,power,expected",
        [
            (96.95, 0.39, 0.52, 478.06),
            (97.46, 6.95, 0.50, 28.04),
            (95.93, 0.65, 0.67, 220.27),
            (100.0, 1.0, 1.0, 100.0),
        ],
    )
    def test_accuracy_per_pdp(self, accuracy, latency, power, expected):
        value = fitness(accuracy, latency, power, FitnessKind.ACCURACY_PER_PDP)
        assert value == pytest.approx(expected, abs=0.01)

    def test_accuracy_passthrough(self):
        assert fitness(98.5) == 98.5

    def test_accuracy_per_latency(self):
        assert fitness(97.0, 2.0, kind=FitnessKind.ACCURACY_PER_LATENCY) == 48.5

    def test_missing_denominators_error(self):
        with pytest.raises(ValueError):
            fitness(97.0, kind=FitnessKind.ACCURACY_PER_LATENCY)
        with pytest.raises(ValueError):
            fitness(97.0, 1.0, 0.0, FitnessKind.ACCURACY_PER_PDP)
        with pytest.raises(ValueError):
            fitness(97.0, 1.0, None, FitnessKind.ACCURACY_PER_PDP)


class TestStage1:
    def test_toy8_brute_force_equivalence(self, toy8_space):
        evaluator = SurrogateEvaluator(toy8_space)
        settings = OptimizerSettings(seed=5, n_startup=300)
        ranked = stage1(toy8_space, evaluator, settings, budget=200, keep=3)
        exhaustive = [
            _stage1_record(
                config_from_index(toy8_space, i),
                evaluator.evaluate(config_from_index(toy8_space, i)).accuracy_pct,
            )
            for i in range(cardinality(toy8_space))
        ]
        expected = rank_records(exhaustive, FitnessKind.ACCURACY, 3, toy8_space)
        assert [r.config for r in ranked.records] == [r.config for r in expected.records]

    def test_keep_one(self, toy8_space):
        evaluator = SurrogateEvaluator(toy8_space)
        ranked = stage1(
            toy8_space, evaluator, OptimizerSettings(seed=5, n_startup=300), budget=200, keep=1
        )
        values = [
            evaluator.evaluate(config_from_index(toy8_space, i)).accuracy_pct
            for i in range(8)
        ]
        assert ranked.records[0].accuracy_pct == pytest.approx(max(values))

    def test_same_seed_identical_output(self, reduced_space):
        evaluator = SurrogateEvaluator(reduced_space)
        settings = OptimizerSettings(seed=11)
        a = stage1(reduced_space, evaluator, settings, budget=150, keep=20, timestamps=False)
        b = stage1(reduced_space, evaluator, settings, budget=150, keep=20, timestamps=False)
        assert a.to_json_dict() == b.to_json_dict()

    def test_shortfall_raises(self, toy8_space):
        evaluator = SurrogateEvaluator(toy8_space)
        with pytest.raises(PipelineError, match="unique successful trials"):
            stage1(toy8_space, evaluator, OptimizerSettings(seed=5), budget=50, keep=9)

    def test_persists_every_unique_trial(self, tmp_path, toy8_space):
        evaluator = SurrogateEvaluator(toy8_space)
        log = TrialLog(tmp_path / "trials.jsonl")
        ranked = stage1(
            toy8_space,
            evaluator,
            OptimizerSettings(seed=5, n_startup=300),
            budget=200,
            keep=3,
            log=log,
        )
        persisted = log.load()
        assert len(persisted) == 8  # all unique trials, not only survivors
        assert len(ranked.records) == 3

    def test_startup_requests_and_outputs_unchanged_by_the_window(self, tmp_path, toy8_space):
        # Startup covers the budget: 12 uniform draws over 8 configurations
        # repeat some, and the evaluator answers request 2 with an error.
        # The evaluator gets one request per distinct draw, in first-draw
        # order, with consecutive ids, and the run's files are the bytes
        # the sequential channel gave.
        seed, budget, record = 5, 12, tmp_path / "requests.jsonl"
        argv = [sys.executable, str(MOCK_EVALUATOR), "record", str(record)]
        with JsonLineChannel(argv, timeout_s=10.0) as channel:
            with TrialLog(tmp_path / "trials.jsonl") as log:
                ranked = stage1(
                    toy8_space, ExternalEvaluator(channel),
                    OptimizerSettings(seed=seed, n_startup=budget), budget, keep=3,
                    log=log, timestamps=False,
                )
        rundir.write(tmp_path, "stage1", ranked)
        draws = [
            config_from_index(
                toy8_space, int(np.random.default_rng([seed, i]).integers(cardinality(toy8_space)))
            )
            for i in range(budget)
        ]
        distinct = list(dict.fromkeys(draws))
        assert len(distinct) < budget
        expected = [
            json.dumps({"cmd": "evaluate", "config": c.to_json_dict(), "id": i}) + "\n"
            for i, c in enumerate(distinct)
        ]
        assert record.read_text() == "".join(expected)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("trials.jsonl", "stage1.json")
        }
        assert digests == STARTUP_WINDOW_DIGESTS


class TestStage2:
    def test_ranking_by_accuracy_per_latency(self, table1):
        configs = [config_from_index(table1, i) for i in (0, 1, 2)]
        candidates = _candidates(list(zip(configs, [98.0, 99.0, 97.0])))
        latencies = {
            configs[0].canonical_json(): 2.0,
            configs[1].canonical_json(): 3.0,
            configs[2].canonical_json(): 1.0,
        }
        measurer = FakeMeasurer(latency_by_key=latencies)
        profile = _zero_delta_profile("dev")
        result = stage2(table1, candidates, {"dev": profile}, lambda p: measurer, 3)
        values = [r.fitness_value for r in result["dev"].records]
        assert values == pytest.approx([97.0, 49.0, 99.0 / 3.0])

    def test_published_coral_vs_pi_gap(self):
        coral = fitness(97.46, 0.39, kind=FitnessKind.ACCURACY_PER_LATENCY)
        pi = fitness(96.95, 2.88, kind=FitnessKind.ACCURACY_PER_LATENCY)
        assert coral == pytest.approx(249.9, abs=0.05)
        assert pi == pytest.approx(33.7, abs=0.05)
        assert coral > 7 * pi

    def test_tie_break_prefers_lower_latency(self, table1):
        configs = [config_from_index(table1, i) for i in (0, 1)]
        candidates = _candidates([(configs[0], 98.0), (configs[1], 49.0)])
        latencies = {
            configs[0].canonical_json(): 2.0,  # fitness 49
            configs[1].canonical_json(): 1.0,  # fitness 49
        }
        measurer = FakeMeasurer(latency_by_key=latencies)
        result = stage2(table1, candidates, {"dev": _zero_delta_profile("dev")}, lambda p: measurer, 2)
        assert result["dev"].records[0].config == configs[1]

    def test_exhaustive_measurement_count(self, table1, shipped_profiles):
        configs = [config_from_index(table1, i) for i in range(7)]
        candidates = _candidates([(c, 95.0) for c in configs])
        measurers = {name: FakeMeasurer() for name in shipped_profiles}
        stage2(table1, candidates, shipped_profiles, lambda p: measurers[p.name], 3)
        for measurer in measurers.values():
            assert measurer.latency_calls == len(configs)

    def test_accuracy_delta_applied(self, table1, shipped_profiles):
        config = config_from_index(table1, 0)
        candidates = _candidates([(config, 98.88)])
        result = stage2(
            table1, candidates, {"pi-ncs2": shipped_profiles["pi-ncs2"]}, lambda p: FakeMeasurer(), 1
        )
        assert result["pi-ncs2"].records[0].accuracy_pct == pytest.approx(98.88 - 3.43)

    def test_accuracy_outside_0_100_after_the_delta_refused_before_measuring(
        self, tmp_path, table1, shipped_profiles
    ):
        config = config_from_index(table1, 0)
        measurer = FakeMeasurer()
        log = TrialLog(tmp_path / "run" / "trials.jsonl")
        with pytest.raises(PipelineError) as caught:
            stage2(
                table1, _candidates([(config, 1.0)]),
                {"jetson-high": shipped_profiles["jetson-high"]}, lambda p: measurer, 1, log=log,
            )
        message = str(caught.value)
        assert message.startswith(f"stage 2: accuracy {1.0 - 3.43} outside [0, 100] for ")
        assert f"{config.canonical_json()} on jetson-high" in message
        assert measurer.latency_calls == 0
        assert not log.path.parent.exists()

    def test_failed_pair_excluded(self, table1):
        configs = [config_from_index(table1, i) for i in (0, 1)]
        candidates = _candidates([(c, 95.0) for c in configs])
        latencies = {configs[0].canonical_json(): None, configs[1].canonical_json(): 1.5}
        measurer = FakeMeasurer(latency_by_key=latencies)
        result = stage2(table1, candidates, {"dev": _zero_delta_profile("dev")}, lambda p: measurer, 2)
        assert [r.config for r in result["dev"].records] == [configs[1]]

    def test_all_pairs_failed_raises(self, table1):
        config = config_from_index(table1, 0)
        candidates = _candidates([(config, 95.0)])
        measurer = FakeMeasurer(latency_by_key={config.canonical_json(): None})
        with pytest.raises(PipelineError, match="no successful measurements"):
            stage2(table1, candidates, {"dev": _zero_delta_profile("dev")}, lambda p: measurer, 1)

    def test_off_grid_candidate_rejected_before_measuring(self, table1):
        off_grid = Configuration(block=2, k1=7, k2=24, fc1=100, do1=10, fc2=80, do2=10)
        candidates = _candidates([(config_from_index(table1, 0), 95.0), (off_grid, 96.0)])
        measurer = FakeMeasurer()
        with pytest.raises(SpaceValidationError, match=r'stage 2: candidate .*"k1":7'):
            stage2(table1, candidates, {"dev": _zero_delta_profile("dev")}, lambda p: measurer, 2)
        assert measurer.latency_calls == 0

    def test_empty_candidates_rejected(self, table1):
        empty = RankedSet(fitness=FitnessKind.ACCURACY, records=[], k=0)
        with pytest.raises(PipelineError, match="non-empty"):
            stage2(table1, empty, {"dev": _zero_delta_profile("dev")}, lambda p: FakeMeasurer(), 1)


def _stage2_record(config, fitness_value, latency):
    return TrialRecord(
        config=config,
        stage=2,
        fitness_kind=FitnessKind.ACCURACY_PER_LATENCY,
        fitness_value=fitness_value,
        accuracy_pct=fitness_value * latency,
        device="dev",
        latency_mean_ms=latency,
    )


def _params(config):
    return build_architecture(config).total_params


class TestRankTieBreak:
    # k1 varies slower than fc1 in the canonical order
    WIDE = Configuration(block=2, k1=6, k2=24, fc1=120, do1=10, fc2=80, do2=10)
    SLIM = Configuration(block=2, k1=8, k2=24, fc1=100, do1=10, fc2=80, do2=10)

    def test_equal_fitness_and_latency_prefer_fewer_params(self, table1):
        assert _params(self.SLIM) < _params(self.WIDE)
        assert index_of(table1, self.SLIM) > index_of(table1, self.WIDE)
        records = [_stage2_record(self.WIDE, 40.0, 2.0), _stage2_record(self.SLIM, 40.0, 2.0)]
        ranked = rank_records(records, FitnessKind.ACCURACY_PER_LATENCY, 2, table1)
        assert [r.config for r in ranked.records] == [self.SLIM, self.WIDE]

    def test_equal_params_prefer_lower_canonical_index(self, table1):
        low = Configuration(block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10)
        high = Configuration(block=2, k1=6, k2=24, fc1=100, do1=20, fc2=80, do2=10)
        assert _params(low) == _params(high)
        assert index_of(table1, low) < index_of(table1, high)
        records = [_stage2_record(high, 40.0, 2.0), _stage2_record(low, 40.0, 2.0)]
        ranked = rank_records(records, FitnessKind.ACCURACY_PER_LATENCY, 2, table1)
        assert [r.config for r in ranked.records] == [low, high]

    def test_only_tied_records_are_compiled(self, table1, monkeypatch):
        top, fast, low = (config_from_index(table1, i) for i in (3, 4, 5))
        records = [
            _stage2_record(low, 30.0, 1.0),
            _stage2_record(self.WIDE, 40.0, 2.0),
            _stage2_record(fast, 40.0, 1.0),
            _stage2_record(top, 50.0, 3.0),
            _stage2_record(self.SLIM, 40.0, 2.0),
        ]
        built = []

        def counting_build(config):
            built.append(config)
            return build_architecture(config)

        monkeypatch.setattr(pipeline_module, "build_architecture", counting_build)
        ranked = rank_records(records, FitnessKind.ACCURACY_PER_LATENCY, 5, table1)
        assert [r.config for r in ranked.records] == [top, fast, self.SLIM, self.WIDE, low]
        assert sorted(built, key=repr) == sorted([self.WIDE, self.SLIM], key=repr)
        ranked = rank_records(records, FitnessKind.ACCURACY_PER_LATENCY, 3, table1)
        assert [r.config for r in ranked.records] == [top, fast, self.SLIM]


class TestStage3:
    def test_single_candidate_wins(self, table1):
        config = config_from_index(table1, 0)
        stage2_set = _stage2_set(table1, [(config, 97.0, 1.5)])
        winners = stage3(
            table1, {"dev": stage2_set}, {"dev": _zero_delta_profile("dev")}, lambda p: FakeMeasurer()
        )
        assert winners["dev"].config == config

    def test_pdp_winner_can_have_lower_accuracy(self, table1):
        configs = [config_from_index(table1, i) for i in (0, 1)]
        stage2_set = _stage2_set(table1, [(configs[0], 97.46, 1.55), (configs[1], 98.98, 1.73)])
        powers = {configs[0].canonical_json(): 0.77, configs[1].canonical_json(): 0.90}
        winners = stage3(
            table1,
            {"dev": stage2_set},
            {"dev": _zero_delta_profile("dev")},
            lambda p: FakeMeasurer(power_by_key=powers),
        )
        # 97.46/(0.77*1.55) = 81.6 beats 98.98/(0.90*1.73) = 63.6
        assert winners["dev"].config == configs[0]
        assert winners["dev"].fitness_value == pytest.approx(81.6, abs=0.1)

    def test_uniform_latency_scaling_preserves_winner(self, table1):
        configs = [config_from_index(table1, i) for i in range(4)]
        entries = [(c, 95.0 + i, 1.0 + 0.3 * i) for i, c in enumerate(configs)]
        powers = {c.canonical_json(): 0.4 + 0.1 * i for i, c in enumerate(configs)}

        def run(scale):
            stage2_set = _stage2_set(table1, [(c, a, l * scale) for c, a, l in entries])
            winners = stage3(
                table1,
                {"dev": stage2_set},
                {"dev": _zero_delta_profile("dev")},
                lambda p: FakeMeasurer(power_by_key=powers),
            )
            return winners["dev"].config

        assert run(1.0) == run(2.0)

    def test_pdp_units_consistent(self, table1):
        config = config_from_index(table1, 0)
        stage2_set = _stage2_set(table1, [(config, 96.0, 2.0)])
        winners = stage3(
            table1,
            {"dev": stage2_set},
            {"dev": _zero_delta_profile("dev")},
            lambda p: FakeMeasurer(power_by_key={config.canonical_json(): 0.5}),
        )
        record = winners["dev"]
        pdp_mj = record.dynamic_power_w * record.latency_mean_ms
        assert record.fitness_value == pytest.approx(96.0 / pdp_mj)


class TestEndToEnd:
    def test_nesting_determinism_and_recompute(self, tmp_path, reduced_space, shipped_profiles):
        evaluator = SurrogateEvaluator(reduced_space)

        def run(out_name):
            log = TrialLog(tmp_path / out_name)
            factory = lambda p: DeviceMeasurer(SimulatedDevice(p, seed=1))  # noqa: E731
            ranked1 = stage1(
                reduced_space, evaluator, OptimizerSettings(seed=1), budget=400, keep=40,
                log=log, timestamps=False,
            )
            ranked2 = stage2(
                reduced_space, ranked1, shipped_profiles, factory, 10, log=log, timestamps=False
            )
            winners = stage3(
                reduced_space, ranked2, shipped_profiles, factory, log=log, timestamps=False
            )
            return (ranked1, ranked2, winners), log

        (ranked1, ranked2, winners), log_a = run("a.jsonl")
        (_, _, second_winners), log_b = run("b.jsonl")

        # identical winners and identical persisted files
        assert {d: r.to_json_dict() for d, r in winners.items()} == {
            d: r.to_json_dict() for d, r in second_winners.items()
        }
        assert log_a.path.read_text() == log_b.path.read_text()

        stage1_configs = {r.config for r in ranked1.records}
        for device, ranked in ranked2.items():
            assert {r.config for r in ranked.records} <= stage1_configs
            assert winners[device].config in {r.config for r in ranked.records}

        for record in log_a.load():
            assert recomputed_fitness(record) == pytest.approx(
                record.fitness_value, rel=1e-9
            )

    def test_resume_uses_cached_measurements(self, tmp_path, table1):
        configs = [config_from_index(table1, i) for i in range(5)]
        candidates = _candidates([(c, 95.0 + i) for i, c in enumerate(configs)])
        log = TrialLog(tmp_path / "trials.jsonl")
        profile = _zero_delta_profile("dev")

        first = FakeMeasurer()
        ranked = stage2(table1, candidates, {"dev": profile}, lambda p: first, 3, log=log)
        assert first.latency_calls == 5

        again = FakeMeasurer(default_latency=99.0)  # would change results if consulted
        resumed = stage2(table1, candidates, {"dev": profile}, lambda p: again, 3, log=log)
        assert again.latency_calls == 0
        assert [r.to_json_dict() for r in resumed["dev"].records] == [
            r.to_json_dict() for r in ranked["dev"].records
        ]

    def test_resume_hit_whatever_the_config_key_order(self, tmp_path, table1):
        config = config_from_index(table1, 0)
        logged = TrialRecord(
            config=config,
            stage=2,
            fitness_kind=FitnessKind.ACCURACY_PER_LATENCY,
            fitness_value=48.0,
            accuracy_pct=96.0,
            device="dev",
            latency_mean_ms=2.0,
            latency_std_ms=0.0,
            seed=1,
        )
        line = logged.to_json_dict()
        wire = line["config"]
        del wire["output_classes"]  # the default, 7
        line["config"] = dict(reversed(wire.items()))
        path = tmp_path / "trials.jsonl"
        path.write_text(json.dumps(line) + "\n")
        before = path.read_bytes()

        measurer = FakeMeasurer()
        with TrialLog(path) as log:
            ranked = stage2(
                table1,
                _candidates([(config, 96.0)]),
                {"dev": _zero_delta_profile("dev")},
                lambda p: measurer,
                1,
                log=log,
            )
        assert measurer.latency_calls == 0
        assert path.read_bytes() == before
        assert ranked["dev"].records == [logged]


class TestTrialLog:
    def test_roundtrip_schema(self, tmp_path, pi_best):
        log = TrialLog(tmp_path / "trials.jsonl")
        record = TrialRecord(
            config=pi_best,
            stage=2,
            fitness_kind=FitnessKind.ACCURACY_PER_LATENCY,
            fitness_value=48.5,
            accuracy_pct=97.0,
            device="pi",
            latency_mean_ms=2.0,
            latency_std_ms=0.1,
            seed=42,
            ts="2024-01-01T00:00:00+00:00",
        )
        log.append(record)
        line = json.loads(log.path.read_text())
        assert line["stage"] == 2
        assert line["fitness"] == {"kind": "accuracy_per_latency", "value": 48.5}
        assert line["dynamic_power_w"] is None
        assert log.load() == [record]


    @pytest.mark.parametrize(
        "config",
        [
            Configuration(block=2, k1=6, k2=24, fc1=100, do1=20, fc2=80, do2=10),
            Configuration(block=3, k1=8, k2=28, k3=40, fc1=150, do1=15, fc2=95, do2=30),
            Configuration(
                block=4, k1=16, k2=32, k3=44, k4=60, fc1=200, do1=10, fc2=300, do2=25,
                output_classes=10,
            ),
        ],
        ids=lambda config: f"block{config.block}",
    )
    @pytest.mark.parametrize(
        "fields",
        [
            {},
            {"stage": 2, "fitness_kind": FitnessKind.ACCURACY_PER_LATENCY, "device": "pi",
             "latency_mean_ms": 2.5, "latency_std_ms": 0.0, "seed": 7,
             "ts": "2024-01-01T00:00:00+00:00"},
            {"stage": 3, "fitness_kind": FitnessKind.ACCURACY_PER_PDP, "device": "pi",
             "latency_mean_ms": 1e-7, "latency_std_ms": 1e22, "dynamic_power_w": 0.535,
             "fitness_value": math.inf, "seed": -1},
            {"fitness_value": math.nan, "accuracy_pct": -math.inf, "latency_std_ms": -0.0},
            {"accuracy_pct": np.float64(97.123456789), "latency_mean_ms": np.float64(0.1)},
            {"device": "jetson-gr\u00f6\u00dfe-\u6d3e", "ts": 'a "quote", a \\ and a\ttab'},
        ],
        ids=["none", "stage2", "stage3-inf", "nan", "float64", "non-ascii"],
    )
    def test_log_line_is_sorted_json_dumps(self, tmp_path, config, fields):
        record = TrialRecord(
            **{"config": config, "stage": 1, "fitness_kind": FitnessKind.ACCURACY,
               "fitness_value": 97.0, "accuracy_pct": 97.0, **fields}
        )
        line = json.dumps(record.to_json_dict(), sort_keys=True)
        assert record.log_line() == line
        with TrialLog(tmp_path / "trials.jsonl") as log:
            log.append(record)
            # flushed at once: another reader sees the whole line
            assert log.path.read_bytes() == (line + "\n").encode("ascii")

    def _three_records(self, tmp_path, table1):
        log = TrialLog(tmp_path / "trials.jsonl")
        records = [_stage1_record(config_from_index(table1, i), 95.0 + i) for i in range(3)]
        for record in records:
            log.append(record)
        return log, records

    def test_torn_last_line_dropped_and_cut(self, tmp_path, table1, caplog):
        log, records = self._three_records(tmp_path, table1)
        whole = log.path.read_bytes()
        log.path.write_bytes(whole[:-25])
        assert log.load() == records[:2]
        assert "trials.jsonl" in caplog.text
        assert log.path.read_bytes() == whole[: whole.rindex(b"\n", 0, len(whole) - 1) + 1]
        log.append(records[2])
        assert log.path.read_bytes() == whole
        assert log.load() == records

    def test_whole_last_line_without_newline_kept(self, tmp_path, table1):
        log, records = self._three_records(tmp_path, table1)
        whole = log.path.read_bytes()
        log.path.write_bytes(whole[:-1])
        assert log.load() == records
        assert log.path.read_bytes() == whole

    def test_corrupt_middle_line_names_path_and_line(self, tmp_path, table1):
        log, _ = self._three_records(tmp_path, table1)
        lines = log.path.read_text().splitlines(keepends=True)
        lines[1] = '{"stage": 1}\n'
        log.path.write_text("".join(lines))
        with pytest.raises(ValueError, match=r"trials\.jsonl:2: "):
            log.load()

    def _three_stage_log(self, tmp_path, table1):
        log = TrialLog(tmp_path / "trials.jsonl")
        configs = [config_from_index(table1, i) for i in range(3)]
        for config in configs:
            log.append(_stage1_record(config, 95.0))
        for stage, kind in ((2, FitnessKind.ACCURACY_PER_LATENCY), (3, FitnessKind.ACCURACY_PER_PDP)):
            for device in ("a", "b"):
                for config in configs[:2]:
                    log.append(
                        TrialRecord(
                            config=config, stage=stage, fitness_kind=kind, fitness_value=40.0,
                            accuracy_pct=95.0, device=device, latency_mean_ms=2.0,
                            latency_std_ms=0.0, dynamic_power_w=0.5 if stage == 3 else None,
                        )
                    )
        log.close()
        return log, configs

    def test_index_builds_only_its_stage(self, tmp_path, table1, monkeypatch):
        log, configs = self._three_stage_log(tmp_path, table1)
        built = []
        real = TrialRecord.from_json_dict.__func__

        def counting(cls, data):
            built.append(data["stage"])
            return real(cls, data)

        monkeypatch.setattr(TrialRecord, "from_json_dict", classmethod(counting))
        index = log.index(3)
        assert built == [3] * 4
        assert set(index) == {(d, c) for d in ("a", "b") for c in configs[:2]}
        assert all(r.stage == 3 and r.dynamic_power_w == 0.5 for r in index.values())
        assert log.index(4) == {}
        del built[:]
        assert len(log.load()) == 11 and len(built) == 11

    def test_index_later_line_wins(self, tmp_path, table1):
        log, configs = self._three_stage_log(tmp_path, table1)
        fresher = TrialRecord(
            config=configs[0], stage=2, fitness_kind=FitnessKind.ACCURACY_PER_LATENCY,
            fitness_value=10.0, accuracy_pct=95.0, device="a", latency_mean_ms=9.5,
        )
        log.append(fresher)
        log.close()
        assert log.index(2)[("a", configs[0])] == fresher

    @pytest.mark.parametrize(
        "bad_line, message",
        [
            ('{"stage": 1, "config": {"blo\n', "bad trial record"),
            ('{"config": {}}\n', "stage must be a JSON integer, got None"),
            ('{"stage": "1"}\n', "stage must be a JSON integer, got '1'"),
            ("[1, 2]\n", "not a JSON object"),
        ],
    )
    def test_index_fails_on_any_stage_without_json_or_stage(
        self, tmp_path, table1, bad_line, message
    ):
        log, _ = self._three_stage_log(tmp_path, table1)
        lines = log.path.read_text().splitlines(keepends=True)
        lines[1] = bad_line
        log.path.write_text("".join(lines))
        with pytest.raises(ValueError, match=rf"trials\.jsonl:2: .*{message}"):
            log.index(3)

    @pytest.mark.parametrize(
        "stage, key, value, kind",
        [
            (1, "accuracy_pct", True, "number"),
            (1, "accuracy_pct", "95.0", "number"),
            (1, "accuracy_pct", None, "number"),
            (1, "fitness.value", True, "number"),
            (1, "fitness.value", "40.0", "number"),
            (1, "seed", True, "integer"),
            (1, "seed", "1", "integer"),
            (1, "seed", 1.0, "integer"),
            (2, "stage", 2.0, "integer"),
            (2, "stage", "2", "integer"),
            (2, "stage", True, "integer"),
            (2, "device", None, "string"),
            (2, "device", 5, "string"),
            (2, "latency_mean_ms", None, "number"),
            (2, "latency_mean_ms", True, "number"),
            (2, "latency_mean_ms", "2.0", "number"),
            (2, "latency_std_ms", False, "number"),
            (3, "dynamic_power_w", None, "number"),
            (3, "dynamic_power_w", True, "number"),
            (3, "dynamic_power_w", "0.5", "number"),
            (3, "ts", 5, "string"),
        ],
    )
    def test_wrongly_typed_field_names_line_and_key(self, tmp_path, table1, stage, key, value, kind):
        log, _ = self._three_stage_log(tmp_path, table1)
        lines = log.path.read_text().splitlines(keepends=True)
        number = next(n for n, line in enumerate(lines, 1) if json.loads(line)["stage"] == stage)
        record = json.loads(lines[number - 1])
        section, _, name = key.rpartition(".")
        (record[section] if section else record)[name] = value
        lines[number - 1] = json.dumps(record, sort_keys=True) + "\n"
        log.path.write_text("".join(lines))
        message = f"{key} must be a JSON {kind}, got {value!r}"
        with pytest.raises(ValueError) as caught:
            TrialLog(log.path).load()
        assert str(caught.value) == f"{log.path}:{number}: bad trial record: {message}"

    @pytest.mark.parametrize("stage", [0, 4, 7, -1])
    def test_stage_outside_1_to_3_refused_on_every_read(self, tmp_path, table1, stage):
        log, _ = self._three_stage_log(tmp_path, table1)
        lines = log.path.read_text().splitlines(keepends=True)
        lines[-1] = json.dumps(dict(json.loads(lines[-1]), stage=stage), sort_keys=True) + "\n"
        log.path.write_text("".join(lines))
        message = f"{log.path}:{len(lines)}: bad trial record: stage must be 1, 2 or 3, got {stage}"
        for read in (lambda: TrialLog(log.path).load(), lambda: TrialLog(log.path).index(2)):
            with pytest.raises(ValueError) as caught:
                read()
            assert str(caught.value) == message

    def test_other_stage_schema_fault_left_to_load(self, tmp_path, table1):
        log, _ = self._three_stage_log(tmp_path, table1)
        lines = log.path.read_text().splitlines(keepends=True)
        line = json.loads(lines[1])
        del line["accuracy_pct"]
        lines[1] = json.dumps(line) + "\n"
        log.path.write_text("".join(lines))
        assert len(log.index(3)) == 4
        with pytest.raises(ValueError, match=r"trials\.jsonl:2: .*accuracy_pct"):
            log.index(1)
        with pytest.raises(ValueError, match=r"trials\.jsonl:2: .*accuracy_pct"):
            log.load()

    @pytest.fixture()
    def append_handles(self, monkeypatch):
        """Every handle a TrialLog opens in binary append mode, in order,
        each wrapped to record its writes."""
        handles = []
        real_open = pathlib.Path.open

        def recording_open(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            if mode == "ab":
                handle = _AppendHandle(handle)
                handles.append(handle)
            return handle

        monkeypatch.setattr(pathlib.Path, "open", recording_open)
        return handles

    def test_record_readable_before_close(self, tmp_path, table1, append_handles):
        log, records = self._three_records(tmp_path, table1)
        assert len(append_handles) == 1 and not append_handles[0].closed
        assert TrialLog(log.path).load() == records
        assert log.path.read_text().count("\n") == 3
        log.close()

    @pytest.mark.parametrize("limit", [None, 7], ids=["one-write", "short-writes"])
    def test_each_line_is_written_whole(
        self, tmp_path, table1, append_handles, monkeypatch, limit
    ):
        # one write per line; a short write is continued from where it stopped
        monkeypatch.setattr(_AppendHandle, "limit", limit)
        log, records = self._three_records(tmp_path, table1)
        lines = [(r.log_line() + "\n").encode() for r in records]
        step = limit or max(map(len, lines))
        chunks = [line[i : i + step] for line in lines for i in range(0, len(line), step)]
        assert append_handles[0].writes == chunks
        assert log.path.read_bytes() == b"".join(lines)
        assert log.load() == records
        log.close()

    def test_torn_last_line_cut_while_open(self, tmp_path, table1):
        log = TrialLog(tmp_path / "trials.jsonl")
        records = [_stage1_record(config_from_index(table1, i), 95.0 + i) for i in range(3)]
        log.append(records[0])
        log.append(records[1])
        with log.path.open("a") as other:
            other.write('{"stage": 1, "config": {"blo')
        assert log.load() == records[:2]
        log.append(records[2])
        assert log.load() == records
        assert log.path.read_text().count("\n") == 3
        log.close()

    def test_close_twice_then_append_reopens(self, tmp_path, table1, append_handles):
        log, records = self._three_records(tmp_path, table1)
        log.close()
        log.close()
        assert [h.closed for h in append_handles] == [True]
        log.append(records[0])
        assert [h.closed for h in append_handles] == [True, False]
        log.close()
        assert log.load() == records + records[:1]

    def test_with_block_closes(self, tmp_path, table1, append_handles):
        record = _stage1_record(config_from_index(table1, 0), 95.0)
        with TrialLog(tmp_path / "trials.jsonl") as log:
            log.append(record)
            assert not append_handles[0].closed
        assert [h.closed for h in append_handles] == [True]
        assert log.load() == [record]

    @pytest.fixture()
    def reads(self, monkeypatch):
        """Every path opened other than for append, in order."""
        paths = []
        real_open = pathlib.Path.open

        def recording_open(path, mode="r", *args, **kwargs):
            if not mode.startswith("a"):
                paths.append(path)
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", recording_open)
        return paths

    def _stage_record(self, table1, stage, index, device="a"):
        return TrialRecord(
            config=config_from_index(table1, index), stage=stage,
            fitness_kind=FitnessKind.ACCURACY_PER_LATENCY, fitness_value=40.0 + index,
            accuracy_pct=95.0, device=device, latency_mean_ms=2.0, latency_std_ms=0.0,
            dynamic_power_w=0.5 if stage == 3 else None,
        )

    def test_absent_stage_after_own_appends_reads_nothing(self, tmp_path, table1, reads):
        # stage 2 then stage 3 through one log, as measure-jitter runs them
        with TrialLog(tmp_path / "trials.jsonl") as log:
            assert log.index(2) == {}
            records = [self._stage_record(table1, 2, i) for i in range(3)]
            for record in records:
                log.append(record)
            assert log.index(3) == {} and reads == []
            assert list(log.index(2).values()) == records
            assert len(reads) == 1
            del reads[:]
            assert log.index(3) == {} and reads == []

    def _finished_run_log(self, tmp_path, table1):
        """A closed log of stage-2 and stage-3 records, as a finished run leaves it."""
        with TrialLog(tmp_path / "trials.jsonl") as log:
            stage2 = [self._stage_record(table1, 2, i) for i in range(3)]
            stage3 = [self._stage_record(table1, 3, i) for i in range(2)]
            for record in stage2 + stage3:
                log.append(record)
        return log.path, stage2, stage3

    def test_one_read_serves_the_later_stage(self, tmp_path, table1, reads):
        path, stage2, stage3 = self._finished_run_log(tmp_path, table1)
        with TrialLog(path) as log:
            assert list(log.index(2).values()) == stage2
            log.append(self._stage_record(table1, 2, 5))  # the log's own append
            assert list(log.index(3).values()) == stage3
            assert len(reads) == 1
            assert list(log.index(3).values()) == stage3  # served once, then read
            assert len(reads) == 2

    def test_later_stage_read_again_after_its_own_append(self, tmp_path, table1, reads):
        path, _, stage3 = self._finished_run_log(tmp_path, table1)
        extra = self._stage_record(table1, 3, 7)
        with TrialLog(path) as log:
            log.index(2)
            log.append(extra)  # drops the stage-3 index the read kept
            assert list(log.index(3).values()) == stage3 + [extra]
            assert len(reads) == 2

    def test_log_on_existing_file_reads_it_on_first_index(self, tmp_path, table1, reads):
        stage3_record = self._stage_record(table1, 3, 1)
        with TrialLog(tmp_path / "trials.jsonl") as first:
            first.append(self._stage_record(table1, 2, 0))
            first.append(stage3_record)
        with TrialLog(first.path) as log:
            log.append(self._stage_record(table1, 2, 2))
            assert log.index(3) == {("a", stage3_record.config): stage3_record}
            assert len(reads) == 1
            assert log.index(4) == {} and len(reads) == 1
        with TrialLog(first.path) as log:
            assert log.index(4) == {} and len(reads) == 2

    def test_raw_utf8_lines_read_and_last_newline_restored(self, tmp_path, table1, reads):
        # a closed file's lines may hold raw UTF-8; the last lacks its newline
        path = tmp_path / "trials.jsonl"
        records = [self._stage_record(table1, 2, i, device="pï-ncs2") for i in range(3)]
        lines = [json.dumps(r.to_json_dict(), ensure_ascii=False) for r in records]
        path.write_bytes("\n".join(lines).encode())
        reads.clear()
        with TrialLog(path) as log:
            assert log.load() == records
            assert log.index(3) == {}
            assert len(reads) == 1
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_index_holds_one_line_not_the_file(self, tmp_path, table1):
        path = tmp_path / "trials.jsonl"
        with TrialLog(path) as log:
            for index in range(2000):
                log.append(_stage1_record(config_from_index(table1, index), 99.0, seed=index))
        log = TrialLog(path)
        found = []
        peak = traced_peak(lambda: found.append(log.index(3)))
        assert found == [{}]
        assert peak < 0.5 * path.stat().st_size


class TestCompileOnce:
    @pytest.fixture()
    def compiled(self, monkeypatch):
        """The configs handed to build_architecture, in call order."""
        calls = []

        def counting_build(config):
            calls.append(config)
            return build_architecture(config)

        monkeypatch.setattr(pipeline_module, "build_architecture", counting_build)
        return calls

    def _candidates(self, table1, n):
        # distinct accuracies, so ranking needs no structural tie-break
        return _candidates([(config_from_index(table1, i), 90.0 + i) for i in range(n)])

    def test_each_candidate_compiled_once_across_devices(
        self, table1, shipped_profiles, compiled
    ):
        candidates = self._candidates(table1, 7)
        stage2(table1, candidates, shipped_profiles, lambda p: FakeMeasurer(), 3)
        assert sorted(compiled, key=lambda c: index_of(table1, c)) == [
            r.config for r in candidates.records
        ]

    def test_resumed_stage_compiles_nothing(self, tmp_path, table1, shipped_profiles, compiled):
        candidates = self._candidates(table1, 7)
        with TrialLog(tmp_path / "trials.jsonl") as log:
            stage2(table1, candidates, shipped_profiles, lambda p: FakeMeasurer(), 3, log=log)
            del compiled[:]
            measurer = FakeMeasurer()
            stage2(table1, candidates, shipped_profiles, lambda p: measurer, 3, log=log)
        assert compiled == []
        assert measurer.latency_calls == 0

    def test_pair_excluded_on_one_device_measured_on_others(
        self, table1, shipped_profiles, compiled
    ):
        candidates = self._candidates(table1, 4)
        failing = candidates.records[0].config
        first = next(iter(shipped_profiles))
        measurers = {
            name: FakeMeasurer(
                latency_by_key={failing.canonical_json(): None} if name == first else None
            )
            for name in shipped_profiles
        }
        result = stage2(table1, candidates, shipped_profiles, lambda p: measurers[p.name], 4)
        assert len(compiled) == 4
        for name, measurer in measurers.items():
            assert measurer.latency_calls == 4
            kept = {r.config for r in result[name].records}
            assert (failing in kept) == (name != first)


class TestResumeStartsNoDevice:
    """A stage rerun served from the log starts no device process: a
    channel's child starts at its first request, and a cache hit sends none."""

    @pytest.fixture()
    def devices(self):
        """A measurer factory over NDJSON stub devices; the test owns what
        it returns, so every channel it opened is closed at teardown."""
        channels = []

        def factory(profile):
            argv = [sys.executable, str(MOCK_DEVICE), "ok", profile.name]
            channels.append(JsonLineChannel(argv, timeout_s=10.0))
            return DeviceMeasurer(ExternalDevice(channels[-1]))

        yield factory
        for channel in channels:
            channel.close()

    def _inputs(self, table1):
        configs = [config_from_index(table1, i) for i in range(3)]
        candidates = _candidates([(c, 95.0 + i) for i, c in enumerate(configs)])
        return candidates, {name: _zero_delta_profile(name) for name in ("a", "b")}

    def test_fully_cached_stages_start_no_process(self, tmp_path, table1, devices, popens):
        candidates, profiles = self._inputs(table1)
        with TrialLog(tmp_path / "trials.jsonl") as log:
            ranked = stage2(table1, candidates, profiles, devices, 2, log=log, timestamps=False)
            winners = stage3(table1, ranked, profiles, devices, log=log, timestamps=False)
            assert len(popens) == 4
            del popens[:]
            assert stage2(table1, candidates, profiles, devices, 2, log=log) == ranked
            assert stage3(table1, ranked, profiles, devices, log=log) == winners
        assert popens == []

    def test_one_miss_starts_one_process(self, tmp_path, table1, devices, popens):
        candidates, profiles = self._inputs(table1)
        path = tmp_path / "trials.jsonl"
        with TrialLog(path) as log:
            stage2(table1, candidates, profiles, devices, 2, log=log, timestamps=False)
        # drop the last line, device b's last candidate
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        del popens[:]
        with TrialLog(path) as log:
            stage2(table1, candidates, profiles, devices, 2, log=log, timestamps=False)
        assert popens == [[sys.executable, str(MOCK_DEVICE), "ok", "b"]]
        assert path.read_text().splitlines(keepends=True) == lines


class SampleBackend:
    """Canned raw samples by config, measured in blocks: a NaN, infinite,
    negative or overflowing latency for some, a NaN, zero-difference or
    overflowing power trace for others."""

    block_pairs = devices_module.BLOCK_PAIRS

    def __init__(self, latency=None, power=None):
        self.latency = latency or {}
        self.power = power or {}
        self.latency_calls = []

    def expect_latency(self, pairs, runs):
        pass

    def expect_power(self, pairs, window_s, sample_hz):
        pass

    def latency_block(self, pairs, runs):
        self.latency_calls.extend(config for config, _ in pairs)
        return np.array([self.latency.get(config, [1.0] * runs) for config, _ in pairs])

    def power_block(self, pairs, window_s, sample_hz):
        n = window_s * sample_hz
        active = np.array([self.power.get(config, [2.5] * n) for config, _ in pairs])
        return np.full(active.shape, 2.0), active


class TestBadMeasurements:
    def test_bad_latency_excluded_and_measured_elsewhere(self, table1, caplog):
        configs = [config_from_index(table1, i) for i in range(5)]
        candidates = _candidates([(c, 95.0) for c in configs])
        bad = {
            configs[0]: [1.0, math.nan, 1.0] + [1.0] * 37,
            configs[1]: [1.0, math.inf] + [1.0] * 38,
            configs[2]: [-1.0] * 40,
            configs[3]: [0.0] * 40,
        }
        backends = {"a": SampleBackend(latency=bad), "b": SampleBackend()}
        profiles = {name: _zero_delta_profile(name) for name in backends}
        result = stage2(
            table1, candidates, profiles, lambda p: DeviceMeasurer(backends[p.name]), 5
        )
        assert [r.config for r in result["a"].records] == [configs[4]]
        assert {r.config for r in result["b"].records} == set(configs)
        assert backends["a"].latency_calls == backends["b"].latency_calls == configs
        excluded = [m for m in caplog.messages if m.startswith("stage 2: excluding")]
        assert len(excluded) == 4 and all(" on a: " in m for m in excluded)
        assert "non-finite latency sample" in excluded[0]
        assert "non-positive mean latency" in excluded[2]

    def test_bad_power_excluded(self, table1, caplog):
        configs = [config_from_index(table1, i) for i in range(4)]
        stage2_set = _stage2_set(table1, [(c, 95.0, 2.0) for c in configs])
        bad = {
            configs[0]: [math.nan] * 180,
            configs[1]: [math.inf] * 180,
            configs[2]: [2.0] * 180,  # no dynamic power: PDP undefined
        }
        backend = SampleBackend(power=bad)
        winners = stage3(
            table1,
            {"dev": stage2_set},
            {"dev": _zero_delta_profile("dev")},
            lambda p: DeviceMeasurer(backend),
        )
        assert winners["dev"].config == configs[3]
        excluded = [m for m in caplog.messages if m.startswith("stage 3: excluding")]
        assert len(excluded) == 3
        assert "non-finite active power sample" in excluded[0]
        assert "non-positive dynamic power 0.0 W" in excluded[2]

    def test_overflowing_reduction_excluded_and_not_logged(self, tmp_path, table1, caplog):
        # finite samples whose sums overflow: a logged Infinity is not JSON
        configs = [config_from_index(table1, i) for i in range(3)]
        backend = SampleBackend(
            latency={configs[0]: [1e308, 1e308] + [1.0] * 38},
            power={configs[1]: [1e308, 1e308] + [2.5] * 178},
        )
        profiles = {"dev": _zero_delta_profile("dev")}
        factory = lambda p: DeviceMeasurer(backend)  # noqa: E731
        path = tmp_path / "trials.jsonl"
        with TrialLog(path) as log:
            candidates = _candidates([(c, 95.0) for c in configs])
            ranked = stage2(table1, candidates, profiles, factory, 3, log=log)
            assert {r.config for r in ranked["dev"].records} == set(configs[1:])
            assert stage3(table1, ranked, profiles, factory, log=log)["dev"].config == configs[2]
        assert [m for m in caplog.messages if "excluding" in m] == [
            f"stage 2: excluding {configs[0].canonical_json()} on dev: "
            "non-finite latency mean or std",
            f"stage 3: excluding {configs[1].canonical_json()} on dev: non-finite dynamic power",
        ]
        assert "Infinity" not in path.read_text()

    def test_bad_rows_of_a_simulated_block_excluded_alone(self, table1, caplog, monkeypatch):
        configs = [config_from_index(table1, i) for i in range(6)]
        bad = {configs[1]: math.nan, configs[3]: -1e9}  # a NaN sample; every sample clamps to 0

        class StubGenerator:
            def __init__(self, config):
                self.config = config

            def normal(self, loc, scale, size):
                noise = np.resize([0.01, -0.02, 0.03], size)
                if self.config in bad:
                    noise[-1 if math.isnan(bad[self.config]) else slice(None)] = bad[self.config]
                return noise

        monkeypatch.setattr(
            SimulatedDevice,
            "_rngs",
            lambda self, pairs, salt: (StubGenerator(config) for config, _ in pairs),
        )
        factory = lambda p: DeviceMeasurer(SimulatedDevice(p, JitterSpec(1.0)))  # noqa: E731
        profiles = {"dev": _zero_delta_profile("dev")}
        result = stage2(table1, _candidates([(c, 95.0) for c in configs]), profiles, factory, 6)
        kept = [c for c in configs if c not in bad]
        assert {r.config for r in result["dev"].records} == set(kept)
        alone = {c: factory(profiles["dev"]).latency(c, build_architecture(c)) for c in kept}
        assert {
            r.config: (r.latency_mean_ms, r.latency_std_ms) for r in result["dev"].records
        } == alone
        assert [m for m in caplog.messages if m.startswith("stage 2: excluding")] == [
            f"stage 2: excluding {configs[1].canonical_json()} on dev: non-finite latency sample",
            f"stage 2: excluding {configs[3].canonical_json()} on dev: "
            "non-positive mean latency 0.0 ms",
        ]

    @pytest.mark.parametrize("stage", [2, 3])
    def test_device_timeout_excludes_only_its_pair(self, tmp_path, table1, caplog, stage):
        # the exec: device holds its reply to request 0 for 0.25 s, past the
        # channel's 0.2-s timeout, while requests 1 and 2 are in flight; the
        # channel drops that late reply
        configs = [config_from_index(table1, i) for i in range(3)]
        profiles = {"dev": _zero_delta_profile("dev")}
        channels = []

        def factory(profile):
            argv = [sys.executable, str(MOCK_DEVICE), "slow_first"]
            channels.append(JsonLineChannel(argv, timeout_s=0.2))
            return DeviceMeasurer(ExternalDevice(channels[-1]))

        with TrialLog(tmp_path / "trials.jsonl") as log:
            try:
                if stage == 2:
                    candidates = _candidates([(c, 95.0) for c in configs])
                    stage2(table1, candidates, profiles, factory, 3, log=log)
                else:
                    survivors = {"dev": _stage2_set(table1, [(c, 95.0, 2.0) for c in configs])}
                    stage3(table1, survivors, profiles, factory, log=log)
            finally:
                for channel in channels:
                    channel.close()
            assert set(log.index(stage)) == {("dev", c) for c in configs[1:]}
        excluded = [m for m in caplog.messages if m.startswith(f"stage {stage}: excluding")]
        assert len(excluded) == 1
        assert configs[0].canonical_json() in excluded[0]
        assert "no response to request 0" in excluded[0]

    def test_device_sample_that_is_not_a_number_stops_the_stage(self, table1):
        # a protocol fault, not one pair's measurement: it is not excluded
        candidates = _candidates([(config_from_index(table1, i), 95.0) for i in range(2)])
        argv = [sys.executable, str(MOCK_DEVICE), "null_latency"]
        with JsonLineChannel(argv, timeout_s=10.0) as channel:
            with pytest.raises(ProtocolError, match="latency_ms must be a JSON number, got None"):
                stage2(
                    table1, candidates, {"dev": _zero_delta_profile("dev")},
                    lambda profile: DeviceMeasurer(ExternalDevice(channel)), 2,
                )


def _mock_latency_ms(config) -> float:
    """The latency sample of mock_device.py in its per-config modes."""
    blob = json.dumps(config.to_json_dict(), sort_keys=True).encode()
    return 1.0 + zlib.crc32(blob) % 1000 / 1000


class TestDeviceWindow:
    """Stages 2 and 3 announce each device's misses, so the channel keeps
    up to WINDOW requests in flight; replies still come back in order."""

    @pytest.fixture()
    def run(self, tmp_path, table1):
        """Runs stage 2 (or 3) over ``n`` candidates on one mock device in
        ``mode`` and returns the candidates and the stage's log index. The
        channel it opens is ``run.channels[0]``, closed at teardown."""
        channels = []

        def run(mode, n, stage=2, timeout_s=10.0):
            def factory(profile):
                argv = [sys.executable, str(MOCK_DEVICE), mode]
                channels.append(JsonLineChannel(argv, timeout_s=timeout_s))
                return DeviceMeasurer(ExternalDevice(channels[-1]))

            configs = [config_from_index(table1, i) for i in range(n)]
            profiles = {"dev": _zero_delta_profile("dev")}
            with TrialLog(tmp_path / "trials.jsonl") as log:
                if stage == 2:
                    candidates = _candidates([(c, 95.0) for c in configs])
                    stage2(table1, candidates, profiles, factory, n, log=log)
                else:
                    survivors = {"dev": _stage2_set(table1, [(c, 95.0, 2.0) for c in configs])}
                    stage3(table1, survivors, profiles, factory, log=log)
                return configs, log.index(stage)

        run.channels = channels
        yield run
        for channel in channels:
            channel.close()

    @pytest.mark.parametrize("stage", [2, 3])
    def test_second_request_sent_before_first_reply(self, run, caplog, stage):
        # the device answers request 0 with an error unless request 1 is
        # readable within a second of reading request 0
        configs, index = run("peek", 3, stage)
        assert set(index) == {("dev", c) for c in configs}
        assert not [m for m in caplog.messages if "excluding" in m]

    def test_error_reply_mid_window_excludes_only_its_pair(self, run, caplog):
        configs, index = run("error_third", 5)
        assert set(index) == {("dev", c) for i, c in enumerate(configs) if i != 2}
        for (_, config), record in index.items():
            assert record.latency_mean_ms == pytest.approx(_mock_latency_ms(config))
        excluded = [m for m in caplog.messages if m.startswith("stage 2: excluding")]
        assert len(excluded) == 1
        assert configs[2].canonical_json() in excluded[0]
        assert "device reported: device unreachable" in excluded[0]

    def test_late_reply_mid_window_excludes_only_its_pair(self, run, caplog):
        # the device holds its reply to request 2 for 0.3 s after replying
        # to request 1, past the 0.2-s timeout; request 3's timeout counts
        # from then, and the late reply 2 is dropped, not read as reply 3
        configs, index = run("slow_third", 5, timeout_s=0.2)
        assert set(index) == {("dev", c) for i, c in enumerate(configs) if i != 2}
        for (_, config), record in index.items():
            assert record.latency_mean_ms == pytest.approx(_mock_latency_ms(config))
        excluded = [m for m in caplog.messages if m.startswith("stage 2: excluding")]
        assert len(excluded) == 1
        assert configs[2].canonical_json() in excluded[0]
        assert "no response to request 2" in excluded[0]

    def test_replies_over_a_pipe_buffer_with_a_full_window(self, run):
        # each reply is more than 64 KiB: the device blocks writing it until
        # it is read, while the parent never blocks writing requests
        start = time.monotonic()
        configs, index = run("big", 12)
        assert time.monotonic() - start < 5.0
        assert set(index) == {("dev", c) for c in configs}
        for (_, config), record in index.items():
            assert record.latency_mean_ms == pytest.approx(_mock_latency_ms(config))

    def test_protocol_error_mid_window_ends_the_stage_and_close_reaps(self, run):
        # reply 2 is not JSON: the stage ends with requests 3 to 5 in flight
        with pytest.raises(ProtocolError, match="unparseable response line"):
            run("garbage_third", 6)
        channel = run.channels[0]
        start = time.monotonic()
        channel.close()
        assert time.monotonic() - start < protocol_module.CLOSE_GRACE_S
        assert channel._proc.returncode == 0  # exited on EOF, not killed
        assert channel._proc.stdout.closed
        with pytest.raises(ProcessLookupError):
            os.kill(channel._proc.pid, 0)


def _zero_delta_profile(name):
    from edgenas.devices import DeviceProfile, LatencyModel, PowerModel
    from edgenas.evaluators import Precision

    return DeviceProfile(
        name=name,
        precision=Precision.FP32,
        latency_model=LatencyModel(0.1, 1e6, 1e5, 0.01),
        power_model=PowerModel(2.0, 0.2, 0.001),
    )


def _stage2_set(space, entries):
    records = [
        TrialRecord(
            config=config,
            stage=2,
            fitness_kind=FitnessKind.ACCURACY_PER_LATENCY,
            fitness_value=accuracy / latency,
            accuracy_pct=accuracy,
            device="dev",
            latency_mean_ms=latency,
            latency_std_ms=0.0,
        )
        for config, accuracy, latency in entries
    ]
    return RankedSet(fitness=FitnessKind.ACCURACY_PER_LATENCY, records=records, k=len(records))
