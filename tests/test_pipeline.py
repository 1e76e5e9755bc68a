import json

import pytest

from edgenas.architecture import build_architecture
from edgenas.devices import DeviceMeasurer, MeasurementError, SimulatedDevice
from edgenas.evaluators import SurrogateEvaluator
from edgenas.pipeline import (
    FitnessKind,
    PipelineError,
    RankedSet,
    TrialLog,
    TrialRecord,
    fitness,
    rank_records,
    run_pipeline,
    stage1,
    stage2,
    stage3,
)
from edgenas.space import Configuration, cardinality, config_from_index
from edgenas.tpe import OptimizerSettings


class FakeMeasurer:
    """Canned per-config latency/power; counts calls for exhaustiveness checks."""

    def __init__(self, latency_by_key=None, power_by_key=None, default_latency=1.0, default_power=0.5):
        self.latency_by_key = latency_by_key or {}
        self.power_by_key = power_by_key or {}
        self.default_latency = default_latency
        self.default_power = default_power
        self.latency_calls = 0
        self.power_calls = 0

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

    def test_empty_candidates_rejected(self, table1):
        empty = RankedSet(fitness=FitnessKind.ACCURACY, records=[], k=0)
        with pytest.raises(PipelineError, match="non-empty"):
            stage2(table1, empty, {"dev": _zero_delta_profile("dev")}, lambda p: FakeMeasurer(), 1)


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
            result = run_pipeline(
                reduced_space,
                evaluator,
                shipped_profiles,
                lambda p: DeviceMeasurer(SimulatedDevice(p, seed=1)),
                OptimizerSettings(seed=1),
                budget=400,
                keep1=40,
                keep2=10,
                log=log,
                timestamps=False,
            )
            return result, log

        first, log_a = run("a.jsonl")
        second, log_b = run("b.jsonl")

        # identical winners and identical persisted files
        assert {d: r.to_json_dict() for d, r in first.winners.items()} == {
            d: r.to_json_dict() for d, r in second.winners.items()
        }
        assert log_a.path.read_text() == log_b.path.read_text()

        stage1_configs = {r.config for r in first.stage1.records}
        for device, ranked in first.stage2.items():
            assert {r.config for r in ranked.records} <= stage1_configs
            assert first.winners[device].config in {r.config for r in ranked.records}

        for record in log_a.load():
            assert record.recomputed_fitness() == pytest.approx(
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
