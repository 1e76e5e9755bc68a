from dataclasses import replace

import numpy as np
import pytest
from oracles import position_counts, split_losses, tpe_suggest

from edgenas.evaluators import EvaluatorError, SurrogateEvaluator
from edgenas.space import (
    PARAM_ORDER,
    Configuration,
    SpaceValidationError,
    cardinality,
    config_from_index,
    sample_uniform,
    validate,
)
from edgenas.tpe import (
    ObservationHistory,
    OptimizerSettings,
    best_accuracy,
    density_weights,
    random_search,
    run_optimization,
    suggest,
)


def _history(space, entries, **settings):
    history = ObservationHistory(space, OptimizerSettings(**settings))
    for config, loss in entries:
        history.record(config, loss)
    return history


def _split(history):
    """The good and bad successful entries, as suggest splits them."""
    mirror = history.mirror
    mirror.split(history.settings.gamma)
    good = sorted(i for _, i in mirror.order[: mirror.n_good])
    bad = sorted(i for _, i in mirror.order[mirror.n_good :])
    return [history.entries[i] for i in good], [history.entries[i] for i in bad]


def _weights(column, size):
    """Smoothed weights of one parameter from its observed grid positions."""
    counts = position_counts(np.array(column, dtype=np.int64).reshape(-1, 1), size)
    return tuple(density_weights(counts, np.array([size]))[0])


def _uniform_configs(space, n, seed=0):
    rng = np.random.default_rng(seed)
    return [sample_uniform(space, rng) for _ in range(n)]


class TestSplit:
    def test_quarter_of_twenty(self, table1):
        configs = _uniform_configs(table1, 20)
        history = _history(table1, [(c, -90.0 - i) for i, c in enumerate(configs)], gamma=0.25)
        good, bad = _split(history)
        assert len(good) == 5 and len(bad) == 15
        assert {e.config for e in good} | {e.config for e in bad} == set(configs)

    def test_ceil_on_small_history(self, table1):
        configs = _uniform_configs(table1, 3)
        history = _history(table1, [(c, -90.0 - i) for i, c in enumerate(configs)], gamma=0.25)
        good, bad = _split(history)
        assert len(good) == 1

    def test_good_side_has_lowest_losses(self, table1):
        configs = _uniform_configs(table1, 12)
        losses = [-95.0, -99.0, -91.0, -97.0, -90.0, -96.0, -98.0, -92.0, -93.0, -94.0, -89.0, -88.0]
        history = _history(table1, list(zip(configs, losses)), gamma=0.25)
        good, _ = _split(history)
        assert sorted(e.loss for e in good) == [-99.0, -98.0, -97.0]

    def test_tie_goes_to_earlier_entry(self, table1):
        configs = _uniform_configs(table1, 4)
        history = _history(table1, [(c, -90.0) for c in configs], gamma=0.25)
        good, _ = _split(history)
        assert good[0].config == configs[0]

    def test_empty_history_errors(self, table1):
        with pytest.raises(ValueError, match="empty history"):
            _split(ObservationHistory(table1))

    def test_failed_entries_excluded(self, table1):
        configs = _uniform_configs(table1, 4)
        history = _history(table1, [(c, -90.0 - i) for i, c in enumerate(configs[:3])])
        history.record(configs[3], None)
        good, bad = _split(history)
        assert all(not e.failed for e in good + bad)
        assert len(good) + len(bad) == 3


class TestDensities:
    def test_uniform_prior_with_no_observations(self):
        weights = _weights([], 6)
        assert weights == tuple([1 / 6] * 6)

    def test_counts_plus_smoothing(self):
        # grid (24, 28, 32): good observations 24, 24, 28; no bad ones
        assert _weights([0, 0, 1], 3) == (3 / 6, 2 / 6, 1 / 6)
        assert _weights([], 3) == (1 / 3, 1 / 3, 1 / 3)

    def test_weights_positive_and_normalized(self):
        rng = np.random.default_rng(2)
        grid = tuple(range(10, 31))
        observations = [int(rng.choice(grid)) for _ in range(57)]
        weights = _weights([grid.index(v) for v in observations], len(grid))
        assert all(w > 0 for w in weights)
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_counts_per_parameter_skip_inactive(self, table1):
        # block positions 0, 2, 0; k3 inactive, position 1 (k3=40), inactive
        shallow = Configuration(block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10)
        deep = Configuration(block=4, k1=6, k2=24, k3=40, k4=52, fc1=100, do1=10, fc2=80, do2=10)
        history = _history(table1, [(shallow, -95.0), (deep, -99.0), (shallow, -90.0)])
        good, bad = history.mirror.split(history.settings.gamma)
        rows = (good + bad)[[PARAM_ORDER.index("block"), PARAM_ORDER.index("k3")], :3]
        assert rows.tolist() == [[2, 0, 1], [0, 1, 0]]

    def test_stacked_pass_equals_one_call_per_table(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            width = int(rng.integers(1, 25))
            sizes = rng.integers(1, width + 1, size=9)
            good, bad = rng.integers(0, 60, size=(2, 9, width))
            stacked = density_weights(np.array((good, bad)), sizes)
            for weights, counts in zip(stacked, (good, bad)):
                assert weights.tobytes() == density_weights(counts, sizes).tobytes()


class TestSuggest:
    def test_deterministic_per_history(self, table1):
        history = ObservationHistory(table1, OptimizerSettings(seed=7))
        assert suggest(history) == suggest(history)

    def test_startup_reproduces_uniform_sequence(self, table1):
        settings = OptimizerSettings(seed=42)
        history = ObservationHistory(table1, settings)
        for k in range(settings.n_startup):
            expected = sample_uniform(table1, np.random.default_rng([42, k]))
            got = suggest(history)
            assert got == expected
            history.record(got, -90.0)

    def test_all_suggestions_validate(self, table1):
        history = ObservationHistory(table1, OptimizerSettings(seed=3, n_startup=5))
        evaluator = SurrogateEvaluator(table1)
        for _ in range(40):
            config = suggest(history)
            assert validate(config, table1).valid
            history.record(config, -evaluator.evaluate(config).accuracy_pct)

    def test_good_block_bias_shifts_suggestions(self, table1):
        # good entries all block=2, bad entries spread over depths
        rng = np.random.default_rng(0)
        entries = []
        for i in range(5):
            config = sample_uniform(table1, rng)
            while config.block != 2:
                config = sample_uniform(table1, rng)
            entries.append((config, -99.0 - i))
        spread = _uniform_configs(table1, 15, seed=1)
        entries += [(c, -90.0) for c in spread]
        history = _history(table1, entries, n_startup=20)
        hits = 0
        for seed in range(1000):
            history.settings = replace(history.settings, seed=seed)
            if suggest(history).block == 2:
                hits += 1
        assert hits / 1000 > 1 / 3

    def test_conditional_densities_use_only_deep_entries(self, table1):
        # history with a single deep entry: k3 density from block>=3 only
        shallow = Configuration(block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10)
        deep = Configuration(block=3, k1=6, k2=24, k3=48, fc1=100, do1=10, fc2=80, do2=10)
        history = _history(table1, [(shallow, -95.0), (deep, -99.0)])
        column = history.mirror.positions[:, PARAM_ORDER.index("k3")]
        k3_grid = table1.spec_for("k3").grid
        assert [k3_grid[p] for p in column if p >= 0] == [48]


def _assert_mirror_rebuilt(history):
    """The incrementally kept mirror equals one built from scratch."""
    kept = history.mirror
    replay = ObservationHistory(history.space, history.settings)
    for entry in history.entries:
        replay.record(entry.config, entry.loss)
    fresh = replay.mirror
    fresh.split(history.settings.gamma)
    assert kept.n == fresh.n
    assert np.array_equal(kept.positions, fresh.positions)
    assert kept.seen == fresh.seen
    assert kept.order == fresh.order
    assert kept.n_good == fresh.n_good
    assert np.array_equal(kept.all_counts, fresh.all_counts)
    assert np.array_equal(kept.good_counts, fresh.good_counts)


def _assert_split_from_scratch(history):
    """The mirror's counts equal those of the reference split, rebuilt
    from every successful entry."""
    mirror = history.mirror
    entries = history.entries
    succeeded = [i for i, e in enumerate(entries) if not e.failed]
    losses = np.array([entries[i].loss for i in succeeded])
    good, _ = split_losses(losses, history.settings.gamma)
    rows = mirror.positions[succeeded]
    assert mirror.n_good == len(good)
    assert np.array_equal(mirror.good_counts[:, 1:], position_counts(rows[good], mirror.width))
    assert np.array_equal(mirror.all_counts[:, 1:], position_counts(rows, mirror.width))


def test_off_grid_entry_leaves_mirror_unchanged(table1):
    rng = np.random.default_rng(3)
    history = _history(table1, [(sample_uniform(table1, rng), -float(i)) for i in range(30)])
    mirror = history.mirror
    mirror.split(history.settings.gamma)
    before = (mirror.n, list(mirror.order), set(mirror.seen), mirror.n_good,
              mirror.all_counts.copy(), mirror.good_counts.copy(), mirror.positions.copy())
    off_grid = Configuration(block=2, k1=7, k2=24, fc1=100, do1=10, fc2=80, do2=10)
    with pytest.raises(SpaceValidationError, match=r"^K1=7 off-grid \(6\.\.16 step 2\)$"):
        history.record(off_grid, -99.0)
    after = (mirror.n, mirror.order, mirror.seen, mirror.n_good,
             mirror.all_counts, mirror.good_counts, mirror.positions)
    assert after[:4] == before[:4]
    assert all(np.array_equal(a, b) for a, b in zip(after[4:], before[4:]))
    assert len(history) == 30


class TestReferenceEquivalence:
    """suggest against the list-based reference TPE in tests/oracles.py,
    at every step of a run with failed trials, tied losses, entries the
    optimizer did not suggest, and a gamma raised and lowered mid-run."""

    @pytest.mark.parametrize("space_name", ["table1", "reduced_space", "toy8_space"])
    def test_matches_reference_every_step(self, space_name, request):
        space = request.getfixturevalue(space_name)
        evaluator = SurrogateEvaluator(space)
        history = ObservationHistory(space, OptimizerSettings(seed=5, n_startup=6))
        rng = np.random.default_rng(11)
        for step in range(160):
            # The good/bad boundary moves up, then down, across tied losses.
            if step in (40, 100):
                history.settings = replace(history.settings, gamma={40: 0.6, 100: 0.1}[step])
            config = suggest(history)
            assert config == tpe_suggest(space, history), step
            if len(history) >= history.settings.n_startup:
                _assert_mirror_rebuilt(history)
                _assert_split_from_scratch(history)
            if config.k1 == 8:
                history.record(config, None)
            else:
                # rounding to 0.5 pp gives many tied losses
                history.record(config, -round(2 * evaluator.evaluate(config).accuracy_pct) / 2)
            if step % 7 == 3:
                index = int(rng.integers(cardinality(space)))
                history.record(config_from_index(space, index), -97.0)
        assert any(e.failed for e in history.entries)
        if space_name != "toy8_space":
            assert any(e.config.block >= 3 for e in history.entries)
            assert any(e.config.block == 2 for e in history.entries)

    def test_entries_with_other_output_classes_count_as_unseen(self, toy8_space):
        history = ObservationHistory(toy8_space, OptimizerSettings(n_startup=1))
        for index in range(cardinality(toy8_space)):
            config = config_from_index(toy8_space, index)
            if index % 2:
                history.record(replace(config, output_classes=10), -90.0)
            else:
                history.record(config, -99.0)
        for seed in range(20):
            history.settings = replace(history.settings, seed=seed)
            assert suggest(history) == tpe_suggest(toy8_space, history), seed

    @pytest.mark.parametrize("loss", [float("nan"), float("inf")])
    def test_success_without_finite_loss_is_refused(self, table1, loss):
        configs = _uniform_configs(table1, 7)
        history = _history(table1, [(c, -90.0 - i) for i, c in enumerate(configs[:6])], n_startup=2)
        before = suggest(history)
        with pytest.raises(ValueError, match=rf"non-finite loss {loss!r} for a successful trial"):
            history.record(configs[6], loss)
        assert len(history) == history.mirror.n == 6
        _assert_mirror_rebuilt(history)
        assert suggest(history) == before == tpe_suggest(table1, history)

    def test_history_without_success_draws_uniformly(self, table1):
        history = ObservationHistory(table1, OptimizerSettings(seed=3, n_startup=2))
        for config in _uniform_configs(table1, 4):
            history.record(config, None)
        assert suggest(history) == tpe_suggest(table1, history)


def _failing_k1_6(space):
    """A surrogate evaluate that fails every config with k1=6."""
    evaluator = SurrogateEvaluator(space)

    def evaluate(config):
        if config.k1 == 6:
            raise EvaluatorError("synthetic failure")
        return evaluator.evaluate(config).accuracy_pct

    return evaluate


class TestRunOptimization:
    def test_budget_one(self, table1):
        evaluator = SurrogateEvaluator(table1)
        history = run_optimization(
            table1, lambda c: evaluator.evaluate(c).accuracy_pct, 1, OptimizerSettings(seed=9)
        )
        assert len(history) == 1

    def test_bad_budget(self, table1):
        with pytest.raises(ValueError):
            run_optimization(table1, lambda c: 90.0, budget=0)

    def test_reproducible_histories(self, reduced_space):
        evaluator = SurrogateEvaluator(reduced_space)
        evaluate = lambda c: evaluator.evaluate(c).accuracy_pct
        settings = OptimizerSettings(seed=4)
        a = run_optimization(reduced_space, evaluate, 120, settings)
        b = run_optimization(reduced_space, evaluate, 120, settings)
        assert a.entries == b.entries

    def test_duplicates_reuse_cached_loss(self, toy8_space):
        calls = []

        def evaluate(config):
            calls.append(config)
            return 90.0 + len(calls)

        history = run_optimization(toy8_space, evaluate, 60, OptimizerSettings(seed=2))
        assert len(history) == 60
        assert len(calls) == len(set(calls))  # never re-evaluated
        by_config = {}
        for entry in history.entries:
            by_config.setdefault(entry.config, set()).add(entry.loss)
        assert all(len(losses) == 1 for losses in by_config.values())

    def test_failed_trials_recorded_not_fatal(self, reduced_space):
        history = run_optimization(
            reduced_space, _failing_k1_6(reduced_space), 80, OptimizerSettings(seed=6)
        )
        assert len(history) == 80
        assert any(e.failed for e in history.entries)
        assert all(e.loss is None for e in history.entries if e.failed)
        assert best_accuracy(history) > 0

    def test_replayed_prefix_suggests_the_next_entry(self, reduced_space):
        # What resuming stage 1 relies on: recording a finished run's first
        # k entries into a fresh history leads to the run's entry k.
        settings = OptimizerSettings(seed=6)
        entries = run_optimization(reduced_space, _failing_k1_6(reduced_space), 80, settings).entries
        assert any(e.failed for e in entries[: settings.n_startup])
        for k in (0, 7, settings.n_startup, 41, 79):
            replay = ObservationHistory(reduced_space, settings)
            for entry in entries[:k]:
                replay.record(entry.config, entry.loss)
            assert suggest(replay) == entries[k].config, k

    def test_unique_target_extends_budget(self, reduced_space):
        evaluator = SurrogateEvaluator(reduced_space)
        evaluate = lambda c: evaluator.evaluate(c).accuracy_pct
        history = run_optimization(
            reduced_space, evaluate, 30, OptimizerSettings(seed=8), unique_target=50
        )
        assert 30 < len(history) <= 90
        assert history.unique_success_count() >= 50

    def test_full_space_unique_yield_at_budget_2000(self, table1):
        evaluator = SurrogateEvaluator(table1)
        history = run_optimization(
            table1,
            lambda c: evaluator.evaluate(c).accuracy_pct,
            budget=2000,
            unique_target=1000,
        )
        assert history.unique_success_count() >= 1000


class TestSuperiority:
    def test_tpe_beats_random_on_median_and_pairs(self, table1):
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
        assert np.median(tpe_best) >= np.median(random_best)
        assert wins >= 12  # 60% of 20 paired seeds
