import json
import re
from dataclasses import replace

import numpy as np
import pytest

from edgenas._data import TABLE1_SPACE_PATH
from edgenas.space import (
    PARAM_ORDER,
    Configuration,
    ParamSpec,
    SpaceValidationError,
    build_space,
    cardinality,
    config_from_index,
    index_of,
    sample_uniform,
    seeded_rng,
    space_from_json,
    space_to_json,
    table1_space,
    unconditional_cardinality,
    validate,
)
from oracles import conv_subspace_count, enumerate_config_tuples, fc_subspace_count

TABLE1 = json.loads(TABLE1_SPACE_PATH.read_text())


class TestParamSpec:
    def test_grid_values_inclusive(self):
        spec = ParamSpec("k1", 6, 16, 2)
        assert spec.grid == (6, 8, 10, 12, 14, 16)
        assert spec.size == 6

    def test_misaligned_grid_rejected(self):
        with pytest.raises(SpaceValidationError, match="grid misaligned: K1"):
            ParamSpec("k1", 6, 15, 2)

    def test_bad_step_and_range(self):
        with pytest.raises(SpaceValidationError):
            ParamSpec("k1", 6, 16, 0)
        with pytest.raises(SpaceValidationError):
            ParamSpec("k1", 16, 6, 2)

    def test_dropout_renders_as_probability(self):
        spec = ParamSpec("do1", 10, 30, 1)
        assert spec.range_text() == "0.10..0.30 step 0.01"


class TestBuildSpace:
    def test_table1_grid_sizes(self, table1):
        sizes = {name: table1.spec_for(name).size for name in table1.params}
        assert sizes == {
            "block": 3,
            "k1": 6,
            "k2": 3,
            "k3": 4,
            "k4": 4,
            "fc1": 5,
            "fc2": 5,
            "do1": 21,
            "do2": 21,
        }

    def test_activation_rules_attached(self, table1):
        assert table1.active_params(2) == ("block", "k1", "k2", "fc1", "do1", "fc2", "do2")
        assert table1.active_params(3) == ("block", "k1", "k2", "k3", "fc1", "do1", "fc2", "do2")
        assert table1.active_params(4) == PARAM_ORDER

    def test_missing_parameter_rejected(self):
        with pytest.raises(SpaceValidationError, match="missing parameters"):
            build_space([ParamSpec("block", 2, 4, 1)])

    def test_single_point_space(self, single_point_space):
        assert cardinality(single_point_space) == 1


class TestCardinality:
    def test_table1_closed_form(self, table1):
        assert cardinality(table1) == 4_167_450
        assert cardinality(table1) == (6 * 3 + 6 * 3 * 4 + 6 * 3 * 4 * 4) * (5 * 21 * 5 * 21)

    def test_table1_against_enumeration_oracle(self, table1):
        conv = conv_subspace_count(table1)
        assert conv == 378
        assert conv * fc_subspace_count(table1) == cardinality(table1)

    def test_unconditional_count(self, table1):
        assert unconditional_cardinality(table1) == 9_525_600

    def test_toy8(self, toy8_space):
        assert cardinality(toy8_space) == 8
        assert len(enumerate_config_tuples(toy8_space)) == 8

    def test_cached_tables_leave_equality(self):
        filled, fresh = table1_space(), table1_space()
        assert cardinality(filled) == 4_167_450
        assert "_cardinality" in vars(filled) and "_block_sizes" in vars(filled)
        assert "_cardinality" not in vars(fresh)
        assert filled == fresh

        read, unread = ParamSpec("k1", 6, 16, 2), ParamSpec("k1", 6, 16, 2)
        assert read.grid == (6, 8, 10, 12, 14, 16) and read.grid is read.grid
        assert "grid" in vars(read) and "grid" not in vars(unread)
        assert read == unread and hash(read) == hash(unread)


class TestSeededRng:
    @pytest.mark.parametrize(
        "words",
        [(0,), (1, 2**32 - 1), (0, 1, 2**32 - 1, 7), (2**32,), (5, 2**64 + 3), (2**32 - 1, 2**32)],
    )
    def test_same_streams_as_default_rng_of_the_list(self, words):
        got, expected = seeded_rng(*words), np.random.default_rng(list(words))
        assert got.normal(size=5).tolist() == expected.normal(size=5).tolist()
        assert got.random(5).tolist() == expected.random(5).tolist()
        assert got.integers(1000, size=5).tolist() == expected.integers(1000, size=5).tolist()

    def test_negative_word_refused(self):
        with pytest.raises(ValueError):
            seeded_rng(1, -1)


class TestValidate:
    def test_published_best_model_valid(self, table1, pi_best):
        assert validate(pi_best, table1).valid

    def test_inactive_k3_flagged(self, table1):
        config = Configuration(block=2, k1=16, k2=24, k3=36, fc1=100, do1=20, fc2=80, do2=14)
        verdict = validate(config, table1)
        assert not verdict.valid
        assert "K3 inactive for block=2" in verdict.reasons

    def test_off_grid_k1_flagged(self, table1):
        config = Configuration(block=2, k1=18, k2=24, fc1=110, do1=15, fc2=95, do2=29)
        verdict = validate(config, table1)
        assert not verdict.valid
        assert "K1=18 off-grid (6..16 step 2)" in verdict.reasons

    def test_missing_active_field_flagged(self, table1):
        config = Configuration(block=3, k1=16, k2=24, fc1=100, do1=20, fc2=80, do2=14)
        verdict = validate(config, table1)
        assert not verdict.valid
        assert any("K3 missing" in r for r in verdict.reasons)


class TestCanonicalIndex:
    def test_index_zero_is_all_minimum(self, table1):
        assert config_from_index(table1, 0) == Configuration(
            block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10
        )

    def test_last_index_is_all_maximum(self, table1):
        assert config_from_index(table1, cardinality(table1) - 1) == Configuration(
            block=4, k1=16, k2=32, k3=48, k4=64, fc1=120, do1=30, fc2=100, do2=30
        )

    def test_out_of_range(self, table1):
        with pytest.raises(IndexError):
            config_from_index(table1, cardinality(table1))
        with pytest.raises(IndexError):
            config_from_index(table1, -1)

    def test_roundtrip_1000_random_indices(self, table1):
        rng = np.random.default_rng(7)
        for index in rng.integers(cardinality(table1), size=1000):
            config = config_from_index(table1, int(index))
            assert validate(config, table1).valid
            assert index_of(table1, config) == index

    def test_exhaustive_bijection_on_toy_space(self, toy8_space):
        seen = set()
        for index in range(cardinality(toy8_space)):
            config = config_from_index(toy8_space, index)
            assert validate(config, toy8_space).valid
            assert index_of(toy8_space, config) == index
            seen.add(config)
        assert len(seen) == 8

    def test_block2_never_carries_k3_k4(self, table1):
        rng = np.random.default_rng(11)
        for index in rng.integers(cardinality(table1), size=2000):
            config = config_from_index(table1, int(index))
            if config.block == 2:
                assert config.k3 is None and config.k4 is None
            if config.block == 3:
                assert config.k3 is not None and config.k4 is None


class TestSampleUniform:
    def test_deterministic_for_fixed_seed(self, table1):
        a = sample_uniform(table1, np.random.default_rng(42))
        b = sample_uniform(table1, np.random.default_rng(42))
        assert a == b

    def test_every_draw_validates(self, table1):
        rng = np.random.default_rng(3)
        for _ in range(200):
            assert validate(sample_uniform(table1, rng), table1).valid

    def test_toy8_frequencies_uniform(self, toy8_space):
        rng = np.random.default_rng(123)
        counts = {}
        for _ in range(10_000):
            config = sample_uniform(toy8_space, rng)
            counts[config] = counts.get(config, 0) + 1
        assert len(counts) == 8
        for n in counts.values():
            assert abs(n / 10_000 - 1 / 8) <= 0.02


class TestSerialization:
    def test_shipped_table1_file_matches_builtin(self, table1):
        from edgenas._data import TABLE1_SPACE_PATH

        assert space_from_json(TABLE1_SPACE_PATH) == table1

    def test_space_json_roundtrip(self, tmp_path, toy8_space):
        path = tmp_path / "space.json"
        space_to_json(toy8_space, path)
        assert space_from_json(path) == toy8_space

    def test_config_json_uses_hundredths_and_absence(self, pi_best):
        data = pi_best.to_json_dict()
        assert data["do1_hundredths"] == 20
        assert "k3" not in data and "k4" not in data
        assert Configuration.from_json_dict(data) == pi_best

    def test_canonical_json_is_built_once_and_leaves_equality(self, table1, reduced_space):
        # every reduced-space config (blocks 2 and 3), 2,000 Table-1 draws
        # and other output_classes: the template equals json.dumps byte for byte
        rng = np.random.default_rng(5)
        configs = [config_from_index(reduced_space, i) for i in range(cardinality(reduced_space))]
        configs += [sample_uniform(table1, rng) for _ in range(2000)]
        configs += [replace(c, output_classes=n) for c in configs[::97] for n in (2, 10, 1000)]
        assert {c.block for c in configs} == {2, 3, 4}
        for read in configs:
            unread = replace(read)
            fresh = json.dumps(read.to_json_dict(), sort_keys=True, separators=(",", ":"))
            assert read.canonical_json() == fresh
            assert read.canonical_json() is read.canonical_json()
            assert "_canonical_json" in vars(read) and "_canonical_json" not in vars(unread)
            assert read == unread and hash(read) == hash(unread)
            assert len({read, unread}) == 1

    def test_config_json_missing_field(self):
        with pytest.raises(SpaceValidationError, match="missing fields"):
            Configuration.from_json_dict({"block": 2, "k1": 16})

    def test_unparseable_space_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpaceValidationError, match="unparseable"):
            space_from_json(path)

    @pytest.mark.parametrize(
        "content, reason",
        [
            ({"block": {"lo": 2}}, "KeyError: 'hi'"),
            ({"block": 3}, "TypeError"),
            ({"block": {"lo": "two", "hi": 4, "step": 1}}, "TypeError"),
            (
                {**TABLE1, "k1": {"lo": 6, "hi": 16, "step": 2.9}},
                "TypeError: k1.step must be a JSON integer, got 2.9",
            ),
            (
                {**TABLE1, "k2": {"lo": 24, "hi": True, "step": 4}},
                "TypeError: k2.hi must be a JSON integer, got True",
            ),
            (
                {**TABLE1, "do1": {"lo_hundredths": 10.0, "hi_hundredths": 30, "step_hundredths": 1}},
                "TypeError: do1.lo_hundredths must be a JSON integer, got 10.0",
            ),
            ({**TABLE1, "output_classes": 7.5}, "TypeError: output_classes must be a JSON integer, got 7.5"),
            ({**TABLE1, "k1": {"lo": 16, "hi": 6, "step": 2}}, "SpaceValidationError: empty range: K1"),
        ],
    )
    def test_space_file_with_missing_key_or_wrong_type_is_named(self, tmp_path, content, reason):
        # the file parses, so it is invalid, not unparseable
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        with pytest.raises(SpaceValidationError, match=re.escape(f"invalid space file {path}: {reason}")):
            space_from_json(path)
