import re

import numpy as np
import pytest

from edgenas.architecture import build_architecture
from edgenas.reporting import load_paper_tables
from edgenas.space import (
    Configuration,
    SpaceValidationError,
    cardinality,
    config_from_index,
    validate,
)
from oracles import kind_sequence, layer_walk_counts

GRAMMAR = re.compile(
    r"^(conv3x3 relu conv3x3 relu maxpool2x2 ){2,4}"
    r"flatten (fully_connected relu dropout ){2}fully_connected softmax$"
)


def test_pi_best_counts(pi_best):
    arch = build_architecture(pi_best)
    assert arch.total_params == 365_515
    assert arch.total_macs == 10_970_992
    assert arch.weighted_layer_count == 7


def test_pi_best_per_layer_breakdown(pi_best):
    arch = build_architecture(pi_best)
    conv_params = [l.params for l in arch.layers if l.kind == "conv3x3"]
    fc_params = [l.params for l in arch.layers if l.kind == "fully_connected"]
    assert conv_params == [160, 2320, 3480, 5208]
    assert fc_params == [345_700, 8_080, 567]
    conv_macs = [l.macs for l in arch.layers if l.kind == "conv3x3"]
    fc_macs = [l.macs for l in arch.layers if l.kind == "fully_connected"]
    assert conv_macs == [331_776, 5_308_416, 1_990_656, 2_985_984]
    assert fc_macs == [345_600, 8_000, 560]


def test_flatten_width(pi_best):
    arch = build_architecture(pi_best)
    flatten = next(l for l in arch.layers if l.kind == "flatten")
    assert flatten.in_shape == (12, 12, 24)
    assert flatten.out_shape == (12 * 12 * 24,)


def test_small_k1_variant_params():
    config = Configuration(block=2, k1=6, k2=24, fc1=100, do1=20, fc2=80, do2=14)
    arch = build_architecture(config)
    assert arch.total_params == layer_walk_counts(2, [6, 24], 100, 80)[0]
    assert arch.total_params == 361_265


def test_output_layer_contribution():
    # 80 -> 7 output: 567 parameters, 560 multiplies
    config = Configuration(block=2, k1=16, k2=24, fc1=100, do1=20, fc2=80, do2=14)
    arch = build_architecture(config)
    out_fc = [l for l in arch.layers if l.kind == "fully_connected"][-1]
    assert out_fc.params == 80 * 7 + 7 == 567
    assert out_fc.macs == 80 * 7 == 560


def test_weighted_layer_counts_per_depth(table1):
    cases = {
        2: Configuration(block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10),
        3: Configuration(block=3, k1=6, k2=24, k3=36, fc1=100, do1=10, fc2=80, do2=10),
        4: Configuration(block=4, k1=6, k2=24, k3=36, k4=52, fc1=100, do1=10, fc2=80, do2=10),
    }
    expected = {2: 7, 3: 9, 4: 11}
    for block, config in cases.items():
        arch = build_architecture(config)
        assert arch.weighted_layer_count == expected[block]
        assert arch.weighted_layer_count == 2 * block + 3


def _table3_off_grid_configs(table1):
    configs = {
        Configuration.from_json_dict(row["config"])
        for rows in load_paper_tables()["table3"].values()
        for row in rows
    }
    return sorted((c for c in configs if not validate(c, table1).valid), key=repr)


def test_closed_form_totals_equal_layer_sums(table1):
    rng = np.random.default_rng(31)
    configs = [config_from_index(table1, int(i)) for i in rng.integers(cardinality(table1), size=300)]
    off_grid = _table3_off_grid_configs(table1)
    assert off_grid
    configs += off_grid
    assert {c.block for c in configs} == {2, 3, 4}
    for config in configs:
        arch = build_architecture(config)
        conv = [l for l in arch.layers if l.kind == "conv3x3"]
        fc = [l for l in arch.layers if l.kind == "fully_connected"]
        assert arch.total_params == sum(l.params for l in arch.layers)
        assert arch.total_macs == sum(l.macs for l in arch.layers)
        assert (arch.conv_macs, arch.fc_macs) == (sum(l.macs for l in conv), sum(l.macs for l in fc))
        assert arch.weighted_layer_count == len(conv) + len(fc)
        walk = layer_walk_counts(
            config.block, list(config.kernels), config.fc1, config.fc2, config.output_classes
        )
        assert (arch.total_params, arch.total_macs) == walk


def test_lazy_layers_leave_equality_and_hash(pi_best):
    read, unread = build_architecture(pi_best), build_architecture(pi_best)
    assert len(read.layers) == 19
    assert "layers" in vars(read) and "layers" not in vars(unread)
    assert read == unread
    assert hash(read) == hash(unread)
    assert read.layers == unread.layers  # now both have walked the stack


def test_spatial_progression_block3():
    config = Configuration(block=3, k1=6, k2=24, k3=36, fc1=100, do1=10, fc2=80, do2=10)
    arch = build_architecture(config)
    pools = [l for l in arch.layers if l.kind == "maxpool2x2"]
    assert [p.out_shape[0] for p in pools] == [24, 12, 6]


def test_oracle_agreement_100_random_configs(table1):
    rng = np.random.default_rng(17)
    for index in rng.integers(cardinality(table1), size=100):
        config = config_from_index(table1, int(index))
        arch = build_architecture(config)
        params, macs = layer_walk_counts(
            config.block, list(config.kernels), config.fc1, config.fc2, config.output_classes
        )
        assert arch.total_params == params
        assert arch.total_macs == macs


def test_grammar_sequence(table1):
    rng = np.random.default_rng(23)
    for index in rng.integers(cardinality(table1), size=50):
        arch = build_architecture(config_from_index(table1, int(index)))
        assert GRAMMAR.match(" ".join(kind_sequence(arch)))


def test_zero_param_layers(pi_best):
    arch = build_architecture(pi_best)
    for layer in arch.layers:
        if layer.kind not in ("conv3x3", "fully_connected"):
            assert layer.params == 0 and layer.macs == 0


def test_monotonicity_in_each_parameter(table1):
    base = Configuration(block=3, k1=10, k2=28, k3=40, fc1=110, do1=20, fc2=90, do2=20)
    base_arch = build_architecture(base)
    for name, bigger in (("k1", 12), ("k2", 32), ("k3", 44), ("fc1", 115), ("fc2", 95)):
        kwargs = {f: getattr(base, f) for f in ("block", "k1", "k2", "k3", "fc1", "do1", "fc2", "do2")}
        kwargs[name] = bigger
        grown = build_architecture(Configuration(**kwargs))
        assert grown.total_params > base_arch.total_params
        assert grown.total_macs > base_arch.total_macs


def test_macs_double_k1_increases(pi_best):
    doubled = Configuration(block=2, k1=32, k2=24, fc1=100, do1=20, fc2=80, do2=14)
    assert build_architecture(doubled).total_macs > build_architecture(pi_best).total_macs


def test_structural_validation():
    with pytest.raises(SpaceValidationError, match="K3 missing"):
        build_architecture(Configuration(block=3, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10))
    with pytest.raises(SpaceValidationError, match="K3 inactive"):
        build_architecture(
            Configuration(block=2, k1=6, k2=24, k3=36, fc1=100, do1=10, fc2=80, do2=10)
        )


def test_input_not_divisible_by_pooling_refused(pi_best):
    config = Configuration(block=4, k1=6, k2=24, k3=36, k4=52, fc1=100, do1=10, fc2=80, do2=10)
    message = "input 40x40 not divisible by 2^4 pooling stages"
    with pytest.raises(SpaceValidationError, match=re.escape(message)):
        build_architecture(config, input_shape=(40, 40, 1))
    message = "input 48x50 not divisible by 2^2 pooling stages"
    with pytest.raises(SpaceValidationError, match=re.escape(message)):
        build_architecture(pi_best, input_shape=(48, 50, 1))


def test_off_grid_config_still_compiles():
    # published best-model rows include values outside the grid; the
    # compiler only needs structural consistency
    config = Configuration(block=2, k1=18, k2=24, fc1=110, do1=15, fc2=95, do2=29)
    arch = build_architecture(config)
    params, macs = layer_walk_counts(2, [18, 24], 110, 95)
    assert arch.total_params == params and arch.total_macs == macs


def test_describe_json(pi_best):
    data = build_architecture(pi_best).to_json_dict()
    assert data["total_params"] == 365_515
    assert data["weighted_layers"] == 7
    assert data["layers"][0] == {
        "kind": "conv3x3",
        "in": [48, 48, 1],
        "out": [48, 48, 16],
        "params": 160,
        "macs": 331_776,
    }
