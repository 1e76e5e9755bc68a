"""Layer stack compiler for the configuration grammar.

Grammar: (conv3x3 relu conv3x3 relu maxpool2x2) x block, flatten,
(fc relu dropout) x 2, fc, softmax. Convolutions are stride-1 with
size-preserving padding, so only pooling halves the spatial side
(48 -> 24 -> 12 -> 6 -> 3). Parameter counts include biases; MAC counts
are multiplies only. The totals are computed in closed form; the
layer stack is walked only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .space import Configuration, SpaceValidationError

INPUT_SHAPE = (48, 48, 1)

CONV = "conv3x3"
RELU = "relu"
MAXPOOL = "maxpool2x2"
FLATTEN = "flatten"
FC = "fully_connected"
DROPOUT = "dropout"
SOFTMAX = "softmax"


@dataclass(frozen=True)
class LayerDescriptor:
    kind: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    params: int = 0
    macs: int = 0


@dataclass(frozen=True)
class ArchitectureDescriptor:
    config: Configuration
    total_params: int
    total_macs: int
    weighted_layer_count: int
    conv_macs: int
    fc_macs: int

    # Walked on first read and kept in the instance dict; not a field, so
    # equality and hashing see only the fields above, which determine it.
    @cached_property
    def layers(self) -> tuple[LayerDescriptor, ...]:
        return _layer_walk(self.config)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "input_shape": list(INPUT_SHAPE),
            "layers": [
                {
                    "kind": l.kind,
                    "in": list(l.in_shape),
                    "out": list(l.out_shape),
                    "params": l.params,
                    "macs": l.macs,
                }
                for l in self.layers
            ],
            "total_params": self.total_params,
            "total_macs": self.total_macs,
            "weighted_layers": self.weighted_layer_count,
        }


def _check_structure(config: Configuration) -> None:
    # Structural consistency only; grid membership is the space's concern
    # (published best-model tables contain off-grid values we still compile).
    if config.block not in (2, 3, 4):
        raise SpaceValidationError(f"Block={config.block} outside 2..4")
    if (config.k3 is None) != (config.block < 3):
        state = "missing" if config.k3 is None else "inactive"
        raise SpaceValidationError(f"K3 {state} for block={config.block}")
    if (config.k4 is None) != (config.block < 4):
        state = "missing" if config.k4 is None else "inactive"
        raise SpaceValidationError(f"K4 {state} for block={config.block}")
    for name in ("k1", "k2", "k3", "k4", "fc1", "fc2"):
        value = getattr(config, name)
        if value is not None and value <= 0:
            raise SpaceValidationError(f"{name.upper()}={value} must be positive")
    if config.output_classes <= 0:
        raise SpaceValidationError("output_classes must be positive")


def build_architecture(config: Configuration) -> ArchitectureDescriptor:
    """Check a configuration and total its parameters and MACs; the
    layer stack itself is built only when ``layers`` is read."""
    _check_structure(config)
    height, width, channels = INPUT_SHAPE
    params = conv_macs = fc_macs = 0
    for k in config.kernels:  # two convolutions, then pooling halves the side
        params += 9 * channels * k + k + 9 * k * k + k
        conv_macs += height * width * 9 * (channels + k) * k
        height, width, channels = height // 2, width // 2, k
    units_in = height * width * channels
    for units in (config.fc1, config.fc2, config.output_classes):
        params += units_in * units + units
        fc_macs += units_in * units
        units_in = units
    return ArchitectureDescriptor(
        config=config,
        total_params=params,
        total_macs=conv_macs + fc_macs,
        weighted_layer_count=2 * len(config.kernels) + 3,
        conv_macs=conv_macs,
        fc_macs=fc_macs,
    )


def _layer_walk(config: Configuration) -> tuple[LayerDescriptor, ...]:
    """The full layer stack with shape, parameter and MAC accounting."""
    height, width, channels = INPUT_SHAPE
    layers: list[LayerDescriptor] = []

    def conv(h: int, w: int, c_in: int, c_out: int) -> None:
        layers.append(
            LayerDescriptor(
                CONV,
                (h, w, c_in),
                (h, w, c_out),
                params=9 * c_in * c_out + c_out,
                macs=h * w * 9 * c_in * c_out,
            )
        )

    def passthrough(kind: str, shape: tuple[int, ...]) -> None:
        layers.append(LayerDescriptor(kind, shape, shape))

    for k in config.kernels:
        conv(height, width, channels, k)
        passthrough(RELU, (height, width, k))
        conv(height, width, k, k)
        passthrough(RELU, (height, width, k))
        layers.append(
            LayerDescriptor(MAXPOOL, (height, width, k), (height // 2, width // 2, k))
        )
        height, width, channels = height // 2, width // 2, k

    flat = height * width * channels
    layers.append(LayerDescriptor(FLATTEN, (height, width, channels), (flat,)))

    def dense(units_in: int, units_out: int) -> None:
        layers.append(
            LayerDescriptor(
                FC,
                (units_in,),
                (units_out,),
                params=units_in * units_out + units_out,
                macs=units_in * units_out,
            )
        )

    for units in (config.fc1, config.fc2):
        dense(flat, units)
        passthrough(RELU, (units,))
        passthrough(DROPOUT, (units,))
        flat = units
    dense(flat, config.output_classes)
    passthrough(SOFTMAX, (config.output_classes,))

    return tuple(layers)
