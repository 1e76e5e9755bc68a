"""Configuration grid for the VGG-style CNN family.

Nine grid parameters describe one network: the block count, one kernel
count per block (k3/k4 exist only for deep enough networks), two hidden
fully-connected widths and their dropout probabilities. Dropout
probabilities are stored as integer hundredths so grid membership is
exact; they render as 0.10..0.30.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._data import TABLE1_SPACE_PATH, read_json, write_json

PARAM_ORDER = ("block", "k1", "k2", "k3", "k4", "fc1", "do1", "fc2", "do2")
DROPOUT_PARAMS = ("do1", "do2")
# The minimum block count at which each block-conditional parameter exists.
MIN_BLOCK = {"k3": 3, "k4": 4}


class SpaceValidationError(ValueError):
    """Malformed grid definition or configuration file."""


def _display(name: str) -> str:
    return name.upper() if name != "block" else "Block"


def _render_value(name: str, value: int) -> str:
    if name in DROPOUT_PARAMS:
        return f"{value / 100:.2f}"
    return str(value)


@dataclass(frozen=True)
class ParamSpec:
    """One grid dimension: values lo, lo+step, ..., hi inclusive."""

    name: str
    lo: int
    hi: int
    step: int

    def __post_init__(self):
        if self.step <= 0:
            raise SpaceValidationError(f"non-positive step: {_display(self.name)}")
        if self.lo > self.hi:
            raise SpaceValidationError(f"empty range: {_display(self.name)}")
        if (self.hi - self.lo) % self.step != 0:
            raise SpaceValidationError(f"grid misaligned: {_display(self.name)}")

    # Built on first read and kept in the instance dict; not a field, so
    # equality and hashing are unchanged.
    @cached_property
    def grid(self) -> tuple[int, ...]:
        return tuple(range(self.lo, self.hi + 1, self.step))

    @property
    def size(self) -> int:
        return (self.hi - self.lo) // self.step + 1

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi and (value - self.lo) % self.step == 0

    def position(self, value: int) -> int:
        if not self.contains(value):
            raise SpaceValidationError(
                f"{_display(self.name)}={_render_value(self.name, value)} "
                f"off-grid ({self.range_text()})"
            )
        return (value - self.lo) // self.step

    def range_text(self) -> str:
        lo = _render_value(self.name, self.lo)
        hi = _render_value(self.name, self.hi)
        step = _render_value(self.name, self.step) if self.name in DROPOUT_PARAMS else self.step
        return f"{lo}..{hi} step {step}"


def _json_int(value, key: str) -> int:
    if type(value) is not int:  # so a bool or a float is refused
        raise SpaceValidationError(f"{key} must be a JSON integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Configuration:
    """One grid point. Inactive kernel fields are None, never zero."""

    block: int
    k1: int
    k2: int
    fc1: int
    do1: int  # hundredths
    fc2: int
    do2: int  # hundredths
    k3: int | None = None
    k4: int | None = None
    output_classes: int = 7

    @property
    def kernels(self) -> tuple[int, ...]:
        ks = [self.k1, self.k2, self.k3, self.k4]
        return tuple(k for k in ks[: self.block] if k is not None)

    def to_json_dict(self) -> dict:
        out: dict = {}
        for name in PARAM_ORDER:
            value = getattr(self, name)
            if value is None:
                continue
            key = f"{name}_hundredths" if name in DROPOUT_PARAMS else name
            out[key] = value
        out["output_classes"] = self.output_classes
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        kwargs: dict = {}
        for name in PARAM_ORDER:
            key = f"{name}_hundredths" if name in DROPOUT_PARAMS else name
            if key in data:
                kwargs[name] = _json_int(data[key], key)
        kwargs["output_classes"] = _json_int(data.get("output_classes", 7), "output_classes")
        missing = [n for n in ("block", "k1", "k2", "fc1", "do1", "fc2", "do2") if n not in kwargs]
        if missing:
            raise SpaceValidationError(f"configuration missing fields: {', '.join(missing)}")
        return cls(**kwargs)

    # json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")),
    # built from a key-sorted template rather than a fresh encoder. Built
    # on first read and kept in the instance dict; not a field, so
    # equality and hashing are unchanged.
    @cached_property
    def _canonical_json(self) -> str:
        k3 = "" if self.k3 is None else f',"k3":{self.k3}'
        k4 = "" if self.k4 is None else f',"k4":{self.k4}'
        return (
            f'{{"block":{self.block},"do1_hundredths":{self.do1},'
            f'"do2_hundredths":{self.do2},"fc1":{self.fc1},"fc2":{self.fc2},'
            f'"k1":{self.k1},"k2":{self.k2}{k3}{k4},"output_classes":{self.output_classes}}}'
        )

    def canonical_json(self) -> str:
        return self._canonical_json


@dataclass(frozen=True)
class SearchSpace:
    """The full grid plus the block-conditional activation rules."""

    params: dict[str, ParamSpec]
    output_classes: int = 7

    def spec_for(self, name: str) -> ParamSpec:
        return self.params[name]

    # The tables are built on first read and kept in the instance dict;
    # none is a field, so equality is unchanged.
    @cached_property
    def _active(self) -> dict[int, tuple[str, ...]]:
        """Per block value on the grid: its active parameters."""
        return {block: self._active_params(block) for block in self.spec_for("block").grid}

    @cached_property
    def _block_sizes(self) -> tuple[tuple[int, tuple[str, ...], int], ...]:
        """Per block value: (block, non-block active params, sub-space size)."""
        out = []
        for block in self.spec_for("block").grid:
            names = tuple(n for n in self.active_params(block) if n != "block")
            n = 1
            for name in names:
                n *= self.spec_for(name).size
            out.append((block, names, n))
        return tuple(out)

    @cached_property
    def _cardinality(self) -> int:
        return sum(size for _, _, size in self._block_sizes)

    def active_params(self, block: int) -> tuple[str, ...]:
        names = self._active.get(block)
        return self._active_params(block) if names is None else names

    def _active_params(self, block: int) -> tuple[str, ...]:
        return tuple(name for name in PARAM_ORDER if block >= MIN_BLOCK.get(name, block))

    def to_json_dict(self) -> dict:
        out: dict = {}
        for name in PARAM_ORDER:
            spec = self.params[name]
            if name in DROPOUT_PARAMS:
                out[name] = {
                    "lo_hundredths": spec.lo,
                    "hi_hundredths": spec.hi,
                    "step_hundredths": spec.step,
                }
            else:
                out[name] = {"lo": spec.lo, "hi": spec.hi, "step": spec.step}
        out["output_classes"] = self.output_classes
        return out


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    reasons: tuple[str, ...] = ()


def build_space(spec_table: list[ParamSpec], output_classes: int = 7) -> SearchSpace:
    """Assemble a SearchSpace.

    Raises SpaceValidationError when a parameter is missing, duplicated,
    or (via ParamSpec) has a misaligned grid.
    """
    by_name: dict[str, ParamSpec] = {}
    for spec in spec_table:
        if spec.name not in PARAM_ORDER:
            raise SpaceValidationError(f"unknown parameter: {spec.name}")
        if spec.name in by_name:
            raise SpaceValidationError(f"duplicate parameter: {_display(spec.name)}")
        by_name[spec.name] = spec
    missing = [n for n in PARAM_ORDER if n not in by_name]
    if missing:
        raise SpaceValidationError(f"missing parameters: {', '.join(missing)}")
    return SearchSpace(params=by_name, output_classes=output_classes)


def table1_space() -> SearchSpace:
    """The published grid (Block 2-4, K1 6-16/2, K2 24-32/4, K3 36-48/4,
    K4 52-64/4, FC1 100-120/5, FC2 80-100/5, DO1/DO2 0.10-0.30/0.01), as
    shipped in data/table1_space.json."""
    return space_from_json(TABLE1_SPACE_PATH)


def cardinality(space: SearchSpace) -> int:
    """Number of distinct valid configurations (conditional k3/k4 counting)."""
    return space._cardinality


def unconditional_cardinality(space: SearchSpace) -> int:
    """Count as if k3/k4 existed for every depth (for the discrepancy report)."""
    n = 1
    for name in PARAM_ORDER:
        n *= space.spec_for(name).size
    return n


def validate(config: Configuration, space: SearchSpace) -> ValidationResult:
    """Grid membership plus conditional presence/absence checks.

    Returns structured reasons instead of raising; callers that need an
    exception wrap this themselves.
    """
    reasons: list[str] = []
    block_spec = space.spec_for("block")
    if not block_spec.contains(config.block):
        reasons.append(
            f"Block={config.block} off-grid ({block_spec.range_text()})"
        )
        return ValidationResult(False, tuple(reasons))
    active = space.active_params(config.block)
    for name in PARAM_ORDER:
        value = getattr(config, name)
        if name in active:
            if value is None:
                reasons.append(f"{_display(name)} missing for block={config.block}")
                continue
            spec = space.params[name]
            if not spec.contains(value):
                reasons.append(
                    f"{_display(name)}={_render_value(name, value)} "
                    f"off-grid ({spec.range_text()})"
                )
        elif value is not None:
            reasons.append(f"{_display(name)} inactive for block={config.block}")
    if config.output_classes != space.output_classes:
        reasons.append(
            f"output_classes={config.output_classes} (space fixes {space.output_classes})"
        )
    return ValidationResult(not reasons, tuple(reasons))


def config_from_index(space: SearchSpace, index: int) -> Configuration:
    """Canonical bijection: blocks ascending, then row-major over the
    active parameter grids in PARAM_ORDER (last parameter fastest)."""
    if index < 0 or index >= space._cardinality:
        raise IndexError(f"index {index} out of range [0, {space._cardinality})")
    rest = index
    for block, names, size in space._block_sizes:
        if rest >= size:
            rest -= size
            continue
        values: dict[str, int] = {"block": block}
        for name in reversed(names):
            grid = space.spec_for(name).grid
            rest, pos = divmod(rest, len(grid))
            values[name] = grid[pos]
        return Configuration(output_classes=space.output_classes, **values)
    raise AssertionError("unreachable: index inside cardinality")


def index_of(space: SearchSpace, config: Configuration) -> int:
    """Inverse of config_from_index; raises on invalid configurations."""
    verdict = validate(config, space)
    if not verdict.valid:
        raise SpaceValidationError("; ".join(verdict.reasons))
    offset = 0
    for block, names, size in space._block_sizes:
        if block == config.block:
            index = 0
            for name in names:
                spec = space.spec_for(name)
                index = index * spec.size + spec.position(getattr(config, name))
            return offset + index
        offset += size
    raise SpaceValidationError(f"Block={config.block} off-grid")


def sample_uniform(space: SearchSpace, rng: np.random.Generator) -> Configuration:
    """Uniform draw over the whole space via a uniform index."""
    return config_from_index(space, int(rng.integers(space._cardinality)))


def seeded_rng(*words: int) -> np.random.Generator:
    """``np.random.default_rng(list(words))``, the same stream. Words that
    all fit in 32 bits go in as one uint32 array, which skips
    SeedSequence's coercion of each int on its own."""
    if all(0 <= word < 1 << 32 for word in words):
        return np.random.default_rng(np.array(words, dtype=np.uint32))
    return np.random.default_rng(list(words))


def space_to_json(space: SearchSpace, path: str | Path) -> None:
    write_json(path, space.to_json_dict())


def space_from_json(path: str | Path) -> SearchSpace:
    """The space in a JSON file. Bad JSON is an "unparseable space file";
    a missing key, a wrong type or an invalid grid is an "invalid space
    file". Either is a SpaceValidationError naming the file."""
    try:
        data = read_json(path)
    except ValueError as exc:
        raise SpaceValidationError(f"unparseable space file {exc}") from None
    try:
        return space_from_dict(data)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SpaceValidationError(
            f"invalid space file {path}: {type(exc).__name__}: {exc}"
        ) from None


def space_from_dict(data: dict) -> SearchSpace:
    """The space in a space file's ``data``. A bound, step or
    output_classes that is not a JSON integer is a ValueError naming its
    key, which space_from_json reports as a SpaceValidationError naming the
    file."""

    def whole(value, key: str) -> int:
        if type(value) is not int:  # so a bool or a float is refused
            raise ValueError(f"{key} must be a JSON integer, got {value!r}")
        return value

    specs = []
    for name in PARAM_ORDER:
        if name not in data:
            raise SpaceValidationError(f"missing parameters: {name}")
        suffix = "_hundredths" if name in DROPOUT_PARAMS else ""
        bounds = [f"{bound}{suffix}" for bound in ("lo", "hi", "step")]
        entry = data[name]
        specs.append(ParamSpec(name, *(whole(entry[key], f"{name}.{key}") for key in bounds)))
    return build_space(specs, output_classes=whole(data.get("output_classes", 7), "output_classes"))
