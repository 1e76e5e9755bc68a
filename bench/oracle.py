"""Computations the checks compare the program's outputs against.

Nothing here imports the program. The grid and the cost models are read
straight from the shipped JSON files; the architecture is counted by
walking the feature maps; the stub answers are recomputed from their
closed forms. Configurations are handled in their wire form, the JSON
object the program writes (dropout in hundredths).
"""

from __future__ import annotations

import json
import math
import zlib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "src" / "edgenas" / "data"
SPACE_FILE = DATA / "table1_space.json"
PROFILES_DIR = DATA / "profiles"

# The paper's measurement protocol: 40 timed inferences per model, power
# sampled at 1 Hz over a 180 s window, idle and active.
LATENCY_RUNS = 40
POWER_SAMPLES = 180

KERNELS = ("k1", "k2", "k3", "k4")
INPUT_SIDE = 48
OUTPUT_CLASSES = 7


def config_key(config: dict) -> tuple:
    return tuple(sorted(config.items()))


def load_grid(path: Path = SPACE_FILE) -> dict[str, tuple[int, ...]]:
    """Grid values per parameter, from the space file itself."""
    data = json.loads(Path(path).read_text())
    grid = {}
    for name, entry in data.items():
        if name == "output_classes":
            continue
        suffix = "_hundredths" if name.startswith("do") else ""
        lo, hi, step = (entry[f"{k}{suffix}"] for k in ("lo", "hi", "step"))
        grid[name] = tuple(range(lo, hi + 1, step))
    return grid


def wire_name(name: str) -> str:
    return f"{name}_hundredths" if name.startswith("do") else name


def active_names(block: int) -> list[str]:
    """Grid parameters a network of this depth carries, in index order."""
    return list(KERNELS[:block]) + ["fc1", "do1", "fc2", "do2"]


def block_sizes(grid: dict) -> list[tuple[int, int]]:
    sizes = []
    for block in grid["block"]:
        size = 1
        for name in active_names(block):
            size *= len(grid[name])
        sizes.append((block, size))
    return sizes


def on_grid(config: dict, grid: dict) -> bool:
    block = config.get("block")
    if block not in grid["block"] or config.get("output_classes") != OUTPUT_CLASSES:
        return False
    expected = {"block", "output_classes"} | {wire_name(n) for n in active_names(block)}
    if set(config) != expected:
        return False
    return all(config[wire_name(n)] in grid[n] for n in active_names(block))


def canonical_index(config: dict, grid: dict) -> int:
    """Blocks ascending, then row-major over the active parameters with
    the last one fastest."""
    offset = 0
    for block, size in block_sizes(grid):
        if block == config["block"]:
            index = 0
            for name in active_names(block):
                values = grid[name]
                index = index * len(values) + values.index(config[wire_name(name)])
            return offset + index
        offset += size
    raise ValueError(f"block {config['block']} is not on the grid")


def config_at(index: int, grid: dict) -> dict:
    """Inverse of canonical_index, used to draw uniform candidates."""
    for block, size in block_sizes(grid):
        if index >= size:
            index -= size
            continue
        config = {"block": block}
        names = active_names(block)
        for name in reversed(names):
            index, pos = divmod(index, len(grid[name]))
            config[wire_name(name)] = grid[name][pos]
        config["output_classes"] = OUTPUT_CLASSES
        return config
    raise IndexError("index beyond the grid")


def grid_size(grid: dict) -> int:
    return sum(size for _, size in block_sizes(grid))


def layer_walk(config: dict) -> dict:
    """Count multiplies and weights by walking the feature maps:
    per block two size-preserving 3x3 convs then a 2x2 pool, then
    flatten and three fully connected layers."""
    side, channels = INPUT_SIDE, 1
    conv_macs = fc_macs = params = 0
    for name in KERNELS[: config["block"]]:
        kernels = config[name]
        for c_in in (channels, kernels):
            conv_macs += side * side * 9 * c_in * kernels
            params += 9 * c_in * kernels + kernels
        channels = kernels
        side //= 2
    units = side * side * channels
    for width in (config["fc1"], config["fc2"], config.get("output_classes", OUTPUT_CLASSES)):
        fc_macs += units * width
        params += units * width + width
        units = width
    return {
        "conv_macs": conv_macs,
        "fc_macs": fc_macs,
        "macs": conv_macs + fc_macs,
        "params": params,
        "weighted_layers": 2 * config["block"] + 3,
    }


def load_profiles(directory: Path = PROFILES_DIR) -> dict[str, dict]:
    profiles = {}
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        profiles[data["name"]] = data
    return profiles


def model_latency_ms(profile: dict, walk: dict) -> float:
    m = profile["latency_model"]
    return (
        m["fixed_ms"]
        + walk["conv_macs"] / m["conv_macs_per_ms"]
        + walk["fc_macs"] / m["fc_macs_per_ms"]
        + walk["weighted_layers"] * m["per_layer_ms"]
    )


def model_power_w(profile: dict, walk: dict) -> float:
    """alpha + beta * kMAC/ms at the noiseless model latency."""
    p = profile["power_model"]
    rate = walk["macs"] / model_latency_ms(profile, walk) / 1000.0
    return p["alpha_w"] + p["beta_w_per_kmacs_per_ms"] * rate


def mean_and_std(samples: list[float]) -> tuple[float, float]:
    n = len(samples)
    mean = math.fsum(samples) / n
    return mean, math.sqrt(math.fsum((s - mean) ** 2 for s in samples) / (n - 1))


# Stub answers. The stubs in stubs/ compute the same closed forms with
# their own code; a test runs them against these functions.

STUB_COLD_RUNS = 2


def stub_accuracy(config: dict) -> float:
    h = (
        31 * config["block"]
        + 17 * config["k1"]
        + 13 * config["k2"]
        + 11 * config.get("k3", 0)
        + 7 * config.get("k4", 0)
        + 5 * config["fc1"]
        + 3 * config["do1_hundredths"]
        + 2 * config["fc2"]
        + config["do2_hundredths"]
    ) % 1000
    return 90.0 + h / 100.0


def stub_latency_base_ms(config: dict, device: str) -> float:
    kernels = sum(config.get(k, 0) for k in KERNELS)
    return (
        0.2
        + 0.25 * config["block"]
        + kernels / 200.0
        + (config["fc1"] + config["fc2"]) / 2000.0
        + 0.05 * (zlib.crc32(device.encode()) % 7)
    )


def stub_latency_samples(config: dict, device: str, runs: int) -> list[float]:
    """The first STUB_COLD_RUNS runs are cold (three times slower); the
    rest wobble by +-1 % around the base."""
    base = stub_latency_base_ms(config, device)
    return [
        3.0 * base if i < STUB_COLD_RUNS else base * (1.0 + 0.01 * ((i % 3) - 1))
        for i in range(runs)
    ]


def stub_dynamic_power_w(config: dict, device: str) -> float:
    return (
        0.3
        + 0.01 * config["block"]
        + (config["fc1"] % 7) / 100.0
        + 0.02 * (zlib.crc32(device.encode()) % 5)
    )


# Ranking: descending fitness, then lower latency, fewer parameters and
# lower canonical index.


def rank_key(record: dict, grid: dict, memo: dict) -> tuple:
    key = config_key(record["config"])
    if key not in memo:
        memo[key] = (layer_walk(record["config"])["params"], canonical_index(record["config"], grid))
    params, index = memo[key]
    latency = record["latency_mean_ms"]
    return (
        -record["fitness"]["value"],
        math.inf if latency is None else latency,
        params,
        index,
    )


def top_k(records: list[dict], k: int, grid: dict, memo: dict) -> list[dict]:
    return sorted(records, key=lambda r: rank_key(r, grid, memo))[:k]
