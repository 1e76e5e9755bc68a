"""Fits the shipped device profiles from the frozen published cells.

Each device contributes three calibration points: its two best-model
rows (latency, and latency+power) and its device-average row attached to
a mid-grid reference architecture. Two devices list the same
configuration in both best-model rows, so the average row is what makes
the fit full-rank. The resulting coefficients are fit artifacts with no
published authority of their own; every profile embeds its residuals.
"""

from __future__ import annotations

from .architecture import build_architecture
from .devices import DeviceProfile, FitObservation, fit_profile
from .evaluators import Precision
from .reporting import load_paper_tables
from .space import Configuration, SearchSpace, table1_space

DEVICE_PRECISIONS = {
    "pi": Precision.FP32,
    "jetson-low": Precision.FP16,
    "jetson-high": Precision.FP16,
    "pi-ncs2": Precision.FP16,
    "pi-tpu": Precision.INT8,
    "coral-dev": Precision.INT8,
}


def reference_config(space: SearchSpace) -> Configuration:
    """Mid-grid stand-in for the (unpublished) average searched model."""
    block_grid = space.spec_for("block").grid
    block = block_grid[len(block_grid) // 2]
    values = {}
    for name in space.active_params(block):
        grid = space.spec_for(name).grid
        values[name] = grid[len(grid) // 2]
    return Configuration(output_classes=space.output_classes, **values)


def accuracy_delta(device: str, tables: dict) -> float:
    """Average-accuracy gap vs the full-precision baseline device."""
    by_device = {row["device"]: row["accuracy_pct"]["ave"] for row in tables["table2"]}
    return round(by_device["pi"] - by_device[device], 2)


def calibration_observations(
    device: str, tables: dict, space: SearchSpace
) -> list[FitObservation]:
    # Observation labels are the fixture's own cite strings, so every
    # shipped residual names the exact cell it was fit against.
    observations = []
    table3 = tables["table3"]
    for row in table3["accuracy_per_latency"] + table3["accuracy_per_pdp"]:
        if row["device"] == device:
            observations.append(
                FitObservation(
                    arch=build_architecture(Configuration.from_json_dict(row["config"])),
                    latency_ms=row["latency_ms"],
                    dynamic_power_w=row.get("power_w"),
                    label=row["cite"],
                )
            )
    for row in tables["table2"]:
        if row["device"] == device:
            observations.append(
                FitObservation(
                    arch=build_architecture(reference_config(space)),
                    latency_ms=row["latency_ms"]["ave"],
                    dynamic_power_w=row["power_w"]["ave"],
                    label=f"{row['cite']} (averages on the mid-grid reference architecture)",
                )
            )
    return observations


def fit_device_profile(
    device: str, tables: dict | None = None, space: SearchSpace | None = None
) -> DeviceProfile:
    if device not in DEVICE_PRECISIONS:
        raise ValueError(
            f"unknown device {device!r}; known: {', '.join(sorted(DEVICE_PRECISIONS))}"
        )
    tables = tables or load_paper_tables()
    space = space or table1_space()
    observations = calibration_observations(device, tables, space)
    return fit_profile(
        observations,
        precision=DEVICE_PRECISIONS[device],
        name=device,
        accuracy_delta_pct=accuracy_delta(device, tables),
    )
