"""Accuracy evaluation: a deterministic desk-scale surrogate and an
external-process evaluator speaking the NDJSON wire protocol.

The surrogate maps every active parameter to its relative grid position,
mixes per-parameter cosine waves (coefficients frozen from a seed) with a
mild depth reward, and squashes through a logistic onto the observed
accuracy band [88.32, 99.49]; the logistic keeps every value strictly
inside it.

Stage 1 scores full-precision accuracy. The loss of a lower-precision
deployment belongs to the device: stage 2 subtracts each profile's
``accuracy_delta_pct``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .protocol import ChannelTimeout, JsonLineChannel, ProtocolError, number
from .space import PARAM_ORDER, Configuration, SearchSpace, SpaceValidationError, validate

ACCURACY_FLOOR_PCT = 88.32
ACCURACY_CEILING_PCT = 99.49

DEFAULT_SURROGATE_SEED = 49
DEPTH_REWARD = 0.3
_AMPLITUDE_RANGE = (0.45, 0.95)
_CYCLES_RANGE = (0.10, 0.40)


class Precision(str, Enum):
    FP32 = "fp32"
    FP16 = "fp16"
    INT8 = "int8"


class EvaluatorError(RuntimeError):
    """Evaluation failed for one configuration (recorded, not fatal)."""


@dataclass(frozen=True)
class AccuracyResult:
    accuracy_pct: float

    def __post_init__(self):
        if not math.isfinite(self.accuracy_pct) or not 0.0 <= self.accuracy_pct <= 100.0:
            raise EvaluatorError(f"accuracy {self.accuracy_pct} outside [0, 100]")


class SurrogateEvaluator:
    """Pure stand-in for real training; deterministic in (config, seed)."""

    def __init__(self, space: SearchSpace):
        self.space = space
        rng = np.random.default_rng(DEFAULT_SURROGATE_SEED)
        # Per parameter, each grid value's cosine term: amplitude *
        # cos(2 pi (cycles * x + phase)), x the value's relative position.
        self._terms: dict[str, dict[int, float]] = {}
        for name in PARAM_ORDER:
            amplitude = float(rng.uniform(*_AMPLITUDE_RANGE))
            cycles = float(rng.uniform(*_CYCLES_RANGE))
            phase = float(rng.uniform(0.0, 1.0))
            grid = space.spec_for(name).grid
            last = len(grid) - 1
            self._terms[name] = {
                value: amplitude * math.cos(2.0 * math.pi * (cycles * (i / last if last else 0.5) + phase))
                for i, value in enumerate(grid)
            }

    def evaluate(self, config: Configuration) -> AccuracyResult:
        verdict = validate(config, self.space)
        if not verdict.valid:
            raise SpaceValidationError("; ".join(verdict.reasons))
        s = DEPTH_REWARD * (config.block - 2) / 2.0
        for name in self.space.active_params(config.block):
            s += self._terms[name][getattr(config, name)]
        logistic = 1.0 / (1.0 + math.exp(-s))
        return AccuracyResult(
            ACCURACY_FLOOR_PCT + (ACCURACY_CEILING_PCT - ACCURACY_FLOOR_PCT) * logistic
        )


class ExternalEvaluator:
    """Bridges to a spawned evaluator process over line-delimited JSON.
    The process scores full-precision accuracy; stage 2 subtracts each
    device profile's ``accuracy_delta_pct``.

    Request:  {"id": N, "cmd": "evaluate", "config": {...}}
    Response: {"id": N, "accuracy_pct": x} or {"id": N, "error": "message"}
    """

    def __init__(self, channel: JsonLineChannel):
        self.channel = channel

    def evaluate(self, config: Configuration) -> AccuracyResult:
        try:
            response = self.channel.request({"cmd": "evaluate", "config": config.to_json_dict()})
        except ChannelTimeout as exc:
            raise EvaluatorError(str(exc)) from exc
        if "error" in response:
            raise EvaluatorError(f"evaluator reported: {response['error']}")
        if "accuracy_pct" not in response:
            raise ProtocolError(f"response missing accuracy_pct: {response!r}")
        return AccuracyResult(number(response["accuracy_pct"], "accuracy_pct"))

    def close(self) -> None:
        self.channel.close()
