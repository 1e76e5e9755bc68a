"""Tree-structured Parzen Estimator over the finite configuration grid.

Losses are negated accuracies. The history is split into a good fraction
(lowest loss) and the rest; per-parameter categorical densities with
Laplace smoothing are built from each side, candidates are drawn from the
good densities (block first, then only the active parameters), and the
candidate maximizing the good/bad likelihood ratio is suggested.

Every suggestion derives its RNG from (seed, len(history)), so the
suggest step is a pure function of the seed and the observations: the
first n_startup suggestions are exactly the seeded uniform sequence, and
re-asking with the same history returns the same configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .evaluators import EvaluatorError
from .space import Configuration, SearchSpace, sample_uniform

SMOOTHING_ALPHA = 1.0
DEDUP_BUDGET_FACTOR = 3


@dataclass(frozen=True)
class OptimizerSettings:
    gamma: float = 0.25
    n_startup: int = 20
    n_candidates: int = 24
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma {self.gamma} outside (0, 1)")
        if self.n_startup < 1 or self.n_candidates < 1:
            raise ValueError("n_startup and n_candidates must be >= 1")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerSettings":
        known = {k: data[k] for k in ("gamma", "n_startup", "n_candidates", "seed") if k in data}
        return cls(**known)


@dataclass(frozen=True)
class Observation:
    config: Configuration
    loss: float | None  # -accuracy_pct; None when the evaluation failed
    failed: bool = False


@dataclass
class ObservationHistory:
    seed: int = 42
    n_startup: int = 20
    gamma: float = 0.25
    n_candidates: int = 24
    entries: list[Observation] = field(default_factory=list)

    @classmethod
    def from_settings(cls, settings: OptimizerSettings) -> "ObservationHistory":
        return cls(
            seed=settings.seed,
            n_startup=settings.n_startup,
            gamma=settings.gamma,
            n_candidates=settings.n_candidates,
        )

    def record(self, config: Configuration, loss: float | None, failed: bool = False) -> None:
        if not failed and (loss is None or not math.isfinite(loss)):
            raise ValueError(f"non-finite loss {loss!r} for a successful trial")
        self.entries.append(Observation(config, loss, failed))

    def succeeded(self) -> list[Observation]:
        return [e for e in self.entries if not e.failed]

    def unique_success_count(self) -> int:
        return len({e.config for e in self.succeeded()})


@dataclass(frozen=True)
class ParamDensity:
    grid: tuple[int, ...]
    good_weights: tuple[float, ...]
    bad_weights: tuple[float, ...]


def split_history(history: ObservationHistory) -> tuple[list[Observation], list[Observation]]:
    """Lowest-loss ceil(gamma*n) successful entries vs the rest.

    Ties keep the earlier entry in the good side (stable sort on loss).
    """
    entries = history.succeeded()
    if not entries:
        raise ValueError("empty history")
    n_good = math.ceil(history.gamma * len(entries))
    order = sorted(range(len(entries)), key=lambda i: (entries[i].loss, i))
    good_idx = set(order[:n_good])
    good = [entries[i] for i in range(len(entries)) if i in good_idx]
    bad = [entries[i] for i in range(len(entries)) if i not in good_idx]
    return good, bad


def density_weights(grid: tuple[int, ...], observations: list[int]) -> tuple[float, ...]:
    """Count-based categorical weights with Laplace smoothing alpha=1.

    Zero observations give the uniform prior; weights are strictly
    positive and sum to 1.
    """
    if not grid:
        raise ValueError("empty grid")
    counts = {v: 0 for v in grid}
    for value in observations:
        counts[value] += 1
    denom = len(observations) + SMOOTHING_ALPHA * len(grid)
    return tuple((counts[v] + SMOOTHING_ALPHA) / denom for v in grid)


def build_density(
    grid: tuple[int, ...], good_values: list[int], bad_values: list[int]
) -> ParamDensity:
    return ParamDensity(
        grid=grid,
        good_weights=density_weights(grid, good_values),
        bad_weights=density_weights(grid, bad_values),
    )


def _param_values(entries: list[Observation], name: str) -> list[int]:
    # Conditional soundness: k3/k4 densities see only entries deep enough
    # to carry them.
    values = []
    for entry in entries:
        value = getattr(entry.config, name)
        if value is not None:
            values.append(value)
    return values


def _densities(
    space: SearchSpace, good: list[Observation], bad: list[Observation]
) -> dict[str, ParamDensity]:
    out = {}
    for name in space.params:
        grid = space.spec_for(name).grid
        out[name] = build_density(grid, _param_values(good, name), _param_values(bad, name))
    return out


def suggest(space: SearchSpace, history: ObservationHistory) -> Configuration:
    """Next configuration to try; pure in (history.seed, history.entries).

    Among the drawn candidates, a not-yet-evaluated one with the best
    ratio wins; the overall argmax is only returned when every candidate
    was already tried (the finite grid makes plain argmax resuggest its
    peak forever, which would starve the unique-count targets).
    """
    rng = np.random.default_rng([history.seed, len(history.entries)])
    if len(history.entries) < history.n_startup or not history.succeeded():
        return sample_uniform(space, rng)

    good, bad = split_history(history)
    densities = _densities(space, good, bad)
    seen = {entry.config for entry in history.entries}

    best_score = -math.inf
    best_config: Configuration | None = None
    best_unseen_score = -math.inf
    best_unseen: Configuration | None = None
    block_grid = space.spec_for("block").grid
    for _ in range(history.n_candidates):
        density = densities["block"]
        pos = int(rng.choice(len(block_grid), p=density.good_weights))
        values = {"block": block_grid[pos]}
        score = density.good_weights[pos] / density.bad_weights[pos]
        for name in space.active_params(values["block"]):
            if name == "block":
                continue
            density = densities[name]
            pos = int(rng.choice(len(density.grid), p=density.good_weights))
            values[name] = density.grid[pos]
            score *= density.good_weights[pos] / density.bad_weights[pos]
        candidate = Configuration(output_classes=space.output_classes, **values)
        if score > best_score:
            best_score = score
            best_config = candidate
        if candidate not in seen and score > best_unseen_score:
            best_unseen_score = score
            best_unseen = candidate
    if best_unseen is not None:
        return best_unseen
    assert best_config is not None
    return best_config


def run_optimization(
    space: SearchSpace,
    evaluate: Callable[[Configuration], float],
    budget: int,
    seed: int,
    settings: OptimizerSettings | None = None,
    unique_target: int | None = None,
) -> ObservationHistory:
    """Suggest/evaluate/record loop returning the full history.

    ``evaluate`` returns an accuracy percentage; EvaluatorError marks the
    trial failed (kept in the history, excluded from densities). A
    duplicate suggestion reuses the cached loss and still consumes
    budget. When ``unique_target`` unique successes are not reached
    within ``budget``, the loop extends up to 3x the nominal budget.
    """
    if budget < 1:
        raise ValueError(f"budget {budget} must be >= 1")
    base = replace(settings or OptimizerSettings(), seed=seed)
    history = ObservationHistory.from_settings(base)
    cache: dict[Configuration, tuple[float | None, bool]] = {}
    limit = budget
    max_limit = budget * DEDUP_BUDGET_FACTOR if unique_target is not None else budget
    while len(history.entries) < limit:
        config = suggest(space, history)
        if config in cache:
            loss, failed = cache[config]
        else:
            try:
                loss, failed = -float(evaluate(config)), False
            except EvaluatorError:
                loss, failed = None, True
            cache[config] = (loss, failed)
        history.record(config, loss, failed=failed)
        if (
            len(history.entries) == limit
            and unique_target is not None
            and history.unique_success_count() < unique_target
            and limit < max_limit
        ):
            limit = min(limit + budget, max_limit)
    return history


def random_search(
    space: SearchSpace, evaluate: Callable[[Configuration], float], budget: int, seed: int
) -> ObservationHistory:
    """Uniform-sampling baseline: the optimizer with its startup phase
    covering the whole budget."""
    return run_optimization(space, evaluate, budget, seed, OptimizerSettings(n_startup=budget + 1))


def best_accuracy(history: ObservationHistory) -> float:
    """Highest successful accuracy seen so far."""
    losses = [e.loss for e in history.succeeded()]
    if not losses:
        raise ValueError("no successful trials")
    return -min(losses)
