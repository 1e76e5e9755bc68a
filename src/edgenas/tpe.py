"""Tree-structured Parzen Estimator over the finite configuration grid.

Losses are negated accuracies. The successful entries are split into a
good fraction (lowest loss) and the rest; per-parameter categorical
densities with Laplace smoothing are built from each side, candidates are
drawn from the good densities (block first, then only the active
parameters), and the candidate maximizing the good/bad likelihood ratio
is suggested.

Every suggestion derives its RNG from (seed, len(history)), so the
suggest step is a pure function of the seed and the observations: the
first n_startup suggestions are exactly the seeded uniform sequence, and
re-asking with the same history returns the same configuration.

The history keeps its entries mirrored as arrays (GridMirror): a
preallocated (n x 9) int array of grid positions, -1 where a parameter is
inactive, a loss vector, a success mask and the set of rows tried. Each
suggestion extends the mirror by the entries added since the last one, so
it costs a sort and a bincount per parameter instead of a pass of Python
code over every entry; the mirror is rebuilt when the entry list is
replaced or rewritten.

Each categorical draw is the first index of ``cdf`` above ``u``, with
``cdf = w.cumsum(); cdf /= cdf[-1]`` and ``u`` one double of
``rng.random`` (``bisect_right``, which is ``cdf.searchsorted(u,
side="right")``). That is the arithmetic ``Generator.choice(k, p=w)``
does for one draw, so the seeded histories are those of ``choice``. The
doubles of a suggestion come from one ``rng.random`` call, consumed in
order: the stream is the same, since nothing else draws from that
suggestion's generator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .evaluators import EvaluatorError
from .space import PARAM_ORDER, Configuration, SearchSpace, sample_uniform

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
    _mirror: "GridMirror | None" = field(default=None, init=False, repr=False, compare=False)

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

    def mirror(self, space: SearchSpace) -> "GridMirror":
        """The array mirror of the entries on ``space``, brought up to date."""
        if self._mirror is None or self._mirror.space != space:
            self._mirror = GridMirror(space)
        self._mirror.sync(self.entries)
        return self._mirror


class GridMirror:
    """The entries of a history as arrays over one space: a row of grid
    positions per entry (-1 where the parameter is inactive), its loss
    (NaN when failed), its success flag, and the set of rows tried."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.specs = [space.spec_for(name) for name in PARAM_ORDER]
        self.sizes = np.array([spec.size for spec in self.specs])
        self.width = int(self.sizes.max())
        # Per block position, the columns of the other active parameters.
        self.active = [
            [PARAM_ORDER.index(name) for name in space.active_params(block) if name != "block"]
            for block in self.specs[0].grid
        ]
        self.reset(None)

    def reset(self, entries: list[Observation] | None) -> None:
        self._entries = entries
        self.n = 0
        self._last: Observation | None = None
        self._positions = np.empty((64, len(PARAM_ORDER)), dtype=np.int64)
        self._losses = np.empty(64)
        self._ok = np.empty(64, dtype=bool)
        self.seen: set[tuple[int, ...]] = set()

    def sync(self, entries: list[Observation]) -> None:
        """Add the entries appended since the last sync; start over when
        the list was replaced, got shorter, or its last mirrored entry
        changed."""
        if (
            entries is not self._entries
            or len(entries) < self.n
            or (self.n and entries[self.n - 1] is not self._last)
        ):
            self.reset(entries)
        if len(entries) > len(self._ok):
            capacity = max(2 * len(self._ok), len(entries))
            self._positions = np.resize(self._positions, (capacity, len(PARAM_ORDER)))
            self._losses = np.resize(self._losses, capacity)
            self._ok = np.resize(self._ok, capacity)
        for i in range(self.n, len(entries)):
            entry = entries[i]
            row = tuple(
                -1 if (value := getattr(entry.config, spec.name)) is None else spec.position(value)
                for spec in self.specs
            )
            self._positions[i] = row
            self._losses[i] = math.nan if entry.failed else entry.loss
            self._ok[i] = not entry.failed
            # A candidate carries the space's output_classes, so it never
            # equals an entry with other ones.
            if entry.config.output_classes == self.space.output_classes:
                self.seen.add(row)
        self.n = len(entries)
        self._last = entries[-1] if entries else None

    @property
    def positions(self) -> np.ndarray:
        return self._positions[: self.n]

    @property
    def losses(self) -> np.ndarray:
        return self._losses[: self.n]

    @property
    def ok(self) -> np.ndarray:
        return self._ok[: self.n]


def split_losses(losses: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the lowest-loss ceil(gamma*n) entries, and of the rest.

    Ties keep the earlier entry in the good side: a stable sort is the
    (loss, index) order.
    """
    if not len(losses):
        raise ValueError("empty history")
    order = np.argsort(losses, kind="stable")
    n_good = math.ceil(gamma * len(losses))
    return order[:n_good], order[n_good:]


def position_counts(positions: np.ndarray, width: int) -> np.ndarray:
    """Per parameter, the observations of each grid position: row j counts
    column j of ``positions`` over ``width`` positions. -1 (an inactive
    parameter) is not an observation, so k3/k4 densities see only the
    entries deep enough to carry them."""
    n_params = positions.shape[1]
    bins = positions + 1 + (width + 1) * np.arange(n_params)
    counts = np.bincount(bins.ravel(), minlength=n_params * (width + 1))
    return counts.reshape(n_params, width + 1)[:, 1:]


def density_weights(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Count-based categorical weights with Laplace smoothing alpha=1, per
    row of ``counts``; row j's first sizes[j] weights are parameter j's.

    Zero observations give the uniform prior; weights are strictly
    positive and sum to 1.
    """
    denominators = counts.sum(axis=1) + SMOOTHING_ALPHA * sizes
    return (counts + SMOOTHING_ALPHA) / denominators[:, None]


def suggest(space: SearchSpace, history: ObservationHistory) -> Configuration:
    """Next configuration to try; pure in (history.seed, history.entries).

    Among the drawn candidates, a not-yet-evaluated one with the best
    ratio wins; the overall argmax is only returned when every candidate
    was already tried (the finite grid makes plain argmax resuggest its
    peak forever, which would starve the unique-count targets).
    """
    rng = np.random.default_rng([history.seed, len(history.entries)])
    if len(history.entries) < history.n_startup:
        return sample_uniform(space, rng)
    mirror = history.mirror(space)
    if not mirror.ok.any():
        return sample_uniform(space, rng)

    succeeded = np.flatnonzero(mirror.ok)
    good_rows, bad_rows = (
        mirror.positions[succeeded[side]]
        for side in split_losses(mirror.losses[succeeded], history.gamma)
    )
    good_weights = density_weights(position_counts(good_rows, mirror.width), mirror.sizes)
    bad_weights = density_weights(position_counts(bad_rows, mirror.width), mirror.sizes)
    ratios = (good_weights / bad_weights).tolist()
    cdfs = []
    for weights, size in zip(good_weights, mirror.sizes):
        cdf = weights[:size].cumsum()
        cdf /= cdf[-1]
        cdfs.append(cdf.tolist())

    # Each candidate draws its block, then one value per active parameter,
    # taking the doubles of one rng.random call in order.
    draws = iter(rng.random(history.n_candidates * len(PARAM_ORDER)).tolist())
    best_score = best_unseen_score = -math.inf
    best = best_unseen = None
    for _ in range(history.n_candidates):
        block = bisect.bisect_right(cdfs[0], next(draws))
        row = [-1] * len(PARAM_ORDER)
        row[0] = block
        score = ratios[0][block]
        for j in mirror.active[block]:
            row[j] = pos = bisect.bisect_right(cdfs[j], next(draws))
            score *= ratios[j][pos]
        row = tuple(row)
        if score > best_score:
            best_score, best = score, row
        if score > best_unseen_score and row not in mirror.seen:
            best_unseen_score, best_unseen = score, row
    values = {
        name: spec.lo + pos * spec.step
        for name, spec, pos in zip(PARAM_ORDER, mirror.specs, best_unseen or best)
        if pos >= 0
    }
    return Configuration(output_classes=space.output_classes, **values)


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
