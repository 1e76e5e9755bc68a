"""Tree-structured Parzen Estimator over the finite configuration grid.

Losses are negated accuracies. The successful entries are split into a
good fraction (lowest loss) and the rest; per-parameter categorical
densities with Laplace smoothing are built from each side, candidates are
drawn from the good densities (block first, then only the active
parameters), and the candidate maximizing the good/bad likelihood ratio
is suggested.

Every suggestion derives its RNG from (seed, len(history)), so the
suggest step is a pure function of the settings and the observations:
the first n_startup suggestions are exactly the seeded uniform sequence,
and re-asking with the same history returns the same configuration.

A history is fed only through ``record``, which adds each entry to the
history's GridMirror as it is appended: a preallocated (n x 9) int array
of grid positions, -1 where a parameter is inactive, the set of rows
tried, the successes sorted by (loss, index), and the per-parameter
position counts of all successes and of the good side. Each entry costs
a bisect insertion and a count update, and each suggestion moves the
good/bad boundary to ceil(gamma*n) one entry at a time, so its cost does
not grow with the history.

Each categorical draw is the first index of ``cdf`` above ``u``, with
``cdf = w.cumsum(); cdf /= cdf[-1]`` and ``u`` one double of
``rng.random`` (``bisect_right``, which is ``cdf.searchsorted(u,
side="right")``). That is the arithmetic ``Generator.choice(k, p=w)``
does for one draw, so the seeded histories are those of ``choice``. All
nine CDFs come from one pass over the padded weight rows: each row's
running sum divided by its sum over the parameter's own values. The
padding's weights are positive, so its entries are >= 1.0 and no draw
``u < 1`` lands past a parameter's last value. The
doubles of a suggestion come from one ``rng.random`` call, consumed in
order: the stream is the same, since nothing else draws from that
suggestion's generator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .evaluators import EvaluatorError
from .space import PARAM_ORDER, Configuration, SearchSpace, sample_uniform, seeded_rng

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
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerSettings":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown optimizer settings: {', '.join(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class Observation:
    config: Configuration
    loss: float | None  # -accuracy_pct; None when the evaluation failed

    @property
    def failed(self) -> bool:
        return self.loss is None


class ObservationHistory:
    """The trials so far on ``space``, in evaluation order, and the
    settings that suggestions for it are drawn under.

    ``record`` is the only way to add a trial: it appends the entry and
    adds it to ``mirror``, the history's ``GridMirror``, so the mirror
    always holds every entry. ``entries`` is a read-only copy.
    ``settings`` may be replaced between suggestions.
    """

    def __init__(self, space: SearchSpace, settings: OptimizerSettings = OptimizerSettings()):
        self.space = space
        self.settings = settings
        self.mirror = GridMirror(space)
        self._entries: list[Observation] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[Observation, ...]:
        return tuple(self._entries)

    def record(self, config: Configuration, loss: float | None) -> None:
        if loss is not None and not math.isfinite(loss):
            raise ValueError(f"non-finite loss {loss!r} for a successful trial")
        entry = Observation(config, loss)
        self.mirror.add(entry)
        self._entries.append(entry)

    def succeeded(self) -> list[Observation]:
        return [e for e in self._entries if not e.failed]

    def unique_success_count(self) -> int:
        return len({e.config for e in self.succeeded()})


class GridMirror:
    """The entries of a history over one space: a row of grid positions
    per entry (-1 where the parameter is inactive), the set of rows tried,
    and the TPE split of the successes. The history's ``record`` passes
    each entry to ``add`` as it is appended; nothing else changes it.

    ``order`` holds the successes as (loss, entry index), sorted: the
    stable-argsort order of their losses. Its first ``n_good`` entries are
    the good side. ``all_counts`` and ``good_counts`` count, per parameter
    (row), the grid positions of all successes and of the good side;
    column 0 takes the inactive -1 positions.
    """

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
        # Per parameter, each grid value's position; None (inactive) is -1.
        self._lookup = [{None: -1, **{v: i for i, v in enumerate(spec.grid)}} for spec in self.specs]
        self._columns = np.arange(len(PARAM_ORDER))
        self.last = (self._columns, self.sizes - 1)  # each row's last grid position
        self.n = 0
        self._positions = np.empty((64, len(PARAM_ORDER)), dtype=np.int64)
        self.seen: set[tuple[int, ...]] = set()
        self.order: list[tuple[float, int]] = []
        self.all_counts = np.zeros((len(PARAM_ORDER), self.width + 1), dtype=np.int64)
        self.good_counts = np.zeros_like(self.all_counts)
        self.n_good = 0

    def _count(self, counts: np.ndarray, index: int, step: int) -> None:
        """Add entry ``index``'s grid positions to ``counts``, ``step`` times."""
        counts[self._columns, self._positions[index] + 1] += step

    def add(self, entry: Observation) -> None:
        """Mirror the history's next entry. An off-grid value raises
        before anything is changed."""
        row = tuple(
            lookup[value] if (value := getattr(entry.config, spec.name)) in lookup
            else spec.position(value)  # raises: the value is off the grid
            for spec, lookup in zip(self.specs, self._lookup)
        )
        i = self.n
        if i == len(self._positions):
            self._positions = np.resize(self._positions, (2 * i, len(PARAM_ORDER)))
        self._positions[i] = row
        self.n = i + 1
        if not entry.failed:
            # Ties rank the earlier entry first, as a stable sort does.
            rank = bisect.bisect(self.order, (entry.loss, i))
            self.order.insert(rank, (entry.loss, i))
            self._count(self.all_counts, i, 1)
            if rank < self.n_good:
                self._count(self.good_counts, i, 1)
                self._count(self.good_counts, self.order[self.n_good][1], -1)
        # A candidate carries the space's output_classes, so it never
        # equals an entry with other ones.
        if entry.config.output_classes == self.space.output_classes:
            self.seen.add(row)

    @property
    def positions(self) -> np.ndarray:
        return self._positions[: self.n]

    def split(self, gamma: float) -> np.ndarray:
        """The good and bad position counts stacked in a (2, 9, ``width``)
        array, per parameter over ``width`` positions, with the lowest-loss
        ceil(gamma*n) successes good.

        -1 (an inactive parameter) is not an observation, so k3/k4
        densities see only the entries deep enough to carry them.
        """
        if not self.order:
            raise ValueError("empty history")
        n_good = math.ceil(gamma * len(self.order))
        while self.n_good < n_good:
            self._count(self.good_counts, self.order[self.n_good][1], 1)
            self.n_good += 1
        while self.n_good > n_good:
            self.n_good -= 1
            self._count(self.good_counts, self.order[self.n_good][1], -1)
        return np.array((self.good_counts, self.all_counts - self.good_counts))[:, :, 1:]


def density_weights(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Count-based categorical weights with Laplace smoothing alpha=1, per
    row of ``counts`` (its last axis); row j's first sizes[j] weights are
    parameter j's. A stack of count tables is weighted in one pass, each
    table as on its own.

    Zero observations give the uniform prior; weights are strictly
    positive and sum to 1.
    """
    denominators = counts.sum(axis=-1) + SMOOTHING_ALPHA * sizes
    return (counts + SMOOTHING_ALPHA) / denominators[..., None]


def suggest(history: ObservationHistory) -> Configuration:
    """Next configuration to try; pure in the history's settings and entries.

    Among the drawn candidates, a not-yet-evaluated one with the best
    ratio wins; the overall argmax is only returned when every candidate
    was already tried (the finite grid makes plain argmax resuggest its
    peak forever, which would starve the unique-count targets).
    """
    space, settings, mirror = history.space, history.settings, history.mirror
    rng = seeded_rng(settings.seed, len(history))
    if len(history) < settings.n_startup or not mirror.order:
        return sample_uniform(space, rng)

    good_weights, bad_weights = density_weights(mirror.split(settings.gamma), mirror.sizes)
    ratios = (good_weights / bad_weights).tolist()
    cdfs = good_weights.cumsum(axis=1)
    cdfs /= cdfs[mirror.last][:, None]
    cdfs = cdfs.tolist()

    # Each candidate draws its block, then one value per active parameter,
    # taking the doubles of one rng.random call in order.
    draws = iter(rng.random(settings.n_candidates * len(PARAM_ORDER)).tolist())
    best_score = best_unseen_score = -math.inf
    best = best_unseen = None
    for _ in range(settings.n_candidates):
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
    settings: OptimizerSettings = OptimizerSettings(),
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
    history = ObservationHistory(space, settings)
    cache: dict[Configuration, float | None] = {}
    limit = budget
    max_limit = budget * DEDUP_BUDGET_FACTOR if unique_target is not None else budget
    while len(history) < limit:
        config = suggest(history)
        if config in cache:
            loss = cache[config]
        else:
            try:
                loss = -float(evaluate(config))
            except EvaluatorError:
                loss = None
            cache[config] = loss
        history.record(config, loss)
        if (
            len(history) == limit
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
    settings = OptimizerSettings(n_startup=budget + 1, seed=seed)
    return run_optimization(space, evaluate, budget, settings)


def best_accuracy(history: ObservationHistory) -> float:
    """Highest successful accuracy seen so far."""
    losses = [e.loss for e in history.succeeded()]
    if not losses:
        raise ValueError("no successful trials")
    return -min(losses)
