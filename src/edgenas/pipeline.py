"""Three-stage hierarchical search.

Stage 1 maximizes accuracy with the sequential optimizer and keeps the
top configurations. Stage 2 measures latency exhaustively (every
candidate on every device) and keeps the per-device accuracy/latency
top set. Stage 3 measures dynamic power for those survivors and picks
the per-device accuracy/PDP winner. Measurements get strictly more
expensive stage by stage, so the cheap metric always prunes first.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable

import json

from .architecture import build_architecture
from .devices import DeviceMeasurer, DeviceProfile, MeasurementError
from .space import Configuration, SearchSpace, index_of
from .tpe import OptimizerSettings, best_accuracy, run_optimization

logger = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    """A stage cannot produce its contracted output."""


class FitnessKind(str, Enum):
    ACCURACY = "accuracy"
    ACCURACY_PER_LATENCY = "accuracy_per_latency"  # percent per ms
    ACCURACY_PER_PDP = "accuracy_per_pdp"  # percent per mJ (W*ms)


def fitness(
    accuracy_pct: float,
    latency_ms: float | None = None,
    power_w: float | None = None,
    kind: FitnessKind = FitnessKind.ACCURACY,
) -> float:
    if kind == FitnessKind.ACCURACY:
        return accuracy_pct
    if kind == FitnessKind.ACCURACY_PER_LATENCY:
        if latency_ms is None or latency_ms <= 0:
            raise ValueError(f"latency must be positive for {kind.value}, got {latency_ms}")
        return accuracy_pct / latency_ms
    if kind == FitnessKind.ACCURACY_PER_PDP:
        if latency_ms is None or latency_ms <= 0:
            raise ValueError(f"latency must be positive for {kind.value}, got {latency_ms}")
        if power_w is None or power_w <= 0:
            raise ValueError(f"power must be positive for {kind.value}, got {power_w}")
        return accuracy_pct / (power_w * latency_ms)
    raise ValueError(f"unknown fitness kind {kind!r}")


def _now_rfc3339() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class TrialRecord:
    config: Configuration
    stage: int
    fitness_kind: FitnessKind
    fitness_value: float
    accuracy_pct: float
    device: str | None = None
    latency_mean_ms: float | None = None
    latency_std_ms: float | None = None
    dynamic_power_w: float | None = None
    seed: int | None = None
    ts: str | None = None

    def recomputed_fitness(self) -> float:
        return fitness(
            self.accuracy_pct, self.latency_mean_ms, self.dynamic_power_w, self.fitness_kind
        )

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "config": self.config.to_json_dict(),
            "device": self.device,
            "accuracy_pct": self.accuracy_pct,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_std_ms": self.latency_std_ms,
            "dynamic_power_w": self.dynamic_power_w,
            "fitness": {"kind": self.fitness_kind.value, "value": self.fitness_value},
            "seed": self.seed,
            "ts": self.ts,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrialRecord":
        return cls(
            config=Configuration.from_json_dict(data["config"]),
            stage=int(data["stage"]),
            fitness_kind=FitnessKind(data["fitness"]["kind"]),
            fitness_value=float(data["fitness"]["value"]),
            accuracy_pct=float(data["accuracy_pct"]),
            device=data.get("device"),
            latency_mean_ms=data.get("latency_mean_ms"),
            latency_std_ms=data.get("latency_std_ms"),
            dynamic_power_w=data.get("dynamic_power_w"),
            seed=data.get("seed"),
            ts=data.get("ts"),
        )


def _record_key(stage: int, device: str | None, config: Configuration) -> tuple:
    return (stage, device, config.canonical_json())


class TrialLog:
    """Append-only JSONL persistence; one record per line, flushed per
    append so concurrent readers see whole records."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: TrialRecord) -> None:
        with self.path.open("a") as handle:
            handle.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")

    def load(self) -> list[TrialRecord]:
        """Every record in the log. A last line with no newline that does
        not parse is an append cut short by a crash: it is dropped with a
        warning and cut from the file, so the next append starts a fresh
        line. Any other bad line raises ValueError naming path:line."""
        if not self.path.exists():
            return []
        lines = self.path.read_text(errors="replace").split("\n")
        records = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                records.append(TrialRecord.from_json_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                if number < len(lines):
                    raise ValueError(f"{self.path}:{number}: bad trial record: {exc}") from None
                logger.warning("%s: dropping torn last line %d", self.path, number)
                with self.path.open("r+b") as handle:
                    handle.truncate(handle.read().rfind(b"\n") + 1)
                return records
        if lines[-1].strip():
            with self.path.open("a") as handle:
                handle.write("\n")
        return records

    def index(self) -> dict[tuple, TrialRecord]:
        # Later lines win, so resuming after a partial stage sees the
        # freshest measurement for each (stage, device, config).
        return {_record_key(r.stage, r.device, r.config): r for r in self.load()}


@dataclass
class RankedSet:
    fitness: FitnessKind
    records: list[TrialRecord]
    k: int

    def to_json_dict(self) -> dict:
        return {
            "fitness": self.fitness.value,
            "k": self.k,
            "records": [r.to_json_dict() for r in self.records],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RankedSet":
        return cls(
            fitness=FitnessKind(data["fitness"]),
            records=[TrialRecord.from_json_dict(r) for r in data["records"]],
            k=int(data["k"]),
        )


def rank_records(
    records: list[TrialRecord], kind: FitnessKind, keep: int, space: SearchSpace
) -> RankedSet:
    """Descending fitness with the deterministic tie-break chain:
    lower latency, then fewer parameters, then lower canonical index."""
    tie_cache: dict[Configuration, tuple[int, int]] = {}

    def tie_info(config: Configuration) -> tuple[int, int]:
        if config not in tie_cache:
            tie_cache[config] = (
                build_architecture(config).total_params,
                index_of(space, config),
            )
        return tie_cache[config]

    def sort_key(record: TrialRecord):
        params, canonical = tie_info(record.config)
        latency = record.latency_mean_ms if record.latency_mean_ms is not None else math.inf
        return (-record.fitness_value, latency, params, canonical)

    ordered = sorted(records, key=sort_key)
    return RankedSet(fitness=kind, records=ordered[:keep], k=keep)


def stage1(
    space: SearchSpace,
    evaluator,
    settings: OptimizerSettings,
    budget: int,
    keep: int = 1000,
    log: TrialLog | None = None,
    timestamps: bool = True,
) -> RankedSet:
    """Accuracy search: optimize, persist every unique successful trial,
    return the top ``keep`` by accuracy."""

    def evaluate(config: Configuration) -> float:
        return evaluator.evaluate(config).accuracy_pct

    history = run_optimization(
        space, evaluate, budget=budget, seed=settings.seed, settings=settings, unique_target=keep
    )
    unique: dict[Configuration, float] = {}
    for entry in history.succeeded():
        unique.setdefault(entry.config, -entry.loss)
    if len(unique) < keep:
        raise PipelineError(
            f"stage 1 needs {keep} unique successful trials, got {len(unique)} "
            f"after extending to {len(history.entries)} evaluations"
        )
    records = [
        TrialRecord(
            config=config,
            stage=1,
            fitness_kind=FitnessKind.ACCURACY,
            fitness_value=accuracy,
            accuracy_pct=accuracy,
            seed=settings.seed,
            ts=_now_rfc3339() if timestamps else None,
        )
        for config, accuracy in unique.items()
    ]
    if log is not None:
        for record in records:
            log.append(record)
    logger.info(
        "stage 1: %d evaluations, %d unique, best %.4f",
        len(history.entries),
        len(unique),
        best_accuracy(history),
    )
    return rank_records(records, FitnessKind.ACCURACY, keep, space)


def _measure_and_rank(
    stage: int,
    kind: FitnessKind,
    keep: int,
    space: SearchSpace,
    candidates: dict[str, list[TrialRecord]],
    profiles: dict[str, DeviceProfile],
    measurer_factory: Callable[[DeviceProfile], DeviceMeasurer],
    measure: Callable[..., tuple],
    log: TrialLog | None,
    timestamps: bool,
) -> dict[str, RankedSet]:
    """The stage-2/3 loop: per device, reuse logged records, measure the
    other candidates, exclude pairs that raise MeasurementError, rank.

    ``measure(measurer, profile, candidate, arch)`` returns the record's
    (accuracy, latency mean, latency std, dynamic power)."""
    cached = log.index() if log is not None else {}
    result: dict[str, RankedSet] = {}
    for device_name, device_candidates in candidates.items():
        if not device_candidates:
            raise PipelineError(f"stage {stage}: empty candidate set for {device_name}")
        profile = profiles[device_name]
        measurer = measurer_factory(profile)
        records: list[TrialRecord] = []
        for candidate in device_candidates:
            key = _record_key(stage, device_name, candidate.config)
            if key in cached:
                records.append(cached[key])
                continue
            arch = build_architecture(candidate.config)
            try:
                accuracy, mean, std, power = measure(measurer, profile, candidate, arch)
            except MeasurementError as exc:
                logger.warning(
                    "stage %d: excluding %s on %s: %s",
                    stage,
                    candidate.config.canonical_json(),
                    device_name,
                    exc,
                )
                continue
            record = TrialRecord(
                config=candidate.config,
                stage=stage,
                fitness_kind=kind,
                fitness_value=fitness(accuracy, mean, power, kind),
                accuracy_pct=accuracy,
                device=device_name,
                latency_mean_ms=mean,
                latency_std_ms=std,
                dynamic_power_w=power,
                seed=candidate.seed,
                ts=_now_rfc3339() if timestamps else None,
            )
            records.append(record)
            if log is not None:
                log.append(record)
        if not records:
            raise PipelineError(f"stage {stage}: no successful measurements on {device_name}")
        result[device_name] = rank_records(records, kind, keep, space)
    return result


def _measure_latency(measurer, profile, candidate, arch) -> tuple:
    mean, std = measurer.latency(candidate.config, arch)
    return candidate.accuracy_pct - profile.accuracy_delta_pct, mean, std, None


def _measure_power(measurer, profile, candidate, arch) -> tuple:
    power = measurer.power(candidate.config, arch)
    return candidate.accuracy_pct, candidate.latency_mean_ms, candidate.latency_std_ms, power


def stage2(
    space: SearchSpace,
    candidates: RankedSet,
    profiles: dict[str, DeviceProfile],
    measurer_factory: Callable[[DeviceProfile], DeviceMeasurer],
    keep_per_device: int = 10,
    log: TrialLog | None = None,
    timestamps: bool = True,
) -> dict[str, RankedSet]:
    """Exhaustive latency measurement: every candidate on every device,
    ranked per device by accuracy/latency."""
    if not candidates.records:
        raise PipelineError("stage 2 requires a non-empty candidate set")
    return _measure_and_rank(
        2,
        FitnessKind.ACCURACY_PER_LATENCY,
        keep_per_device,
        space,
        dict.fromkeys(profiles, candidates.records),
        profiles,
        measurer_factory,
        _measure_latency,
        log,
        timestamps,
    )


def stage3(
    space: SearchSpace,
    per_device: dict[str, RankedSet],
    profiles: dict[str, DeviceProfile],
    measurer_factory: Callable[[DeviceProfile], DeviceMeasurer],
    log: TrialLog | None = None,
    timestamps: bool = True,
) -> dict[str, TrialRecord]:
    """Dynamic-power measurement for the stage-2 survivors; the single
    accuracy/PDP winner per device. PDP reuses the stage-2 latency mean
    (power is the only new measurement here)."""
    ranked = _measure_and_rank(
        3,
        FitnessKind.ACCURACY_PER_PDP,
        1,
        space,
        {device_name: r.records for device_name, r in per_device.items()},
        profiles,
        measurer_factory,
        _measure_power,
        log,
        timestamps,
    )
    return {device_name: r.records[0] for device_name, r in ranked.items()}


@dataclass
class PipelineResult:
    stage1: RankedSet
    stage2: dict[str, RankedSet]
    winners: dict[str, TrialRecord]


def run_pipeline(
    space: SearchSpace,
    evaluator,
    profiles: dict[str, DeviceProfile],
    measurer_factory: Callable[[DeviceProfile], DeviceMeasurer],
    settings: OptimizerSettings,
    budget: int,
    keep1: int = 1000,
    keep2: int = 10,
    log: TrialLog | None = None,
    timestamps: bool = True,
) -> PipelineResult:
    ranked1 = stage1(space, evaluator, settings, budget, keep1, log=log, timestamps=timestamps)
    ranked2 = stage2(
        space, ranked1, profiles, measurer_factory, keep2, log=log, timestamps=timestamps
    )
    winners = stage3(space, ranked2, profiles, measurer_factory, log=log, timestamps=timestamps)
    return PipelineResult(stage1=ranked1, stage2=ranked2, winners=winners)
