"""Three-stage hierarchical search.

Stage 1 maximizes accuracy with the sequential optimizer and keeps the
top configurations. Stage 2 measures latency exhaustively (every
candidate on every device) and keeps the per-device accuracy/latency
top set. Stage 3 measures dynamic power for those survivors and picks
the per-device accuracy/PDP winner. Measurements get strictly more
expensive stage by stage, so the cheap metric always prunes first.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator

from ._data import typed
from .architecture import ArchitectureDescriptor, build_architecture
from .devices import DeviceMeasurer, DeviceProfile, MeasurementError
from .space import Configuration, SearchSpace, SpaceValidationError, index_of
from .tpe import OptimizerSettings, best_accuracy, run_optimization, startup_draw

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


def _json_scalar(value) -> str:
    """``json.dumps(value)`` for a string, a number or None: the encoder
    writes a finite float (numpy's float64 too) with ``float.__repr__``
    and an int with ``int.__repr__``; a bool or a non-finite float is
    left to ``json.dumps``."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


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

    def log_line(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True)``, built from
        a key-sorted template. The config's cached canonical JSON holds
        only identifier keys and integers, so widening its separators
        gives the bytes ``json.dumps`` would write for it."""
        config = self.config.canonical_json().replace(",", ", ").replace(":", ": ")
        return (
            f'{{"accuracy_pct": {_json_scalar(self.accuracy_pct)}, "config": {config}, '
            f'"device": {_json_scalar(self.device)}, '
            f'"dynamic_power_w": {_json_scalar(self.dynamic_power_w)}, '
            f'"fitness": {{"kind": {_json_scalar(self.fitness_kind.value)}, '
            f'"value": {_json_scalar(self.fitness_value)}}}, '
            f'"latency_mean_ms": {_json_scalar(self.latency_mean_ms)}, '
            f'"latency_std_ms": {_json_scalar(self.latency_std_ms)}, '
            f'"seed": {_json_scalar(self.seed)}, "stage": {_json_scalar(self.stage)}, '
            f'"ts": {_json_scalar(self.ts)}}}'
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrialRecord":
        """Each field checked by ``typed``. ``device`` and ``latency_mean_ms``
        may be null only in stage 1, ``dynamic_power_w`` only before stage
        3, and the other optional fields always."""
        stage = typed(data["stage"], int, "stage")
        return cls(
            config=Configuration.from_json_dict(typed(data["config"], dict, "config")),
            stage=stage,
            fitness_kind=FitnessKind(typed(data["fitness"], dict, "fitness")["kind"]),
            fitness_value=typed(data["fitness"]["value"], float, "fitness.value"),
            accuracy_pct=typed(data["accuracy_pct"], float, "accuracy_pct"),
            device=_field(data, "device", str, stage >= 2),
            latency_mean_ms=_field(data, "latency_mean_ms", float, stage >= 2),
            latency_std_ms=_field(data, "latency_std_ms", float),
            dynamic_power_w=_field(data, "dynamic_power_w", float, stage >= 3),
            seed=_field(data, "seed", int),
            ts=_field(data, "ts", str),
        )


def _field(data: dict, key: str, kind: type, required: bool = False):
    """``data[key]`` checked by ``typed``, or None if null and not ``required``."""
    value = data.get(key)
    return None if value is None and not required else typed(value, kind, key)


class TrialLog:
    """Append-only JSONL persistence, one record per line.

    The first ``append`` creates the file's directory, opens the file in
    unbuffered binary append mode and keeps the handle for the ones after
    it; making a log writes nothing. Each line is
    ``TrialRecord.log_line()``, handed to the OS whole in one unbuffered
    write (a short write is continued until the line is whole), so any
    other reader of the file (``load``, another process, a resumed run)
    sees whole records.
    ``close`` releases the handle and may be called again; an ``append``
    after it opens the file anew. Leaving a ``with`` block closes the
    log, and ``__del__`` closes a handle still open when the log is
    collected, for callers that never close it.

    The readers stream the file one line at a time, so a read holds one
    line, never the whole file. They decode every line with
    ``json.loads`` and require a JSON object with an integer ``stage``.
    ``records()`` then builds and checks a ``TrialRecord`` for every line
    and yields each as it is read; the report consumes it and keeps none,
    and ``load`` is its list. ``index(stage)`` builds records only for the
    lines of that stage and of later ones, so a line of an earlier stage
    whose record fields are broken is caught by ``records()`` (the
    report), not here.

    While a log is open it is the only writer of its file: one command at
    a time writes a run directory, and a change another writer makes
    meanwhile is not noticed. The log keeps a map of the stages the file
    holds, set by a full read and by each ``append``; an absent file, or
    an empty one when the append handle opens, holds none. ``index`` of a
    stage the map lacks returns ``{}`` without reading, so on a fresh
    ``edgenas pipeline`` run, which shares one log across its stages,
    stages 2 and 3 do not read back the file stage 1 wrote. A read also
    keeps each later stage's index in the map and serves it once, unless
    an ``append`` of that stage comes first: a ``pipeline`` rerun into a
    finished run reads the file once, in stage 2."""

    def __init__(self, path: str | Path):
        self._handle = None
        self.path = Path(path)
        # stage -> the index a read kept for it, or None; None: nothing known
        self._stages: dict[int, dict[tuple, TrialRecord] | None] | None = None

    def append(self, record: TrialRecord) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("ab", buffering=0)
            if os.fstat(self._handle.fileno()).st_size == 0:
                self._stages = {}
        if self._stages is not None:
            self._stages[record.stage] = None
        line = (record.log_line() + "\n").encode()
        written = self._handle.write(line)
        while written < len(line):
            written += self._handle.write(line[written:])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TrialLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()

    def _records(self, stage: int | None) -> Iterator[TrialRecord]:
        """The records of stage ``stage`` and later stages, or of every
        stage when ``stage`` is None, read one line at a time; a pass to
        the end records the stages read. A last line with no newline that
        fails is an append cut short by a crash: it is dropped with a
        warning and cut from the file, so the next append starts a fresh
        line. Any other bad line raises ValueError naming path:line."""
        self._stages = None
        if not self.path.exists():
            self._stages = {}
            return
        stages: set[int] = set()
        end, line, torn = 0, "", False
        with self.path.open("rb") as handle:
            for number, raw in enumerate(handle, 1):
                # A newline byte never falls inside a UTF-8 sequence, so
                # each line decodes as it would within the whole file.
                start, end, line = end, end + len(raw), raw.decode(errors="replace")
                if not line.strip():
                    continue
                try:
                    fields = json.loads(line)
                    if not isinstance(fields, dict):
                        raise ValueError("not a JSON object")
                    line_stage = typed(fields.get("stage"), int, "stage")
                    built = stage is None or line_stage >= stage
                    record = TrialRecord.from_json_dict(fields) if built else None
                except (ValueError, KeyError, TypeError) as exc:
                    if line.endswith("\n"):
                        raise ValueError(f"{self.path}:{number}: bad trial record: {exc}") from None
                    logger.warning("%s: dropping torn last line %d", self.path, number)
                    end, torn = start, True
                    break
                stages.add(line_stage)
                if record is not None:
                    yield record
        if torn:
            os.truncate(self.path, end)
        elif line.strip() and not line.endswith("\n"):
            with self.path.open("ab") as handle:
                handle.write(b"\n")
        self._stages = dict.fromkeys(stages)

    def records(self) -> Iterator[TrialRecord]:
        """Every record in the log, each one checked, one line at a time."""
        return self._records(None)

    def load(self) -> list[TrialRecord]:
        """Every record in the log, each one checked."""
        return list(self.records())

    def index(self, stage: int) -> dict[tuple, TrialRecord]:
        """One stage's records by (device, config); later lines win, so a
        resumed stage sees the freshest measurement of each pair."""
        if self._stages is not None:
            if stage not in self._stages:
                return {}
            kept, self._stages[stage] = self._stages[stage], None
            if kept is not None:
                return kept
        by_stage: dict[int, dict[tuple, TrialRecord]] = defaultdict(dict)
        for r in self._records(stage):
            by_stage[r.stage][(r.device, r.config)] = r
        own = by_stage.pop(stage, {})
        self._stages.update(by_stage)
        return own


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
            k=typed(data["k"], int, "k"),
        )


def rank_records(
    records: list[TrialRecord], kind: FitnessKind, keep: int, space: SearchSpace
) -> RankedSet:
    """Descending fitness with the deterministic tie-break chain:
    lower latency, then fewer parameters, then lower canonical index.

    Only records equal in fitness and latency are compiled for the last
    two keys; sorting each such run after a stable sort on the first two
    gives the order of one sort on all four."""

    def primary(record: TrialRecord) -> tuple[float, float]:
        latency = record.latency_mean_ms if record.latency_mean_ms is not None else math.inf
        return (-record.fitness_value, latency)

    def structural(record: TrialRecord) -> tuple[int, int]:
        return build_architecture(record.config).total_params, index_of(space, record.config)

    ordered: list[TrialRecord] = []
    for _, run in itertools.groupby(sorted(records, key=primary), key=primary):
        run = list(run)
        ordered.extend(sorted(run, key=structural) if len(run) > 1 else run)
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
    return the top ``keep`` by accuracy. The loop's first evaluations, its
    distinct startup draws, are announced to the evaluator before it
    starts (``evaluator.expect``)."""

    def evaluate(config: Configuration) -> float:
        return evaluator.evaluate(config).accuracy_pct

    def startup_configs() -> Iterator[Configuration]:
        # the loop's first evaluations: each distinct startup draw, first
        # occurrences in order, since a repeat is answered from its cache
        seen: set[Configuration] = set()
        for index in range(min(settings.n_startup, budget)):
            config = startup_draw(space, settings.seed, index)
            if config not in seen:
                seen.add(config)
                yield config

    evaluator.expect(startup_configs())
    history = run_optimization(space, evaluate, budget, settings, unique_target=keep)
    unique: dict[Configuration, float] = {}
    for entry in history.succeeded():
        unique.setdefault(entry.config, -entry.loss)
    if len(unique) < keep:
        raise PipelineError(
            f"stage 1 needs {keep} unique successful trials, got {len(unique)} "
            f"after extending to {len(history)} evaluations"
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
        len(history),
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
    measurement: str,
    log: TrialLog | None,
    timestamps: bool,
) -> dict[str, RankedSet]:
    """The stage-2/3 loop: per device, reuse logged records, announce the
    other candidates to the measurer and measure them (``measurement`` is
    "latency" or "power"), exclude pairs that raise MeasurementError, rank."""
    # Reject a candidate off the grid, or a stage-2 accuracy that a device's
    # accuracy_delta_pct takes outside [0, 100], before any device is measured.
    for config in dict.fromkeys(c.config for cs in candidates.values() for c in cs):
        try:
            index_of(space, config)
        except SpaceValidationError as exc:
            raise SpaceValidationError(
                f"stage {stage}: candidate {config.canonical_json()} is not in the space: {exc}"
            ) from None
    if measurement == "latency":
        for device_name, device_candidates in candidates.items():
            delta = profiles[device_name].accuracy_delta_pct
            for candidate in device_candidates:
                if not 0.0 <= candidate.accuracy_pct - delta <= 100.0:
                    raise PipelineError(
                        f"stage {stage}: accuracy {candidate.accuracy_pct - delta} outside [0, 100] "
                        f"for {candidate.config.canonical_json()} on {device_name}"
                    )
    cached = log.index(stage) if log is not None else {}
    # Each distinct candidate is compiled once for all devices; the dict
    # lives only for this call.
    archs: dict[Configuration, ArchitectureDescriptor] = {}
    result: dict[str, RankedSet] = {}
    for device_name, device_candidates in candidates.items():
        if not device_candidates:
            raise PipelineError(f"stage {stage}: empty candidate set for {device_name}")
        profile = profiles[device_name]
        measurer = measurer_factory(profile)
        measurer.expect(
            measurement,
            (c.config for c in device_candidates if (device_name, c.config) not in cached),
        )
        records: list[TrialRecord] = []
        for candidate in device_candidates:
            hit = cached.get((device_name, candidate.config))
            if hit is not None:
                records.append(hit)
                continue
            arch = archs.get(candidate.config)
            if arch is None:
                arch = archs[candidate.config] = build_architecture(candidate.config)
            try:
                accuracy, mean, std, power = _measure(measurement, measurer, profile, candidate, arch)
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


def _measure(measurement: str, measurer, profile, candidate, arch) -> tuple:
    """The candidate's (accuracy, latency mean, latency std, dynamic
    power) after its ``measurement`` on the device."""
    if measurement == "latency":
        mean, std = measurer.latency(candidate.config, arch)
        return candidate.accuracy_pct - profile.accuracy_delta_pct, mean, std, None
    power = measurer.power(candidate.config, arch)
    if power <= 0.0:  # accuracy per PDP is undefined
        raise MeasurementError(f"non-positive dynamic power {power} W")
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
    ranked per device by accuracy/latency. ``measurer_factory`` is called
    once per device, cache hits or not; the caller owns what it returns
    and must close it."""
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
        "latency",
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
    (power is the only new measurement here). ``measurer_factory`` is
    called once per device, cache hits or not; the caller owns what it
    returns and must close it."""
    if not per_device:
        raise PipelineError("stage 3 requires a non-empty per-device map")
    ranked = _measure_and_rank(
        3,
        FitnessKind.ACCURACY_PER_PDP,
        1,
        space,
        {device_name: r.records for device_name, r in per_device.items()},
        profiles,
        measurer_factory,
        "power",
        log,
        timestamps,
    )
    return {device_name: r.records[0] for device_name, r in ranked.items()}
