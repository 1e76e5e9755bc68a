"""The three workloads. Each runs one pass of its work into a fresh run
directory; the worker times the passes and the checks read what they
leave behind.

search-default  `edgenas pipeline` at its defaults, in-process.
measure-jitter  stages 2 and 3 over uniform Table-1 candidates, with
                latency and power jitter and warm-up runs.
bridge-resume   all stages over NDJSON stubs, then a rerun of every
                stage into the finished directory, then `report`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import oracle
from edgenas import cli, pipeline
from edgenas._data import PROFILES_DIR, TABLE1_SPACE_PATH
from edgenas.devices import (
    DeviceMeasurer,
    ExternalDevice,
    JitterSpec,
    MeasurementProtocol,
    SimulatedDevice,
    load_profiles,
)
from edgenas.evaluators import ExternalEvaluator, SurrogateEvaluator
from edgenas.pipeline import FitnessKind, RankedSet, TrialLog, TrialRecord
from edgenas.protocol import JsonLineChannel
from edgenas.space import Configuration, space_from_json
from edgenas.tpe import OptimizerSettings

STUBS = Path(__file__).resolve().parent / "stubs"

# Jitter of the simulated devices in measure-jitter, and the number of
# standard errors a measured mean may lie from the cost model.
LATENCY_SIGMA_MS = 0.02
POWER_SIGMA_W = 0.05
WARMUP_RUNS = 5
TOLERANCE_SE = 7.0


def write_json(path: Path, payload) -> None:
    """The layout `edgenas` itself gives its stage files."""
    path.write_text(json.dumps(payload, indent=2) + "\n")


def write_stage2(path: Path, ranked: dict) -> None:
    write_json(path, {d: r.to_json_dict() for d, r in ranked.items()})


def write_stage3(path: Path, winners: dict) -> None:
    write_json(path, {d: r.to_json_dict() for d, r in winners.items()})


def quiet_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"edgenas {' '.join(argv)} exited {code}")


class SearchDefault:
    """`edgenas pipeline` with no options but the seed and the output."""

    name = "search-default"

    def __init__(self, seed: int, workdir: Path, budget: int = 2000, keep1: int = 1000):
        self.seed = seed
        self.argv = ["pipeline", "--seed", str(seed), "--no-timestamps"]
        if (budget, keep1) != (2000, 1000):
            self.argv += ["--budget", str(budget), "--keep1", str(keep1)]
        self.meta = {"budget": budget, "keep1": keep1, "keep2": 10}
        n_devices = len(load_profiles(PROFILES_DIR))
        self.ops_per_pass = budget + n_devices * (keep1 + 10)

    def run_pass(self, out: Path, tracer) -> dict:
        quiet_cli(self.argv + ["--out", str(out)])
        return {}


def uniform_candidates(seed: int, n: int) -> list[dict]:
    """n distinct configurations drawn uniformly from the Table-1 grid."""
    grid = oracle.load_grid()
    rng = random.Random(seed)
    size = oracle.grid_size(grid)
    chosen: dict[int, dict] = {}
    while len(chosen) < n:
        index = rng.randrange(size)
        chosen.setdefault(index, oracle.config_at(index, grid))
    return list(chosen.values())


class MeasureJitter:
    """Stages 2 and 3 over fixed candidates on jittery simulated devices."""

    name = "measure-jitter"

    def __init__(self, seed: int, workdir: Path, candidates: int = 1500):
        self.space = space_from_json(TABLE1_SPACE_PATH)
        self.profiles = dict(sorted(load_profiles(PROFILES_DIR).items()))
        surrogate = SurrogateEvaluator(self.space)
        records = []
        for wire in uniform_candidates(seed, candidates):
            config = Configuration.from_json_dict(wire)
            accuracy = surrogate.evaluate(config).accuracy_pct
            records.append(
                TrialRecord(config, 1, FitnessKind.ACCURACY, accuracy, accuracy, seed=seed)
            )
        records.sort(key=lambda r: -r.accuracy_pct)
        self.candidates = RankedSet(FitnessKind.ACCURACY, records, len(records))
        workdir.mkdir(parents=True, exist_ok=True)
        write_json(workdir / "candidates.json", self.candidates.to_json_dict())
        jitter = JitterSpec(LATENCY_SIGMA_MS, POWER_SIGMA_W)
        protocol = MeasurementProtocol(warmup_runs=WARMUP_RUNS)
        self.factory = lambda profile: DeviceMeasurer(
            SimulatedDevice(profile, jitter, seed=seed), protocol
        )
        self.meta = {
            "keep2": 10,
            "latency_sigma_ms": LATENCY_SIGMA_MS,
            "power_sigma_w": POWER_SIGMA_W,
            "tolerance_se": TOLERANCE_SE,
        }
        self.ops_per_pass = len(self.profiles) * (candidates + 10)

    def run_pass(self, out: Path, tracer) -> dict:
        out.mkdir(parents=True)
        log = TrialLog(out / "trials.jsonl")
        ranked = pipeline.stage2(
            self.space, self.candidates, self.profiles, self.factory, 10, log=log, timestamps=False
        )
        write_stage2(out / "stage2.json", ranked)
        winners = pipeline.stage3(
            self.space, ranked, self.profiles, self.factory, log=log, timestamps=False
        )
        write_stage3(out / "stage3.json", winners)
        return {}


class StubDevices:
    """Measurer factory over NDJSON stub devices. Opening the channel for
    the next device closes the one before, so one child at most is alive."""

    def __init__(self, warmup_runs: int, skew: float = 1.0):
        self.protocol = MeasurementProtocol(warmup_runs=warmup_runs)
        self.skew = skew
        self.current: ExternalDevice | None = None

    def __call__(self, profile):
        self.close()
        argv = [sys.executable, str(STUBS / "device.py"), profile.name]
        if self.skew != 1.0:
            argv.append(repr(self.skew))
        self.current = ExternalDevice(JsonLineChannel(argv, timeout_s=30.0))
        return DeviceMeasurer(self.current, self.protocol)

    def close(self) -> None:
        if self.current is not None:
            self.current.close()
            self.current = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class BridgeResume:
    """Every stage over NDJSON stubs, then every stage again into the
    finished run directory, then the report."""

    name = "bridge-resume"

    def __init__(self, seed: int, workdir: Path, budget: int = 600, keep1: int = 300,
                 device_skew: float = 1.0):
        self.space = space_from_json(TABLE1_SPACE_PATH)
        self.profiles = dict(sorted(load_profiles(PROFILES_DIR).items()))
        # Startup covers the whole budget: stage 1 draws uniformly and its
        # cost is the evaluator bridge, not the optimizer's densities.
        self.settings = OptimizerSettings(seed=seed, n_startup=budget)
        self.budget, self.keep1, self.keep2 = budget, keep1, 10
        self.evaluator_argv = [sys.executable, str(STUBS / "evaluator.py")]
        self.device_skew = device_skew
        self.meta = {"budget": budget, "keep1": keep1, "keep2": self.keep2}
        pairs = len(self.profiles) * (keep1 + self.keep2)
        # stage 1 trials, measured pairs, the stage-1 rerun, resumed pairs, report
        self.ops_per_pass = budget + pairs + 1 + pairs + 1

    def _stage1(self, log: TrialLog) -> RankedSet:
        evaluator = ExternalEvaluator(JsonLineChannel(self.evaluator_argv, timeout_s=30.0))
        try:
            return pipeline.stage1(
                self.space, evaluator, self.settings, self.budget, self.keep1,
                log=log, timestamps=False,
            )
        finally:
            evaluator.close()

    def _stages23(self, out: Path, ranked1: RankedSet, log: TrialLog) -> None:
        with StubDevices(oracle.STUB_COLD_RUNS, self.device_skew) as devices:
            ranked2 = pipeline.stage2(
                self.space, ranked1, self.profiles, devices, self.keep2, log=log, timestamps=False
            )
        write_stage2(out / "stage2.json", ranked2)
        with StubDevices(oracle.STUB_COLD_RUNS, self.device_skew) as devices:
            winners = pipeline.stage3(
                self.space, ranked2, self.profiles, devices, log=log, timestamps=False
            )
        write_stage3(out / "stage3.json", winners)

    def run_pass(self, out: Path, tracer) -> dict:
        out.mkdir(parents=True)
        log = TrialLog(out / "trials.jsonl")
        ranked1 = self._stage1(log)
        write_json(out / "stage1.json", ranked1.to_json_dict())
        self._stages23(out, ranked1, log)
        sizes = {"first": log.path.stat().st_size}
        for name in ("stage2.json", "stage3.json"):
            shutil.copyfile(out / name, out / f"first.{name}")

        with tracer.span("resume"):
            rerun = self._stage1(log)
            write_json(out / "stage1.rerun.json", rerun.to_json_dict())
            sizes["rerun"] = log.path.stat().st_size
            tracer.count("resume_pairs", len(self.profiles) * (self.keep1 + self.keep2))
            self._stages23(out, rerun, log)
            sizes["resumed"] = log.path.stat().st_size

        with tracer.span("reporting.report"):
            quiet_cli(["report", "--out", str(out), "--format", "md"])
        return {"log_sizes": sizes}


WORKLOADS = {w.name: w for w in (SearchDefault, MeasureJitter, BridgeResume)}
