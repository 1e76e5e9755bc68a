"""Checks of one pass's run directory against the oracle.

Each check names the operations it finds wrong: a (stage, device,
config) pair, or a stage-level item such as a device's stage-2 set. A
pass's failed operations are the distinct items named. The stage-1
rerun of bridge-resume duplicates the stage-1 lines of the trial log,
a known fault of the program; it is named once, marked known, and does
not make the pass incorrect.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from pathlib import Path

import oracle

EXACT = 1e-9  # relative; the program and the oracle may sum in another order

KNOWN_RERUN_DUPLICATES = "stage1-rerun duplicates its trial-log lines"


class Findings:
    def __init__(self):
        self.items: dict[tuple, str] = {}
        self.known: set[tuple] = set()

    def fail(self, item: tuple, message: str, known: bool = False) -> None:
        self.items.setdefault(item, message)
        if known:
            self.known.add(item)

    @property
    def unexpected(self) -> dict[tuple, str]:
        return {k: v for k, v in self.items.items() if k not in self.known}


def close(a: float, b: float, rel: float = EXACT) -> bool:
    return a is not None and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def read_log(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def read_json(path: Path):
    return json.loads(path.read_text())


class Context:
    """What every pass of a run shares: grid, profiles, memoised walks."""

    def __init__(self, record: dict, workdir: Path):
        self.workload = record["workload"]
        self.meta = record["meta"]
        self.workdir = workdir
        self.grid = oracle.load_grid()
        self.profiles = oracle.load_profiles()
        self.walks: dict[str, dict] = {}
        self.rank_keys: dict = {}

    def walk(self, config: dict) -> dict:
        key = oracle.config_key(config)
        if key not in self.walks:
            self.walks[key] = oracle.layer_walk(config)
        return self.walks[key]

    def top(self, records: list[dict], k: int) -> list[str]:
        ranked = oracle.top_k(records, k, self.grid, self.rank_keys)
        return [oracle.config_key(r["config"]) for r in ranked]


def check_log_once(log: list[dict], f: Findings, rerun: bool) -> None:
    """Each (stage, device, config) once; after a stage-1 rerun, the known
    fault is every stage-1 line written twice."""
    keys = Counter((r["stage"], r["device"], oracle.config_key(r["config"])) for r in log)
    stage1_counts = {n for (stage, _, _), n in keys.items() if stage == 1}
    if rerun and stage1_counts == {2}:
        f.fail(("stage1-rerun",), KNOWN_RERUN_DUPLICATES, known=True)
        keys = Counter({k: n for k, n in keys.items() if k[0] != 1})
    for key, n in keys.items():
        if n > 1:
            f.fail(("s%d" % key[0], key[1], key[2]), f"{n} trial-log lines for one pair")


def check_stage1(ctx: Context, stage1: dict, log: list[dict], keep1: int, f: Findings,
                 accuracy=None) -> None:
    records = stage1["records"]
    keys = [oracle.config_key(r["config"]) for r in records]
    if len(records) != keep1 or len(set(keys)) != keep1:
        f.fail(("stage1-set",), f"{len(set(keys))} distinct of {len(records)} kept, want {keep1}")
    for r in records:
        if not oracle.on_grid(r["config"], ctx.grid):
            f.fail(("stage1-set",), f"off-grid configuration {r['config']}")
    logged = list({oracle.config_key(r["config"]): r for r in log if r["stage"] == 1}.values())
    if keys != ctx.top(logged, keep1):
        f.fail(("stage1-set",), "kept set is not the top of the logged trials by accuracy")
    if accuracy is not None:
        for r in logged:
            if not close(r["accuracy_pct"], accuracy(r["config"])):
                f.fail(("s1", None, oracle.config_key(r["config"])), "evaluator answer changed")


def check_stage2(ctx: Context, stage2: dict, log: list[dict], candidates: list[dict],
                 keep2: int, latency_ok, f: Findings) -> None:
    by_device: dict[str, dict[str, dict]] = {}
    for r in log:
        if r["stage"] == 2:
            by_device.setdefault(r["device"], {})[oracle.config_key(r["config"])] = r
    if sorted(stage2) != sorted(ctx.profiles):
        f.fail(("stage2-devices",), f"stage 2 covers {sorted(stage2)}")
    for device, profile in ctx.profiles.items():
        pairs = by_device.get(device, {})
        delta = profile["accuracy_delta_pct"]
        for cand in candidates:
            key = oracle.config_key(cand["config"])
            item = ("s2", device, key)
            r = pairs.get(key)
            if r is None:
                f.fail(item, "pair not measured")
                continue
            message = latency_ok(profile, device, cand["config"], r)
            if message:
                f.fail(item, message)
            if not close(r["accuracy_pct"], cand["accuracy_pct"] - delta, 1e-12):
                f.fail(item, "accuracy is not the candidate's less the device delta")
            if not close(r["fitness"]["value"], r["accuracy_pct"] / r["latency_mean_ms"], 1e-12):
                f.fail(item, "fitness is not accuracy/latency")
        kept = [oracle.config_key(r["config"]) for r in stage2.get(device, {}).get("records", [])]
        if kept != ctx.top(list(pairs.values()), keep2):
            f.fail(("stage2-set", device), "not the best accuracy/latency of the device's pairs")


def check_stage3(ctx: Context, stage3: dict, stage2: dict, log: list[dict], power_ok,
                 f: Findings) -> None:
    by_device: dict[str, list[dict]] = {}
    for r in log:
        if r["stage"] == 3:
            by_device.setdefault(r["device"], []).append(r)
    for device, profile in ctx.profiles.items():
        survivors = {
            oracle.config_key(r["config"]): r for r in stage2.get(device, {}).get("records", [])
        }
        records = by_device.get(device, [])
        if {oracle.config_key(r["config"]) for r in records} != set(survivors):
            f.fail(("stage3-set", device), "measured set is not the stage-2 survivors")
        for r in records:
            key = oracle.config_key(r["config"])
            item = ("s3", device, key)
            s2 = survivors.get(key)
            if s2 is None:
                continue
            if r["latency_mean_ms"] != s2["latency_mean_ms"] or r["accuracy_pct"] != s2["accuracy_pct"]:
                f.fail(item, "stage-2 latency or accuracy not carried into stage 3")
            message = power_ok(profile, device, r["config"], r["dynamic_power_w"])
            if message:
                f.fail(item, message)
            pdp = r["dynamic_power_w"] * r["latency_mean_ms"]
            if not close(r["fitness"]["value"], r["accuracy_pct"] / pdp, 1e-12):
                f.fail(item, "fitness is not accuracy/(power*latency)")
        winner = stage3.get(device)
        if not records or winner is None or (
            oracle.config_key(winner["config"]) != ctx.top(records, 1)[0]
        ):
            f.fail(("stage3-winner", device), "winner does not maximise accuracy/PDP")


def exact_model(ctx: Context):
    def latency_ok(profile, device, config, r):
        want = oracle.model_latency_ms(profile, ctx.walk(config))
        if not close(r["latency_mean_ms"], want) or r["latency_std_ms"] != 0.0:
            return f"latency {r['latency_mean_ms']}+-{r['latency_std_ms']} ms, model {want}"
        return None

    def power_ok(profile, device, config, power):
        want = oracle.model_power_w(profile, ctx.walk(config))
        return None if close(power, want) else f"power {power} W, model {want}"

    return latency_ok, power_ok


def jittered_model(ctx: Context):
    """Means within TOL standard errors of the model; the latency sample
    std within TOL standard errors of the jitter sigma."""
    tol = ctx.meta["tolerance_se"]
    sigma = ctx.meta["latency_sigma_ms"]
    mean_se = sigma / math.sqrt(oracle.LATENCY_RUNS)
    std_se = sigma / math.sqrt(2 * (oracle.LATENCY_RUNS - 1))
    power_se = ctx.meta["power_sigma_w"] * math.sqrt(2 / oracle.POWER_SAMPLES)

    def latency_ok(profile, device, config, r):
        want = oracle.model_latency_ms(profile, ctx.walk(config))
        if abs(r["latency_mean_ms"] - want) > tol * mean_se:
            return f"latency {r['latency_mean_ms']} ms, model {want} +- {tol} SE"
        if abs(r["latency_std_ms"] - sigma) > tol * std_se:
            return f"latency std {r['latency_std_ms']} ms, jitter {sigma}"
        return None

    def power_ok(profile, device, config, power):
        want = oracle.model_power_w(profile, ctx.walk(config))
        if abs(power - want) > tol * power_se:
            return f"power {power} W, model {want} +- {tol} SE"
        return None

    return latency_ok, power_ok


def stub_answers():
    def latency_ok(profile, device, config, r):
        runs = oracle.LATENCY_RUNS + oracle.STUB_COLD_RUNS
        samples = oracle.stub_latency_samples(config, device, runs)[oracle.STUB_COLD_RUNS :]
        mean, std = oracle.mean_and_std(samples)
        if not close(r["latency_mean_ms"], mean) or not close(r["latency_std_ms"], std):
            return f"latency {r['latency_mean_ms']}+-{r['latency_std_ms']}, stub {mean}+-{std}"
        return None

    def power_ok(profile, device, config, power):
        want = oracle.stub_dynamic_power_w(config, device)
        return None if close(power, want) else f"power {power} W, stub {want}"

    return latency_ok, power_ok


def check_report(ctx: Context, out: Path, stage2: dict, stage3: dict, log: list[dict],
                 f: Findings) -> None:
    if not (out / "report.md").is_file() or not (out / "report.md").read_text().strip():
        f.fail(("report",), "no report.md")
        return
    latencies: dict[str, dict[str, float]] = {}
    for r in log:
        if r["stage"] == 2:
            latencies.setdefault(r["device"], {})[oracle.config_key(r["config"])] = r[
                "latency_mean_ms"
            ]
    with (out / "summary.csv").open() as handle:
        rows = {row["device"]: row for row in csv.DictReader(handle)}
    for device in ctx.profiles:
        row, values = rows.get(device), list(latencies.get(device, {}).values())
        if row is None or int(row["n_models"]) != len(values) or not values or not close(
            float(row["latency_mean_ms"]), oracle.mean_and_std(values)[0]
        ):
            f.fail(("report",), f"summary row for {device} disagrees with the trial log")
    with (out / "best_models.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    want = [(d, "accuracy_per_latency", oracle.config_key(stage2[d]["records"][0]["config"]))
            for d in sorted(stage2)]
    want += [(d, "accuracy_per_pdp", oracle.config_key(stage3[d]["config"])) for d in sorted(stage3)]
    got = [
        (row["device"], row["fitness_kind"], oracle.config_key(json.loads(row["config"])))
        for row in rows
    ]
    if got != want:
        f.fail(("report",), "best_models.csv disagrees with stage2.json and stage3.json")


def check_pass(ctx: Context, out: Path, info: dict) -> Findings:
    f = Findings()
    log = read_log(out / "trials.jsonl")
    stage2 = read_json(out / "stage2.json")
    stage3 = read_json(out / "stage3.json")
    meta = ctx.meta
    if ctx.workload == "search-default":
        stage1 = read_json(out / "stage1.json")
        check_stage1(ctx, stage1, log, meta["keep1"], f)
        latency_ok, power_ok = exact_model(ctx)
        candidates = stage1["records"]
    elif ctx.workload == "measure-jitter":
        latency_ok, power_ok = jittered_model(ctx)
        candidates = read_json(ctx.workdir / "candidates.json")["records"]
    else:
        stage1 = read_json(out / "stage1.json")
        check_stage1(ctx, stage1, log, meta["keep1"], f, accuracy=oracle.stub_accuracy)
        latency_ok, power_ok = stub_answers()
        candidates = stage1["records"]
        check_resume(out, info["log_sizes"], stage1, f)
        check_report(ctx, out, stage2, stage3, log, f)
    check_log_once(log, f, rerun=ctx.workload == "bridge-resume")
    check_stage2(ctx, stage2, log, candidates, meta["keep2"], latency_ok, f)
    check_stage3(ctx, stage3, stage2, log, power_ok, f)
    return f


def check_resume(out: Path, sizes: dict, stage1: dict, f: Findings) -> None:
    """The rerun of every stage into the finished directory: stage 1
    returns the same set; the resumed stages append nothing and rewrite
    identical stage files."""
    if read_json(out / "stage1.rerun.json") != stage1:
        f.fail(("stage1-rerun-set",), "rerun of stage 1 kept another set")
    if sizes["resumed"] != sizes["rerun"]:
        f.fail(("resume-append",), f"resumed stages appended {sizes['resumed'] - sizes['rerun']} bytes")
    for name in ("stage2.json", "stage3.json"):
        if (out / name).read_bytes() != (out / f"first.{name}").read_bytes():
            f.fail(("resume-rewrite", name), f"resumed stage rewrote a different {name}")
