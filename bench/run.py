"""Benchmark of the edgenas search, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run
  1. times SETUP_PROBES fresh interpreters from start to a program ready
     to run (`edgenas.cli` imported, space, profiles and evaluator
     loaded) and keeps the median as setup_s;
  2. runs the workload's passes in one worker process for about S
     seconds (with --trace 1, alternating untraced and traced passes);
  3. checks every pass's run directory against the oracle;
  4. prints one JSON line: correct, attempted, failed and the metrics,
     end to end with --trace 0, per layer with --trace 1.
Every time it reports is in reference seconds: wall time rescaled by the
speed of the core it was measured on, sampled while it ran (speed.py).
It exits 2, printing no result, when the program's sources are absent.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RUNS = REPO / ".bench_runs"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
WORKLOADS = ("search-default", "measure-jitter", "bridge-resume")


def probe_setup(workload: str) -> tuple[float, float]:
    """Reference seconds from spawning an interpreter until it reports
    ready, and the import time it measured itself."""
    kind = "stub" if workload == "bridge-resume" else "surrogate"
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), kind], stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    report = json.loads(line)
    return (ready - report["handler_s"]) * report["scale"], report["import_s"]


def run_worker(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
            "1" if trace else "0", str(workdir)]
    subprocess.run(argv, stdout=subprocess.DEVNULL, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads((workdir / "worker.json").read_text())


def check_passes(record: dict, workdir: Path) -> tuple[int, int, list[str]]:
    ctx = checks.Context(record, workdir)
    failed, problems = 0, []
    for info in record["passes"]:
        findings = checks.check_pass(ctx, workdir / info["dir"], info)
        failed += min(len(findings.items), record["ops_per_pass"])
        problems += [f"{info['dir']} {item}: {msg}" for item, msg in findings.unexpected.items()]
    return failed, len(record["passes"]) * record["ops_per_pass"], problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (REPO / "src" / "edgenas" / "cli.py").is_file():
        print(f"error: no edgenas sources under {REPO / 'src'}", file=sys.stderr)
        return 2

    probes = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    workdir = RUNS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        record = run_worker(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        failed, attempted, problems = check_passes(record, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    walls = [round(p["wall_s"], 4) for p in record["passes"]]
    scales = [round(p["scale"], 4) for p in record["passes"]]
    print(f"pass walls (wall s): {walls}; their scales: {scales}; "
          f"set-up probes (reference s): {[round(p[0], 4) for p in probes]}", file=sys.stderr)

    if args.trace:
        metrics = {"cli.import_s": statistics.median(p[1] for p in probes)}
        metrics.update(record["layers"])
        if not record["layer_counts_repeat"]:
            problems.append("per-layer counts differ between traced passes")
    else:
        untraced = [p for p in record["passes"] if not p["traced"]]
        metrics = {
            "setup_s": statistics.median(p[0] for p in probes),
            "wall_s": statistics.median(p["reference_s"] for p in untraced),
            "ops_per_s": record["ops_per_pass"] * len(untraced)
            / sum(p["reference_s"] for p in untraced),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
