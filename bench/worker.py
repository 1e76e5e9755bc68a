"""Runs one workload's passes in a single process and records them.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Passes run back to back until their summed wall time is within half a
pass of SECONDS. With TRACE 1 they alternate untraced and traced, in
whole pairs. Each pass runs under a speed probe (speed.py), which turns
its wall time, and a traced pass's layer times, into reference seconds.
The record goes to WORKDIR/worker.json; each pass leaves its run
directory WORKDIR/pass-NNN for the checks.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir = argv
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    sys.path.insert(0, str(SRC))
    origin = time.perf_counter()
    from speed import SpeedProbe
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    passes, layers, first_traced = [], [], None
    timed = wall = 0.0
    # Another pass starts while it would end nearer to SECONDS than not
    # running it; with TRACE 1 passes come in whole pairs.
    while timed + wall / 2 < seconds or (trace and len(passes) % 2):
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else NullTracer()
        out = workdir / f"pass-{len(passes):03d}"
        gc.collect()
        if traced:
            tracer.install()
        with SpeedProbe() as probe:
            start = time.perf_counter()
            try:
                extra = workload.run_pass(out, tracer)
            finally:
                wall = time.perf_counter() - start
                if traced:
                    tracer.restore()
        timed += wall
        passes.append({
            "dir": out.name,
            "wall_s": wall,
            "reference_s": probe.reference_s(wall),
            "scale": probe.scale(),
            "traced": traced,
            **extra,
        })
        if traced:
            layers.append({
                key: value * probe.scale() if key.endswith("_s") else value
                for key, value in tracer.layer_metrics().items()
            })
            first_traced = first_traced or tracer

    untraced = [p["reference_s"] for p in passes if not p["traced"]]
    record = {
        "workload": name,
        "seed": seed,
        "meta": workload.meta,
        "ops_per_pass": workload.ops_per_pass,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        traced_walls = [p["reference_s"] for p in passes if p["traced"]]
        # Counts repeat in every traced pass of a run; times are medians.
        merged = {
            key: statistics.median(layer[key] for layer in layers) if key.endswith("_s") else value
            for key, value in layers[0].items()
        }
        merged["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
        record["layers"] = merged
        record["layer_counts_repeat"] = all(
            layer[key] == layers[0][key]
            for layer in layers
            for key in layer
            if not key.endswith("_s")
        )
        traces = workdir.parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        first_traced.write(traces / f"{name}-seed{seed}.json", origin)
    (workdir / "worker.json").write_text(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
