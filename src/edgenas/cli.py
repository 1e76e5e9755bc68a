"""Command-line surface: space inspection, single-stage and full-pipeline
runs, report emission, and profile fitting.

Exit codes: 0 success, 1 validation/usage error, 2 runtime or protocol
error. All randomness flows from --seed; timestamps are the only
nondeterminism in outputs and --no-timestamps removes them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import rundir
from ._data import PROFILES_DIR, TABLE1_SPACE_PATH, read_json, typed, write_text
from .architecture import build_architecture
from .calibration import fit_device_profile
from .devices import (
    DeviceMeasurer,
    FitObservation,
    JitterSpec,
    MeasurementError,
    MeasurementProtocol,
    SimulatedDevice,
    fit_profile,
    load_profiles,
    save_profile,
)
from .evaluators import EvaluatorError, ExternalEvaluator, Precision, SurrogateEvaluator
from .pipeline import PipelineError, TrialLog, stage1, stage2, stage3
from .protocol import JsonLineChannel, ProtocolError
from .reporting import (
    evaluate_claims,
    load_paper_tables,
    render_markdown,
    run_source,
    summary_table,
    write_best_models_csv,
    write_ratios_json,
    write_summary_csv,
)
from .space import (
    Configuration,
    SpaceValidationError,
    cardinality,
    config_from_index,
    sample_uniform,
    space_from_json,
    unconditional_cardinality,
    validate,
)
from .tpe import OptimizerSettings

logger = logging.getLogger(__name__)

VALIDATION_EXIT = 1
RUNTIME_EXIT = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # Spec'd exit code for bad usage is 1 (argparse defaults to 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="edgenas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser

    def add_space_arg(p):
        p.add_argument("--space", default=str(TABLE1_SPACE_PATH), help="space definition JSON")

    space_parser = sub.add_parser("space", help="inspect a search space")
    space_sub = space_parser.add_subparsers(dest="space_command", required=True)
    p = space_sub.add_parser("count", help="print the space cardinality")
    add_space_arg(p)
    p = space_sub.add_parser("enumerate", help="print configurations in canonical order")
    add_space_arg(p)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--offset", type=int, default=0)
    p = space_sub.add_parser("sample", help="draw uniform configurations")
    add_space_arg(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=42)

    arch_parser = sub.add_parser("arch", help="inspect an architecture")
    arch_sub = arch_parser.add_subparsers(dest="arch_command", required=True)
    p = arch_sub.add_parser("describe", help="compile a configuration and print the layer stack")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--space", default=None, help="validate against this space first")

    def add_run_args(p, with_devices=True):
        add_space_arg(p)
        p.add_argument("--config", default=None, help="run configuration JSON (flags override)")
        p.add_argument("--evaluator", default="surrogate", help='surrogate | exec:"CMD"')
        p.add_argument("--budget", type=int, default=2000)
        p.add_argument("--keep1", type=int, default=1000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", required=True, help="run output directory")
        p.add_argument("--no-timestamps", action="store_true")
        p.add_argument("--evaluator-timeout", type=float, default=60.0)
        p.set_defaults(optimizer_settings={})
        if with_devices:
            p.add_argument("--devices", default=str(PROFILES_DIR), help="device profile directory")
            p.add_argument("--keep2", type=int, default=10)
            p.add_argument("--warmup-runs", type=int, default=0)
            p.add_argument("--latency-jitter", type=float, default=0.0, help="sigma ms")
            p.add_argument("--power-jitter", type=float, default=0.0, help="sigma W")

    p = sub.add_parser("search", help="run stage 1 (accuracy optimization)")
    add_run_args(p, with_devices=False)

    p = sub.add_parser("stage2", help="latency measurement over a finished stage 1")
    p.add_argument("--out", required=True)
    p.add_argument("--devices")
    p.add_argument("--keep2", type=int)
    p.add_argument("--no-timestamps", action="store_true")

    p = sub.add_parser("stage3", help="power measurement over a finished stage 2")
    p.add_argument("--out", required=True)
    p.add_argument("--devices")
    p.add_argument("--no-timestamps", action="store_true")

    p = sub.add_parser("pipeline", help="run all three stages")
    add_run_args(p)

    p = sub.add_parser("report", help="emit report files for a finished run")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json", "md"), default="md")

    p = sub.add_parser("fit-profile", help="fit a device profile")
    p.add_argument("--device", required=True)
    p.add_argument("--out", required=True, help="directory for the profile JSON")
    p.add_argument("--observations", default=None, help="custom observations JSON")
    p.add_argument("--precision", choices=[p.value for p in Precision], default=None)
    p.add_argument("--delta", type=float, default=0.0, help="accuracy delta for custom fits")

    p = sub.add_parser("devices", help="device profile utilities")
    devices_sub = p.add_subparsers(dest="devices_command", required=True)
    p = devices_sub.add_parser("list", help="list available device profiles")
    p.add_argument("--devices", default=str(PROFILES_DIR))

    return parser


def _load_space(path: str):
    if not Path(path).exists():
        raise UsageError(f"space file not found: {path}")
    return space_from_json(path)


def _make_evaluator(selector: str, space, timeout_s: float):
    if selector == "surrogate":
        return SurrogateEvaluator(space)
    if selector.startswith("exec:"):
        command = selector[len("exec:") :]
        if not command.strip():
            raise UsageError("empty command in exec: evaluator selector")
        return ExternalEvaluator(JsonLineChannel(command, timeout_s=timeout_s))
    raise UsageError(f'unknown evaluator {selector!r} (use surrogate or exec:"CMD")')


def cmd_space_count(args) -> int:
    space = _load_space(args.space)
    conditional = cardinality(space)
    unconditional = unconditional_cardinality(space)
    print(conditional)
    print(
        f"note: reference methodology claims >13M configurations; this grid yields "
        f"{conditional:,} with conditional k3/k4 counting ({unconditional:,} unconditional)."
    )
    return 0


def cmd_space_enumerate(args) -> int:
    if args.offset < 0 or (args.limit is not None and args.limit < 0):
        raise UsageError("--offset and --limit must be >= 0")
    space = _load_space(args.space)
    total = cardinality(space)
    stop = total if args.limit is None else min(total, args.offset + args.limit)
    for index in range(args.offset, stop):
        print(config_from_index(space, index).canonical_json())
    return 0


def cmd_space_sample(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    space = _load_space(args.space)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.n):
        print(sample_uniform(space, rng).canonical_json())
    return 0


def cmd_arch_describe(args) -> int:
    config = read_json(args.config, Configuration.from_json_dict)
    if args.space:
        verdict = validate(config, _load_space(args.space))
        if not verdict.valid:
            raise SpaceValidationError("; ".join(verdict.reasons))
    arch = build_architecture(config)
    print(json.dumps(arch.to_json_dict(), indent=2))
    return 0


def _trial_log(args, log: TrialLog | None):
    """The run's trial log: the caller's, left open, or one of its own."""
    if log is not None:
        return contextlib.nullcontext(log)
    return TrialLog(rundir.path(args.out, "trials"))


def _write(args, key: str, value, handoff: dict | None) -> None:
    """Write a run file and, inside a pipeline, hand its value on."""
    rundir.write(args.out, key, value)
    if handoff is not None:
        handoff[key] = value


def _read(args, key: str, handoff: dict | None):
    """A run file's value: as this pipeline wrote it, else parsed from the file."""
    if handoff is not None and key in handoff:
        return handoff[key]
    return rundir.read(args.out, key)


def cmd_search(args, log: TrialLog | None = None, handoff: dict | None = None) -> int:
    space = _load_space(args.space)
    settings = OptimizerSettings.from_dict({**args.optimizer_settings, "seed": args.seed})
    evaluator = _make_evaluator(args.evaluator, space, args.evaluator_timeout)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write(args, "space", space, handoff)
        values = {**vars(args), "optimizer_settings": asdict(settings)}
        rundir.write(args.out, "manifest", rundir.manifest(values))
        with _trial_log(args, log) as log:
            ranked = stage1(
                space,
                evaluator,
                settings,
                budget=args.budget,
                keep=args.keep1,
                log=log,
                timestamps=not args.no_timestamps,
            )
    finally:
        if isinstance(evaluator, ExternalEvaluator):
            evaluator.close()
    _write(args, "stage1", ranked, handoff)
    best = ranked.records[0]
    print(f"stage 1 kept {len(ranked.records)} configurations; best accuracy {best.accuracy_pct:.4f}")
    return 0


def _measurement_inputs(args, handoff: dict | None):
    """The run's space, its device profiles by name (as the pipeline's
    preflight loaded them, else from ``--devices``) and a measurer factory."""
    protocol = MeasurementProtocol(warmup_runs=args.warmup_runs)
    jitter = JitterSpec(args.latency_jitter, args.power_jitter)

    def factory(profile):
        return DeviceMeasurer(SimulatedDevice(profile, jitter, seed=args.seed), protocol)

    space = _read(args, "space", handoff)
    if handoff is not None:
        return space, handoff["profiles"], factory
    return space, dict(sorted(load_profiles(args.devices).items())), factory


def cmd_stage2(args, log: TrialLog | None = None, handoff: dict | None = None) -> int:
    space, profiles, factory = _measurement_inputs(args, handoff)
    candidates = _read(args, "stage1", handoff)
    with _trial_log(args, log) as log:
        ranked = stage2(
            space, candidates, profiles, factory, args.keep2, log=log,
            timestamps=not args.no_timestamps,
        )
    _write(args, "stage2", ranked, handoff)
    for device, rset in ranked.items():
        top = rset.records[0]
        print(f"{device}: top accuracy/latency {top.fitness_value:.3f} ({top.latency_mean_ms:.3f} ms)")
    return 0


def cmd_stage3(args, log: TrialLog | None = None, handoff: dict | None = None) -> int:
    space, profiles, factory = _measurement_inputs(args, handoff)
    per_device = _read(args, "stage2", handoff)
    unprofiled = [d for d in per_device if d not in profiles]
    if unprofiled:
        raise PipelineError(
            f"{rundir.path(args.out, 'stage2')} names devices with no profile in "
            f"{args.devices}: {', '.join(unprofiled)}"
        )
    with _trial_log(args, log) as log:
        winners = stage3(
            space, per_device, profiles, factory, log=log, timestamps=not args.no_timestamps
        )
    _write(args, "stage3", winners, handoff)
    for device, record in winners.items():
        print(
            f"{device}: winner accuracy/PDP {record.fitness_value:.3f} "
            f"({record.accuracy_pct:.2f}%, {record.latency_mean_ms:.3f} ms, "
            f"{record.dynamic_power_w:.3f} W)"
        )
    return 0


def cmd_pipeline(args) -> int:
    # Fail-fast preflight: the profiles parse before any stage runs (the
    # space and the evaluator are checked by search before it writes).
    profiles = dict(sorted(load_profiles(args.devices).items()))
    # One log for the three stages: it knows what it wrote, so stages 2
    # and 3 of a fresh run do not read back the file stage 1 wrote. It
    # writes nothing before its first append, after search's checks.
    # Each stage's result, and the space, go to the next stage in memory
    # as well as to their files, and the preflight's profiles go to
    # stages 2 and 3; the dict lives only for this run.
    handoff: dict = {"profiles": profiles}
    with TrialLog(rundir.path(args.out, "trials")) as log:
        for command in (cmd_search, cmd_stage2, cmd_stage3):
            command(args, log, handoff)
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    # The stage files first: a missing or bad one fails before the log is parsed.
    per_device = rundir.read(out, "stage2")
    winners = rundir.read(out, "stage3")
    for key, data in (("stage2", per_device), ("stage3", winners)):
        if not data:
            raise UsageError(f"{rundir.path(out, key)}: empty per-device map")
    candidates = {r.config for r in rundir.read(out, "stage1").records}
    records = rundir.read(out, "trials")

    # Only this run's pairs: its stage-1 candidates on its stage-2 devices,
    # and each device's stage-2 survivors; a log may hold older runs' lines.
    # The summary reads the log once, checking every line, and keeps only
    # each pair's merged values; no report file is written before it ends.
    survivors = {device: {r.config for r in rset.records} for device, rset in per_device.items()}
    summary = summary_table(
        record
        for record in records
        if record.stage >= 2
        and record.device in survivors
        and record.config in (candidates if record.stage == 2 else survivors[record.device])
    )
    best_latency = {device: rset.records[0] for device, rset in per_device.items()}
    tables = load_paper_tables()
    claims = evaluate_claims(tables, run_source(tables, summary, best_latency, winners))

    write_summary_csv(summary, out / "summary.csv")
    write_best_models_csv(best_latency, winners, out / "best_models.csv")
    write_ratios_json(claims, out / "ratios.json")
    markdown = render_markdown(tables, summary, best_latency, winners, claims)
    write_text(out / "report.md", markdown)

    if args.format == "md":
        print(markdown)
    elif args.format == "csv":
        print((out / "summary.csv").read_text(), end="")
    else:
        print((out / "ratios.json").read_text(), end="")
    return 0


def _observed(entry: dict, key: str, op: str) -> float:
    """An observation's ``key``: a JSON number (``typed``) that is finite
    and ``op`` (">" or ">=") 0."""
    value = typed(entry[key], float, key)
    if not (0 < value < math.inf if op == ">" else 0 <= value < math.inf):
        raise ValueError(f"{key} must be a finite JSON number {op} 0, got {entry[key]!r}")
    return value


def cmd_fit_profile(args) -> int:
    if args.observations:
        if not args.precision:
            raise UsageError("--precision is required with --observations")
        observations = read_json(
            args.observations,
            lambda data: [
                FitObservation(
                    arch=build_architecture(Configuration.from_json_dict(entry["config"])),
                    latency_ms=_observed(entry, "latency_ms", ">"),
                    dynamic_power_w=None
                    if entry.get("dynamic_power_w") is None
                    else _observed(entry, "dynamic_power_w", ">="),
                    label=typed(entry.get("label", ""), str, "label"),
                )
                for entry in data
            ],
        )
        profile = fit_profile(
            observations,
            precision=Precision(args.precision),
            name=args.device,
            accuracy_delta_pct=args.delta,
        )
    else:
        profile = fit_device_profile(args.device)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    path = Path(args.out, f"{args.device}.json")
    save_profile(profile, path)
    worst = max(abs(v) for v in profile.fit_residuals["latency_ms"].values())
    print(f"wrote {path} (max |latency residual| {worst:.4f} ms)")
    return 0


def cmd_devices_list(args) -> int:
    profiles = load_profiles(args.devices)
    for name in sorted(profiles):
        profile = profiles[name]
        m = profile.latency_model
        p = profile.power_model
        print(
            f"{name}: precision={profile.precision.value} delta={profile.accuracy_delta_pct} "
            f"latency(fixed={m.fixed_ms:.4g} ms, conv={m.conv_macs_per_ms:.4g} MAC/ms, "
            f"fc={m.fc_macs_per_ms:.4g} MAC/ms, per_layer={m.per_layer_ms:.4g} ms) "
            f"power(alpha={p.alpha_w:.4g} W, beta={p.beta_w_per_kmacs_per_ms:.4g} W per kMAC/ms)"
        )
    return 0


_COMMANDS = {
    ("space", "count"): cmd_space_count,
    ("space", "enumerate"): cmd_space_enumerate,
    ("space", "sample"): cmd_space_sample,
    ("arch", "describe"): cmd_arch_describe,
    ("search", None): cmd_search,
    ("stage2", None): cmd_stage2,
    ("stage3", None): cmd_stage3,
    ("pipeline", None): cmd_pipeline,
    ("report", None): cmd_report,
    ("fit-profile", None): cmd_fit_profile,
    ("devices", "list"): cmd_devices_list,
}


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("EDGENAS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # A run's settings become parser defaults, and parsing again lets
        # every explicit flag override them: for search and pipeline those
        # of a --config file; for stage2 and stage3 the run's manifest over
        # the pipeline's defaults.
        defaults = None
        if args.command in ("search", "pipeline") and args.config:
            base = Path(args.config).parent
            defaults = read_json(args.config, lambda data: rundir.settings(data, base))
            defaults = {k: v for k, v in defaults.items() if hasattr(args, k)}
        elif args.command in ("stage2", "stage3"):
            pipeline = parser.commands["pipeline"]
            defaults = {dest: pipeline.get_default(dest) for _, dest, _ in rundir.SETTINGS}
            defaults.update(rundir.settings(rundir.read(args.out, "manifest"), args.out))
        if defaults is not None:
            parser.commands[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
        # Once the run's settings are final and before anything is written.
        for dest, op, least in (
            ("budget", ">=", 1), ("keep1", ">=", 1), ("keep2", ">=", 1), ("warmup_runs", ">=", 0),
            ("latency_jitter", ">=", 0), ("power_jitter", ">=", 0), ("evaluator_timeout", ">", 0),
        ):
            value = getattr(args, dest, None)
            if value is None:
                continue
            if not math.isfinite(value):
                raise UsageError(f"{dest} must be finite, got {value}")
            if value < least or (op == ">" and value == least):
                raise UsageError(f"{dest} must be {op} {least}, got {value}")
        sub = getattr(args, "space_command", None) or getattr(args, "arch_command", None) or getattr(
            args, "devices_command", None
        )
        handler = _COMMANDS[(args.command, sub)]
        return handler(args)
    except (ValueError, FileNotFoundError) as exc:
        # UsageError, SpaceValidationError, FitError, and json decode
        # errors are all ValueErrors: bad inputs, not runtime failures.
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except (ProtocolError, MeasurementError, PipelineError, EvaluatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
