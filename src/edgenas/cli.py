"""Command-line surface: space inspection, single-stage and full-pipeline
runs, report emission, and profile fitting.

Exit codes: 0 success, 1 validation/usage error, 2 runtime or protocol
error. All randomness flows from --seed; timestamps are the only
nondeterminism in outputs and --no-timestamps removes them.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._data import PROFILES_DIR, TABLE1_SPACE_PATH
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
from .pipeline import (
    PipelineError,
    RankedSet,
    TrialLog,
    TrialRecord,
    stage1,
    stage2,
    stage3,
)
from .protocol import JsonLineChannel, ProtocolError
from .reporting import (
    load_paper_tables,
    pareto_front,
    ratio_sheet_from_tables,
    render_markdown,
    summary_table,
    write_best_models_csv,
    write_pareto_json,
    write_ratios_json,
    write_summary_csv,
)
from .space import (
    Configuration,
    SpaceValidationError,
    cardinality,
    config_from_index,
    config_from_json,
    sample_uniform,
    space_from_json,
    space_to_json,
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
    p.add_argument("--devices", default=None)
    p.add_argument("--keep2", type=int, default=None)
    p.add_argument("--no-timestamps", action="store_true")

    p = sub.add_parser("stage3", help="power measurement over a finished stage 2")
    p.add_argument("--out", required=True)
    p.add_argument("--devices", default=None)
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


def _run_config_defaults(path: str) -> dict:
    """Parser defaults from a --config run file, keyed by flag destination,
    so that an explicit flag always wins over the file."""
    if not Path(path).exists():
        raise UsageError(f"run config not found: {path}")
    data = json.loads(Path(path).read_text())
    jitter = data.get("jitter", {})
    defaults = {
        key: data[key]
        for key in ("space", "evaluator", "budget", "keep1", "keep2", "seed", "warmup_runs")
        if key in data
    }
    if "devices_dir" in data:
        defaults["devices"] = data["devices_dir"]
    if "latency_sigma_ms" in jitter:
        defaults["latency_jitter"] = float(jitter["latency_sigma_ms"])
    if "power_sigma_w" in jitter:
        defaults["power_jitter"] = float(jitter["power_sigma_w"])
    defaults["optimizer_settings"] = data.get("optimizer", {})
    return defaults


def _make_evaluator(selector: str, space, timeout_s: float):
    if selector == "surrogate":
        return SurrogateEvaluator(space)
    if selector.startswith("exec:"):
        command = selector[len("exec:") :]
        if not command.strip():
            raise UsageError("empty command in exec: evaluator selector")
        return ExternalEvaluator(JsonLineChannel(command, timeout_s=timeout_s))
    raise UsageError(f'unknown evaluator {selector!r} (use surrogate or exec:"CMD")')


def _measurer_factory(seed: int, jitter: JitterSpec, warmup_runs: int):
    protocol = MeasurementProtocol(warmup_runs=warmup_runs)

    def factory(profile):
        return DeviceMeasurer(SimulatedDevice(profile, jitter, seed=seed), protocol)

    return factory


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path) -> dict:
    path = out / "manifest.json"
    if not path.exists():
        raise UsageError(f"no manifest.json in {out}; run search or pipeline first")
    return json.loads(path.read_text())


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
    space = _load_space(args.space)
    total = cardinality(space)
    stop = total if args.limit is None else min(total, args.offset + args.limit)
    for index in range(args.offset, stop):
        print(config_from_index(space, index).canonical_json())
    return 0


def cmd_space_sample(args) -> int:
    space = _load_space(args.space)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.n):
        print(sample_uniform(space, rng).canonical_json())
    return 0


def cmd_arch_describe(args) -> int:
    config = config_from_json(args.config)
    if args.space:
        verdict = validate(config, _load_space(args.space))
        if not verdict.valid:
            raise SpaceValidationError("; ".join(verdict.reasons))
    arch = build_architecture(config)
    print(json.dumps(arch.to_json_dict(), indent=2))
    return 0


def _write_manifest(args, out: Path, settings: OptimizerSettings) -> None:
    manifest = {
        "space_file": "space.json",
        "seed": args.seed,
        "budget": args.budget,
        "keep1": args.keep1,
        "evaluator": args.evaluator,
        "optimizer": asdict(settings),
        "timestamps": not args.no_timestamps,
    }
    if hasattr(args, "devices"):
        manifest.update(
            {
                "keep2": args.keep2,
                "devices_dir": str(args.devices),
                "warmup_runs": args.warmup_runs,
                "jitter": {
                    "latency_sigma_ms": args.latency_jitter,
                    "power_sigma_w": args.power_jitter,
                },
            }
        )
    _write_json(out / "manifest.json", manifest)


def cmd_search(args) -> int:
    space = _load_space(args.space)
    settings = OptimizerSettings.from_dict({**args.optimizer_settings, "seed": args.seed})
    evaluator = _make_evaluator(args.evaluator, space, args.evaluator_timeout)
    try:
        out = _out_dir(args)
        space_to_json(space, out / "space.json")
        _write_manifest(args, out, settings)
        ranked = stage1(
            space,
            evaluator,
            settings,
            budget=args.budget,
            keep=args.keep1,
            log=TrialLog(out / "trials.jsonl"),
            timestamps=not args.no_timestamps,
        )
    finally:
        if isinstance(evaluator, ExternalEvaluator):
            evaluator.close()
    _write_json(out / "stage1.json", ranked.to_json_dict())
    best = ranked.records[0]
    print(f"stage 1 kept {len(ranked.records)} configurations; best accuracy {best.accuracy_pct:.4f}")
    return 0


def _measurement_inputs(args):
    out = _out_dir(args)
    manifest = _manifest(out)
    space = space_from_json(out / "space.json")
    devices_dir = args.devices or manifest.get("devices_dir") or str(PROFILES_DIR)
    profiles = dict(sorted(load_profiles(devices_dir).items()))
    jitter = JitterSpec(
        latency_sigma_ms=manifest.get("jitter", {}).get("latency_sigma_ms", 0.0),
        power_sigma_w=manifest.get("jitter", {}).get("power_sigma_w", 0.0),
    )
    factory = _measurer_factory(manifest["seed"], jitter, manifest.get("warmup_runs", 0))
    timestamps = manifest.get("timestamps", True) and not args.no_timestamps
    return out, manifest, space, profiles, factory, timestamps


def cmd_stage2(args) -> int:
    out, manifest, space, profiles, factory, timestamps = _measurement_inputs(args)
    stage1_path = out / "stage1.json"
    if not stage1_path.exists():
        raise UsageError(f"no stage1.json in {out}")
    candidates = RankedSet.from_json_dict(json.loads(stage1_path.read_text()))
    keep2 = args.keep2 if args.keep2 is not None else manifest.get("keep2", 10)
    log = TrialLog(out / "trials.jsonl")
    ranked = stage2(space, candidates, profiles, factory, keep2, log=log, timestamps=timestamps)
    _write_json(out / "stage2.json", {d: r.to_json_dict() for d, r in ranked.items()})
    for device, rset in ranked.items():
        top = rset.records[0]
        print(f"{device}: top accuracy/latency {top.fitness_value:.3f} ({top.latency_mean_ms:.3f} ms)")
    return 0


def cmd_stage3(args) -> int:
    out, _, space, profiles, factory, timestamps = _measurement_inputs(args)
    stage2_path = out / "stage2.json"
    if not stage2_path.exists():
        raise UsageError(f"no stage2.json in {out}")
    per_device = {
        d: RankedSet.from_json_dict(r) for d, r in json.loads(stage2_path.read_text()).items()
    }
    log = TrialLog(out / "trials.jsonl")
    winners = stage3(space, per_device, profiles, factory, log=log, timestamps=timestamps)
    _write_json(out / "stage3.json", {d: r.to_json_dict() for d, r in winners.items()})
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
    load_profiles(args.devices)
    for command in (cmd_search, cmd_stage2, cmd_stage3):
        command(args)
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    trials_path = out / "trials.jsonl"
    stage2_path = out / "stage2.json"
    stage3_path = out / "stage3.json"
    for path in (trials_path, stage2_path, stage3_path):
        if not path.exists():
            raise UsageError(f"missing {path.name} in {out}; run the pipeline first")
    records = TrialLog(trials_path).load()
    per_device = {
        d: RankedSet.from_json_dict(r)
        for d, r in json.loads(stage2_path.read_text()).items()
    }
    winners = {
        d: TrialRecord.from_json_dict(r) for d, r in json.loads(stage3_path.read_text()).items()
    }

    measured = [r for r in records if r.stage >= 2]
    by_device: dict[str, list] = {}
    for record in measured:
        by_device.setdefault(record.device, []).append(record)
    summary = summary_table(dict(sorted(by_device.items())))
    best_latency = {device: rset.records[0] for device, rset in per_device.items()}
    claims = ratio_sheet_from_tables()
    stage3_records = [r for r in records if r.stage == 3]
    front = pareto_front(stage3_records)
    tables = load_paper_tables()

    write_summary_csv(summary, out / "summary.csv")
    write_best_models_csv(best_latency, winners, out / "best_models.csv")
    write_ratios_json(claims, out / "ratios.json")
    write_pareto_json(front, out / "pareto.json")
    markdown = render_markdown(tables, summary, best_latency, winners, claims)
    (out / "report.md").write_text(markdown)

    if args.format == "md":
        print(markdown)
    elif args.format == "csv":
        print((out / "summary.csv").read_text(), end="")
    else:
        print((out / "ratios.json").read_text(), end="")
    return 0


def cmd_fit_profile(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.observations:
        if not args.precision:
            raise UsageError("--precision is required with --observations")
        data = json.loads(Path(args.observations).read_text())
        observations = [
            FitObservation(
                arch=build_architecture(Configuration.from_json_dict(entry["config"])),
                latency_ms=float(entry["latency_ms"]),
                dynamic_power_w=entry.get("dynamic_power_w"),
                label=entry.get("label", ""),
            )
            for entry in data
        ]
        profile = fit_profile(
            observations,
            precision=Precision(args.precision),
            name=args.device,
            accuracy_delta_pct=args.delta,
        )
    else:
        profile = fit_device_profile(args.device)
    path = out / f"{args.device}.json"
    save_profile(profile, path)
    residuals = profile.fit_residuals or {}
    worst = max(
        (abs(v) for v in residuals.get("latency_ms", {}).values()), default=0.0
    )
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
        if args.command in ("search", "pipeline") and args.config:
            # A --config file supplies defaults; parsing again lets every
            # explicit flag override them.
            defaults = _run_config_defaults(args.config)
            parser.commands[args.command].set_defaults(
                **{k: v for k, v in defaults.items() if hasattr(args, k)}
            )
            args = parser.parse_args(argv)
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
