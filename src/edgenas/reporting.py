"""Report generation: per-device summary statistics, best-model tables,
the paper's claim catalog evaluated on the paper and on a run, and the
prior-model comparison. `edgenas report` writes them as summary.csv,
best_models.csv, ratios.json and report.md.

The published reference cells and the claim catalog ship as data
(data/paper_tables.json). One evaluator, `evaluate_claims`, resolves each
claim's two cell references against a source and applies its op. It
reads the published tables, so the paper column needs no search, and
the tables of a finished run built in the same shape by `run_source`.
Both columns are judged against the published value with the same
+/-0.05 tolerance, since the claims are recomputed from 2-decimal cells;
a run value is reported as it is, never forced to pass. One Jetson
speedup claim is inconsistent with its own source cells and carries a
discrepancy note instead of a forced pass.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import astuple, dataclass
from pathlib import Path

from ._data import PAPER_TABLES_PATH, read_json, write_json, write_text
from .devices import mean_std
from .pipeline import FitnessKind, TrialRecord, fitness

RATIO_TOLERANCE = 0.05


def load_paper_tables() -> dict:
    return read_json(PAPER_TABLES_PATH)


@dataclass(frozen=True)
class DeviceSummaryRow:
    device: str
    n_models: int
    accuracy_mean: float | None = None
    accuracy_std: float | None = None
    latency_mean_ms: float | None = None
    latency_std_ms: float | None = None
    power_mean_w: float | None = None
    power_std_w: float | None = None


def summary_table(records: Iterable[TrialRecord]) -> list[DeviceSummaryRow]:
    """Per-device mean/std over each device's models, in device-name order.

    ``records``, of stages 2 and 3, is read once and none is kept: each
    is merged into its device's slot for its configuration as it arrives
    (a power-stage record refines, not duplicates, its latency-stage
    record), so each model contributes one value per metric, in the
    order its configuration was first seen.
    """
    merged: dict[str, dict[str, dict]] = {}
    for record in records:
        slots = merged.setdefault(record.device, {})
        slot = slots.setdefault(record.config.canonical_json(), {})
        slot["accuracy"], slot["latency"] = record.accuracy_pct, record.latency_mean_ms
        if record.dynamic_power_w is not None:
            slot["power"] = record.dynamic_power_w

    def stats(slots: dict[str, dict], key: str) -> tuple[float | None, float | None]:
        values = [slot[key] for slot in slots.values() if key in slot]
        if not values:
            return None, None
        return mean_std(values)

    return [
        DeviceSummaryRow(
            device,
            len(slots),
            *stats(slots, "accuracy"),
            *stats(slots, "latency"),
            *stats(slots, "power"),
        )
        for device, slots in sorted(merged.items())
    ]


_OPS = {
    "ratio": lambda a, b: a / b,
    "difference": lambda a, b: a - b,
    "fraction": lambda a, b: (a - b) / a,
}


@dataclass(frozen=True)
class Claim:
    """One catalog claim, evaluated on the published tables (``computed``)
    and on a run (``run``); each passes within ``tolerance`` of
    ``expected`` and is None (unavailable) when an input is missing."""

    label: str
    op: str
    a: list
    b: list
    expected: float
    computed: float | None
    run: float | None = None
    note: str | None = None
    tolerance: float = RATIO_TOLERANCE

    def _verdict(self, value: float | None) -> bool | None:
        return None if value is None else abs(value - self.expected) <= self.tolerance

    @property
    def passed(self) -> bool | None:
        return self._verdict(self.computed)

    @property
    def run_passed(self) -> bool | None:
        return self._verdict(self.run)

    def to_json_dict(self) -> dict:
        out = {
            "label": self.label,
            "op": self.op,
            "a": self.a,
            "b": self.b,
            "expected": self.expected,
            "computed": self.computed,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "run": self.run,
            "run_pass": self.run_passed,
        }
        if self.note:
            out["note"] = self.note
        return out


def _lookup(source: dict, ref: list[str]) -> float | None:
    """The cell ``[table, device or model, field]`` of a source; None when
    the source has no such row or the cell holds no value."""
    table, name, field = ref
    rows = source
    for key in table.split("."):
        rows = rows[key]
    row = next((r for r in rows if name in (r.get("device"), r.get("model"))), None)
    if row is None:
        return None
    if field == "pdp":
        return fitness(
            row["accuracy_pct"], row["latency_ms"], row["power_w"], FitnessKind.ACCURACY_PER_PDP
        )
    for key in field.split("."):
        row = row[key]
    return row


def _evaluate(spec: dict, source: dict) -> float | None:
    a, b = _lookup(source, spec["a"]), _lookup(source, spec["b"])
    return None if a is None or b is None else _OPS[spec["op"]](a, b)


def evaluate_claims(tables: dict | None = None, run: dict | None = None) -> list[Claim]:
    """The catalog in ``tables["claims"]`` evaluated on the published
    cells and, when given, on a run source of the same shape
    (`run_source`). A claim whose inputs are missing is marked
    unavailable, never dropped."""
    tables = tables or load_paper_tables()
    claims = []
    for spec in tables["claims"]:
        computed = _evaluate(spec, tables)
        note = spec.get("note")
        if computed is None:
            note = (note + "; " if note else "") + "unavailable: missing input"
        run_value = None if run is None else _evaluate(spec, run)
        claims.append(
            Claim(
                spec["label"], spec["op"], spec["a"], spec["b"], spec["expected"], computed,
                run_value, note,
            )
        )
    return claims


def run_source(
    tables: dict,
    summary: list[DeviceSummaryRow],
    best_latency: dict[str, TrialRecord],
    winners: dict[str, TrialRecord],
) -> dict:
    """A run in the published tables' shape: table2 from the per-device
    summary, table3 from the stage-2 best models and the stage-3 winners,
    and table4 as the published prior rows plus "ours", the stage-3
    winner with the highest accuracy/PDP."""

    def model(record: TrialRecord, **key) -> dict:
        return {
            **key,
            "accuracy_pct": record.accuracy_pct,
            "latency_ms": record.latency_mean_ms,
            "power_w": record.dynamic_power_w,
        }

    table4 = [entry for entry in tables["table4"] if entry["model"] != "ours"]
    if winners:
        table4.append(model(max(winners.values(), key=lambda r: r.fitness_value), model="ours"))
    return {
        "table2": [
            {
                "device": row.device,
                "accuracy_pct": {"ave": row.accuracy_mean, "std": row.accuracy_std},
                "latency_ms": {"ave": row.latency_mean_ms, "std": row.latency_std_ms},
                "power_w": {"ave": row.power_mean_w, "std": row.power_std_w},
            }
            for row in summary
        ],
        "table3": {
            "accuracy_per_latency": [model(r, device=d) for d, r in best_latency.items()],
            "accuracy_per_pdp": [model(r, device=d) for d, r in winners.items()],
        },
        "table4": table4,
    }


def comparison_table(entries: list[tuple[str, float, float, float]]) -> list[dict]:
    """Appends accuracy/(power*latency) per (label, accuracy, latency, power) row."""
    return [
        {
            "model": label,
            "accuracy_pct": accuracy,
            "latency_ms": latency,
            "power_w": power,
            "accuracy_per_pdp": fitness(accuracy, latency, power, FitnessKind.ACCURACY_PER_PDP),
        }
        for label, accuracy, latency, power in entries
    ]


# ---------------------------------------------------------------------------
# emissions


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buffer.getvalue())


def write_summary_csv(rows: list[DeviceSummaryRow], path: str | Path) -> None:
    header = [
        "device", "n_models", "accuracy_mean_pct", "accuracy_std_pct",
        "latency_mean_ms", "latency_std_ms", "power_mean_w", "power_std_w",
    ]
    _write_csv(path, header, (astuple(row) for row in rows))


def write_best_models_csv(
    best_latency: dict[str, TrialRecord], winners: dict[str, TrialRecord], path: str | Path
) -> None:
    header = [
        "device", "fitness_kind", "fitness_value", "accuracy_pct",
        "latency_mean_ms", "latency_std_ms", "dynamic_power_w", "config",
    ]
    rows = (
        [device, r.fitness_kind.value, r.fitness_value, r.accuracy_pct, r.latency_mean_ms,
         r.latency_std_ms, r.dynamic_power_w, r.config.canonical_json()]
        for group in (best_latency, winners)
        for device, r in sorted(group.items())
    )
    _write_csv(path, header, rows)


def write_ratios_json(claims: list[Claim], path: str | Path) -> None:
    write_json(path, {"claims": [c.to_json_dict() for c in claims]})


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}"


def render_markdown(
    tables: dict,
    summary: list[DeviceSummaryRow],
    best_latency: dict[str, TrialRecord],
    winners: dict[str, TrialRecord],
    claims: list[Claim],
) -> str:
    """Human-readable combined report (2-decimal rendering lives here only)."""
    lines: list[str] = ["# Search report", ""]

    lines += ["## Per-device averages (this run)", ""]
    lines += [
        "| Device | Models | Accuracy % (mean/std) | Latency ms (mean/std) | Power W (mean/std) |",
        "|---|---|---|---|---|",
    ]
    for row in summary:
        lines.append(
            f"| {row.device} | {row.n_models} "
            f"| {_fmt(row.accuracy_mean)} / {_fmt(row.accuracy_std, 3)} "
            f"| {_fmt(row.latency_mean_ms)} / {_fmt(row.latency_std_ms, 3)} "
            f"| {_fmt(row.power_mean_w)} / {_fmt(row.power_std_w, 3)} |"
        )
    lines.append("")

    def best_table(title: str, group: dict[str, TrialRecord]) -> None:
        lines.extend([f"## {title}", ""])
        lines.append("| Device | Accuracy % | Latency ms | Power W | Fitness | Config |")
        lines.append("|---|---|---|---|---|---|")
        for device in sorted(group):
            record = group[device]
            lines.append(
                f"| {device} | {_fmt(record.accuracy_pct)} | {_fmt(record.latency_mean_ms)} "
                f"| {_fmt(record.dynamic_power_w)} | {_fmt(record.fitness_value)} "
                f"| `{record.config.canonical_json()}` |"
            )
        lines.append("")

    best_table("Best models by accuracy/latency (this run)", best_latency)
    best_table("Best models by accuracy/PDP (this run)", winners)

    lines += ["## Published reference averages", ""]
    lines += [
        "| Device | Accuracy % (ave/std) | Latency ms (ave/std) | Power W (ave/std) |",
        "|---|---|---|---|",
    ]
    for entry in tables["table2"]:
        lines.append(
            f"| {entry['label']} "
            f"| {entry['accuracy_pct']['ave']} / {entry['accuracy_pct']['std']} "
            f"| {entry['latency_ms']['ave']} / {entry['latency_ms']['std']} "
            f"| {entry['power_w']['ave']} / {entry['power_w']['std']} |"
        )
    lines.append("")

    lines += ["## Prior-model comparison", ""]
    lines += ["| Model | Accuracy % | Latency ms | Power W | Accuracy/PDP |", "|---|---|---|---|---|"]
    for row in comparison_table(
        [
            (e["model"], e["accuracy_pct"], e["latency_ms"], e["power_w"])
            for e in tables["table4"]
        ]
    ):
        lines.append(
            f"| {row['model']} | {_fmt(row['accuracy_pct'])} | {_fmt(row['latency_ms'])} "
            f"| {_fmt(row['power_w'])} | {_fmt(row['accuracy_per_pdp'])} |"
        )
    lines.append("")

    lines += ["## Ratio claims (published cells and this run)", ""]
    lines += [
        "| Claim | Expected | Paper | Pass | Run | Run pass | Note |",
        "|---|---|---|---|---|---|---|",
    ]
    status = {True: "pass", False: "FAIL", None: "unavailable"}
    for claim in claims:
        lines.append(
            f"| {claim.label} | {_fmt(claim.expected)} | {_fmt(claim.computed)} "
            f"| {status[claim.passed]} | {_fmt(claim.run)} | {status[claim.run_passed]} "
            f"| {claim.note or ''} |"
        )
    lines.append("")
    return "\n".join(lines)
