"""The run directory: each file's name, its parse and the command that
writes it, and the run settings that ``manifest.json`` and ``--config`` hold."""

from dataclasses import asdict
from pathlib import Path

from ._data import read_json, typed, write_json
from .pipeline import RankedSet, TrialLog, TrialRecord
from .space import space_from_dict
from .tpe import OptimizerSettings

# Each run setting: its key in manifest.json or a --config file (a key
# "jitter.NAME" nests under "jitter"), its flag destination and its type.
# "space" is a path from the working directory and is only read; a run
# writes "space_file", its own space.json, which resolves against the
# file's directory. "timestamps" is the negation of --no-timestamps.
SETTINGS = (
    ("space", "space", str),
    ("space_file", "space", str),
    ("seed", "seed", int),
    ("budget", "budget", int),
    ("keep1", "keep1", int),
    ("evaluator", "evaluator", str),
    ("optimizer", "optimizer_settings", dict),
    ("timestamps", "no_timestamps", bool),
    ("keep2", "keep2", int),
    ("devices_dir", "devices", str),
    ("warmup_runs", "warmup_runs", int),
    ("jitter.latency_sigma_ms", "latency_jitter", float),
    ("jitter.power_sigma_w", "power_jitter", float),
)


def settings(data, base) -> dict:
    """The run settings in a manifest or --config file's ``data``, keyed by
    flag destination; ``base`` is the file's directory. A wrong type is a
    TypeError naming the key, and keys that are no setting, or an
    optimizer setting out of range, are a ValueError naming them."""
    typed(data, dict, "run settings")
    keys = {key for key, _, _ in SETTINGS}
    groups = {key.rpartition(".")[0] for key in keys} - {""}
    unknown = [key for key in data if key not in keys | groups]
    for group in groups:
        if isinstance(data.get(group), dict):  # a wrong type is refused below
            unknown += [f"{group}.{name}" for name in data[group] if f"{group}.{name}" not in keys]
    if unknown:
        raise ValueError(f"unknown run settings: {', '.join(unknown)}")
    values = {}
    for key, dest, kind in SETTINGS:
        group, _, name = key.rpartition(".")
        section = typed(data.get(group, {}), dict, group) if group else data
        if name in section:
            values[dest] = typed(section[name], kind, key)
    if "optimizer_settings" in values:
        optimizer, defaults = values["optimizer_settings"], asdict(OptimizerSettings())
        for name in optimizer:
            if name in defaults:
                typed(optimizer[name], type(defaults[name]), f"optimizer.{name}")
        OptimizerSettings.from_dict(optimizer)  # unknown keys and out-of-range values
    if "space_file" in data:
        values["space"] = str(Path(base, data["space_file"]))
    if "timestamps" in data:
        values["no_timestamps"] = not data["timestamps"]
    return values


def manifest(values: dict) -> dict:
    """The manifest of a run whose flag destinations hold ``values``: each
    setting the writing command has, with the run's own space file."""
    data = {}
    for key, dest, _ in SETTINGS:
        if dest in values and key != "space":
            value = values[dest]
            if key == "space_file":
                value = FILES["space"][0]
            elif key == "timestamps":
                value = not value
            group, _, name = key.rpartition(".")
            (data.setdefault(group, {}) if group else data)[name] = value
    return data


def _manifest(data) -> dict:
    settings(data, ".")
    if "seed" not in data:
        raise KeyError("seed")  # a run's manifest always names its seed
    return data


def _per_device(parse):
    return lambda data: {device: parse(item) for device, item in data.items()}


# key: (file name, parse of its JSON or None for the JSON-lines trial log, writing command)
FILES = {
    "manifest": ("manifest.json", _manifest, "search"),
    "space": ("space.json", space_from_dict, "search"),
    "trials": ("trials.jsonl", None, "search"),
    "stage1": ("stage1.json", RankedSet.from_json_dict, "search"),
    "stage2": ("stage2.json", _per_device(RankedSet.from_json_dict), "stage2"),
    "stage3": ("stage3.json", _per_device(TrialRecord.from_json_dict), "stage3"),
}


def path(out, key: str) -> Path:
    return Path(out) / FILES[key][0]


def read(out, key: str):
    """A missing file is a FileNotFoundError naming the command that
    writes it; a bad one is ``read_json``'s ValueError naming the file.
    The trial log is a generator of its records, checked as they are
    read, so a bad line raises its ValueError while it is consumed."""
    name, parse, command = FILES[key]
    if not path(out, key).exists():
        raise FileNotFoundError(f"missing {name} in {out}; run {command} or pipeline first")
    if parse is None:
        return TrialLog(path(out, key)).records()
    return read_json(path(out, key), parse)


def write(out, key: str, value) -> None:
    """Stages 2 and 3 are per-device maps; the manifest is a plain dict."""
    if key in ("stage2", "stage3"):
        value = {device: item.to_json_dict() for device, item in value.items()}
    elif key != "manifest":
        value = value.to_json_dict()
    write_json(path(out, key), value)
