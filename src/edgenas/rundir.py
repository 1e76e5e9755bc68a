"""The run directory: each file's name, its parse and the command that writes it."""

from pathlib import Path

from ._data import read_json, write_json
from .pipeline import RankedSet, TrialLog, TrialRecord
from .space import space_from_dict


def _per_device(parse):
    return lambda data: {device: parse(item) for device, item in data.items()}


# key: (file name, parse of its JSON or None for the JSON-lines trial log, writing command)
FILES = {
    "manifest": ("manifest.json", lambda data: {**data, "seed": int(data["seed"])}, "search"),
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
    writes it; a bad one is ``read_json``'s ValueError naming the file."""
    name, parse, command = FILES[key]
    if not path(out, key).exists():
        raise FileNotFoundError(f"missing {name} in {out}; run {command} or pipeline first")
    return TrialLog(path(out, key)).load() if parse is None else read_json(path(out, key), parse)


def write(out, key: str, value) -> None:
    """Stages 2 and 3 are per-device maps; the manifest is a plain dict."""
    if key in ("stage2", "stage3"):
        value = {device: item.to_json_dict() for device, item in value.items()}
    elif key != "manifest":
        value = value.to_json_dict()
    write_json(path(out, key), value)
