"""Locations of packaged data files, the package's one JSON reader and its
one file writer."""

import json
import os
from pathlib import Path
from typing import Callable

DATA_DIR = Path(__file__).resolve().parent / "data"
TABLE1_SPACE_PATH = DATA_DIR / "table1_space.json"
PAPER_TABLES_PATH = DATA_DIR / "paper_tables.json"
PROFILES_DIR = DATA_DIR / "profiles"


def read_json(path: str | Path, parse: Callable = lambda data: data):
    """A JSON input file's content, passed through ``parse``; an error in
    either (bad JSON, a missing key, a wrong type) names the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


def write_text(path: str | Path, text: str) -> None:
    """Write a temporary file beside ``path`` and rename it over ``path``,
    so a write that fails or dies partway leaves the previous file whole.
    Line endings are written as given."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_text(text, newline="")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2) + "\n")
