"""Locations of packaged data files, the package's one JSON reader and its
one file writer.

Each file written here is streamed into a temporary file beside its
final name and then renamed over it. ``write_json`` hands each chunk
of the indented encoding to that file as the encoder yields it, so no
copy of the whole text is ever held in memory; its bytes are those of
``json.dumps(payload, indent=2) + "\\n"``."""

import json
import os
from pathlib import Path
from typing import Callable, TextIO

DATA_DIR = Path(__file__).resolve().parent / "data"
TABLE1_SPACE_PATH = DATA_DIR / "table1_space.json"
PAPER_TABLES_PATH = DATA_DIR / "paper_tables.json"
PROFILES_DIR = DATA_DIR / "profiles"


def read_json(path: str | Path, parse: Callable = lambda data: data):
    """A JSON input file's content, passed through ``parse``; an error in
    either (bad JSON, a missing key, a wrong type), or a path that names a
    directory or cannot be read, names the file. A missing file raises
    FileNotFoundError."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


def _replace(path: str | Path, write: Callable[[TextIO], object]) -> None:
    """Run ``write`` on a temporary file beside ``path`` and rename it over
    ``path``, so a write that fails or dies partway leaves the previous
    file whole and no temporary file behind. Line endings are written as
    given."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("w", newline="") as handle:
            write(handle)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    _replace(path, lambda handle: handle.write(text))


def write_json(path: str | Path, payload) -> None:
    def dump(handle: TextIO) -> None:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    _replace(path, dump)
