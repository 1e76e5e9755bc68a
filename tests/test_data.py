"""The package's JSON writer: the bytes it writes, what a failed write
leaves, and the memory a write holds."""

import json
import math

import pytest

from edgenas._data import write_json
from edgenas.pipeline import FitnessKind, RankedSet, TrialRecord
from edgenas.space import config_from_index
from conftest import traced_peak


PAYLOADS = {
    "non-ascii": {"device": "Jetson — 15 W", "π": ["é", "日本", "\U0001f600", '\x00\n"\\']},
    "non-finite": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 0.1],
    "empty": [{}, [], "", {"a": {}}, {"b": []}, [[]]],
    "nested": {"a": [1, [2, [3, {"b": None, "c": True, "d": False}]]], "e": {"f": {"g": [{}]}}},
    "non-string-keys": {1: "int", 2.5: "float", True: "bool", None: "null"},
    "empty-object": {},
    "empty-list": [],
    "string": "ü",
    "nan": math.nan,
}


@pytest.mark.parametrize("payload", PAYLOADS.values(), ids=PAYLOADS.keys())
def test_bytes_equal_dumps(tmp_path, payload):
    path = tmp_path / "out.json"
    write_json(path, payload)
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()


CIRCULAR: list = []
CIRCULAR.append(CIRCULAR)


# The long string puts bytes in the temporary file before the encoder fails.
@pytest.mark.parametrize(
    "payload, error",
    [
        ({"a": [1, 2, object()]}, TypeError),
        ({"a": [1, 2, "x" * 100_000, object()]}, TypeError),
        ({"records": [CIRCULAR]}, ValueError),
    ],
    ids=["unencodable", "unencodable-after-100kB", "circular"],
)
def test_payload_that_fails_to_encode_keeps_previous_file(tmp_path, payload, error):
    path = tmp_path / "out.json"
    write_json(path, {"previous": 1})
    with pytest.raises(error):
        write_json(path, payload)
    assert path.read_bytes() == b'{\n  "previous": 1\n}\n'
    assert list(tmp_path.iterdir()) == [path]


def test_stage_file_write_holds_less_than_half_its_size(tmp_path, table1):
    records = [
        TrialRecord(
            config=config_from_index(table1, index), stage=1,
            fitness_kind=FitnessKind.ACCURACY, fitness_value=99.0 + index / 1e4,
            accuracy_pct=99.0 + index / 1e4, seed=1, ts="2026-01-01T00:00:00.000000Z",
        )
        for index in range(1000)
    ]
    payload = RankedSet(fitness=FitnessKind.ACCURACY, records=records, k=1000).to_json_dict()
    path = tmp_path / "stage1.json"
    peak = traced_peak(lambda: write_json(path, payload))
    assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()
    assert peak < 0.5 * path.stat().st_size
