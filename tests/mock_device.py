#!/usr/bin/env python3
"""NDJSON measurement-device stub. argv[1] selects the behavior."""

import json
import sys

MODE = sys.argv[1] if len(sys.argv) > 1 else "ok"
held = []
# modes that put a JSON value that is not a number into one reply field:
# mode -> (field, value)
NOT_A_NUMBER = {
    "null_latency": ("latency_ms", None),
    "bool_idle": ("idle_w", False),
    "string_active": ("active_w", "4.08"),
}


def spoil(reply):
    """The reply with its mode's field's last value replaced, if it has that field."""
    field, value = NOT_A_NUMBER.get(MODE, (None, None))
    if field in reply:
        reply[field][-1] = value
    return reply


def emit(obj):
    # slow_first holds the reply to request 0 until request 1 has come in,
    # so that reply is late whatever the timeout; otherwise it acts as ok
    if MODE == "slow_first" and obj["id"] == 0:
        held.append(obj)
        return
    for reply in held + [obj]:
        sys.stdout.write(json.dumps(reply) + "\n")
    held.clear()
    sys.stdout.flush()


for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    request = json.loads(line)
    rid = request["id"]
    cmd = request["cmd"]
    if cmd == "measure_latency":
        runs = request["runs"]
        if MODE == "short":
            emit({"id": rid, "latency_ms": [2.35] * (runs - 1)})
        elif MODE == "error":
            emit({"id": rid, "error": "device unreachable"})
        else:
            emit(spoil({"id": rid, "latency_ms": [2.35] * runs}))
    elif cmd == "measure_power":
        n = request["window_s"] * request["sample_hz"]
        if MODE == "negative":
            emit({"id": rid, "idle_w": [2.0] * n, "active_w": [1.8] * n})
        elif MODE == "short_trace":
            emit({"id": rid, "idle_w": [2.0] * (n - 5), "active_w": [4.08] * n})
        else:
            emit(spoil({"id": rid, "idle_w": [2.0] * n, "active_w": [4.08] * n}))
    else:
        emit({"id": rid, "error": f"unknown cmd {cmd}"})
