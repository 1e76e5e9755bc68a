#!/usr/bin/env python3
"""NDJSON measurement-device stub. argv[1] selects the behavior."""

import json
import os
import select
import sys
import time
import zlib

MODE = sys.argv[1] if len(sys.argv) > 1 else "ok"
# How long slow_first holds its reply to request 0: past a 0.2-s timeout
# even for a child that starts at once, and within the next request's
# 0.2 s for one that takes up to about 0.15 s to start.
SLOW_FIRST_HOLD_S = 0.25
# How long slow_third holds its reply to request 2, counted from its reply
# to request 1: past a 0.2-s timeout, and within the next request's 0.2 s.
SLOW_THIRD_HOLD_S = 0.3
# modes that put a JSON value that is not a number into one reply field:
# mode -> (field, value)
NOT_A_NUMBER = {
    "null_latency": ("latency_ms", None),
    "bool_idle": ("idle_w", False),
    "string_active": ("active_w", "4.08"),
}
# modes whose latency samples and active power depend on the
# configuration, so a test can tell whose reply each pair got
PER_CONFIG = ("per_config", "peek", "error_third", "slow_third", "garbage_third", "big")
pending = b""  # what has been read from stdin past the current request


def spoil(reply):
    """The reply with its mode's field's last value replaced, if it has that field."""
    field, value = NOT_A_NUMBER.get(MODE, (None, None))
    if field in reply:
        reply[field][-1] = value
    return reply


def latency_ms(config):
    """One latency sample: 2.35 ms, or in a PER_CONFIG mode 1 ms plus the
    CRC of the configuration's key-sorted JSON, modulo 1000, in us. A
    PER_CONFIG mode's dynamic power is as many W."""
    if MODE not in PER_CONFIG:
        return 2.35
    return 1.0 + zlib.crc32(json.dumps(config, sort_keys=True).encode()) % 1000 / 1000


def next_request():
    """The next request line from stdin, or None at its end. It reads
    with os.read, so ``pending`` holds every byte that came in ahead."""
    global pending
    while b"\n" not in pending:
        chunk = os.read(0, 65536)
        if not chunk:
            return None
        pending += chunk
    line, pending = pending.split(b"\n", 1)
    return line


def emit(obj):
    if MODE == "slow_first" and obj["id"] == 0:
        time.sleep(SLOW_FIRST_HOLD_S)
    elif MODE == "slow_third" and obj["id"] == 2:
        time.sleep(SLOW_THIRD_HOLD_S)
    elif MODE == "error_third" and obj["id"] == 2:
        obj = {"id": obj["id"], "error": "device unreachable"}
    elif MODE == "garbage_third" and obj["id"] == 2:
        sys.stdout.write("this is not json\n")
        sys.stdout.flush()
        return
    elif MODE == "peek" and obj["id"] == 0:
        # was request 1 sent before this reply? (in the buffer, or on the
        # pipe within a second)
        if b"\n" not in pending and not select.select([0], [], [], 1.0)[0]:
            obj = {"id": 0, "error": "request 1 was not sent before reply 0"}
    elif MODE == "big":
        obj["pad"] = "x" * 70_000  # each reply more than 64 KiB
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


while (line := next_request()) is not None:
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
            emit(spoil({"id": rid, "latency_ms": [latency_ms(request["config"])] * runs}))
    elif cmd == "measure_power":
        n = request["window_s"] * request["sample_hz"]
        if MODE == "negative":
            emit({"id": rid, "idle_w": [2.0] * n, "active_w": [1.8] * n})
        elif MODE == "short_trace":
            emit({"id": rid, "idle_w": [2.0] * (n - 5), "active_w": [4.08] * n})
        else:
            active = 4.08 if MODE not in PER_CONFIG else 2.0 + latency_ms(request["config"])
            emit(spoil({"id": rid, "idle_w": [2.0] * n, "active_w": [active] * n}))
    else:
        emit({"id": rid, "error": f"unknown cmd {cmd}"})
