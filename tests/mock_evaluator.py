#!/usr/bin/env python3
"""NDJSON evaluator stub. argv[1] selects the behavior under test."""

import json
import sys
import time

MODE = sys.argv[1] if len(sys.argv) > 1 else "ok"
held = []
# modes whose accuracy_pct is a JSON value that is not a number
NOT_A_NUMBER = {"bool": True, "numeric_string": "97.5", "string": "abc", "null": None}

if MODE == "grandchild":
    # a grandchild that inherits stdout and holds it open for 1.5 s
    import subprocess

    subprocess.Popen([sys.executable, "-c", "import time; time.sleep(1.5)"], stdin=subprocess.DEVNULL)


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
    if MODE in ("ok", "ignore_eof", "grandchild", "slow_first"):
        emit({"id": rid, "accuracy_pct": 98.98})
    elif MODE == "per_config":
        # deterministic pseudo-accuracy from the configuration contents
        blob = json.dumps(request["config"], sort_keys=True)
        emit({"id": rid, "accuracy_pct": 90.0 + (sum(blob.encode()) % 800) / 100.0})
    elif MODE == "bad_id":
        emit({"id": rid + 1, "accuracy_pct": 98.98})
    elif MODE == "out_of_range":
        emit({"id": rid, "accuracy_pct": 150})
    elif MODE in NOT_A_NUMBER:
        emit({"id": rid, "accuracy_pct": NOT_A_NUMBER[MODE]})
    elif MODE == "error":
        emit({"id": rid, "error": "training diverged"})
    elif MODE == "garbage":
        sys.stdout.write("this is not json\n")
        sys.stdout.flush()
    elif MODE == "not_utf8":
        sys.stdout.buffer.write(b'{"id": %d, "accuracy_pct": 98.98, "note": "\xff"}\n' % rid)
        sys.stdout.flush()
    elif MODE == "silent":
        continue
    elif MODE == "exit":
        sys.exit(3)

if MODE == "ignore_eof":
    time.sleep(60)
