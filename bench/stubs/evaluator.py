"""NDJSON evaluator stub: the accuracy is a closed-form function of the
configuration, so a checker can recompute every answer.

Run as `python3 evaluator.py`; it answers one {"id", "cmd": "evaluate",
"config"} request per line until stdin closes.
"""

import json
import sys


def accuracy(config):
    h = (
        31 * config["block"]
        + 17 * config["k1"]
        + 13 * config["k2"]
        + 11 * config.get("k3", 0)
        + 7 * config.get("k4", 0)
        + 5 * config["fc1"]
        + 3 * config["do1_hundredths"]
        + 2 * config["fc2"]
        + config["do2_hundredths"]
    ) % 1000
    return 90.0 + h / 100.0


for line in sys.stdin:
    if not line.strip():
        continue
    request = json.loads(line)
    sys.stdout.write(
        json.dumps({"id": request["id"], "accuracy_pct": accuracy(request["config"])}) + "\n"
    )
    sys.stdout.flush()
