"""NDJSON measurement-device stub whose samples are closed-form
functions of the configuration and the device name.

Run as `python3 device.py DEVICE [SKEW]`. SKEW (default 1) scales every
latency sample; the benchmark's tests set it to 1.01 to plant a device
that is off by 1 %.
"""

import json
import sys
import zlib

DEVICE = sys.argv[1]
SKEW = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
SALT = zlib.crc32(DEVICE.encode())
COLD_RUNS = 2


def latency_samples(config, runs):
    kernels = sum(config.get(k, 0) for k in ("k1", "k2", "k3", "k4"))
    base = (
        0.2
        + 0.25 * config["block"]
        + kernels / 200.0
        + (config["fc1"] + config["fc2"]) / 2000.0
        + 0.05 * (SALT % 7)
    )
    samples = []
    for i in range(runs):
        # Cold runs first, then a +-1 % wobble around the base.
        value = 3.0 * base if i < COLD_RUNS else base * (1.0 + 0.01 * ((i % 3) - 1))
        samples.append(value * SKEW)
    return samples


def dynamic_power(config):
    return 0.3 + 0.01 * config["block"] + (config["fc1"] % 7) / 100.0 + 0.02 * (SALT % 5)


for line in sys.stdin:
    if not line.strip():
        continue
    request = json.loads(line)
    if request["cmd"] == "measure_latency":
        response = {"latency_ms": latency_samples(request["config"], request["runs"])}
    elif request["cmd"] == "measure_power":
        n = request["window_s"] * request["sample_hz"]
        idle = 2.0
        response = {"idle_w": [idle] * n, "active_w": [idle + dynamic_power(request["config"])] * n}
    else:
        response = {"error": f"unknown cmd {request['cmd']}"}
    response["id"] = request["id"]
    sys.stdout.write(json.dumps(response) + "\n")
    sys.stdout.flush()
