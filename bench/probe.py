"""Set-up probe: from a fresh interpreter to a program ready to run.

    python3 bench/probe.py surrogate|stub

Imports `edgenas.cli`, loads the Table-1 space, the shipped profiles and
the evaluator (the surrogate, or the NDJSON stub evaluator over its
channel) under a speed probe (speed.py), then prints one JSON line and
exits: the import time in reference seconds, the probe's scale and the
time the probe itself took.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from speed import SpeedProbe  # noqa: E402

with SpeedProbe() as probe:
    import edgenas.cli  # noqa: E402,F401

    import_s = time.perf_counter() - start
    import_handler_s = probe.handler_s

    from edgenas._data import PROFILES_DIR, TABLE1_SPACE_PATH  # noqa: E402
    from edgenas.devices import load_profiles  # noqa: E402
    from edgenas.evaluators import ExternalEvaluator, SurrogateEvaluator  # noqa: E402
    from edgenas.protocol import JsonLineChannel  # noqa: E402
    from edgenas.space import space_from_json  # noqa: E402

    space = space_from_json(TABLE1_SPACE_PATH)
    profiles = load_profiles(PROFILES_DIR)
    if sys.argv[1] == "stub":
        evaluator = ExternalEvaluator(
            JsonLineChannel([sys.executable, str(HERE / "stubs" / "evaluator.py")])
        )
    else:
        evaluator = SurrogateEvaluator(space)
print(json.dumps({
    "import_s": (import_s - import_handler_s) * probe.scale(),
    "scale": probe.scale(),
    "handler_s": probe.handler_s,
}), flush=True)
if sys.argv[1] == "stub":
    evaluator.close()
