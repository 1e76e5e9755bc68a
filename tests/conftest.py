import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from edgenas._data import PROFILES_DIR
from edgenas.devices import load_profiles
from edgenas.space import Configuration, ParamSpec, build_space, table1_space

MOCK_EVALUATOR = Path(__file__).parent / "mock_evaluator.py"
MOCK_DEVICE = Path(__file__).parent / "mock_device.py"


def traced_peak(call) -> int:
    """The peak of memory traced while ``call`` runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def table1():
    return table1_space()


@pytest.fixture(scope="session")
def toy8_space():
    # 8 configurations: 2 blocks x {k1 in 6,8} x (k3 in 36,40,44 when block=3)
    return build_space(
        [
            ParamSpec("block", 2, 3, 1),
            ParamSpec("k1", 6, 8, 2),
            ParamSpec("k2", 24, 24, 4),
            ParamSpec("k3", 36, 44, 4),
            ParamSpec("k4", 52, 52, 4),
            ParamSpec("fc1", 100, 100, 5),
            ParamSpec("do1", 10, 10, 1),
            ParamSpec("fc2", 80, 80, 5),
            ParamSpec("do2", 10, 10, 1),
        ]
    )


@pytest.fixture(scope="session")
def single_point_space():
    return build_space(
        [
            ParamSpec("block", 2, 2, 1),
            ParamSpec("k1", 6, 6, 2),
            ParamSpec("k2", 24, 24, 4),
            ParamSpec("k3", 36, 36, 4),
            ParamSpec("k4", 52, 52, 4),
            ParamSpec("fc1", 100, 100, 5),
            ParamSpec("do1", 10, 10, 1),
            ParamSpec("fc2", 80, 80, 5),
            ParamSpec("do2", 10, 10, 1),
        ]
    )


@pytest.fixture(scope="session")
def reduced_space():
    # 1,458 configurations; small enough for fast end-to-end runs
    return build_space(
        [
            ParamSpec("block", 2, 3, 1),
            ParamSpec("k1", 6, 10, 2),
            ParamSpec("k2", 24, 32, 4),
            ParamSpec("k3", 36, 40, 4),
            ParamSpec("k4", 52, 52, 4),
            ParamSpec("fc1", 100, 110, 5),
            ParamSpec("do1", 10, 12, 1),
            ParamSpec("fc2", 80, 85, 5),
            ParamSpec("do2", 10, 12, 1),
        ]
    )


@pytest.fixture(scope="session")
def pi_best():
    return Configuration(block=2, k1=16, k2=24, fc1=100, do1=20, fc2=80, do2=14)


@pytest.fixture(scope="session")
def shipped_profiles():
    return dict(sorted(load_profiles(PROFILES_DIR).items()))
