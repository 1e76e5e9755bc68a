"""Device profiles, latency/power cost models, and the measurement protocols.

Latency is a two-throughput roofline: a fixed overhead, conv and FC MAC
terms with separate throughputs, and a per-weighted-layer term (depth is
a first-order latency factor on these accelerators). Dynamic power is
affine in the achieved kMAC/ms rate. Profiles are calibration artifacts:
both models are fitted by non-negative least squares, solved with the
active-set method of Lawson and Hanson, and every shipped profile embeds
the residuals of the fit that produced it.

Measurement statistics follow the reference protocols: 40 timed runs per
model reduced to mean and sample standard deviation, and 1 Hz power
traces over 180 s windows reduced to mean(active) - mean(idle). There is
one reduction, over the last axis of a (pairs x samples) array: sums run
left to right and deviations are squared by multiplication, so seeded
results depend neither on the Python version nor on the C library's
pow().

Every device backend speaks one protocol: a ``block_pairs`` constant,
``expect_latency(pairs, runs)`` and ``expect_power(pairs, window_s,
sample_hz)`` to hear the (config, arch) pairs the next blocks hold, and
``latency_block(pairs, runs)`` and ``power_block(pairs, window_s,
sample_hz)`` to measure up to ``block_pairs`` of them at once as
(pairs x samples) arrays. A simulated device measures BLOCK_PAIRS
announced pairs at once. A real device's block is one pair, one
request: each reply is reduced, and its record logged, as it arrives,
and the fallback that measures a failed block again pair by pair never
sends a device a request twice.

A simulated device's jitter comes from one stream per (device, config)
pair: ``np.random.default_rng([seed, crc32(device), crc32(config JSON),
salt])``, salt 1 for latency and 2 for power. A block's streams are
seeded in one pass, numpy's SeedSequence mix run over all its keys at
once and one PCG64 re-seeded in place per pair, and they equal
``default_rng``'s per-pair streams.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from dataclasses import asdict, dataclass, replace
from functools import cache
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._data import read_json, typed, write_json
from .architecture import ArchitectureDescriptor
from .evaluators import Precision
from .protocol import ChannelTimeout, JsonLineChannel, ProtocolError, number
from .space import Configuration

NEGATIVE_POWER_TOLERANCE_W = 0.05
_MAX_THROUGHPUT = 1e15  # stand-in for "term fitted to zero", keeps models finite
# Not identifiable from dynamic power (it cancels in the trace
# subtraction); the nominal baseline of synthesized traces.
IDLE_W = 2.0
# The reference protocols of the module docstring.
LATENCY_RUNS = 40
POWER_WINDOW_S = 180
POWER_SAMPLE_HZ = 1
# Announced pairs a simulated device measures at once: bounds the sample
# matrices (64 x 45 latency samples is 23 KB).
BLOCK_PAIRS = 64

# A (device, candidate) pair as a device measures it.
Pair = tuple[Configuration, ArchitectureDescriptor]


class MeasurementError(RuntimeError):
    """A measurement or its reduction violated the protocol."""


class FitError(ValueError):
    """Profile fitting got a degenerate or insufficient design."""


@dataclass(frozen=True)
class LatencyModel:
    fixed_ms: float
    conv_macs_per_ms: float
    fc_macs_per_ms: float
    per_layer_ms: float

    def __post_init__(self):
        values = (self.fixed_ms, self.conv_macs_per_ms, self.fc_macs_per_ms, self.per_layer_ms)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("latency model coefficients must be finite")
        if self.conv_macs_per_ms <= 0 or self.fc_macs_per_ms <= 0:
            raise ValueError("throughputs must be strictly positive")
        if self.fixed_ms < 0 or self.per_layer_ms < 0:
            raise ValueError("fixed_ms and per_layer_ms must be >= 0")


@dataclass(frozen=True)
class PowerModel:
    idle_w: float
    alpha_w: float
    beta_w_per_kmacs_per_ms: float

    def __post_init__(self):
        values = (self.idle_w, self.alpha_w, self.beta_w_per_kmacs_per_ms)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ValueError("power model coefficients must be finite and >= 0")


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    precision: Precision
    latency_model: LatencyModel
    power_model: PowerModel
    accuracy_delta_pct: float = 0.0
    fit_residuals: dict | None = None

    def __post_init__(self):
        if self.accuracy_delta_pct < 0 or not math.isfinite(self.accuracy_delta_pct):
            raise ValueError("accuracy_delta_pct must be finite and >= 0")

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["precision"] = self.precision.value
        if self.fit_residuals is None:
            del out["fit_residuals"]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeviceProfile":
        """Each value checked by ``typed``, a coefficient keyed as
        "latency_model.fixed_ms"; the dataclasses check the ranges."""

        def coefficients(model: str) -> dict:
            terms = typed(data[model], dict, model)
            return {name: typed(value, float, f"{model}.{name}") for name, value in terms.items()}

        return cls(
            name=typed(data["name"], str, "name"),
            precision=Precision(typed(data["precision"], str, "precision")),
            latency_model=LatencyModel(**coefficients("latency_model")),
            power_model=PowerModel(**coefficients("power_model")),
            accuracy_delta_pct=typed(data.get("accuracy_delta_pct", 0.0), float, "accuracy_delta_pct"),
            fit_residuals=data.get("fit_residuals"),
        )


def save_profile(profile: DeviceProfile, path: str | Path) -> None:
    write_json(path, profile.to_json_dict())


def load_profile(path: str | Path) -> DeviceProfile:
    return read_json(path, DeviceProfile.from_json_dict)


def load_profiles(directory: str | Path) -> dict[str, DeviceProfile]:
    """Every profile in ``directory`` by name; two files with one name are
    refused, naming both."""
    profiles, paths = {}, {}
    for path in sorted(Path(directory).glob("*.json")):
        profile = load_profile(path)
        if profile.name in paths:
            raise ValueError(f"{paths[profile.name]} and {path} both name device {profile.name!r}")
        profiles[profile.name], paths[profile.name] = profile, path
    if not profiles:
        raise FileNotFoundError(f"no device profiles (*.json) in {directory}")
    return profiles


@dataclass(frozen=True)
class MeasurementProtocol:
    warmup_runs: int = 0


@dataclass(frozen=True)
class JitterSpec:
    latency_sigma_ms: float = 0.0
    power_sigma_w: float = 0.0


def _row_stats(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of a 2-D array: whether every sample is finite, the
    arithmetic mean and the sample (n-1) standard deviation, std 0 for
    n=1. A row of equal values gives its first value and std 0 exactly
    and is not summed, so a broadcast block costs no sample matrix."""
    n = samples.shape[-1]
    if n == 0:
        raise MeasurementError("no samples")
    lo, hi = samples.min(axis=-1), samples.max(axis=-1)
    finite = np.isfinite(lo) & np.isfinite(hi)
    varying = lo != hi
    every_row = varying.all()
    rows = samples if every_row else samples[varying]
    # Left-to-right sums (np.add.accumulate, not the pairwise np.sum),
    # squares by multiplication (correctly rounded, where pow() may not
    # be), and Python's float semantics on overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.accumulate(rows, axis=-1)[:, -1] / n
        d = rows - mean[:, None]
        std = np.sqrt(np.add.accumulate(d * d, axis=-1)[:, -1] / (n - 1))
    if every_row:
        return finite, mean, std
    means, stds = samples[:, 0].copy(), np.zeros(len(samples))
    means[varying], stds[varying] = mean, std
    return finite, means, stds


def _latency_rows(samples: np.ndarray) -> list:
    """Each row's latency (mean, std), or the MeasurementError that
    excludes it: a non-finite sample, a mean or std that overflows, or a
    non-positive mean."""
    n = samples.shape[-1]
    if n < 2:
        raise MeasurementError(f"need >= 2 latency samples, got {n}")
    finite, means, stds = _row_stats(samples)
    results: list = []
    for ok, mean, std in zip(finite.tolist(), means.tolist(), stds.tolist()):
        if not ok:
            results.append(MeasurementError("non-finite latency sample"))
        elif not (math.isfinite(mean) and math.isfinite(std)):
            results.append(MeasurementError("non-finite latency mean or std"))
        elif mean <= 0.0:
            results.append(MeasurementError(f"non-positive mean latency {mean} ms"))
        else:
            results.append((mean, std))
    return results


def _power_rows(idle_w: np.ndarray, active_w: np.ndarray) -> list:
    """Each row's mean(active) - mean(idle), or the MeasurementError that
    excludes it: tiny negatives clamp to 0, larger ones indicate an
    inconsistent sensor, as does a non-finite sample or difference."""
    if not idle_w.shape[-1] or not active_w.shape[-1]:
        raise MeasurementError("empty power trace")
    idle_ok, idle_means, _ = _row_stats(idle_w)
    active_ok, active_means, _ = _row_stats(active_w)
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = active_means - idle_means
    results: list = []
    for idle_finite, active_finite, diff in zip(
        idle_ok.tolist(), active_ok.tolist(), diffs.tolist()
    ):
        if not idle_finite:
            results.append(MeasurementError("non-finite idle power sample"))
        elif not active_finite:
            results.append(MeasurementError("non-finite active power sample"))
        elif not math.isfinite(diff):
            results.append(MeasurementError("non-finite dynamic power"))
        elif diff < -NEGATIVE_POWER_TOLERANCE_W:
            results.append(MeasurementError(f"negative dynamic power {diff:.2f} W"))
        else:
            results.append(max(diff, 0.0))
    return results


def mean_std(samples: list[float]) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation; std 0 for n=1."""
    _, means, stds = _row_stats(np.asarray(samples, dtype=float).reshape(1, -1))
    return means.item(), stds.item()


def simulate_latency(arch: ArchitectureDescriptor, profile: DeviceProfile) -> float:
    m = profile.latency_model
    return (
        m.fixed_ms
        + arch.conv_macs / m.conv_macs_per_ms
        + arch.fc_macs / m.fc_macs_per_ms
        + arch.weighted_layer_count * m.per_layer_ms
    )


def simulate_dynamic_power(
    arch: ArchitectureDescriptor, profile: DeviceProfile, latency_ms: float
) -> float:
    if latency_ms <= 0:
        raise MeasurementError(f"non-positive latency {latency_ms} ms")
    m = profile.power_model
    kmacs_per_ms = arch.total_macs / latency_ms / 1000.0
    return m.alpha_w + m.beta_w_per_kmacs_per_ms * kmacs_per_ms


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding, as
# numpy/random/bit_generator.pyx and pcg64.h define them.
_MASK_32, _MASK_128 = (1 << 32) - 1, (1 << 128) - 1
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@cache
def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of a stream of ``calls`` hashes, in order: hash i
    xors with init * mult**i and multiplies by init * mult**(i+1)."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK_32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _entropy_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: 32-bit words, least
    significant first, [0] for 0."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK_32]
    while value := value >> 32:
        words.append(value & _MASK_32)
    return words


def _seeded_streams(keys: np.ndarray):
    """For each row of a (pairs x words) uint32 array of entropy words,
    the stream of ``np.random.default_rng(row)``, drawn from one
    Generator: each yielded generator is valid only until the next one is
    drawn. SeedSequence's mix runs over all rows at once, and one PCG64 is
    re-seeded in place per row through its ``state`` setter."""
    pairs, words = keys.shape
    # Hashes 0-3 take the first 4 words (0 past the last), 4-15 cross-mix
    # the pool, and 4 * w to 4 * w + 3 mix word w >= 4 into each pool word.
    xor, mul = _hash_constants(_INIT_A, _MULT_A, 4 * max(words, 4))
    pool = np.zeros((pairs, 4), dtype=np.uint32)
    pool[:, : min(words, 4)] = keys[:, :4]
    pool = _hashmix(pool, xor[:4], mul[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashes = slice(4 + 3 * src, 7 + 3 * src)
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], xor[hashes], mul[hashes]))
    for src in range(4, words):
        hashes = slice(4 * src, 4 * src + 4)
        pool = _mix(pool, _hashmix(keys[:, src, None], xor[hashes], mul[hashes]))
    # generate_state(4, uint64): 8 words hashed from the pool in turn.
    state = _hashmix(np.tile(pool, 2), *_hash_constants(_INIT_B, _MULT_B, 8))
    state = state.astype("<u4").view("<u8")
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for state_hi, state_lo, seq_hi, seq_lo in state.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK_128
        pcg = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK_128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": pcg, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield generator


def _clamp_at_zero(samples: np.ndarray) -> np.ndarray:
    # max(x, 0.0) element by element. np.maximum would turn -0.0 into
    # +0.0, where max keeps -0.0.
    return np.where(samples < 0.0, 0.0, samples)


class SimulatedDevice:
    """Synthesizes raw samples from the cost models, one row per (config,
    arch) pair, for a block of pairs at once. Noiseless unless a jitter
    spec is given, and then a noiseless block is a broadcast view with no
    sample matrix behind it. Jitter is seeded per device and
    configuration, so results are independent of measurement order and of
    the block a pair is measured in: a block's streams are seeded in one
    pass and equal each pair's own ``default_rng`` stream (module
    docstring)."""

    block_pairs = BLOCK_PAIRS

    def __init__(self, profile: DeviceProfile, jitter: JitterSpec | None = None, seed: int = 0):
        self.profile = profile
        self.jitter = jitter or JitterSpec()
        self.seed = seed

    def expect_latency(self, pairs: Sequence[Pair], runs: int) -> None:
        pass

    def expect_power(self, pairs: Sequence[Pair], window_s: int, sample_hz: int) -> None:
        pass

    def _rngs(self, pairs: Sequence[Pair], salt: int):
        """Each pair's stream of ``np.random.default_rng([seed,
        crc32(device), crc32(config JSON), salt])``, seeded for the whole
        block in one pass. Each generator is valid only until the next one
        is drawn, so a block consumes them in order."""
        head = [*_entropy_words(self.seed), zlib.crc32(self.profile.name.encode())]
        keys = [[*head, zlib.crc32(config.canonical_json().encode()), salt] for config, _ in pairs]
        return _seeded_streams(np.array(keys, dtype=np.uint32))

    def latency_block(self, pairs: Sequence[Pair], runs: int) -> np.ndarray:
        """The pairs' latency samples, (pairs x runs)."""
        base = np.array([simulate_latency(arch, self.profile) for _, arch in pairs])[:, None]
        shape = (len(pairs), runs)
        sigma = self.jitter.latency_sigma_ms
        if not sigma:
            return np.broadcast_to(base, shape)
        noise = np.empty(shape)
        for row, rng in zip(noise, self._rngs(pairs, 1)):
            row[:] = rng.normal(0.0, sigma, size=runs)
        return _clamp_at_zero(base + noise)

    def power_block(
        self, pairs: Sequence[Pair], window_s: int, sample_hz: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pairs' idle and active power traces, (pairs x samples) each."""
        profile = self.profile
        idle = profile.power_model.idle_w
        levels = [
            idle + simulate_dynamic_power(arch, profile, simulate_latency(arch, profile))
            for _, arch in pairs
        ]
        active = np.array(levels)[:, None]
        shape = (len(pairs), window_s * sample_hz)
        sigma = self.jitter.power_sigma_w
        if not sigma:
            return np.broadcast_to(idle, shape), np.broadcast_to(active, shape)
        idle_noise, active_noise = np.empty(shape), np.empty(shape)
        for idle_row, active_row, rng in zip(idle_noise, active_noise, self._rngs(pairs, 2)):
            idle_row[:] = rng.normal(0.0, sigma, size=shape[1])
            active_row[:] = rng.normal(0.0, sigma, size=shape[1])
        return _clamp_at_zero(idle + idle_noise), _clamp_at_zero(active + active_noise)


def _latency_request(config: Configuration, runs: int) -> dict:
    return {"cmd": "measure_latency", "config": config.to_json_dict(), "runs": runs}


def _power_request(config: Configuration, window_s: int, sample_hz: int) -> dict:
    return {
        "cmd": "measure_power",
        "config": config.to_json_dict(),
        "window_s": window_s,
        "sample_hz": sample_hz,
    }


def _numbers(values: list, field: str) -> np.ndarray:
    """A reply's JSON numbers as a (1 x n) row of floats; the first value
    that is not one fails as ``number`` fails it."""
    if not {type(value) for value in values} <= {float, int}:
        for value in values:
            number(value, field)
    return np.array([values], dtype=float)


class ExternalDevice:
    """Requests raw samples from a measurement process over the wire.

    {"id": N, "cmd": "measure_latency", "config": {...}, "runs": 40}
        -> {"id": N, "latency_ms": [... 40 numbers ...]}
    {"id": N, "cmd": "measure_power", "config": {...}, "window_s": 180, "sample_hz": 1}
        -> {"id": N, "idle_w": [...], "active_w": [...]}

    The idle and active power windows run one after the other: a device
    cannot idle and run the model at once, so each power measurement
    takes at least 2 * window_s of device time (360 s at POWER_WINDOW_S).
    A block is one pair, one request; the announced pairs' requests go
    ahead on the channel.
    """

    block_pairs = 1

    def __init__(self, channel: JsonLineChannel):
        self.channel = channel

    def expect_latency(self, pairs: Sequence[Pair], runs: int) -> None:
        self.channel.expect(_latency_request(config, runs) for config, _ in pairs)

    def expect_power(self, pairs: Sequence[Pair], window_s: int, sample_hz: int) -> None:
        self.channel.expect(_power_request(config, window_s, sample_hz) for config, _ in pairs)

    def _request(self, message: dict) -> dict:
        """The device's reply. An error reply fails only this measurement.
        A timeout fails this measurement, and may fail the requests behind
        it too: each request's clock starts when the channel starts waiting
        for it, while the child may still be busy with the stalled one, so
        they can expire in its queue until it catches up. The channel drops
        the late reply, so a request that is answered reads its own. ROADMAP
        item 16 is to make a stalled reply cost one request."""
        try:
            response = self.channel.request(message)
        except ChannelTimeout as exc:
            raise MeasurementError(str(exc)) from exc
        if "error" in response:
            raise MeasurementError(f"device reported: {response['error']}")
        return response

    def latency_block(self, pairs: Sequence[Pair], runs: int) -> np.ndarray:
        ((config, _),) = pairs
        response = self._request(_latency_request(config, runs))
        samples = response.get("latency_ms")
        if not isinstance(samples, list):
            raise ProtocolError(f"response missing latency_ms list: {response!r}")
        if len(samples) != runs:
            raise MeasurementError(f"expected {runs} latency runs, got {len(samples)}")
        return _numbers(samples, "latency_ms")

    def power_block(
        self, pairs: Sequence[Pair], window_s: int, sample_hz: int
    ) -> tuple[np.ndarray, np.ndarray]:
        ((config, _),) = pairs
        response = self._request(_power_request(config, window_s, sample_hz))
        idle, active = response.get("idle_w"), response.get("active_w")
        if not isinstance(idle, list) or not isinstance(active, list):
            raise ProtocolError(f"response missing idle_w/active_w traces: {response!r}")
        expected = window_s * sample_hz
        for label, trace in (("idle_w", idle), ("active_w", active)):
            if len(trace) != expected:
                raise MeasurementError(
                    f"expected {expected} {label} samples, got {len(trace)}"
                )
        return _numbers(idle, "idle_w"), _numbers(active, "active_w")

    def close(self) -> None:
        self.channel.close()


class DeviceMeasurer:
    """Stage-facing wrapper over a backend of the module docstring's
    protocol: latency and power are separate calls so the cheap
    measurement can run without the expensive one. The announced pairs
    are measured ``backend.block_pairs`` at a time, and the calls hand out
    their results in announcement order. A block's raw samples are
    reduced by one reduction (``_row_stats``) over the last axis. A real
    device's block is one pair, so each of its replies is reduced, and
    its record logged, before the next is read."""

    def __init__(self, backend, protocol: MeasurementProtocol | None = None):
        self.backend = backend
        self.protocol = protocol or MeasurementProtocol()
        self._runs = LATENCY_RUNS + self.protocol.warmup_runs
        self._measurement: str | None = None  # of the announcement, if any
        self._announced: deque[Pair] = deque()  # not yet handed out, in order
        self._ready: deque = deque()  # results of the first announced pairs

    def expect(self, measurement: str, pairs: Iterable[Pair]) -> None:
        """Announce the (config, arch) pairs the next ``measurement`` calls
        ("latency" or "power") ask for, in order, to this measurer and to
        the backend. A call for any other pair drops the announcement."""
        pairs = list(pairs)
        self._ready.clear()
        self._measurement, self._announced = measurement, deque(pairs)
        if measurement == "latency":
            self.backend.expect_latency(pairs, self._runs)
        else:
            self.backend.expect_power(pairs, POWER_WINDOW_S, POWER_SAMPLE_HZ)

    def latency(self, config: Configuration, arch: ArchitectureDescriptor) -> tuple[float, float]:
        return self._measured("latency", config, arch)

    def power(self, config: Configuration, arch: ArchitectureDescriptor) -> float:
        return self._measured("power", config, arch)

    def _measured(self, measurement: str, config: Configuration, arch: ArchitectureDescriptor):
        # A block is measured only for a call that asks for its first pair.
        announced = self._announced
        if measurement == self._measurement and announced and announced[0][0] == config:
            if not self._ready:
                block = list(islice(announced, self.backend.block_pairs))
                self._ready.extend(self._results(measurement, block))
            announced.popleft()
            result = self._ready.popleft()
        else:
            self._measurement = None
            announced.clear()
            self._ready.clear()
            result = self._results(measurement, [(config, arch)])[0]
        if isinstance(result, MeasurementError):
            raise result
        return result

    def _results(self, measurement: str, pairs: list[Pair]) -> list:
        """Each pair's result, or the MeasurementError that excludes it. A
        block of several pairs whose samples cannot be made or reduced as
        a whole is measured again pair by pair, so the error stays with
        its pair."""
        if not pairs:
            return []
        try:
            if measurement == "latency":
                samples = self.backend.latency_block(pairs, self._runs)
                return _latency_rows(samples[:, self.protocol.warmup_runs :])
            return _power_rows(*self.backend.power_block(pairs, POWER_WINDOW_S, POWER_SAMPLE_HZ))
        except MeasurementError as exc:
            if len(pairs) == 1:
                return [exc]
            return [self._results(measurement, [pair])[0] for pair in pairs]


@dataclass(frozen=True)
class FitObservation:
    arch: ArchitectureDescriptor
    latency_ms: float
    dynamic_power_w: float | None = None
    label: str = ""


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a x - b| subject to x >= 0, by the active-set method of
    Lawson and Hanson (Solving Least Squares Problems, 1974, ch. 23)."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise FitError("non-finite value in the fit's design or target")
    m, n = a.shape
    tol = 10 * max(m, n) * np.finfo(float).eps
    norm_a = np.linalg.norm(a)
    x = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        # The rate at which raising each coefficient would lower the
        # residual, and that rate's rounding error: below it, a column adds nothing.
        gain = a.T @ (b - a @ x)
        noise = tol * norm_a * (np.linalg.norm(b) + norm_a * np.linalg.norm(x))
        if free.all() or not (gain[~free] > noise).any():
            return x
        free[np.argmax(np.where(free, -np.inf, gain))] = True
        while True:
            z = np.zeros(n)
            z[free] = np.linalg.lstsq(a[:, free], b, rcond=None)[0]
            if (z[free] > 0).all():
                break
            # Step from x toward z until the first free coefficient reaches 0, and bind it.
            bound = np.flatnonzero(free & (z <= 0))
            steps = x[bound] / (x[bound] - z[bound])
            x += steps.min() * (z - x)
            free[bound[np.argmin(steps)]] = False
            free &= x > tol
        x = z
    raise FitError(f"non-negative least squares did not converge in {3 * n} steps")


def _scaled_nnls(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    scales = np.max(np.abs(design), axis=0)
    scales[scales == 0] = 1.0
    return _nnls(design / scales, target) / scales


def fit_profile(
    observations: list[FitObservation],
    precision: Precision,
    name: str,
    accuracy_delta_pct: float = 0.0,
) -> DeviceProfile:
    """Non-negative least-squares calibration of both cost models.

    Latency regresses on (1, conv MACs, fc MACs, weighted layers); power
    regresses on (1, kMAC/ms at the observed latency) over the
    observations that carry power. The idle power is IDLE_W.
    """
    if len(observations) < 2:
        raise FitError(f"need >= 2 observations, got {len(observations)}")
    mac_totals = {obs.arch.total_macs for obs in observations}
    if len(mac_totals) < 2:
        raise FitError("rank-deficient design: observations share one MAC total")

    design = np.array(
        [
            [1.0, obs.arch.conv_macs, obs.arch.fc_macs, obs.arch.weighted_layer_count]
            for obs in observations
        ]
    )
    target = np.array([obs.latency_ms for obs in observations])
    fixed, *inverse_throughputs, per_layer = _scaled_nnls(design, target)
    conv, fc = (
        float(1.0 / inverse) if inverse > 1.0 / _MAX_THROUGHPUT else _MAX_THROUGHPUT
        for inverse in inverse_throughputs
    )
    latency_model = LatencyModel(
        fixed_ms=float(fixed), conv_macs_per_ms=conv, fc_macs_per_ms=fc, per_layer_ms=float(per_layer)
    )

    powered = [obs for obs in observations if obs.dynamic_power_w is not None]
    if not powered:
        raise FitError("no observations carry dynamic power")
    power_design = np.array(
        [[1.0, obs.arch.total_macs / obs.latency_ms / 1000.0] for obs in powered]
    )
    power_target = np.array([obs.dynamic_power_w for obs in powered], dtype=float)
    alpha, beta = _scaled_nnls(power_design, power_target)
    power_model = PowerModel(
        idle_w=IDLE_W, alpha_w=float(alpha), beta_w_per_kmacs_per_ms=float(beta)
    )

    def _label(i: int, obs: FitObservation) -> str:
        return obs.label or f"observation_{i}"

    profile = DeviceProfile(
        name=name,
        precision=precision,
        latency_model=latency_model,
        power_model=power_model,
        accuracy_delta_pct=accuracy_delta_pct,
    )
    latency_residuals = {
        _label(i, obs): simulate_latency(obs.arch, profile) - obs.latency_ms
        for i, obs in enumerate(observations)
    }
    power_residuals = {
        _label(i, obs): simulate_dynamic_power(obs.arch, profile, obs.latency_ms)
        - obs.dynamic_power_w
        for i, obs in enumerate(observations)
        if obs.dynamic_power_w is not None
    }
    residuals = {"latency_ms": latency_residuals, "power_w": power_residuals}
    return replace(profile, fit_residuals=residuals)
