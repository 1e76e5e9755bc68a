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
traces over 180 s windows reduced to mean(active) - mean(idle).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from ._data import read_json, write_json
from .architecture import ArchitectureDescriptor
from .evaluators import Precision
from .protocol import ChannelTimeout, JsonLineChannel, ProtocolError, number
from .space import Configuration, seeded_rng

NEGATIVE_POWER_TOLERANCE_W = 0.05
_MAX_THROUGHPUT = 1e15  # stand-in for "term fitted to zero", keeps models finite
# Not identifiable from dynamic power (it cancels in the trace
# subtraction); the nominal baseline of synthesized traces.
IDLE_W = 2.0
# The reference protocols of the module docstring.
LATENCY_RUNS = 40
POWER_WINDOW_S = 180
POWER_SAMPLE_HZ = 1


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
        return cls(
            name=data["name"],
            precision=Precision(data["precision"]),
            latency_model=LatencyModel(**data["latency_model"]),
            power_model=PowerModel(**data["power_model"]),
            accuracy_delta_pct=_delta_pct(data.get("accuracy_delta_pct", 0.0)),
            fit_residuals=data.get("fit_residuals"),
        )


def _delta_pct(value) -> float:
    """A profile file's accuracy_delta_pct as a float; it must be a JSON
    number, not a bool, and __post_init__ checks its range."""
    if type(value) not in (int, float):
        raise TypeError(f"accuracy_delta_pct must be a JSON number, got {value!r}")
    return float(value)


def save_profile(profile: DeviceProfile, path: str | Path) -> None:
    write_json(path, profile.to_json_dict())


def load_profile(path: str | Path) -> DeviceProfile:
    return read_json(path, DeviceProfile.from_json_dict)


def load_profiles(directory: str | Path) -> dict[str, DeviceProfile]:
    profiles = {}
    for path in sorted(Path(directory).glob("*.json")):
        profile = load_profile(path)
        profiles[profile.name] = profile
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


def mean_std(samples: list[float]) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation; std 0 for n=1."""
    n = len(samples)
    if n == 0:
        raise MeasurementError("no samples")
    if min(samples) == max(samples):
        return samples[0], 0.0  # exact, avoids accumulation noise
    # Plain left-to-right sums: sum() of floats is compensated from Python
    # 3.12 on, which would make seeded outputs depend on the version.
    total = 0.0
    for s in samples:
        total += s
    mean = total / n
    if n == 1:
        return mean, 0.0
    total = 0.0
    for s in samples:
        total += (s - mean) ** 2
    return mean, math.sqrt(total / (n - 1))


def _require_finite(samples: list[float], label: str) -> None:
    if not all(map(math.isfinite, samples)):
        raise MeasurementError(f"non-finite {label} sample")


def latency_stats(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        raise MeasurementError(f"need >= 2 latency samples, got {len(samples)}")
    _require_finite(samples, "latency")
    mean, std = mean_std(samples)
    if mean <= 0.0:
        raise MeasurementError(f"non-positive mean latency {mean} ms")
    return mean, std


def dynamic_power_from_traces(idle_w: list[float], active_w: list[float]) -> float:
    """mean(active) - mean(idle); tiny negatives clamp to 0, larger ones
    indicate an inconsistent sensor and raise, as does a non-finite sample."""
    if not idle_w or not active_w:
        raise MeasurementError("empty power trace")
    _require_finite(idle_w, "idle power")
    _require_finite(active_w, "active power")
    diff = mean_std(active_w)[0] - mean_std(idle_w)[0]
    if diff < -NEGATIVE_POWER_TOLERANCE_W:
        raise MeasurementError(f"negative dynamic power {diff:.2f} W")
    return max(diff, 0.0)


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


def _jitter_rng(seed: int, device: str, config: Configuration, salt: int) -> np.random.Generator:
    return seeded_rng(
        seed, zlib.crc32(device.encode()), zlib.crc32(config.canonical_json().encode()), salt
    )


def _clamp_at_zero(samples: np.ndarray) -> list[float]:
    # max(x, 0.0) element by element, as Python floats. np.maximum would
    # turn -0.0 into +0.0, where max keeps -0.0.
    return np.where(samples < 0.0, 0.0, samples).tolist()


class SimulatedDevice:
    """Synthesizes raw samples from the cost models (noiseless unless a
    jitter spec is given; jitter is seeded per device and configuration,
    so results are independent of measurement order)."""

    def __init__(self, profile: DeviceProfile, jitter: JitterSpec | None = None, seed: int = 0):
        self.profile = profile
        self.jitter = jitter or JitterSpec()
        self.seed = seed

    def expect_latency(self, configs: Iterable[Configuration], runs: int) -> None:
        """Nothing to prepare: samples are synthesized when asked for."""

    def expect_power(self, configs: Iterable[Configuration], window_s: int, sample_hz: int) -> None:
        """Nothing to prepare: traces are synthesized when asked for."""

    def latency_samples(
        self, config: Configuration, arch: ArchitectureDescriptor, runs: int
    ) -> list[float]:
        base = simulate_latency(arch, self.profile)
        if not self.jitter.latency_sigma_ms:
            return [base] * runs
        rng = _jitter_rng(self.seed, self.profile.name, config, 1)
        noise = rng.normal(0.0, self.jitter.latency_sigma_ms, size=runs)
        return _clamp_at_zero(base + noise)

    def power_traces(
        self,
        config: Configuration,
        arch: ArchitectureDescriptor,
        window_s: int,
        sample_hz: int,
    ) -> tuple[list[float], list[float]]:
        n = window_s * sample_hz
        idle = self.profile.power_model.idle_w
        active = idle + simulate_dynamic_power(arch, self.profile, simulate_latency(arch, self.profile))
        if not self.jitter.power_sigma_w:
            return [idle] * n, [active] * n
        rng = _jitter_rng(self.seed, self.profile.name, config, 2)
        idle_noise = rng.normal(0.0, self.jitter.power_sigma_w, size=n)
        active_noise = rng.normal(0.0, self.jitter.power_sigma_w, size=n)
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


class ExternalDevice:
    """Requests raw samples from a measurement process over the wire.

    {"id": N, "cmd": "measure_latency", "config": {...}, "runs": 40}
        -> {"id": N, "latency_ms": [... 40 numbers ...]}
    {"id": N, "cmd": "measure_power", "config": {...}, "window_s": 180, "sample_hz": 1}
        -> {"id": N, "idle_w": [...], "active_w": [...]}

    The idle and active power windows run one after the other: a device
    cannot idle and run the model at once, so each power measurement
    takes at least 2 * window_s of device time (360 s at POWER_WINDOW_S).
    The stages announce their next configs (``expect_latency``,
    ``expect_power``), and the channel sends those requests ahead.
    """

    def __init__(self, channel: JsonLineChannel):
        self.channel = channel

    def expect_latency(self, configs: Iterable[Configuration], runs: int) -> None:
        """Announce the configs the next ``latency_samples`` calls ask for,
        in order, so the channel sends their requests ahead."""
        self.channel.expect(_latency_request(config, runs) for config in configs)

    def expect_power(self, configs: Iterable[Configuration], window_s: int, sample_hz: int) -> None:
        """Announce the configs the next ``power_traces`` calls ask for, in
        order, so the channel sends their requests ahead."""
        self.channel.expect(_power_request(config, window_s, sample_hz) for config in configs)

    def _request(self, message: dict) -> dict:
        """The device's reply. A timeout or an error reply fails only this
        measurement: the channel drops a late reply, so the next request
        reads its own."""
        try:
            response = self.channel.request(message)
        except ChannelTimeout as exc:
            raise MeasurementError(str(exc)) from exc
        if "error" in response:
            raise MeasurementError(f"device reported: {response['error']}")
        return response

    def latency_samples(
        self, config: Configuration, arch: ArchitectureDescriptor, runs: int
    ) -> list[float]:
        response = self._request(_latency_request(config, runs))
        samples = response.get("latency_ms")
        if not isinstance(samples, list):
            raise ProtocolError(f"response missing latency_ms list: {response!r}")
        if len(samples) != runs:
            raise MeasurementError(f"expected {runs} latency runs, got {len(samples)}")
        return [number(s, "latency_ms") for s in samples]

    def power_traces(
        self,
        config: Configuration,
        arch: ArchitectureDescriptor,
        window_s: int,
        sample_hz: int,
    ) -> tuple[list[float], list[float]]:
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
        return [number(s, "idle_w") for s in idle], [number(s, "active_w") for s in active]

    def close(self) -> None:
        self.channel.close()


class DeviceMeasurer:
    """Stage-facing wrapper: latency and power are separate calls so the
    cheap measurement can run without the expensive one."""

    def __init__(self, backend, protocol: MeasurementProtocol | None = None):
        self.backend = backend
        self.protocol = protocol or MeasurementProtocol()

    def expect(self, measurement: str, configs: Iterable[Configuration]) -> None:
        """Announce the configs the next ``measurement`` calls ("latency"
        or "power") ask for, in order. A backend that can start on them
        early (ExternalDevice) does; the calls still come one by one."""
        if measurement == "latency":
            self.backend.expect_latency(configs, LATENCY_RUNS + self.protocol.warmup_runs)
        else:
            self.backend.expect_power(configs, POWER_WINDOW_S, POWER_SAMPLE_HZ)

    def latency(self, config: Configuration, arch: ArchitectureDescriptor) -> tuple[float, float]:
        total = LATENCY_RUNS + self.protocol.warmup_runs
        samples = self.backend.latency_samples(config, arch, total)
        return latency_stats(samples[self.protocol.warmup_runs :])

    def power(self, config: Configuration, arch: ArchitectureDescriptor) -> float:
        idle, active = self.backend.power_traces(config, arch, POWER_WINDOW_S, POWER_SAMPLE_HZ)
        return dynamic_power_from_traces(idle, active)


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
