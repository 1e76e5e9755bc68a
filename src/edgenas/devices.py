"""Device profiles, latency/power cost models, and the measurement protocols.

Latency is a two-throughput roofline: a fixed overhead, conv and FC MAC
terms with separate throughputs, and a per-weighted-layer term (depth is
a first-order latency factor on these accelerators). Dynamic power is
affine in the achieved kMAC/ms rate. Profiles are calibration artifacts:
every shipped profile embeds the residuals of the fit that produced it.

Measurement statistics follow the reference protocols: 40 timed runs per
model reduced to mean and sample standard deviation, and 1 Hz power
traces over 180 s windows reduced to mean(active) - mean(idle).
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import nnls

from .architecture import ArchitectureDescriptor
from .evaluators import Precision
from .protocol import JsonLineChannel, ProtocolError
from .space import Configuration

NEGATIVE_POWER_TOLERANCE_W = 0.05
_MAX_THROUGHPUT = 1e15  # stand-in for "term fitted to zero", keeps models finite


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
        out = {
            "name": self.name,
            "precision": self.precision.value,
            "latency_model": {
                "fixed_ms": self.latency_model.fixed_ms,
                "conv_macs_per_ms": self.latency_model.conv_macs_per_ms,
                "fc_macs_per_ms": self.latency_model.fc_macs_per_ms,
                "per_layer_ms": self.latency_model.per_layer_ms,
            },
            "power_model": {
                "idle_w": self.power_model.idle_w,
                "alpha_w": self.power_model.alpha_w,
                "beta_w_per_kmacs_per_ms": self.power_model.beta_w_per_kmacs_per_ms,
            },
            "accuracy_delta_pct": self.accuracy_delta_pct,
        }
        if self.fit_residuals is not None:
            out["fit_residuals"] = self.fit_residuals
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "DeviceProfile":
        return cls(
            name=data["name"],
            precision=Precision(data["precision"]),
            latency_model=LatencyModel(**data["latency_model"]),
            power_model=PowerModel(**data["power_model"]),
            accuracy_delta_pct=float(data.get("accuracy_delta_pct", 0.0)),
            fit_residuals=data.get("fit_residuals"),
        )


def save_profile(profile: DeviceProfile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(profile.to_json_dict(), indent=2) + "\n")


def load_profile(path: str | Path) -> DeviceProfile:
    return DeviceProfile.from_json_dict(json.loads(Path(path).read_text()))


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
    latency_runs: int = 40
    warmup_runs: int = 0
    power_window_s: int = 180
    power_sample_hz: int = 1

    @property
    def power_samples(self) -> int:
        return self.power_window_s * self.power_sample_hz


@dataclass(frozen=True)
class JitterSpec:
    latency_sigma_ms: float = 0.0
    power_sigma_w: float = 0.0

    @property
    def enabled(self) -> bool:
        return self.latency_sigma_ms > 0 or self.power_sigma_w > 0


def mean_std(samples: list[float]) -> tuple[float, float]:
    """Arithmetic mean and sample (n-1) standard deviation; std 0 for n=1."""
    n = len(samples)
    if n == 0:
        raise MeasurementError("no samples")
    if min(samples) == max(samples):
        return samples[0], 0.0  # exact, avoids accumulation noise
    mean = sum(samples) / n
    if n == 1:
        return mean, 0.0
    var = sum((s - mean) ** 2 for s in samples) / (n - 1)
    return mean, math.sqrt(var)


def latency_stats(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        raise MeasurementError(f"need >= 2 latency samples, got {len(samples)}")
    return mean_std(samples)


def dynamic_power_from_traces(idle_w: list[float], active_w: list[float]) -> float:
    """mean(active) - mean(idle); tiny negatives clamp to 0, larger ones
    indicate an inconsistent sensor and raise."""
    if not idle_w or not active_w:
        raise MeasurementError("empty power trace")
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
    return np.random.default_rng(
        [seed, zlib.crc32(device.encode()), zlib.crc32(config.canonical_json().encode()), salt]
    )


class SimulatedDevice:
    """Synthesizes raw samples from the cost models (noiseless unless a
    jitter spec is given; jitter is seeded per device and configuration,
    so results are independent of measurement order)."""

    def __init__(self, profile: DeviceProfile, jitter: JitterSpec | None = None, seed: int = 0):
        self.profile = profile
        self.jitter = jitter or JitterSpec()
        self.seed = seed

    def latency_samples(
        self, config: Configuration, arch: ArchitectureDescriptor, runs: int
    ) -> list[float]:
        base = simulate_latency(arch, self.profile)
        if not self.jitter.latency_sigma_ms:
            return [base] * runs
        rng = _jitter_rng(self.seed, self.profile.name, config, 1)
        noise = rng.normal(0.0, self.jitter.latency_sigma_ms, size=runs)
        return [max(base + float(n), 0.0) for n in noise]

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
        return (
            [max(idle + float(x), 0.0) for x in idle_noise],
            [max(active + float(x), 0.0) for x in active_noise],
        )


class ExternalDevice:
    """Requests raw samples from a measurement process over the wire.

    {"id": N, "cmd": "measure_latency", "config": {...}, "runs": 40}
        -> {"id": N, "latency_ms": [... 40 numbers ...]}
    {"id": N, "cmd": "measure_power", "config": {...}, "window_s": 180, "sample_hz": 1}
        -> {"id": N, "idle_w": [...], "active_w": [...]}
    """

    def __init__(self, channel: JsonLineChannel, timeout_s: float | None = None):
        self.channel = channel
        self.timeout_s = timeout_s

    def latency_samples(
        self, config: Configuration, arch: ArchitectureDescriptor, runs: int
    ) -> list[float]:
        response = self.channel.request(
            {"cmd": "measure_latency", "config": config.to_json_dict(), "runs": runs},
            timeout_s=self.timeout_s,
        )
        if "error" in response:
            raise MeasurementError(f"device reported: {response['error']}")
        samples = response.get("latency_ms")
        if not isinstance(samples, list):
            raise ProtocolError(f"response missing latency_ms list: {response!r}")
        if len(samples) != runs:
            raise MeasurementError(f"expected {runs} latency runs, got {len(samples)}")
        return [float(s) for s in samples]

    def power_traces(
        self,
        config: Configuration,
        arch: ArchitectureDescriptor,
        window_s: int,
        sample_hz: int,
    ) -> tuple[list[float], list[float]]:
        response = self.channel.request(
            {
                "cmd": "measure_power",
                "config": config.to_json_dict(),
                "window_s": window_s,
                "sample_hz": sample_hz,
            },
            timeout_s=self.timeout_s,
        )
        if "error" in response:
            raise MeasurementError(f"device reported: {response['error']}")
        idle, active = response.get("idle_w"), response.get("active_w")
        if not isinstance(idle, list) or not isinstance(active, list):
            raise ProtocolError(f"response missing idle_w/active_w traces: {response!r}")
        expected = window_s * sample_hz
        for label, trace in (("idle_w", idle), ("active_w", active)):
            if len(trace) != expected:
                raise MeasurementError(
                    f"expected {expected} {label} samples, got {len(trace)}"
                )
        return [float(s) for s in idle], [float(s) for s in active]

    def close(self) -> None:
        self.channel.close()


class DeviceMeasurer:
    """Stage-facing wrapper: latency and power are separate calls so the
    cheap measurement can run without the expensive one."""

    def __init__(self, backend, protocol: MeasurementProtocol | None = None):
        self.backend = backend
        self.protocol = protocol or MeasurementProtocol()

    def latency(self, config: Configuration, arch: ArchitectureDescriptor) -> tuple[float, float]:
        total = self.protocol.latency_runs + self.protocol.warmup_runs
        samples = self.backend.latency_samples(config, arch, total)
        return latency_stats(samples[self.protocol.warmup_runs :])

    def power(self, config: Configuration, arch: ArchitectureDescriptor) -> float:
        idle, active = self.backend.power_traces(
            config, arch, self.protocol.power_window_s, self.protocol.power_sample_hz
        )
        return dynamic_power_from_traces(idle, active)


@dataclass(frozen=True)
class FitObservation:
    arch: ArchitectureDescriptor
    latency_ms: float
    dynamic_power_w: float | None = None
    label: str = ""


def _scaled_nnls(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    scales = np.max(np.abs(design), axis=0)
    scales[scales == 0] = 1.0
    coeffs, _ = nnls(design / scales, target)
    return coeffs / scales


def fit_profile(
    observations: list[FitObservation],
    precision: Precision,
    name: str,
    accuracy_delta_pct: float = 0.0,
    idle_w: float = 2.0,
) -> DeviceProfile:
    """Non-negative least-squares calibration of both cost models.

    Latency regresses on (1, conv MACs, fc MACs, weighted layers); power
    regresses on (1, kMAC/ms at the observed latency) over the
    observations that carry power. idle_w is not identifiable from
    dynamic power and is taken as given (it cancels in the trace
    subtraction).
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
    fixed, inv_conv, inv_fc, per_layer = _scaled_nnls(design, target)
    latency_model = LatencyModel(
        fixed_ms=float(fixed),
        conv_macs_per_ms=float(1.0 / inv_conv) if inv_conv > 1.0 / _MAX_THROUGHPUT else _MAX_THROUGHPUT,
        fc_macs_per_ms=float(1.0 / inv_fc) if inv_fc > 1.0 / _MAX_THROUGHPUT else _MAX_THROUGHPUT,
        per_layer_ms=float(per_layer),
    )

    powered = [obs for obs in observations if obs.dynamic_power_w is not None]
    if not powered:
        raise FitError("no observations carry dynamic power")
    power_design = np.array(
        [[1.0, obs.arch.total_macs / obs.latency_ms / 1000.0] for obs in powered]
    )
    power_target = np.array([obs.dynamic_power_w for obs in powered])
    alpha, beta = _scaled_nnls(power_design, power_target)
    power_model = PowerModel(
        idle_w=idle_w, alpha_w=float(alpha), beta_w_per_kmacs_per_ms=float(beta)
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
