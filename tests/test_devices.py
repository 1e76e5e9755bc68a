import math
import sys

import numpy as np
import pytest

import edgenas.devices as devices_module
import oracles
from edgenas.architecture import ArchitectureDescriptor, build_architecture
from edgenas.calibration import fit_device_profile
from edgenas.devices import (
    DeviceMeasurer,
    DeviceProfile,
    ExternalDevice,
    FitError,
    FitObservation,
    JitterSpec,
    LatencyModel,
    MeasurementError,
    MeasurementProtocol,
    PowerModel,
    SimulatedDevice,
    dynamic_power_from_traces,
    fit_profile,
    latency_stats,
    load_profile,
    mean_std,
    save_profile,
    simulate_dynamic_power,
    simulate_latency,
)
from edgenas.evaluators import Precision
from edgenas.protocol import JsonLineChannel, ProtocolError
from edgenas.space import Configuration, cardinality, config_from_index
from conftest import MOCK_DEVICE


def _profile(
    fixed=0.5, conv=2e6, fc=1e5, per_layer=0.05, idle=2.0, alpha=0.3, beta=0.004, name="test"
):
    return DeviceProfile(
        name=name,
        precision=Precision.FP32,
        latency_model=LatencyModel(fixed, conv, fc, per_layer),
        power_model=PowerModel(idle, alpha, beta),
    )


def _empty_arch(pi_best):
    return ArchitectureDescriptor(
        config=pi_best, total_params=0, total_macs=0,
        weighted_layer_count=0, conv_macs=0, fc_macs=0,
    )


def _device_channel(mode="ok"):
    return JsonLineChannel([sys.executable, str(MOCK_DEVICE), mode], timeout_s=10.0)


class TestLatencyModel:
    def test_degenerate_arch_gives_fixed_cost(self, pi_best):
        profile = _profile(fixed=1.25, per_layer=0.0)
        assert simulate_latency(_empty_arch(pi_best), profile) == 1.25

    def test_doubled_throughput_halves_mac_term(self, pi_best):
        arch = build_architecture(pi_best)
        slow = _profile(fixed=0.7, per_layer=0.02)
        fast = _profile(fixed=0.7, conv=4e6, fc=2e5, per_layer=0.02)
        overhead = 0.7 + 7 * 0.02
        assert simulate_latency(arch, fast) - overhead == pytest.approx(
            (simulate_latency(arch, slow) - overhead) / 2
        )

    def test_monotone_in_macs(self, table1):
        profile = _profile()
        rng = np.random.default_rng(3)
        for index in rng.integers(cardinality(table1), size=50):
            config = config_from_index(table1, int(index))
            arch = build_architecture(config)
            grown_cfg = Configuration(
                block=config.block,
                k1=config.k1 + 2,
                k2=config.k2,
                k3=config.k3,
                k4=config.k4,
                fc1=config.fc1,
                do1=config.do1,
                fc2=config.fc2,
                do2=config.do2,
            )
            grown = build_architecture(grown_cfg)
            assert simulate_latency(grown, profile) > simulate_latency(arch, profile)

    def test_latency_at_least_fixed(self, pi_best):
        profile = _profile(fixed=3.0)
        assert simulate_latency(build_architecture(pi_best), profile) >= 3.0

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(0.1, 0.0, 1e5, 0.0)
        with pytest.raises(ValueError):
            LatencyModel(0.1, 1e5, 1e5, -0.1)
        with pytest.raises(ValueError):
            PowerModel(-1.0, 0.1, 0.1)


class TestPowerModel:
    def test_beta_zero_gives_alpha(self, pi_best):
        arch = build_architecture(pi_best)
        profile = _profile(alpha=0.42, beta=0.0)
        assert simulate_dynamic_power(arch, profile, 5.0) == 0.42

    def test_halved_latency_doubles_rate_term(self, pi_best):
        arch = build_architecture(pi_best)
        profile = _profile(alpha=0.1, beta=0.002)
        slow = simulate_dynamic_power(arch, profile, 4.0) - 0.1
        fast = simulate_dynamic_power(arch, profile, 2.0) - 0.1
        assert fast == pytest.approx(2 * slow)

    def test_non_positive_latency_rejected(self, pi_best):
        arch = build_architecture(pi_best)
        with pytest.raises(MeasurementError):
            simulate_dynamic_power(arch, _profile(), 0.0)


def sum_left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


class TestStatistics:
    def test_constant_samples(self):
        assert latency_stats([2.51] * 40) == (pytest.approx(2.51), 0.0)

    def test_two_samples_hand_arithmetic(self):
        mean, std = latency_stats([1.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(math.sqrt(2))

    def test_too_few_samples(self):
        with pytest.raises(MeasurementError, match="2 latency samples"):
            latency_stats([1.0])

    def test_mean_std_sums_left_to_right(self):
        # compensated summation (sum() from Python 3.12 on, math.fsum) rounds
        # this vector differently from a sequential loop
        samples = [0.1] * 10 + [0.3]
        assert math.fsum(samples) != sum_left_to_right(samples)
        mean = sum_left_to_right(samples) / len(samples)
        var = sum_left_to_right([(s - mean) ** 2 for s in samples]) / (len(samples) - 1)
        assert mean_std(samples) == (mean, math.sqrt(var))

    def test_power_subtraction(self):
        assert dynamic_power_from_traces([2.00] * 180, [3.41] * 180) == pytest.approx(1.41)

    def test_equal_traces_give_zero(self):
        assert dynamic_power_from_traces([2.0] * 180, [2.0] * 180) == 0.0

    def test_small_negative_clamps(self):
        assert dynamic_power_from_traces([2.0] * 10, [1.97] * 10) == 0.0

    def test_large_negative_errors(self):
        with pytest.raises(MeasurementError, match=r"negative dynamic power -0\.20 W"):
            dynamic_power_from_traces([2.00] * 180, [1.80] * 180)

    def test_empty_trace_errors(self):
        with pytest.raises(MeasurementError, match="empty power trace"):
            dynamic_power_from_traces([], [2.0])

    @pytest.mark.parametrize(
        "samples",
        [[1.0, math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0], [math.nan] * 40],
    )
    def test_non_finite_latency_sample_errors(self, samples):
        with pytest.raises(MeasurementError, match="non-finite latency sample"):
            latency_stats(samples)

    @pytest.mark.parametrize("samples", [[-1.0, -2.0], [0.0] * 40, [-0.5, 0.5]])
    def test_non_positive_mean_latency_errors(self, samples):
        with pytest.raises(MeasurementError, match="non-positive mean latency"):
            latency_stats(samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_sample_errors(self, bad):
        with pytest.raises(MeasurementError, match="non-finite idle power sample"):
            dynamic_power_from_traces([2.0, bad], [3.0, 3.0])
        with pytest.raises(MeasurementError, match="non-finite active power sample"):
            dynamic_power_from_traces([2.0, 2.0], [bad, 3.0])


def _measure(config, backend, protocol=None):
    """Latency (mean, std) and dynamic power through the stage-facing path."""
    measurer = DeviceMeasurer(backend, protocol)
    arch = build_architecture(config)
    return measurer.latency(config, arch), measurer.power(config, arch)


class RecordingBackend:
    """Canned samples: warm-up runs read 100 ms, timed runs 2.35 ms."""

    def __init__(self, warmup_runs=0):
        self.warmup_runs = warmup_runs
        self.requested_runs = []

    def latency_samples(self, config, arch, runs):
        self.requested_runs.append(runs)
        return [100.0] * self.warmup_runs + [2.35] * (runs - self.warmup_runs)

    def power_traces(self, config, arch, window_s, sample_hz):
        n = window_s * sample_hz
        return [2.0] * n, [4.08] * n


class TestSimulatedMeasurement:
    def test_noiseless_measure(self, pi_best):
        profile = _profile()
        arch = build_architecture(pi_best)
        (mean, std), power = _measure(pi_best, SimulatedDevice(profile))
        assert mean == pytest.approx(simulate_latency(arch, profile))
        assert std == 0.0
        assert power == pytest.approx(
            simulate_dynamic_power(arch, profile, simulate_latency(arch, profile))
        )
        backend = RecordingBackend()
        _measure(pi_best, backend)
        assert backend.requested_runs == [40]

    def test_jitter_is_seeded_and_order_independent(self, pi_best):
        profile = _profile()
        jitter = JitterSpec(latency_sigma_ms=0.05, power_sigma_w=0.01)
        first = _measure(pi_best, SimulatedDevice(profile, jitter, seed=5))
        second = _measure(pi_best, SimulatedDevice(profile, jitter, seed=5))
        assert first == second
        assert first[0][1] > 0.0

    def test_warmup_runs_dropped(self, pi_best):
        backend = RecordingBackend(warmup_runs=5)
        (mean, std), _ = _measure(pi_best, backend, MeasurementProtocol(warmup_runs=5))
        assert backend.requested_runs == [45]
        assert (mean, std) == (2.35, 0.0)


class TestJitterClamp:
    """The array clamp of SimulatedDevice against the per-float reference."""

    CASES = [
        # (fixed latency ms, latency sigma ms, idle W, power sigma W): the
        # last two clamp a large share of the samples at zero
        (0.5, 0.05, 2.0, 0.05),
        (0.05, 0.1, 0.05, 0.1),
        (0.01, 1.0, 0.0, 1.0),
    ]

    @staticmethod
    def _assert_same_floats(got, expected):
        assert all(type(x) is float for x in got)
        assert [(x, math.copysign(1.0, x)) for x in got] == [
            (x, math.copysign(1.0, x)) for x in expected
        ]

    @pytest.mark.parametrize("fixed, latency_sigma, idle, power_sigma", CASES)
    def test_samples_equal_reference(self, table1, fixed, latency_sigma, idle, power_sigma):
        profile = _profile(fixed=fixed, per_layer=0.0, idle=idle, alpha=0.0, beta=1e-6)
        jitter = JitterSpec(latency_sigma_ms=latency_sigma, power_sigma_w=power_sigma)
        clamped = 0
        for seed, index in ((1, 0), (2, 12_345), (3, cardinality(table1) - 1)):
            config = config_from_index(table1, index)
            # no layers: the latency is the fixed term alone
            arch = _empty_arch(config) if fixed < latency_sigma else build_architecture(config)
            device = SimulatedDevice(profile, jitter, seed=seed)
            latency = device.latency_samples(config, arch, 45)
            self._assert_same_floats(
                latency, oracles.simulated_latency_samples(device, config, arch, 45)
            )
            idle_w, active_w = device.power_traces(config, arch, 180, 1)
            ref_idle, ref_active = oracles.simulated_power_traces(device, config, arch, 180, 1)
            self._assert_same_floats(idle_w, ref_idle)
            self._assert_same_floats(active_w, ref_active)
            clamped += (latency + idle_w + active_w).count(0.0)
        if fixed < latency_sigma:
            assert clamped > 100

    def test_negative_zero_kept(self, pi_best, monkeypatch):
        noise = np.array([-0.0, 0.0, -1.0, 1.0, -1e-300, 2.5])

        class StubGenerator:
            def normal(self, loc, scale, size):
                return noise[:size].copy()

        monkeypatch.setattr(devices_module, "_jitter_rng", lambda *args: StubGenerator())
        monkeypatch.setattr(devices_module, "simulate_latency", lambda arch, profile: -0.0)
        monkeypatch.setattr(
            devices_module, "simulate_dynamic_power", lambda arch, profile, latency: -0.0
        )
        profile = _profile(idle=-0.0)
        device = SimulatedDevice(profile, JitterSpec(latency_sigma_ms=1.0, power_sigma_w=1.0))
        arch = _empty_arch(pi_best)
        latency = device.latency_samples(pi_best, arch, 6)
        assert math.copysign(1.0, latency[0]) == -1.0
        self._assert_same_floats(
            latency, oracles.simulated_latency_samples(device, pi_best, arch, 6)
        )
        traces = device.power_traces(pi_best, arch, 6, 1)
        reference = oracles.simulated_power_traces(device, pi_best, arch, 6, 1)
        for got, expected in zip(traces, reference):
            assert math.copysign(1.0, got[0]) == -1.0
            self._assert_same_floats(got, expected)


class TestExternalMeasurement:
    def test_published_ncs2_numbers(self, pi_best):
        with _device_channel("ok") as channel:
            (mean, std), power = _measure(pi_best, ExternalDevice(channel))
        assert mean == pytest.approx(2.35)
        assert std == 0.0
        assert power == pytest.approx(2.08)

    def test_short_latency_response_rejected(self, pi_best):
        with _device_channel("short") as channel:
            with pytest.raises(MeasurementError, match="expected 40 latency runs"):
                _measure(pi_best, ExternalDevice(channel))

    def test_negative_power_rejected(self, pi_best):
        with _device_channel("negative") as channel:
            with pytest.raises(MeasurementError, match="negative dynamic power"):
                _measure(pi_best, ExternalDevice(channel))

    def test_short_power_trace_rejected(self, pi_best):
        with _device_channel("short_trace") as channel:
            with pytest.raises(MeasurementError, match="idle_w samples"):
                _measure(pi_best, ExternalDevice(channel))

    @pytest.mark.parametrize(
        "mode, field",
        [("null_latency", "latency_ms"), ("bool_idle", "idle_w"), ("string_active", "active_w")],
    )
    def test_sample_that_is_not_a_json_number_rejected(self, pi_best, mode, field):
        with _device_channel(mode) as channel:
            with pytest.raises(ProtocolError, match=f"{field} must be a JSON number"):
                _measure(pi_best, ExternalDevice(channel))

    def test_device_error_response(self, pi_best):
        with _device_channel("error") as channel:
            with pytest.raises(MeasurementError, match="device unreachable"):
                _measure(pi_best, ExternalDevice(channel))

    def test_reduction_equivalence_with_simulated_path(self, pi_best):
        # identical raw samples must reduce to identical stats
        canned = _measure(pi_best, RecordingBackend())
        with _device_channel("ok") as channel:
            external = _measure(pi_best, ExternalDevice(channel))
        assert canned == external


class TestFitProfile:
    def _make_archs(self, table1, indices):
        return [build_architecture(config_from_index(table1, i)) for i in indices]

    def test_two_observations_interpolated_exactly(self, table1):
        generator = _profile()
        archs = self._make_archs(table1, [0, 4_000_000])
        observations = [
            FitObservation(
                arch,
                simulate_latency(arch, generator),
                simulate_dynamic_power(arch, generator, simulate_latency(arch, generator)),
                label=f"obs{i}",
            )
            for i, arch in enumerate(archs)
        ]
        fitted = fit_profile(observations, Precision.FP32, "refit")
        for obs in observations:
            assert simulate_latency(obs.arch, fitted) == pytest.approx(
                obs.latency_ms, abs=1e-6
            )
        assert all(
            abs(r) <= 1e-6 for r in fitted.fit_residuals["latency_ms"].values()
        )

    def test_six_observations_recover_coefficients(self, table1):
        generator = _profile()
        # spread across blocks so layers/intercept are not collinear
        configs = [
            Configuration(block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10),
            Configuration(block=2, k1=16, k2=32, fc1=120, do1=30, fc2=100, do2=30),
            Configuration(block=3, k1=10, k2=28, k3=40, fc1=110, do1=20, fc2=90, do2=20),
            Configuration(block=3, k1=14, k2=24, k3=48, fc1=100, do1=15, fc2=95, do2=25),
            Configuration(block=4, k1=8, k2=28, k3=44, k4=56, fc1=115, do1=12, fc2=85, do2=18),
            Configuration(block=4, k1=16, k2=32, k3=36, k4=64, fc1=105, do1=28, fc2=80, do2=11),
        ]
        archs = [build_architecture(c) for c in configs]
        observations = [
            FitObservation(
                arch,
                simulate_latency(arch, generator),
                simulate_dynamic_power(arch, generator, simulate_latency(arch, generator)),
            )
            for arch in archs
        ]
        fitted = fit_profile(observations, Precision.FP32, "refit")
        assert fitted.latency_model.fixed_ms == pytest.approx(0.5, rel=1e-6)
        assert fitted.latency_model.conv_macs_per_ms == pytest.approx(2e6, rel=1e-6)
        assert fitted.latency_model.fc_macs_per_ms == pytest.approx(1e5, rel=1e-6)
        assert fitted.latency_model.per_layer_ms == pytest.approx(0.05, rel=1e-6)
        assert fitted.power_model.alpha_w == pytest.approx(0.3, rel=1e-6)
        assert fitted.power_model.beta_w_per_kmacs_per_ms == pytest.approx(0.004, rel=1e-6)

    def test_identical_mac_totals_rejected(self, pi_best):
        arch = build_architecture(pi_best)
        observations = [
            FitObservation(arch, 2.0, 1.0),
            FitObservation(arch, 3.0, 1.0),
        ]
        with pytest.raises(FitError, match="rank-deficient"):
            fit_profile(observations, Precision.FP32, "x")

    def test_single_observation_rejected(self, pi_best):
        arch = build_architecture(pi_best)
        with pytest.raises(FitError, match=">= 2 observations"):
            fit_profile([FitObservation(arch, 2.0, 1.0)], Precision.FP32, "x")

    def test_no_power_rows_rejected(self, table1):
        archs = self._make_archs(table1, [0, 100])
        observations = [FitObservation(a, 1.0 + i, None) for i, a in enumerate(archs)]
        with pytest.raises(FitError, match="dynamic power"):
            fit_profile(observations, Precision.FP32, "x")

    def test_infeasible_data_reports_residuals(self, table1):
        # latency shrinking as MACs grow cannot be expressed; the fit must
        # surface nonzero residuals rather than fail silently
        archs = self._make_archs(table1, [0, 4_000_000])
        big, small = sorted(archs, key=lambda a: a.total_macs, reverse=True)
        observations = [
            FitObservation(small, 10.0, 1.0),
            FitObservation(big, 1.0, 1.0),
        ]
        fitted = fit_profile(observations, Precision.FP32, "weird")
        residuals = fitted.fit_residuals["latency_ms"].values()
        assert max(abs(r) for r in residuals) > 0.1


class TestNnls:
    @staticmethod
    def _problems():
        # Seeded problems with the shapes calibration meets: fewer rows than
        # columns, duplicate rows (two rows on one configuration) and
        # all-zero columns, besides full-rank ones. Two kinds of target
        # test the method's turns: one fitted exactly by non-negative
        # coefficients, one of them 1e-7 of the rest, which a loose
        # stopping rule would leave at zero; and one that is the sum of
        # the first two columns minus a twist that the third column, their
        # sum plus the twist, carries. The third column is freed first and
        # must be bound again.
        rng = np.random.default_rng(1974)
        for i in range(400):
            m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            a = rng.uniform(0.0, 1.0, size=(m, n)) if i % 2 else rng.normal(size=(m, n))
            if i % 3 == 0:
                a[-1] = a[0]
            if i % 5 == 0:
                a[:, rng.integers(n)] = 0.0
            if i % 4 == 3:
                x = rng.uniform(0.5, 1.5, size=n)
                x[rng.integers(n)] *= 1e-7
                yield a, a @ x
            elif i % 4 == 1 and min(m, n) >= 3:
                twist = 0.2 * rng.normal(size=m)
                a[:, 2] = a[:, 0] + a[:, 1] + twist
                yield a, a[:, 0] + a[:, 1] - 0.5 * twist
            else:
                yield a, rng.normal(size=m) * 10.0 ** rng.uniform(-2, 2)

    def test_matches_brute_force_oracle(self):
        shapes, unique = set(), 0
        for a, b in self._problems():
            x = devices_module._nnls(a, b)
            oracle_x, oracle_residual, oracle_unique = oracles.nnls_oracle(a, b)
            assert (x >= 0).all()
            assert np.linalg.norm(a @ x - b) <= oracle_residual + 1e-9
            # KKT: freeing a coefficient at zero would not lower the
            # residual, and the residual is stationary in every positive one.
            gain = a.T @ (b - a @ x)
            tol = 1e-9 * (1.0 + np.linalg.norm(a) * np.linalg.norm(b))
            assert (gain <= tol).all()
            assert (np.abs(gain[x > 0]) <= tol).all()
            if oracle_unique:
                unique += 1
                np.testing.assert_allclose(x, oracle_x, rtol=1e-7, atol=1e-9)
            shapes.add(a.shape)
        assert len(shapes) == 20
        assert 0 < unique < 400

    def test_stops_after_three_steps_per_column(self, monkeypatch):
        # A least-squares step that always undoes itself: the freed column
        # is bound again at once, so the method would cycle for ever.
        solves = []

        def undoing_lstsq(a, b, rcond=None):
            solves.append(a.shape[1])
            return (-np.ones(a.shape[1]),)

        monkeypatch.setattr(np.linalg, "lstsq", undoing_lstsq)
        with pytest.raises(FitError, match="did not converge in 6 steps"):
            devices_module._nnls(np.eye(2), np.ones(2))
        assert solves == [1, 0] * 6

    def test_non_finite_input_refused(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(FitError, match="non-finite"):
                devices_module._nnls(np.eye(2), np.array([1.0, bad]))


class TestShippedProfiles:
    # Refits that do not reproduce the shipped profile; scipy's nnls did
    # not either. Three calibration points do not pin these fits down:
    # see ROADMAP item 9.
    REFIT_MISMATCHES = {("jetson-low", "latency_model"), ("jetson-high", "power_model")}

    def test_refits_reproduce_shipped_profiles(self, shipped_profiles):
        for device, shipped in shipped_profiles.items():
            refit = fit_device_profile(device)
            for model in ("latency_model", "power_model"):
                pairs = zip(vars(getattr(shipped, model)).values(), vars(getattr(refit, model)).values())
                matches = all(math.isclose(s, r, rel_tol=1e-9, abs_tol=0.0) for s, r in pairs)
                assert matches is ((device, model) not in self.REFIT_MISMATCHES), (device, model)

    def test_six_devices_present(self, shipped_profiles):
        assert sorted(shipped_profiles) == [
            "coral-dev",
            "jetson-high",
            "jetson-low",
            "pi",
            "pi-ncs2",
            "pi-tpu",
        ]

    def test_jetson_modes_share_accuracy_delta(self, shipped_profiles):
        assert (
            shipped_profiles["jetson-low"].accuracy_delta_pct
            == shipped_profiles["jetson-high"].accuracy_delta_pct
        )

    def test_precisions_and_deltas(self, shipped_profiles):
        assert shipped_profiles["pi"].precision == Precision.FP32
        assert shipped_profiles["pi"].accuracy_delta_pct == 0.0
        assert shipped_profiles["pi-ncs2"].precision == Precision.FP16
        assert shipped_profiles["pi-ncs2"].accuracy_delta_pct == pytest.approx(3.43)
        assert shipped_profiles["coral-dev"].precision == Precision.INT8
        assert shipped_profiles["coral-dev"].accuracy_delta_pct == 0.0

    def test_coral_dev_reproduces_best_latency_within_residual(self, shipped_profiles):
        profile = shipped_profiles["coral-dev"]
        best = Configuration(block=2, k1=16, k2=32, fc1=115, do1=21, fc2=85, do2=17)
        predicted = simulate_latency(build_architecture(best), profile)
        residual = abs(
            profile.fit_residuals["latency_ms"]["Table 3, Accuracy/Delay, Coral Dev row"]
        )
        assert abs(predicted - 0.39) <= residual + 1e-9

    def test_pi_tpu_power_near_published_within_residual(self, shipped_profiles):
        profile = shipped_profiles["pi-tpu"]
        best = Configuration(block=2, k1=16, k2=32, fc1=115, do1=21, fc2=85, do2=17)
        arch = build_architecture(best)
        predicted = simulate_dynamic_power(arch, profile, 1.55)
        residual = abs(
            profile.fit_residuals["power_w"]["Table 3, Accuracy/PDP, Pi + TPU row"]
        )
        assert abs(predicted - 0.77) <= residual + 1e-9

    def test_every_profile_embeds_residuals_and_citations(self, shipped_profiles):
        for profile in shipped_profiles.values():
            residuals = profile.fit_residuals
            assert residuals and residuals["latency_ms"] and residuals["power_w"]
            assert all("Table" in key for key in residuals["latency_ms"])

    def test_profile_json_roundtrip(self, tmp_path, shipped_profiles):
        path = tmp_path / "pi.json"
        save_profile(shipped_profiles["pi"], path)
        assert load_profile(path) == shipped_profiles["pi"]
