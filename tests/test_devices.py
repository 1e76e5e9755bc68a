import math
import sys
import zlib

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
    fit_profile,
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


def _measure(config, backend, protocol=None):
    """Latency (mean, std) and dynamic power through the stage-facing path."""
    measurer = DeviceMeasurer(backend, protocol)
    arch = build_architecture(config)
    return measurer.latency(config, arch), measurer.power(config, arch)


_CONFIG = Configuration(block=2, k1=6, k2=24, fc1=100, do1=10, fc2=80, do2=10)


def _measure_one(measurement, backend):
    """One measurement of ``_CONFIG`` through the stage-facing path."""
    return getattr(DeviceMeasurer(backend), measurement)(_CONFIG, build_architecture(_CONFIG))


class RecordingBackend:
    """Canned raw samples, one pair per block, whatever was asked for:
    2.35-ms runs and 2.0 / 4.08-W traces unless others are given. The
    runs each latency block asked for are recorded."""

    block_pairs = 1

    def __init__(self, latency=(2.35,) * 40, idle=(2.0,) * 180, active=(4.08,) * 180):
        self.latency, self.idle, self.active = latency, idle, active
        self.requested_runs = []

    def expect_latency(self, pairs, runs):
        pass

    def expect_power(self, pairs, window_s, sample_hz):
        pass

    def latency_block(self, pairs, runs):
        self.requested_runs.append(runs)
        return np.array([self.latency], dtype=float)

    def power_block(self, pairs, window_s, sample_hz):
        return np.array([self.idle], dtype=float), np.array([self.active], dtype=float)


def measured_latency(samples):
    """The latency (mean, std) of raw samples through the stage-facing path."""
    return _measure_one("latency", RecordingBackend(latency=samples))


def measured_power(idle_w, active_w):
    """The dynamic power of raw traces through the stage-facing path."""
    return _measure_one("power", RecordingBackend(idle=idle_w, active=active_w))


class TestStatistics:
    def test_constant_samples(self):
        assert measured_latency([2.51] * 40) == (pytest.approx(2.51), 0.0)

    def test_two_samples_hand_arithmetic(self):
        mean, std = measured_latency([1.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(math.sqrt(2))

    def test_too_few_samples(self):
        with pytest.raises(MeasurementError, match="2 latency samples"):
            measured_latency([1.0])

    def test_mean_std_sums_left_to_right(self):
        # compensated summation (sum() from Python 3.12 on, math.fsum) rounds
        # this vector differently from a sequential loop
        samples = [0.1] * 10 + [0.3]
        assert math.fsum(samples) != sum_left_to_right(samples)
        mean = sum_left_to_right(samples) / len(samples)
        var = sum_left_to_right([(s - mean) * (s - mean) for s in samples]) / (len(samples) - 1)
        assert mean_std(samples) == (mean, math.sqrt(var))
        # squares by multiplication, correctly rounded on every platform: the
        # C library's pow() has rounded this square 1 ulp away
        two = [0.0, 0.033628382266040764]
        assert mean_std(two) == (0.016814191133020382, 0.02377885714065086)

    def test_power_subtraction(self):
        assert measured_power([2.00] * 180, [3.41] * 180) == pytest.approx(1.41)

    def test_equal_traces_give_zero(self):
        assert measured_power([2.0] * 180, [2.0] * 180) == 0.0

    def test_small_negative_clamps(self):
        assert measured_power([2.0] * 10, [1.97] * 10) == 0.0

    def test_large_negative_errors(self):
        with pytest.raises(MeasurementError, match=r"negative dynamic power -0\.20 W"):
            measured_power([2.00] * 180, [1.80] * 180)

    def test_empty_trace_errors(self):
        with pytest.raises(MeasurementError, match="empty power trace"):
            measured_power([], [2.0])

    @pytest.mark.parametrize(
        "samples",
        [[1.0, math.nan, 1.0], [1.0, math.inf], [-math.inf, 1.0], [math.nan] * 40],
    )
    def test_non_finite_latency_sample_errors(self, samples):
        with pytest.raises(MeasurementError, match="non-finite latency sample"):
            measured_latency(samples)

    @pytest.mark.parametrize("samples", [[-1.0, -2.0], [0.0] * 40, [-0.5, 0.5]])
    def test_non_positive_mean_latency_errors(self, samples):
        with pytest.raises(MeasurementError, match="non-positive mean latency"):
            measured_latency(samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_sample_errors(self, bad):
        with pytest.raises(MeasurementError, match="non-finite idle power sample"):
            measured_power([2.0, bad], [3.0, 3.0])
        with pytest.raises(MeasurementError, match="non-finite active power sample"):
            measured_power([2.0, 2.0], [bad, 3.0])


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
        backend = RecordingBackend(latency=[100.0] * 5 + [2.35] * 40)
        (mean, std), _ = _measure(pi_best, backend, MeasurementProtocol(warmup_runs=5))
        assert backend.requested_runs == [45]
        assert (mean, std) == (2.35, 0.0)


def _pairs(table1, n):
    configs = [config_from_index(table1, 1 + i * 997) for i in range(n)]
    return [(config, build_architecture(config)) for config in configs]


class TestAnnouncedBlocks:
    """A simulated device measures the pairs announced to it together; each
    pair still gets the result it gets measured alone."""

    JITTER = JitterSpec(latency_sigma_ms=0.05, power_sigma_w=0.05)

    @staticmethod
    def _alone(measurement, device, pairs, protocol=None):
        # a new measurer per pair, nothing announced: blocks of one
        return [getattr(DeviceMeasurer(device, protocol), measurement)(*pair) for pair in pairs]

    @staticmethod
    def _announced(measurement, device, pairs, protocol=None):
        measurer = DeviceMeasurer(device, protocol)
        measurer.expect(measurement, iter(pairs))
        return [getattr(measurer, measurement)(*pair) for pair in pairs]

    @pytest.mark.parametrize("measurement", ["latency", "power"])
    def test_announced_results_equal_pairs_measured_alone(self, table1, measurement):
        device = SimulatedDevice(_profile(), self.JITTER, seed=7)
        protocol = MeasurementProtocol(warmup_runs=5)
        # more pairs than one block holds
        pairs = _pairs(table1, devices_module.BLOCK_PAIRS + 6)
        for announced in (pairs[::-1], pairs[1::3]):
            alone = self._alone(measurement, device, announced, protocol)
            assert self._announced(measurement, device, announced, protocol) == alone
        if measurement == "latency":
            assert all(std > 0.0 for _, std in alone)

    def test_call_for_another_pair_drops_the_announcement(self, table1):
        device = SimulatedDevice(_profile(), self.JITTER, seed=7)
        pairs = _pairs(table1, 4)
        alone = self._alone("latency", device, pairs)
        measurer = DeviceMeasurer(device)
        measurer.expect("latency", pairs)
        assert [measurer.latency(*pair) for pair in pairs[::-1]] == alone[::-1]
        measurer.expect("latency", pairs)
        assert measurer.power(*pairs[0]) == self._alone("power", device, pairs[:1])[0]
        assert measurer.latency(*pairs[1]) == alone[1]

    def test_noiseless_block_gives_the_model_latency(self, table1):
        profile = _profile()
        device = SimulatedDevice(profile, JitterSpec(power_sigma_w=0.05))
        pairs = _pairs(table1, 5)
        assert device.latency_block(pairs, 45).strides[-1] == 0  # no sample matrix
        measurer = DeviceMeasurer(device, MeasurementProtocol(warmup_runs=5))
        measurer.expect("latency", pairs)
        assert [measurer.latency(*pair) for pair in pairs] == [
            (simulate_latency(arch, profile), 0.0) for _, arch in pairs
        ]

    def test_power_error_stays_with_its_pair(self, table1, pi_best):
        # a zero model latency makes the dynamic power undefined for the
        # empty architecture only; the block's other pairs are measured
        profile = _profile(fixed=0.0, per_layer=0.0)
        device = SimulatedDevice(profile, self.JITTER, seed=3)
        pairs = _pairs(table1, 3)
        pairs.insert(1, (pi_best, _empty_arch(pi_best)))
        measurer = DeviceMeasurer(device)
        measurer.expect("power", pairs)
        assert measurer.power(*pairs[0]) == self._alone("power", device, pairs[:1])[0]
        with pytest.raises(MeasurementError, match="non-positive latency 0.0 ms"):
            measurer.power(*pairs[1])
        rest = [measurer.power(*pair) for pair in pairs[2:]]
        assert rest == self._alone("power", device, pairs[2:])


class TestBackendContract:
    """Both backends, through DeviceMeasurer, give each pair its own
    result: announced or not, called in announcement order or not. The
    jittered simulated device and the mock's per-config modes give each
    pair a different result, so a result handed to the wrong pair shows."""

    @pytest.fixture(params=["simulated", "external"])
    def backend(self, request):
        """A factory of new backends of one kind; an external one runs the
        mock device in ``mode``, and its channel is closed at teardown."""
        channels = []

        def make(mode="per_config"):
            if request.param == "simulated":
                profile = _profile(fixed=0.0, per_layer=0.0)
                return SimulatedDevice(profile, TestAnnouncedBlocks.JITTER, seed=11)
            channels.append(_device_channel(mode))
            return ExternalDevice(channels[-1])

        yield make
        for channel in channels:
            channel.close()

    @staticmethod
    def _results(measurer, measurement, pairs):
        results = []
        for pair in pairs:
            try:
                results.append(getattr(measurer, measurement)(*pair))
            except MeasurementError as exc:
                results.append(exc)
        return results

    def _alone(self, device, measurement, pairs):
        return [self._results(DeviceMeasurer(device), measurement, [pair])[0] for pair in pairs]

    @pytest.mark.parametrize("measurement", ["latency", "power"])
    def test_announced_results_equal_unannounced(self, table1, backend, measurement):
        pairs = _pairs(table1, 5)
        device = backend()
        alone = self._alone(device, measurement, pairs)
        assert len(set(alone)) == len(pairs)
        measurer = DeviceMeasurer(device)
        measurer.expect(measurement, iter(pairs))
        assert self._results(measurer, measurement, pairs) == alone

    @pytest.mark.parametrize("measurement", ["latency", "power"])
    def test_call_for_another_pair_gets_its_own_result(self, table1, backend, measurement):
        pairs = _pairs(table1, 5)
        device = backend()
        alone = self._alone(device, measurement, pairs)
        measurer = DeviceMeasurer(device)
        measurer.expect(measurement, pairs)
        order = [2, 0, 1, 3, 4]
        called = self._results(measurer, measurement, [pairs[i] for i in order])
        assert called == [alone[i] for i in order]

    @pytest.mark.parametrize("measurement", ["latency", "power"])
    def test_call_out_of_order_measures_only_its_pair(
        self, table1, backend, measurement, monkeypatch
    ):
        # a call for the second of 100 announced pairs: one block, of that pair
        pairs = _pairs(table1, 100)
        device = backend()
        alone = self._alone(backend(), measurement, pairs[1:2])
        blocks = []
        measure = getattr(device, f"{measurement}_block")

        def spy(block, *args):
            blocks.append([config for config, _ in block])
            return measure(block, *args)

        monkeypatch.setattr(device, f"{measurement}_block", spy)
        measurer = DeviceMeasurer(device)
        measurer.expect(measurement, pairs)
        assert self._results(measurer, measurement, pairs[1:2]) == alone
        assert blocks == [[pairs[1][0]]]

    @pytest.mark.parametrize("measurement", ["latency", "power"])
    def test_calls_out_of_order_send_one_request_each(self, table1, measurement):
        # announced p1, p2, p3 and called p2, p1, p3: nothing goes ahead
        # for a pair that is not asked for next
        pairs = _pairs(table1, 3)
        with _device_channel("per_config") as channel:
            alone = self._alone(ExternalDevice(channel), measurement, pairs)
        with _device_channel("per_config") as channel:
            measurer = DeviceMeasurer(ExternalDevice(channel))
            measurer.expect(measurement, pairs)
            order = [1, 0, 2]
            called = self._results(measurer, measurement, [pairs[i] for i in order])
            assert called == [alone[i] for i in order]
            assert channel._next_id == 3

    def test_measurement_error_stays_with_its_pair(self, table1, pi_best, backend):
        # the third pair fails: the mock's error_third mode answers request 2
        # with an error, and a zero model latency leaves the empty
        # architecture's dynamic power undefined on the simulated device
        pairs = _pairs(table1, 4)
        pairs.insert(2, (pi_best, _empty_arch(pi_best)))
        measurer = DeviceMeasurer(backend("error_third"))
        measurer.expect("power", pairs)
        results = self._results(measurer, "power", pairs)
        assert isinstance(results[2], MeasurementError)
        rest = pairs[:2] + pairs[3:]
        assert results[:2] + results[3:] == self._alone(backend(), "power", rest)


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
    def _latency(device, config, arch, runs):
        return device.latency_block([(config, arch)], runs)[0].tolist()

    @staticmethod
    def _power(device, config, arch, window_s, sample_hz):
        traces = device.power_block([(config, arch)], window_s, sample_hz)
        return tuple(trace[0].tolist() for trace in traces)

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
            latency = self._latency(device, config, arch, 45)
            self._assert_same_floats(
                latency, oracles.simulated_latency_samples(device, config, arch, 45)
            )
            idle_w, active_w = self._power(device, config, arch, 180, 1)
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

        monkeypatch.setattr(
            SimulatedDevice, "_rngs", lambda self, pairs, salt: (StubGenerator() for _ in pairs)
        )
        monkeypatch.setattr(devices_module, "simulate_latency", lambda arch, profile: -0.0)
        monkeypatch.setattr(
            devices_module, "simulate_dynamic_power", lambda arch, profile, latency: -0.0
        )
        profile = _profile(idle=-0.0)
        device = SimulatedDevice(profile, JitterSpec(latency_sigma_ms=1.0, power_sigma_w=1.0))
        arch = _empty_arch(pi_best)
        latency = self._latency(device, pi_best, arch, 6)
        assert math.copysign(1.0, latency[0]) == -1.0
        self._assert_same_floats(
            latency, oracles.simulated_latency_samples(device, pi_best, arch, 6, StubGenerator())
        )
        traces = self._power(device, pi_best, arch, 6, 1)
        reference = oracles.simulated_power_traces(device, pi_best, arch, 6, 1, StubGenerator())
        for got, expected in zip(traces, reference):
            assert math.copysign(1.0, got[0]) == -1.0
            self._assert_same_floats(got, expected)


class TestJitterStreams:
    """A block's generators are seeded in one pass and give the streams of
    default_rng of each pair's key, two draws each as power_block makes."""

    @staticmethod
    def _draws(rng):
        return rng.normal(0.0, 1.0, size=3).tolist() + rng.random(size=3).tolist()

    def _assert_streams(self, keys, streams):
        got = [self._draws(rng) for rng in streams]
        assert got == [self._draws(np.random.default_rng(key)) for key in keys]

    @pytest.mark.parametrize("block", [1, 63, 64])
    def test_random_keys(self, block):
        rng = np.random.default_rng(2305)
        for _ in range(1000 // block + 1):
            keys = rng.integers(0, 1 << 32, size=(block, 4), dtype=np.uint64)
            keys[::7, 1:3] = [0, (1 << 32) - 1]
            keys[3::7, 1:3] = [(1 << 32) - 1, 0]
            keys[:, 3] = rng.integers(1, 3, size=block)
            streams = devices_module._seeded_streams(keys.astype(np.uint32))
            self._assert_streams(keys.tolist(), streams)

    @pytest.mark.parametrize("seed", [0, (1 << 32) - 1, 1 << 32, (1 << 64) + 3])
    @pytest.mark.parametrize("salt", [1, 2])
    @pytest.mark.parametrize("block", [1, 63, 64])
    def test_device_keys(self, table1, seed, salt, block):
        device = SimulatedDevice(_profile(name="pi-ncs2"), JitterSpec(1.0, 1.0), seed=seed)
        configs = [config_from_index(table1, 5 + i * 7919) for i in range(block)]
        keys = [
            [seed, zlib.crc32(b"pi-ncs2"), zlib.crc32(config.canonical_json().encode()), salt]
            for config in configs
        ]
        self._assert_streams(keys, device._rngs([(config, None) for config in configs], salt))

    def test_negative_seed_refused(self, pi_best):
        device = SimulatedDevice(_profile(), JitterSpec(1.0), seed=-1)
        with pytest.raises(ValueError, match="non-negative"):
            device.latency_block([(pi_best, _empty_arch(pi_best))], 5)


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
