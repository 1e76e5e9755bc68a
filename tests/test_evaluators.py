import statistics
import sys
import time

import numpy as np
import pytest

from edgenas.evaluators import (
    ACCURACY_CEILING_PCT,
    ACCURACY_FLOOR_PCT,
    EvaluatorError,
    ExternalEvaluator,
    Precision,
    SurrogateEvaluator,
)
from edgenas.protocol import ChannelError, JsonLineChannel, ProtocolError
from edgenas.space import (
    Configuration,
    SpaceValidationError,
    cardinality,
    config_from_index,
    sample_uniform,
)
from conftest import MOCK_EVALUATOR
from oracles import surrogate_base_accuracy


def _channel(mode: str, timeout_s: float = 10.0) -> JsonLineChannel:
    return JsonLineChannel([sys.executable, str(MOCK_EVALUATOR), mode], timeout_s=timeout_s)


class TestSurrogate:
    def test_deterministic(self, table1, pi_best):
        evaluator = SurrogateEvaluator(table1)
        first = evaluator.evaluate(pi_best).accuracy_pct
        again = evaluator.evaluate(pi_best).accuracy_pct
        fresh = SurrogateEvaluator(table1).evaluate(pi_best).accuracy_pct
        assert first == again == fresh

    def test_pure_across_call_orders(self, table1):
        evaluator = SurrogateEvaluator(table1)
        rng = np.random.default_rng(5)
        configs = [sample_uniform(table1, rng) for _ in range(50)]
        forward = [evaluator.evaluate(c).accuracy_pct for c in configs]
        backward = [evaluator.evaluate(c).accuracy_pct for c in reversed(configs)]
        assert forward == list(reversed(backward))

    def test_repeated_calls_bit_identical(self, table1, pi_best):
        evaluator = SurrogateEvaluator(table1)
        reference = evaluator.evaluate(pi_best).accuracy_pct
        assert all(
            evaluator.evaluate(pi_best).accuracy_pct == reference for _ in range(10_000)
        )

    def test_outputs_within_published_band(self, table1):
        evaluator = SurrogateEvaluator(table1)
        rng = np.random.default_rng(31)
        for _ in range(1000):
            config = sample_uniform(table1, rng)
            for precision in Precision:
                value = evaluator.evaluate(config, precision).accuracy_pct
                assert ACCURACY_FLOOR_PCT <= value <= ACCURACY_CEILING_PCT

    def test_population_gap_matches_default_delta(self, table1):
        evaluator = SurrogateEvaluator(table1)
        rng = np.random.default_rng(777)
        configs = [sample_uniform(table1, rng) for _ in range(1000)]
        fp32 = [evaluator.evaluate(c, Precision.FP32).accuracy_pct for c in configs]
        fp16 = [evaluator.evaluate(c, Precision.FP16).accuracy_pct for c in configs]
        gap = statistics.mean(fp32) - statistics.mean(fp16)
        assert abs(gap - 3.43) <= 0.01

    def test_fp16_never_above_fp32(self, table1):
        evaluator = SurrogateEvaluator(table1)
        rng = np.random.default_rng(13)
        for _ in range(300):
            config = sample_uniform(table1, rng)
            assert (
                evaluator.evaluate(config, Precision.FP16).accuracy_pct
                <= evaluator.evaluate(config, Precision.FP32).accuracy_pct
            )

    def test_fp32_delta_zero_and_int8_default(self, table1, pi_best):
        evaluator = SurrogateEvaluator(table1)
        assert evaluator.deltas[Precision.FP32] == 0.0
        assert (
            evaluator.evaluate(pi_best, Precision.INT8).accuracy_pct
            == evaluator.evaluate(pi_best, Precision.FP32).accuracy_pct
        )

    def test_non_constant_signal(self, table1):
        evaluator = SurrogateEvaluator(table1)
        rng = np.random.default_rng(99)
        values = [
            evaluator.evaluate(sample_uniform(table1, rng)).accuracy_pct for _ in range(1000)
        ]
        assert max(values) - min(values) >= 5.0

    def test_invalid_config_rejected(self, table1):
        evaluator = SurrogateEvaluator(table1)
        off_grid = Configuration(block=2, k1=18, k2=24, fc1=110, do1=15, fc2=95, do2=29)
        with pytest.raises(SpaceValidationError):
            evaluator.evaluate(off_grid)


    def test_base_accuracy_equals_closed_form(self, table1, reduced_space, toy8_space):
        # Every config of two small spaces (toy8's one-value k2 grid sits at
        # x = 0.5), then seeded Table-1 draws; equal bit for bit.
        for space in (reduced_space, toy8_space):
            evaluator = SurrogateEvaluator(space)
            for index in range(cardinality(space)):
                config = config_from_index(space, index)
                assert evaluator.base_accuracy(config) == surrogate_base_accuracy(space, config)
        evaluator = SurrogateEvaluator(table1)
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            config = sample_uniform(table1, rng)
            assert evaluator.base_accuracy(config) == surrogate_base_accuracy(table1, config)


class TestExternalEvaluator:
    def test_ok_response(self, pi_best):
        with _channel("ok") as channel:
            result = ExternalEvaluator(channel).evaluate(pi_best, Precision.INT8)
        assert result.accuracy_pct == 98.98
        assert result.source == "external"

    def test_request_order_ids(self, pi_best):
        with _channel("ok") as channel:
            evaluator = ExternalEvaluator(channel)
            for _ in range(5):
                assert evaluator.evaluate(pi_best).accuracy_pct == 98.98

    def test_mismatched_id(self, pi_best):
        with _channel("bad_id") as channel:
            with pytest.raises(ProtocolError, match="does not match"):
                ExternalEvaluator(channel).evaluate(pi_best)

    def test_out_of_range_accuracy(self, pi_best):
        with _channel("out_of_range") as channel:
            with pytest.raises(EvaluatorError, match=r"outside \[0, 100\]"):
                ExternalEvaluator(channel).evaluate(pi_best)

    @pytest.mark.parametrize("mode", ["bool", "numeric_string", "string", "null"])
    def test_accuracy_that_is_not_a_json_number_rejected(self, pi_best, mode):
        with _channel(mode) as channel:
            with pytest.raises(ProtocolError, match="accuracy_pct must be a JSON number"):
                ExternalEvaluator(channel).evaluate(pi_best)

    def test_error_response_marks_failure(self, pi_best):
        with _channel("error") as channel:
            with pytest.raises(EvaluatorError, match="training diverged"):
                ExternalEvaluator(channel).evaluate(pi_best)

    def test_malformed_response_carries_raw_line(self, pi_best):
        with _channel("garbage") as channel:
            with pytest.raises(ProtocolError, match="this is not json"):
                ExternalEvaluator(channel).evaluate(pi_best)

    def test_non_utf8_response_fails_at_once(self, pi_best):
        # the reply arrives, so it must fail as unparseable now, not as a
        # timeout after the reader thread has died on it
        with _channel("not_utf8", timeout_s=10.0) as channel:
            evaluator = ExternalEvaluator(channel)
            for _ in range(2):
                started = time.monotonic()
                with pytest.raises(ProtocolError, match="unparseable response line"):
                    evaluator.evaluate(pi_best)
                assert time.monotonic() - started < 2.0

    def test_timeout(self, pi_best):
        with _channel("silent", timeout_s=0.3) as channel:
            with pytest.raises(EvaluatorError, match="no response"):
                ExternalEvaluator(channel).evaluate(pi_best)

    def test_late_reply_is_dropped(self, pi_best):
        # the evaluator answers request 0 only after request 1 has come in,
        # past the channel's 0.2-s timeout; the next request must skip that
        # late reply and read its own
        with _channel("slow_first", timeout_s=0.2) as channel:
            evaluator = ExternalEvaluator(channel)
            with pytest.raises(EvaluatorError, match="no response to request 0"):
                evaluator.evaluate(pi_best)
            assert evaluator.evaluate(pi_best).accuracy_pct == 98.98

    def test_process_exit(self, pi_best):
        with _channel("exit") as channel:
            with pytest.raises(ChannelError):
                ExternalEvaluator(channel).evaluate(pi_best)
