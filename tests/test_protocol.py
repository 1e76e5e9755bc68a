import sys
import time

import pytest

from edgenas import protocol
from edgenas.protocol import ChannelError, JsonLineChannel
from conftest import MOCK_EVALUATOR

REQUEST = {"cmd": "evaluate", "config": {}, "precision": "fp32"}


def _channel(mode: str) -> JsonLineChannel:
    return JsonLineChannel([sys.executable, str(MOCK_EVALUATOR), mode], timeout_s=10.0)


@pytest.fixture
def sleeps(monkeypatch):
    """Counts time.sleep calls, which Popen.wait makes while it polls."""
    calls = []
    real_sleep = time.sleep

    def counting_sleep(seconds):
        calls.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", counting_sleep)
    return calls


def _closed(channel: JsonLineChannel) -> bool:
    return (
        channel._proc.returncode is not None
        and not channel._reader.is_alive()
        and channel._proc.stdin.closed
        and channel._proc.stdout.closed
    )


class TestClose:
    def test_unused_channel_reaped_without_polling(self, sleeps):
        channel = _channel("ok")
        channel.close()
        assert len(sleeps) <= 2
        assert _closed(channel)
        assert channel._proc.returncode == 0

    def test_used_channel_reaped_without_polling(self, sleeps):
        channel = _channel("ok")
        assert channel.request(REQUEST)["accuracy_pct"] == 98.98
        sleeps.clear()
        channel.close()
        assert len(sleeps) <= 2
        assert _closed(channel)

    def test_child_ignoring_eof_killed_after_grace(self, monkeypatch):
        monkeypatch.setattr(protocol, "CLOSE_GRACE_S", 0.3)
        channel = _channel("ignore_eof")
        assert channel.request(REQUEST)["accuracy_pct"] == 98.98
        start = time.monotonic()
        channel.close()
        elapsed = time.monotonic() - start
        assert 0.3 <= elapsed < 3.0
        assert channel._proc.returncode == -9
        assert _closed(channel)

    def test_second_close_is_a_no_op(self, sleeps):
        channel = _channel("ok")
        channel.close()
        sleeps.clear()
        start = time.monotonic()
        channel.close()
        assert time.monotonic() - start < 0.1
        assert sleeps == []
        assert _closed(channel)

    def test_exited_child_reaped_without_grace(self):
        channel = _channel("exit")
        with pytest.raises(ChannelError):
            channel.request(REQUEST)
        start = time.monotonic()
        channel.close()
        assert time.monotonic() - start < 1.0
        assert channel._proc.returncode == 3
        assert _closed(channel)

    def test_grandchild_holding_stdout_costs_one_grace(self, monkeypatch):
        monkeypatch.setattr(protocol, "CLOSE_GRACE_S", 0.5)
        channel = _channel("grandchild")
        assert channel.request(REQUEST)["accuracy_pct"] == 98.98
        start = time.monotonic()
        channel.close()
        elapsed = time.monotonic() - start
        # the reader waits out one grace for the grandchild; the child itself
        # exited on EOF and is reaped, not killed
        assert 0.5 <= elapsed < 1.0
        assert channel._proc.returncode == 0
        assert channel._reader.is_alive()
        assert not channel._proc.stdout.closed
        # once the grandchild exits, closing again releases stdout
        channel._reader.join(timeout=5)
        channel.close()
        assert _closed(channel)
