import re
import sys
import time

import pytest

from edgenas import protocol
from edgenas.protocol import ChannelError, ChannelTimeout, JsonLineChannel, ProtocolError
from conftest import MOCK_EVALUATOR

REQUEST = {"cmd": "evaluate", "config": {}}


def _channel(mode: str, timeout_s: float = 10.0) -> JsonLineChannel:
    return JsonLineChannel([sys.executable, str(MOCK_EVALUATOR), mode], timeout_s=timeout_s)


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
    """A channel that never sent has no child; one that did has its child
    reaped and both pipes closed."""
    if channel._proc is None:
        return channel._next_id == 0
    return (
        channel._proc.returncode is not None
        and channel._proc.stdin.closed
        and channel._proc.stdout.closed
    )


class TestStart:
    def test_child_starts_at_first_request(self, popens):
        channel = _channel("ok")
        assert popens == []
        assert channel.request(REQUEST)["accuracy_pct"] == 98.98
        assert channel.request(REQUEST)["accuracy_pct"] == 98.98
        assert popens == [channel.command]
        channel.close()
        assert _closed(channel)

    def test_request_after_close_starts_nothing(self, popens):
        channel = _channel("ok")
        channel.close()
        with pytest.raises(ChannelError, match="closed"):
            channel.request(REQUEST)
        assert popens == []

    @pytest.mark.parametrize("command", ["/nonexistent/cmd", "no-such-command-on-path"])
    def test_missing_command_fails_at_construction(self, popens, command):
        with pytest.raises(FileNotFoundError, match=command):
            JsonLineChannel([command, "arg"])
        assert popens == []

    def test_command_that_is_not_executable_fails_at_construction(self, tmp_path):
        script = tmp_path / "stub"
        script.write_text("#!/bin/sh\n")
        with pytest.raises(FileNotFoundError, match="not executable"):
            JsonLineChannel(str(script))

    def test_exec_failure_is_a_channel_error_naming_the_command(self, tmp_path):
        # executable but no shebang: shutil.which accepts it, exec refuses it
        script = tmp_path / "no_shebang"
        script.write_text("echo hello\n")
        script.chmod(0o755)
        channel = JsonLineChannel([str(script), "--flag"])
        with pytest.raises(ChannelError, match=re.escape(f"cannot start {script} --flag: ")):
            channel.request(REQUEST)
        channel.close()
        assert channel._proc is None


class TestResponseId:
    def test_late_reply_whose_id_is_false_rejected(self):
        # request 0 times out; its late reply comes back with "id": false,
        # which is not the timed-out id 0
        with _channel("slow_false_id", timeout_s=0.3) as channel:
            with pytest.raises(ChannelTimeout):
                channel.request(REQUEST)
            with pytest.raises(ProtocolError, match="response id False does not match request 1"):
                channel.request(REQUEST)


class TestLineReader:
    def test_reply_in_two_flushes_read_whole(self):
        with _channel("split") as channel:
            assert channel.request(REQUEST) == {"id": 0, "accuracy_pct": 98.98}
            assert channel.request(REQUEST) == {"id": 1, "accuracy_pct": 98.98}

    def test_late_reply_and_reply_in_one_write(self):
        # request 0 times out; its late reply and the reply to request 1
        # come back in one write, and request 1 gets its own
        with _channel("burst", timeout_s=0.3) as channel:
            with pytest.raises(ChannelTimeout):
                channel.request(REQUEST)
            assert channel.request(REQUEST) == {"id": 1, "accuracy_pct": 91.0}

    def test_half_a_line_then_nothing_times_out(self):
        with _channel("partial_then_silent", timeout_s=0.3) as channel:
            start = time.monotonic()
            with pytest.raises(ChannelTimeout, match="no response to request 0 within 0.3s"):
                channel.request(REQUEST)
            assert 0.3 <= time.monotonic() - start < 1.0

    def test_last_reply_without_newline_returned(self):
        with _channel("no_newline_exit") as channel:
            assert channel.request(REQUEST) == {"id": 0, "accuracy_pct": 98.98}
            with pytest.raises(ChannelError):
                channel.request(REQUEST)
        assert channel._proc.returncode == 0
        assert _closed(channel)


class TestClose:
    def test_unused_channel_reaped_without_polling(self, sleeps, popens):
        # an unused channel has no child: close starts, waits for and
        # sleeps for nothing
        channel = _channel("ok")
        channel.close()
        assert sleeps == []
        assert popens == []
        assert _closed(channel)

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
        used, unused = _channel("ok"), _channel("ok")
        assert used.request(REQUEST)["accuracy_pct"] == 98.98
        for channel in (used, unused):
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
        # reading stdout waits out one grace for the grandchild; the child
        # itself exited on EOF and is reaped, not killed
        assert 0.5 <= elapsed < 1.0
        assert channel._proc.returncode == 0
        assert channel._proc.stdout.closed
        assert _closed(channel)
