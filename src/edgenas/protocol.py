"""Newline-delimited JSON request/response transport to a child process.

One request in flight per channel; the child must answer in request
order. Responses are matched by id; a reply to a request that already
timed out is dropped. A background thread drains the child's stdout into
a queue of byte lines so reads can time out without blocking; the
requesting thread decodes each line, so a reply that is not UTF-8 JSON
is a ProtocolError for that request and never stops the reader.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading
import time

_EOF = object()

# How long close() lets the child exit after its stdin closes before it is
# killed.
CLOSE_GRACE_S = 5.0


class ProtocolError(RuntimeError):
    """Malformed or mismatched response from the child."""


class ChannelError(ProtocolError):
    """Transport failure: child exited or the pipe broke."""


class ChannelTimeout(ProtocolError):
    """No response line within the allowed time."""


def number(value, field: str) -> float:
    """A reply's numeric value as a float. It must be a JSON number: an
    int or a float, and not a bool; anything else is a ProtocolError
    naming ``field``."""
    if type(value) not in (int, float):
        raise ProtocolError(f"{field} must be a JSON number, got {value!r}")
    return float(value)


class JsonLineChannel:
    def __init__(self, command: str | list[str], timeout_s: float = 60.0):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.command = argv
        self.timeout_s = timeout_s
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        self._lines: queue.Queue = queue.Queue()
        self._next_id = 0
        self._timed_out: set[int] = set()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(_EOF)

    def request(self, payload: dict) -> dict:
        """Send one request (an id is assigned here) and return the matching
        response object, waiting at most ``timeout_s``."""
        request_id = self._next_id
        self._next_id += 1
        message = dict(payload)
        message["id"] = request_id
        if self._proc.poll() is not None:
            raise ChannelError(f"child exited with code {self._proc.returncode}")
        try:
            assert self._proc.stdin is not None
            self._proc.stdin.write(json.dumps(message).encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ChannelError(f"write to child failed: {exc}") from exc

        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.0))
            except queue.Empty:
                self._timed_out.add(request_id)
                raise ChannelTimeout(
                    f"no response to request {request_id} within {self.timeout_s}s"
                ) from None
            if line is _EOF:
                raise ChannelError(f"child closed the stream (exit {self._proc.poll()})")
            try:
                text = line.decode("utf-8")
                response = json.loads(text)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"unparseable response line: {line!r}") from exc
            if not isinstance(response, dict):
                raise ProtocolError(f"response is not an object: {text!r}")
            response_id = response.get("id")
            if response_id == request_id:
                return response
            if isinstance(response_id, int) and response_id in self._timed_out:
                self._timed_out.discard(response_id)  # late reply to a timed-out request
                continue
            raise ProtocolError(
                f"response id {response_id!r} does not match request {request_id}"
            )

    def close(self) -> None:
        """Close stdin so the child sees EOF, join the reader, which ends
        when the child's stdout closes at exit, then reap the child. Both
        share one CLOSE_GRACE_S; a child still running when it runs out is
        killed. stdout is closed once the reader has ended."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        deadline = time.monotonic() + CLOSE_GRACE_S
        self._reader.join(timeout=CLOSE_GRACE_S)
        try:
            self._proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            self._reader.join(timeout=CLOSE_GRACE_S)
        if not self._reader.is_alive():
            self._proc.stdout.close()

    def __enter__(self) -> "JsonLineChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
