"""Newline-delimited JSON request/response transport to a child process.

The child starts at the channel's first request, so a channel that never
sends starts no child; a command that cannot be found still fails when
the channel is built. One request in flight per channel; the child must
answer in request order. Responses are matched by integer id; a reply to
a request that already timed out is dropped. There is no reader thread:
the requesting thread polls the child's stdout for the time left, reads
what has come into a byte buffer and takes one line from it, so a reply
that is not UTF-8 JSON is a ProtocolError for that request only.
"""

from __future__ import annotations

import json
import math
import os
import select
import shlex
import shutil
import subprocess
import time

# How long close() waits in all, for the child's stdout to end and then for
# the child to exit, after its stdin closes; a child still running then is
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
        if shutil.which(argv[0]) is None:
            raise FileNotFoundError(f"command not found or not executable: {argv[0]}")
        self.command = argv
        self.timeout_s = timeout_s
        self._proc: subprocess.Popen | None = None
        self._closed = False
        self._buffer = bytearray()
        self._eof = False
        self._next_id = 0
        self._timed_out: set[int] = set()

    def _start(self) -> None:
        if self._closed:
            raise ChannelError("channel is closed")
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise ChannelError(f"cannot start {shlex.join(self.command)}: {exc}") from exc
        self._poller = select.poll()
        self._poller.register(self._proc.stdout, select.POLLIN)

    def _line(self, deadline: float) -> bytes | None:
        """The child's next stdout line, newline included, or None at the end
        of the stream; a last line with no newline is still returned. Raises
        ChannelTimeout if no whole line has come by ``deadline``."""
        while True:
            end = self._buffer.find(b"\n") + 1
            if end or self._eof:
                line = bytes(self._buffer[: end or len(self._buffer)])
                del self._buffer[: len(line)]
                return line or None
            timeout_ms = max(math.ceil((deadline - time.monotonic()) * 1000), 0)
            if not self._poller.poll(timeout_ms):
                raise ChannelTimeout
            # each read allocates its full size, and replies are short lines
            chunk = os.read(self._proc.stdout.fileno(), 4096)
            self._buffer += chunk
            self._eof = not chunk

    def request(self, payload: dict) -> dict:
        """Send one request (an id is assigned here) and return the matching
        response object, waiting at most ``timeout_s``."""
        request_id = self._next_id
        self._next_id += 1
        message = dict(payload)
        message["id"] = request_id
        if self._proc is None:
            self._start()
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
                line = self._line(deadline)
            except ChannelTimeout:
                self._timed_out.add(request_id)
                raise ChannelTimeout(
                    f"no response to request {request_id} within {self.timeout_s}s"
                ) from None
            if line is None:
                raise ChannelError(f"child closed the stream (exit {self._proc.poll()})")
            try:
                text = line.decode("utf-8")
                response = json.loads(text)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"unparseable response line: {line!r}") from exc
            if not isinstance(response, dict):
                raise ProtocolError(f"response is not an object: {text!r}")
            response_id = response.get("id")
            # type(), not ==: true and 1.0 are not the id 1
            if type(response_id) is int:
                if response_id == request_id:
                    return response
                if response_id in self._timed_out:
                    self._timed_out.discard(response_id)  # late reply to a timed-out request
                    continue
            raise ProtocolError(
                f"response id {response_id!r} does not match request {request_id}"
            )

    def close(self) -> None:
        """Close stdin so the child sees EOF, read stdout to its end, which
        comes when the child exits, then reap the child and close stdout.
        The read and the reap share one CLOSE_GRACE_S, so close waits at most
        that long even if a grandchild holds stdout open; a child still
        running then is killed. A channel that never started a child, or is
        already closed, has nothing to close."""
        if self._closed:
            return
        self._closed = True
        if self._proc is None:
            return
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        deadline = time.monotonic() + CLOSE_GRACE_S
        try:
            while self._line(deadline) is not None:
                pass
        except ChannelTimeout:
            pass
        try:
            self._proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "JsonLineChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
