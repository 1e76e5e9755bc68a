"""Newline-delimited JSON request/response transport to a child process.

The child starts at the channel's first request, so a channel that never
sends starts no child; a command that cannot be found still fails when
the channel is built. A caller that knows its next payloads announces
them with ``expect``; the channel then keeps up to WINDOW requests in
flight, writing the next ones while the caller handles the current
reply. The child must answer in request order: it may read ahead (say,
to prepare the next model) but replies one request at a time, in order,
so a child that reads one line at a time works unchanged. Responses are
matched by integer id; a reply to a request that already timed out, or
that its caller abandoned, is dropped. A request's timeout counts from
when the channel starts waiting for its reply, which is when the reply
before it was read. There is no reader thread: the requesting thread
polls the child's stdout for the time left, reads what has come into a
byte buffer and takes one line from it, so a reply that is not UTF-8
JSON is a ProtocolError for that request only.

Blocking writes cannot deadlock: every request is under 1 KiB, so the
WINDOW requests at most that the child has not read yet never fill its
stdin pipe (at least 16 KiB). The parent therefore never blocks on a
write while the child blocks writing replies the parent has not read,
however long those replies are, and no non-blocking I/O is needed.
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
from collections import deque
from itertools import chain
from typing import Iterable, Iterator

from ._data import typed

# How long close() waits in all, for the child's stdout to end and then for
# the child to exit, after its stdin closes; a child still running then is
# killed.
CLOSE_GRACE_S = 5.0
# The most requests a channel has sent whose replies it has not read yet.
WINDOW = 8


class ProtocolError(RuntimeError):
    """Malformed or mismatched response from the child."""


class ChannelError(ProtocolError):
    """Transport failure: child exited or the pipe broke."""


class ChannelTimeout(ProtocolError):
    """No response line within the allowed time."""


def number(value, field: str) -> float:
    """``typed(value, float, field)``, failing as a ProtocolError."""
    try:
        return typed(value, float, field)
    except TypeError as exc:
        raise ProtocolError(str(exc)) from None


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
        # the announced payloads not sent yet, and the (id, payload) of
        # each request sent ahead that no ``request`` call has taken yet
        self._ahead: Iterator[dict] | None = None
        self._in_flight: deque[tuple[int, dict]] = deque()

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
            # Each read allocates its full size, and with requests in flight
            # the pipe holds several replies, so reads come back full: 1-KiB
            # reads kept a bridged run's peak RSS about 0.2 MB under 4-KiB
            # ones, at no cost in wall time.
            chunk = os.read(self._proc.stdout.fileno(), 1024)
            self._buffer += chunk
            self._eof = not chunk

    def expect(self, payloads: Iterable[dict]) -> None:
        """Announce the payloads of the next requests, in order. Each
        ``request`` then writes announced payloads ahead, up to WINDOW in
        flight, taking them from ``payloads`` only as it sends them. A new
        announcement replaces the last, and the requests still in flight
        are abandoned."""
        self._abandon()
        self._ahead = iter(payloads)

    def _abandon(self) -> None:
        """Drop the announcement and the requests in flight; their late
        replies are dropped as a timed-out request's are."""
        self._timed_out.update(request_id for request_id, _ in self._in_flight)
        self._in_flight.clear()
        self._ahead = None

    def _send(self, payload: dict) -> int:
        """Write one request (an id is assigned here) and return its id."""
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
        return request_id

    def _send_ahead(self, count: int) -> None:
        """Send announced payloads until ``count`` are in flight. A write
        that fails drops the announcement: that request is sent again, and
        fails, when it is asked for."""
        while self._ahead is not None and len(self._in_flight) < count:
            payload = next(self._ahead, None)
            if payload is None:
                self._ahead = None
                break
            try:
                self._in_flight.append((self._send(payload), payload))
            except ChannelError:
                self._ahead = None

    def request(self, payload: dict) -> dict:
        """Send one request, unless it went ahead as the next announced
        payload, and return the matching response object, waiting at most
        ``timeout_s`` from now. While its reply is awaited, the announced
        payloads after it go ahead, up to WINDOW requests in flight; a
        payload other than the next announced one abandons the
        announcement before anything is sent for it."""
        if not self._in_flight and self._ahead is not None:
            # The next announced payload goes ahead only if it is this one.
            matched = next(self._ahead, None) == payload
            self._ahead = chain((payload,), self._ahead) if matched else None
            self._send_ahead(1)
        if self._in_flight and self._in_flight[0][1] == payload:
            request_id = self._in_flight.popleft()[0]
            self._send_ahead(WINDOW - 1)
        else:
            self._abandon()
            request_id = self._send(payload)

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
        Replies to requests still in flight are read and dropped.
        The read and the reap share one CLOSE_GRACE_S, so close waits at most
        that long even if a grandchild holds stdout open; a child still
        running then is killed. A channel that never started a child, or is
        already closed, has nothing to close."""
        if self._closed:
            return
        self._closed = True
        self._abandon()
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
