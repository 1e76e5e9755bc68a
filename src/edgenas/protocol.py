"""Newline-delimited JSON request/response transport to a child process.

One request in flight per channel; the child must answer in request
order. Responses are matched by id. A background thread drains the
child's stdout into a queue so reads can time out without blocking.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading

_EOF = object()


class ProtocolError(RuntimeError):
    """Malformed or mismatched response from the child."""


class ChannelError(ProtocolError):
    """Transport failure: child exited or the pipe broke."""


class ChannelTimeout(ProtocolError):
    """No response line within the allowed time."""


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
            text=True,
            bufsize=1,
        )
        self._lines: queue.Queue = queue.Queue()
        self._next_id = 0
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(_EOF)

    def request(self, payload: dict, timeout_s: float | None = None) -> dict:
        """Send one request (an id is assigned here) and return the matching
        response object."""
        request_id = self._next_id
        self._next_id += 1
        message = dict(payload)
        message["id"] = request_id
        if self._proc.poll() is not None:
            raise ChannelError(f"child exited with code {self._proc.returncode}")
        try:
            assert self._proc.stdin is not None
            self._proc.stdin.write(json.dumps(message) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ChannelError(f"write to child failed: {exc}") from exc

        try:
            line = self._lines.get(timeout=timeout_s if timeout_s is not None else self.timeout_s)
        except queue.Empty:
            raise ChannelTimeout(
                f"no response to request {request_id} within "
                f"{timeout_s if timeout_s is not None else self.timeout_s}s"
            ) from None
        if line is _EOF:
            raise ChannelError(f"child closed the stream (exit {self._proc.poll()})")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"unparseable response line: {line!r}") from exc
        if not isinstance(response, dict):
            raise ProtocolError(f"response is not an object: {line!r}")
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match request {request_id}"
            )
        return response

    def close(self) -> None:
        """Close stdin so the child sees EOF, wait for it to exit (killing
        it after 5 s), then join the reader and close stdout."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._reader.join(timeout=5)
        if not self._reader.is_alive():
            self._proc.stdout.close()

    def __enter__(self) -> "JsonLineChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
