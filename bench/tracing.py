"""Spans around the calls into each layer of the program.

A traced pass patches each layer's public function under the name its
caller looks it up by (``tpe.suggest``, ``pipeline.build_architecture``,
``DeviceMeasurer.latency``, ...). Each call becomes a span (name, start,
end, parent) kept in memory; the spans are written out when the run
ends. A span's self time is its duration minus the time of its child
spans, so the per-layer times add up to the traced pass.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)

# Spans reported with their whole duration rather than their self time.
INCLUSIVE = ("pipeline.stage1", "pipeline.stage2", "pipeline.stage3")


class NullTracer:
    """Stands in for a tracer in untraced passes."""

    @contextmanager
    def span(self, name):
        yield

    def count(self, name, n=1):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.suggested: dict[int, list] = {}
        self.log_sizes: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _enclosing(self, name: str) -> int:
        for index in reversed(self._stack):
            if self.spans[index][NAME] == name:
                return index
        return -1

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Patch every layer boundary of the program."""
        from edgenas import cli, devices, evaluators, pipeline, protocol, tpe

        def note_suggestion(tracer, config):
            tracer.suggested.setdefault(tracer._enclosing("pipeline.stage1"), []).append(config)

        def note_log(tracer, args):
            path = str(args[0].path)
            if path not in tracer.log_sizes:
                tracer.log_sizes[path] = os.path.getsize(path) if os.path.exists(path) else 0

        self.wrap(tpe, "suggest", "tpe.suggest", after=note_suggestion)
        self.wrap(evaluators.SurrogateEvaluator, "evaluate", "evaluators.surrogate")
        self.wrap(evaluators.ExternalEvaluator, "evaluate", "evaluators.external")
        self.wrap(protocol.JsonLineChannel, "__init__", "protocol.open")
        self.wrap(protocol.JsonLineChannel, "request", "protocol.request")
        self.wrap(pipeline, "build_architecture", "architecture.build")
        self.wrap(devices.DeviceMeasurer, "latency", "devices.latency")
        self.wrap(devices.DeviceMeasurer, "power", "devices.power")
        self.wrap(pipeline, "rank_records", "pipeline.rank")
        self.wrap(pipeline.TrialLog, "append", "pipeline.log_append", before=note_log)
        self.wrap(pipeline.TrialLog, "load", "pipeline.log_read")
        self.wrap(pipeline.TrialLog, "index", "pipeline.log_read")
        for stage in ("stage1", "stage2", "stage3"):
            # The CLI imported the stages by name; the library calls go
            # through the pipeline module.
            self.wrap(pipeline, stage, f"pipeline.{stage}")
            self.wrap(cli, stage, f"pipeline.{stage}")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times of this tracer's spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            name = span[NAME]
            duration = span[END] - span[START]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (
                duration if name in INCLUSIVE else duration - child_time[i]
            )

        def n(name):
            return calls.get(name, 0)

        def s(name):
            return busy.get(name, 0.0)

        suggestions = sum(len(v) for v in self.suggested.values())
        unique = sum(len(set(v)) for v in self.suggested.values())
        resume_pairs = self.counts.get("resume_pairs", 0)
        measured_on_resume = sum(
            1
            for span in self.spans
            if span[NAME] in ("devices.latency", "devices.power") and self._under(span, "resume")
        )
        appended = sum(
            os.path.getsize(path) - size for path, size in self.log_sizes.items()
        )
        return {
            "tpe.suggest_calls": n("tpe.suggest"),
            "tpe.suggest_s": s("tpe.suggest"),
            "tpe.unique_yield": unique / suggestions if suggestions else 0.0,
            "evaluators.surrogate_calls": n("evaluators.surrogate"),
            "evaluators.surrogate_s": s("evaluators.surrogate"),
            "evaluators.external_calls": n("evaluators.external"),
            "evaluators.external_s": s("evaluators.external"),
            "protocol.requests": n("protocol.request"),
            "protocol.request_s": s("protocol.request"),
            "protocol.channels_opened": n("protocol.open"),
            "architecture.build_calls": n("architecture.build"),
            "architecture.build_s": s("architecture.build"),
            "devices.latency_calls": n("devices.latency"),
            "devices.latency_s": s("devices.latency"),
            "devices.power_calls": n("devices.power"),
            "devices.power_s": s("devices.power"),
            "pipeline.stage1_s": s("pipeline.stage1"),
            "pipeline.stage2_s": s("pipeline.stage2"),
            "pipeline.stage3_s": s("pipeline.stage3"),
            "pipeline.rank_calls": n("pipeline.rank"),
            "pipeline.rank_s": s("pipeline.rank"),
            "pipeline.log_appends": n("pipeline.log_append"),
            "pipeline.log_append_s": s("pipeline.log_append"),
            "pipeline.log_bytes": appended,
            "pipeline.log_read_s": s("pipeline.log_read"),
            "pipeline.cache_hit_ratio": (
                (resume_pairs - measured_on_resume) / resume_pairs if resume_pairs else 0.0
            ),
            "reporting.report_s": s("reporting.report"),
        }

    def _under(self, span, name: str) -> bool:
        parent = span[PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write(self, path, origin: float) -> None:
        """Spans as [name, start_s, end_s, parent], times from ``origin``."""
        rows = [[n, round(a - origin, 9), round(b - origin, 9), p] for n, a, b, p in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, handle)
