"""In-memory span recorder for the benchmark's traced run.

A span records its name, start, end, parent span and iteration id. Spans
stay in memory and are written out once, when the run ends. A span's self
time is its duration minus the part of that interval its child spans
cover, so the self times of one span tree add up to the root's duration.

Spark jobs are attributed per span instance: a span that may launch jobs
gets a job group of its own for its lifetime (the parent's group is put
back when it ends), and the jobs of each group are counted after the
iteration, once Spark's listener bus has caught up.

This module imports neither Spark nor ``repro``; ``selftest.py`` checks it
without a JVM.
"""
from __future__ import annotations

import functools
import json
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


def valid_name(name: str) -> bool:
    """Metric and span names: letters, digits, ``_``, ``.``, ``-``; ≤ 64."""
    return NAME_RE.fullmatch(name) is not None


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    iteration: int | None
    start: float
    end: float | None = None
    group: str | None = None
    jobs: int = 0
    counts: dict = field(default_factory=dict)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (each clipped to the parent's own interval)."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {
        s.sid: (s.end - s.start) - union_length(children.get(s.sid, []))
        for s in spans
    }


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed ``self_s``, ``spark_jobs``, ``spans`` and every
    count the spans recorded."""
    st = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"self_s": 0.0, "spark_jobs": 0, "spans": 0})
        agg["self_s"] += st[s.sid]
        agg["spark_jobs"] += s.jobs
        agg["spans"] += 1
        for k, v in s.counts.items():
            agg[k] = agg.get(k, 0) + v
    return out


class Tracer:
    """Span stack plus the finished spans of a run.

    ``jobs`` is an object with ``set_group(group_or_None)`` and
    ``count(group) -> int`` (see ``run.SparkJobs``); ``None`` records
    spans without Spark job attribution.
    """

    def __init__(self, jobs=None):
        self.jobs = jobs
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self.truth = None  # evaluation-only error mask, read by counters
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, spark: bool = True):
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            sid=len(self.spans), name=name,
            parent=parent.sid if parent else None,
            iteration=self.iteration, start=time.perf_counter(),
        )
        if spark and self.jobs is not None:
            sp.group = f"perfbench-span-{sp.sid}"
            self.jobs.set_group(sp.group)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if sp.group is not None:
                self.jobs.set_group(self._current_group())

    def _current_group(self) -> str | None:
        for s in reversed(self._stack):
            if s.group is not None:
                return s.group
        return None

    def wrap(self, fn: Callable, name: str, counts: Callable | None = None) -> Callable:
        """``fn`` run inside a span; ``counts(result, args, kwargs)`` adds
        to the span's counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if counts is not None:
                    sp.counts.update(counts(result, args, kwargs))
            return result

        return traced

    def count(self, key: str, n: int = 1) -> None:
        """Add ``n`` to ``key`` in the innermost open span's counts."""
        if self._stack:
            counts = self._stack[-1].counts
            counts[key] = counts.get(key, 0) + n

    def resolve_jobs(self, spans: list[Span]) -> None:
        """Fill in each grouped span's job count (call once jobs are done)."""
        for s in spans:
            if s.group is not None:
                s.jobs = self.jobs.count(s.group)

    def iteration_spans(self, iteration: int) -> list[Span]:
        return [s for s in self.spans if s.iteration == iteration]

    def dump(self, path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        st = self_times(self.spans)
        rows = [{**asdict(s), "self_s": st[s.sid]} for s in self.spans]
        path.write_text(json.dumps({**extra, "spans": rows}, indent=0))
