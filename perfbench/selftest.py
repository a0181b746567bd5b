"""Spark-free checks of the benchmark's own arithmetic and metric names.

    python3 perfbench/selftest.py

Covers span self times (nested and overlapping children), per-name
aggregation, job-group switching and attribution, and that the metric
lists in ``metrics.py`` match ``BENCHMARK.json`` with valid names and
units. The functions are also plain pytest tests; the file name keeps
it out of the repository's default test collection.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Span, Tracer, aggregate, self_times, union_length, valid_name  # noqa: E402

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def _span(sid, parent, start, end, name="x", jobs=0):
    return Span(sid=sid, name=name, parent=parent, iteration=0,
                start=start, end=end, jobs=jobs)


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3)]) == 3
    assert union_length([(1, 3), (0, 4), (5, 6)]) == 5


def test_self_times_nested():
    spans = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 1, 2.0, 3.0, "b"),
        _span(3, 0, 5.0, 9.0, "a"),
    ]
    st = self_times(spans)
    assert st == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    # the self times of one tree add up to the root's duration
    assert sum(st.values()) == 10.0


def test_self_times_overlapping_and_clipped_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 5.0),
        _span(2, 0, 4.0, 6.0),  # overlaps its sibling: counted once
        _span(3, 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_aggregate_sums_by_name():
    spans = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 0.0, 2.0, "llm", jobs=0),
        _span(2, 0, 2.0, 6.0, "sampling", jobs=3),
        _span(3, 0, 6.0, 7.0, "sampling", jobs=4),
    ]
    spans[2].counts = {"fits": 1}
    spans[3].counts = {"fits": 1, "clusters": 5}
    agg = aggregate(spans)
    assert agg["sampling"] == {"self_s": 5.0, "spark_jobs": 7, "spans": 2,
                               "fits": 2, "clusters": 5}
    assert agg["root"]["self_s"] == 3.0
    assert sum(a["self_s"] for a in agg.values()) == 10.0


class FakeJobs:
    """Stands in for SparkJobs: every ``launch`` is one job in the
    current group."""

    def __init__(self):
        self.group = None
        self.jobs: dict = {}
        self.history = []

    def set_group(self, group):
        self.group = group
        self.history.append(group)

    def launch(self):
        self.jobs[self.group] = self.jobs.get(self.group, 0) + 1

    def count(self, group):
        return self.jobs.get(group, 0)


def test_tracer_job_groups_and_attribution():
    jobs = FakeJobs()
    tr = Tracer(jobs)
    tr.iteration = 7
    with tr.span("root") as root:
        jobs.launch()
        with tr.span("a") as a:
            jobs.launch()
            with tr.span("llm", spark=False):
                jobs.launch()  # no group of its own: lands in a's
            jobs.launch()
        jobs.launch()
        with tr.span("a"):
            jobs.launch()
    assert jobs.group is None
    assert a.group != root.group
    tr.resolve_jobs(tr.spans)
    got = {s.sid: s.jobs for s in tr.spans}
    assert got == {0: 2, 1: 3, 2: 0, 3: 1}
    assert sum(got.values()) == 6
    assert [s.iteration for s in tr.spans] == [7, 7, 7, 7]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_tracer_wrap_records_counts_and_result():
    tr = Tracer()

    def f(x, y=1):
        """doc"""
        return x + y

    g = tr.wrap(f, "layer", lambda r, a, k: {"calls": 1, "sum": r})
    assert g(2, y=3) == 5 and g(1) == 2
    assert g.__doc__ == "doc"
    agg = aggregate(tr.spans)
    assert agg["layer"]["calls"] == 2 and agg["layer"]["sum"] == 7


def test_tracer_count_goes_to_innermost_open_span():
    tr = Tracer()
    tr.count("fits")  # no open span: dropped
    with tr.span("outer") as outer:
        with tr.span("inner") as inner:
            tr.count("fits")
            tr.count("fits", 2)
        tr.count("fits")
    assert inner.counts == {"fits": 3} and outer.counts == {"fits": 1}


def test_tracer_span_closes_on_error():
    tr = Tracer(FakeJobs())
    try:
        with tr.span("boom"):
            raise ValueError
    except ValueError:
        pass
    assert tr.spans[0].end is not None and tr.jobs.group is None


def test_valid_name():
    for ok in ("wall_s", "llm.tokens.fm_ed", "baselines.raha.f1", "a-b", "9x"):
        assert valid_name(ok), ok
    for bad in ("", ".x", "_x", "a b", "a/b", "x" * 65, "tokens:fm"):
        assert not valid_name(bad), bad


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == END_TO_END
    assert layer == PER_LAYER
    names = [n for n, _u, _b in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in END_TO_END + PER_LAYER:
        assert valid_name(name), name
        assert UNIT_RE.fullmatch(unit), unit
        assert better in ("lower", "higher"), better
    assert ("setup_s", "s", "lower") in END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for w in spec["workloads"]:
        assert valid_name(w["name"]) and "\n" not in w["why"]


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as e:  # noqa: BLE001 - report every failure
            failed += 1
            print(f"FAIL {name}: {type(e).__name__}: {e}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
