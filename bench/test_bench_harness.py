"""Tests of the benchmark's own arithmetic, on synthetic data.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import os
import subprocess
import sys

import pytest

import harness
from harness import Job, PassResult, Span, Tracer


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(x) for x in reversed(range(40))]
    value, pct, n = harness.tail_percentile(samples)
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(1 for x in samples if x > value) == 10


@pytest.mark.parametrize("n", [11, 12, 25, 100, 1000])
def test_tail_percentile_is_the_highest_such_rank(n):
    samples = [float(x) for x in range(n)]
    value, pct, count = harness.tail_percentile(samples)
    assert count == n
    assert sum(1 for x in samples if x > value) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_needs_more_than_ten_samples():
    assert harness.tail_percentile([1.0] * 10) is None


def test_union_length_merges_overlaps_and_ignores_empty():
    assert harness.union_length([]) == 0
    assert harness.union_length([(0, 10), (5, 15), (20, 25), (30, 30)]) == 20
    assert harness.union_length([(0, 10), (2, 3)]) == 10


def test_self_time_with_nested_children():
    spans = [
        Span("job", 0, 100, None, "j"),
        Span("a.f", 10, 40, 0, "j"),
        Span("b.g", 15, 25, 1, "j"),  # grandchild: covers part of a.f only
        Span("c.h", 50, 60, 0, "j"),
    ]
    assert harness.self_times(spans) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_with_overlapping_children_counts_cover_once():
    spans = [
        Span("job", 0, 100, None, "j"),
        Span("a.f", 10, 30, 0, "j"),
        Span("a.g", 20, 50, 0, "j"),  # overlaps a.f by 10
        Span("a.h", 90, 130, 0, "j"),  # runs past its parent: clipped at 100
    ]
    assert harness.self_times(spans)[0] == 100 - 40 - 10


def test_tracer_records_parent_job_and_tag():
    t = Tracer(True)
    with t.span("job", job="p0/x"):
        assert t.call(divmod, 7, 2, tag="probe") == (3, 1)
    root, child = t.spans
    assert (root.name, root.parent, root.job) == ("job", None, "p0/x")
    assert (child.name, child.parent, child.job, child.tag) == ("builtins.divmod", 0, "p0/x", "probe")
    assert root.start <= child.start <= child.end <= root.end


def test_disabled_tracer_records_nothing():
    t = Tracer(False)
    with t.span("job", job="x"):
        assert t.call(abs, -3) == 3
    assert t.spans == []


def _job(job_id, run, check=lambda out, counts: []):
    return Job(job_id, run, check)


def test_error_rate_counts_wrong_answers_and_exceptions():
    def wrong(out, counts):
        return [] if out == 4 else [f"got {out}"]

    def boom(t):
        raise RuntimeError("raised on purpose")

    def broken_check(out, counts):
        raise KeyError("missing")

    jobs = [
        _job("right", lambda t: 2 + 2, wrong),
        _job("wrong", lambda t: 2 + 3, wrong),
        _job("raises", boom),
        _job("check-raises", lambda t: 0, broken_check),
    ]
    res = harness.run_pass(jobs, Tracer(False))
    assert (res.attempted, res.failed) == (4, 3)
    assert harness.error_rate(res.attempted, res.failed) == 0.75
    assert len(res.job_s) == 4
    assert [p.split(":")[0] for p in res.problems] == ["wrong", "raises", "check-raises"]


def test_error_rate_is_zero_when_nothing_ran_or_failed():
    assert harness.error_rate(0, 0) == 0.0
    assert harness.error_rate(5, 0) == 0.0


def test_checks_record_work_counts():
    def check(out, counts):
        counts["search.nodes"] += out
        return []

    res = harness.run_pass([_job("a", lambda t: 3, check), _job("b", lambda t: 4, check)], Tracer(False))
    assert res.counts["search.nodes"] == 7


def test_best_pass_sums_per_job_minima():
    passes = [PassResult([1.0, 10.0], 2, 0), PassResult([9.0, 11.0], 2, 0), PassResult([2.0, 30.0], 2, 0)]
    assert harness.best_pass_s(passes) == 1.0 + 10.0
    assert [p.wall_s for p in passes] == [11.0, 20.0, 32.0]


def _speedometer(ends, refs):
    speed = harness.Speedometer()
    speed.ends, speed.refs = list(ends), list(refs)
    return speed


def test_in_refs_divides_by_the_samples_next_to_the_interval():
    speed = _speedometer([1.0, 2.0, 5.0, 9.0], [0.5, 1.0, 3.0, 7.0])
    assert speed.in_refs(2.0, 4.0) == 2.0 / ((1.0 + 3.0) / 2)  # a sample ending at the start counts as before
    assert speed.in_refs(2.5, 3.0) == 0.5 / ((1.0 + 3.0) / 2)
    assert speed.in_refs(0.0, 0.5) == 0.5 / 0.5  # nothing before: the sample after alone
    assert speed.in_refs(9.5, 10.0) == 0.5 / 7.0  # nothing after: the sample before alone
    with pytest.raises(ValueError):
        _speedometer([], []).in_refs(0.0, 1.0)


def test_pass_refs_sums_per_job_medians_in_refs():
    speed = _speedometer([0.0, 100.0], [1.0, 1.0])  # steady speed, 1 s per ref
    passes = [
        PassResult([], 2, 0, job_spans=[(1.0, 2.0), (2.0, 12.0)]),
        PassResult([], 2, 0, job_spans=[(20.0, 23.0), (30.0, 40.0)]),
        PassResult([], 2, 0, job_spans=[(50.0, 52.0), (60.0, 90.0)]),
    ]
    assert harness.pass_refs(passes, speed) == 2.0 + 10.0


def test_reference_loop_samples_are_gated_by_the_gap():
    speed = harness.Speedometer(gap_s=60.0)
    speed.sample()
    speed.sample()
    assert len(speed.refs) == 1 and speed.refs[0] > 0
    speed.sample(force=True)
    assert len(speed.refs) == 2


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_pinning_holds_for_subprocesses():
    before = os.sched_getaffinity(0)
    try:
        cpu = harness.pin_to_one_cpu()
        out = subprocess.run(
            [sys.executable, "-c", "import os; print(*os.sched_getaffinity(0))"],
            capture_output=True, text=True, check=True,
        ).stdout
        assert cpu == min(before) and out.split() == [str(cpu)]
    finally:
        os.sched_setaffinity(0, before)
