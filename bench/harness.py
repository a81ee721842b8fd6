"""Measurement machinery of the turanhg benchmark; standard library only.

Nothing here knows about turanhg.  It provides:

* a tracer that, when enabled, records one span per call into a
  library layer (name, start, end, parent span, job id, tag) and keeps
  the spans in memory until the run writes them out;
* the self time of every span: its duration minus the part of it that
  its child spans cover, with nested or overlapping children counted
  once;
* the tail-percentile rule: the highest order statistic that still has
  at least ten samples beyond it;
* a speedometer: a fixed pure-Python reference loop timed between
  jobs, so that every timed interval can also be expressed in reference
  loops measured next to it;
* pinning of the benchmark and its subprocesses to one CPU;
* execution of one pass over a job list, timing each job's calls and
  counting as failed every job that raises or fails its check;
* the environment record printed with every result.
"""

from __future__ import annotations

import bisect
import os
import platform
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Iterator

TAIL_BEYOND = 10
REFERENCE_LOOPS = 20_000  # about 1-2 ms of CPython
SPEED_GAP_S = 0.02  # at most one reference sample per this many seconds


@dataclass
class Span:
    name: str
    start: int  # time.perf_counter_ns()
    end: int
    parent: int | None  # index of the enclosing span, None at the root
    job: str
    tag: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Span recorder; a disabled tracer only forwards calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job = ""

    @contextmanager
    def span(self, name: str, tag: str | None = None, job: str | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        outer_job = self._job
        if job is not None:
            self._job = job
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0, 0, parent, self._job, tag))
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx].start, self.spans[idx].end = start, end
            self._job = outer_job

    def call(self, fn: Callable, *args, tag: str | None = None, **kwargs) -> Any:
        """fn(*args, **kwargs) inside a span named `<module>.<function>`."""
        if not self.enabled:
            return fn(*args, **kwargs)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        with self.span(name, tag):
            return fn(*args, **kwargs)


def union_length(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children clipped to it."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            [(max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]]
        )
        out.append(s.end - s.start - covered)
    return out


def tail_percentile(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int] | None:
    """(value, percentile, sample count) of the highest order statistic
    with at least `beyond` samples above it in sorted order; None when
    there are too few samples for any."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    i = n - 1 - beyond
    return xs[i], 100.0 * (i + 1) / n, n


def reference_s() -> float:
    """Seconds one run of the reference loop takes: fixed integer
    arithmetic in the interpreter, touching nothing the workloads touch,
    so its duration follows only the speed the machine gives us."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


class Speedometer:
    """Reference-loop samples taken over a run.

    The machines this runs on share their cores, and the speed one core
    gives a process varies by about 1.5x, for seconds and sometimes for a
    whole run.  An interval divided by the reference loop's duration just
    before and just after it is a cost in reference loops ("ref") that
    does not follow that speed."""

    def __init__(self, gap_s: float = SPEED_GAP_S):
        self.gap_s = gap_s
        self.ends: list[float] = []  # perf_counter() at the end of each sample
        self.refs: list[float] = []  # its duration, s

    def sample(self, force: bool = False) -> None:
        """Time the reference loop, unless a sample ended less than gap_s ago."""
        if force or not self.ends or time.perf_counter() - self.ends[-1] >= self.gap_s:
            ref = reference_s()
            self.ends.append(time.perf_counter())
            self.refs.append(ref)

    def in_refs(self, start: float, end: float) -> float:
        """end - start divided by the mean of the samples next to it: the
        last one ended by `start` and the first one ended after `end`."""
        i = bisect.bisect_right(self.ends, start)
        near = self.refs[max(i - 1, 0) : i] + self.refs[bisect.bisect_left(self.ends, end) :][:1]
        if not near:
            raise ValueError("no reference sample around the interval")
        return (end - start) / statistics.fmean(near)


def pin_to_one_cpu() -> int | None:
    """Keep this process, and every process it starts, on the lowest CPU
    it may use; that CPU, or None where affinity cannot be set.

    The reference loop only tells the speed of the core it runs on, and
    on a machine whose cores are shared the two cores can run at
    different speeds at the same time: a subprocess scheduled on the
    other core would be divided by the wrong speed."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Job:
    """One unit of a workload.

    `run` makes the timed library calls through the tracer and returns
    what they produced.  `check` compares that against an independent
    answer outside the timed region, adds the job's hardware-independent
    counts to the counter, and returns the problems found (none when
    correct).
    """

    id: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any, Counter], list[str]]


@dataclass
class PassResult:
    job_s: list[float]  # time inside each job's `run`, in job order
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    job_spans: list[tuple[float, float]] = field(default_factory=list)  # perf_counter() start, end

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)


def run_pass(
    jobs: list[Job],
    tracer: Tracer,
    label: str = "",
    between: Callable[[], None] | None = None,
    speed: Speedometer | None = None,
) -> PassResult:
    """Run every job once, timing only its `run`, then check it; `between`
    runs after each job and the speedometer samples before each, both
    outside the timed region."""
    res = PassResult([], 0, 0)
    for job in jobs:
        res.attempted += 1
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        try:
            with tracer.span("job", job=f"{label}{job.id}"):
                out = job.run(tracer)
            problems = None
        except Exception as exc:  # a raising job is a failed job, the pass goes on
            problems = [f"raised {exc!r}"]
        t1 = time.perf_counter()
        res.job_s.append(t1 - t0)
        res.job_spans.append((t0, t1))
        if problems is None:
            try:
                problems = job.check(out, res.counts)
            except Exception as exc:  # a check that cannot run is a failure too
                problems = [f"check raised {exc!r}"]
        if problems:
            res.failed += 1
            res.problems.extend(f"{job.id}: {p}" for p in problems)
        if between is not None:
            between()
    return res


def best_pass_s(passes: list[PassResult]) -> float:
    """One pass over the job list at the machine's best speed in the run:
    the sum over jobs of each job's fastest time across passes.

    The machines this runs on share their cores, and a core's speed
    flips between two levels about 1.5x apart every few seconds; a
    job's median follows the share of slow seconds in the run, its
    minimum does not."""
    return sum(min(times) for times in zip(*(p.job_s for p in passes)))


def pass_refs(passes: list[PassResult], speed: Speedometer) -> float:
    """One pass over the job list in reference loops: the sum over jobs of
    each job's median cost in refs across the passes."""
    per_job = zip(*([speed.in_refs(*span) for span in p.job_spans] for p in passes))
    return sum(statistics.median(costs) for costs in per_job)


def error_rate(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 0.0


def git_revision(root: Path) -> str | None:
    """HEAD commit read from root/.git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, **run: Any) -> dict[str, Any]:
    """What a result must carry to be compared with another machine's."""
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "git_revision": git_revision(root),
        "numpy": numpy or "absent",
        **run,
    }
