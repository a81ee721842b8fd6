"""Run one workload of the turanhg benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 7 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports turanhg from
the checkout's `src/` and refuses to run (exit 2, no result) when that
is missing.  Every input is generated from --seed before timing.  A run:

0. pins itself, and so every subprocess it starts, to one CPU, the
   one its reference loop measures;
1. sets up (imports turanhg and generates the inputs) in this process
   and in three fresh interpreters, and reports the median as setup_s;
2. repeats passes over the in-process job list while the next pass
   still ends within --seconds, with at least three passes (of each
   kind when traced);
3. spreads 40 `turanhg` CLI calls in subprocesses evenly over the same
   time, between jobs, each timed from outside;
4. times a fixed reference loop before every CLI call and between jobs
   (at most every 20 ms), and expresses each job and call in reference
   loops ("ref") measured next to it.  wall_ref is the sum over jobs of
   each job's median cost in refs across the passes; cli_call_ref and
   cli_call_tail_ref are the median and tail of the calls' costs in
   refs.  The same figures in seconds are on the `report` line.

With --trace 1 every other pass records a span around each call into a
library layer; the per-layer metrics come from those passes, and
trace.overhead_s is wall_ref of the traced passes minus that of the
untraced ones, in seconds at the reference loop's median duration.  The
spans go to bench/runs/trace-<workload>-seed<seed>.json.

Standard output carries an `env` line, a `report` line, and last one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

CLI_CALLS = 40  # the tail percentile then has 10 samples beyond p75
SETUP_PROBES = 3  # fresh interpreters, besides this process
IMPORT_PROBES = 10
MIN_PASSES = 3  # of each kind when traced
SUBPROCESS_TIMEOUT = 60

WORK_COUNTS = (
    "construct.edges_built",
    "core.io_bytes",
    "shadow.members",
    "freeness.aux_vertices",
    "stability.moves",
    "stability.tuples",
    "stability.bad_edges_removed",
    "search.conflicts",
    "search.nodes",
    "search.proofs",
)


def setup(workload: str, seed: int):
    """Import turanhg and build the workload's inputs; (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.build(workload, seed)
    return wl, time.perf_counter() - t0


def subprocess_env() -> dict[str, str]:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def probe_import_ms(env: dict[str, str]) -> float:
    samples = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import turanhg.cli"], env=env, check=True, timeout=SUBPROCESS_TIMEOUT)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


class CliCalls:
    """The workload's CLI calls, made one at a time, cycling through its list."""

    def __init__(
        self, wl, workdir: Path, tracer: harness.Tracer, speed: harness.Speedometer, env: dict[str, str]
    ):
        for name, text in wl.cli_inputs.items():
            (workdir / name).write_text(text)
        self.calls, self.workdir, self.tracer, self.speed, self.env = wl.cli, workdir, tracer, speed, env
        self.spans: list[tuple[float, float]] = []  # perf_counter() start, end of each call
        self.failed = self.unexpected_exit = 0
        self.problems: list[str] = []

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def catch_up(self, share: float) -> None:
        """Make calls until `share` of the CLI_CALLS are done."""
        while len(self.spans) < min(CLI_CALLS, CLI_CALLS * share):
            self.call_next()

    def call_next(self) -> None:
        i = len(self.spans)
        call = self.calls[i % len(self.calls)]
        cmd = [sys.executable, "-m", "turanhg.cli", *call.argv]
        self.speed.sample(force=True)
        with self.tracer.span(f"cli.{call.argv[0]}", job=f"cli{i}/{call.id}"):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT
                )
            except subprocess.TimeoutExpired:
                proc = None
            self.spans.append((t0, time.perf_counter()))
        if proc is None:
            found = [f"no exit within {SUBPROCESS_TIMEOUT} s"]
        elif proc.returncode != call.code:
            found = [f"exit {proc.returncode}, expected {call.code}: {proc.stderr.strip()[-300:]}"]
        else:
            found = []
        self.unexpected_exit += bool(found)
        if proc is not None:
            try:
                found += call.check(proc.stdout, self.workdir)
            except Exception as exc:  # a check that cannot run is a failure
                found.append(f"check raised {exc!r}")
        if found:
            self.failed += 1
            self.problems.extend(f"cli {call.id}: {p}" for p in found)


def layer_metrics(spans: list[harness.Span], counts: Counter) -> dict[str, float]:
    """Per-layer self times (s) and span counts of one traced pass."""
    st = harness.self_times(spans)

    def busy(*names: str, tag: str | None = None) -> float:
        return sum(t for s, t in zip(spans, st) if s.name in names and (tag is None or s.tag == tag)) / 1e9

    def layer_busy(layer: str) -> float:
        return sum(t for s, t in zip(spans, st) if s.layer == layer) / 1e9

    def calls(*layers: str, names: tuple[str, ...] = ()) -> int:
        return sum(1 for s in spans if s.layer in layers or s.name in names)

    counting = ("construct.parity_edge_count", "construct.parity_degree", "construct.sidorenko_edge_count")
    search_s = busy("search.exact_turan")
    return {
        "krawtchouk.busy_s": layer_busy("krawtchouk"),
        "krawtchouk.calls": calls("krawtchouk"),
        "construct.count_s": busy(*counting),
        "construct.count_calls": calls(names=counting),
        "construct.build_s": busy("construct.build_parity", "construct.build_sidorenko"),
        "core.io_s": busy("core.write_hypergraph", "core.read_hypergraph"),
        "core.degrees_s": busy("core.vertex_degrees"),
        "shadow.busy_s": layer_busy("shadow"),
        "freeness.free_s": busy("freeness.find_expansion", tag="free"),
        "freeness.copy_s": busy("freeness.find_expansion", tag="copy"),
        "freeness.maximal_s": busy("freeness.is_maximal_free"),
        "freeness.calls": calls("freeness"),
        "stability.improve_s": busy("stability.improve_partition"),
        "stability.census_s": busy("stability.classify_tuples"),
        "search.conflicts_s": busy("search.conflict_triples"),
        "search.busy_s": search_s,
        "search.proof_s": busy("search.exact_turan", tag="proof"),
        "search.budget_s": busy("search.exact_turan", tag="budget"),
        "search.nodes_per_s": counts["search.nodes"] / search_s if search_s else 0.0,
    }


def measure(wl, cli: CliCalls, seconds: float, traced_run: bool) -> dict:
    """Passes while the next one, judged by the last, ends within `seconds`,
    with the CLI calls spread evenly among the jobs."""
    start = time.perf_counter()

    def between_jobs() -> None:
        cli.catch_up((time.perf_counter() - start) / seconds)

    results: dict[bool, list[harness.PassResult]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    traces: list[list[harness.Span]] = []
    out = {"attempted": 0, "failed": 0, "problems": [], "counts": None}
    i = 0
    while True:
        pass_start = time.perf_counter()
        traced = traced_run and i % 2 == 1
        tracer = harness.Tracer(traced)
        res = harness.run_pass(wl.jobs, tracer, f"p{i}/", between_jobs, cli.speed)
        results[traced].append(res)
        if i == 0:  # the work's own peak; later passes only add the benchmark's bookkeeping
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["attempted"] += res.attempted
        out["failed"] += res.failed
        out["problems"].extend(res.problems)
        counts = {name: res.counts[name] for name in WORK_COUNTS}
        if out["counts"] is None:
            out["counts"] = counts
        elif counts != out["counts"]:
            out["failed"] += 1
            out["problems"].append(f"pass {i}: work counts {counts} differ from pass 0")
        if traced:
            layers.append(layer_metrics(tracer.spans, res.counts))
            traces.append(tracer.spans)
        i += 1
        done = len(results[False]) >= MIN_PASSES and (not traced_run or len(results[True]) >= MIN_PASSES)
        now = time.perf_counter()
        if done and now + (now - pass_start) > start + seconds:
            break
    cli.catch_up(1.0)
    cli.speed.sample(force=True)  # the sample after the last job or call
    out["attempted"] += i - 1  # the repeat check of the work counts after pass 0
    out.update(results=results, layers=layers, traces=traces)
    return out


def write_trace(path: Path, env: dict, metrics: dict, passes: list[list[harness.Span]], cli_spans) -> None:
    def rows(spans):
        return [[s.name, s.tag, s.start, s.end, s.parent, s.job] for s in spans]

    doc = {
        "env": env,
        "metrics": metrics,
        "span_fields": ["name", "tag", "start_ns", "end_ns", "parent", "job"],
        "passes": [rows(p) for p in passes],
        "cli": rows(cli_spans),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="turanhg benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "turanhg" / "__init__.py").is_file():
        print(f"error: no turanhg package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cpu = harness.pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    try:
        wl, own_setup_s = setup(args.workload, args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(own_setup_s)
        return 0
    import turanhg

    if not Path(turanhg.__file__).resolve().is_relative_to(SRC):
        print(f"error: turanhg was imported from {turanhg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    env = harness.environment(
        ROOT, workload=args.workload, seed=args.seed, seconds=args.seconds, traced=traced, pinned_cpu=cpu
    )
    print("env " + json.dumps(env), flush=True)

    sub_env = subprocess_env()
    setup_samples = [own_setup_s] + (
        [] if traced else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    )
    import_ms = probe_import_ms(sub_env) if traced else None

    workdir = RUNS / f"cli-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cli_tracer = harness.Tracer(traced)
    try:
        cli = CliCalls(wl, workdir, cli_tracer, harness.Speedometer(), sub_env)
        passes = measure(wl, cli, args.seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(cli.spans) + passes["attempted"]
    failed = cli.failed + passes["failed"]
    speed = cli.speed
    cli_refs = [speed.in_refs(*span) for span in cli.spans]
    tail_ref, tail_ms = harness.tail_percentile(cli_refs), harness.tail_percentile(cli.durations)
    results = passes["results"]
    report = {
        "passes": {"untraced": len(results[False]), "traced": len(results[True])},
        "pass_wall_s": [r.wall_s for r in results[False]],
        "best_pass_s": harness.best_pass_s(results[False]),
        "reference_ms": {"median": statistics.median(speed.refs) * 1e3, "samples": len(speed.refs)},
        "setup_s_samples": setup_samples,
        "cli_calls": len(cli.spans),
        "cli_tail": {"percentile": tail_ref[1], "samples": tail_ref[2]},
        "cli_call_ms": {"median": statistics.median(cli.durations) * 1e3, "tail": tail_ms[0] * 1e3},
        "error_rate": harness.error_rate(attempted, failed),
        "work_counts": passes["counts"],
        "problems": (cli.problems + passes["problems"])[:20],
    }
    print("report " + json.dumps(report), flush=True)

    if traced:
        per_pass = passes["layers"]
        metrics = {}
        for name in per_pass[0]:
            if name.endswith("calls"):  # the same in every pass
                metrics[name] = metric(per_pass[0][name], "count")
            else:
                metrics[name] = metric(statistics.median([p[name] for p in per_pass]), "1/s" if name.endswith("_per_s") else "s")
        for name, value in passes["counts"].items():
            metrics[name] = metric(value, "bytes" if name == "core.io_bytes" else "count")
        metrics["cli.import_ms"] = metric(import_ms, "ms")
        metrics["cli.calls"] = metric(len(cli.spans), "count")
        metrics["cli.unexpected_exit"] = metric(cli.unexpected_exit, "count")
        overhead_refs = harness.pass_refs(results[True], speed) - harness.pass_refs(results[False], speed)
        metrics["trace.overhead_s"] = metric(overhead_refs * statistics.median(speed.refs), "s")
        write_trace(
            RUNS / f"trace-{args.workload}-seed{args.seed}.json", env, metrics, passes["traces"], cli_tracer.spans
        )
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "wall_ref": metric(harness.pass_refs(results[False], speed), "ref"),
            "cli_call_ref": metric(statistics.median(cli_refs), "ref"),
            "cli_call_tail_ref": metric(tail_ref[0], "ref"),
            "peak_rss_mb": metric(passes["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
