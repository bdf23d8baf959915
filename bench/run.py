"""thetahyp benchmark: one seeded, closed-loop workload per run.

Run from the repository root:

    python3 bench/run.py --workload vwp-depth --seed 1 --seconds 25 --trace 0

One client in one process and one thread runs the workload's job list
in whole passes until ``--seconds`` have elapsed. Times are scaled to a
reference host speed (see ``hostspeed.py``). With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it runs untraced passes,
then the set-up and passes again with every layer wrapped, and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts timed jobs that fail by the rule in ``workloads.Outcome``;
the timed jobs are chosen so that none fails today. Jobs that hit a known
defect run once after the timed passes, and their outcomes are printed on
``# known defect`` lines. ``correct`` is false when the benchmark sees output
it cannot trust: a verdict that contradicts its own numbers, a result that
changes between passes or under tracing, or per-pass call counts that differ.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
WORKLOAD_NAMES = ("vwp-depth", "lattice-sum", "term-ratio")
SETUP_CHILDREN = 2  # extra set-ups in fresh interpreters; setup_s is the median with the run's own
CHILD_TIMEOUT_S = 150
SEGMENT_S = 0.25  # job time between two timings of the host-speed reference
EPS_ERR = 2.0**-52


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package():
    """Import thetahyp from this checkout's src/, never from site-packages."""
    if not (SRC / "thetahyp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no thetahyp package at {SRC / 'thetahyp'}")
    sys.path.insert(0, str(SRC))
    import thetahyp

    if not Path(thetahyp.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported thetahyp from {thetahyp.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, host-speed scale) in fresh interpreters, each
    importing the package and building the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        times.append(tuple(map(float, done.stdout.strip().splitlines()[-1].split())))
    return times


def run_job(job):
    """One job: (latency_s, Outcome). The call is timed, the check is not."""
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        raw = job.call()
    except Exception as exc:  # a failed job is counted, never raised
        return time.perf_counter() - t0, Outcome(math.nan, False, error=f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    try:
        return latency, job.check(raw)
    except Exception as exc:  # unreadable output: the run cannot be trusted
        return latency, Outcome(math.nan, False, consistent=False, error=f"check {type(exc).__name__}: {exc}")


def run_passes(jobs, seconds: float, min_passes: int, after_pass=None):
    """Closed loop over whole passes of the job list. Returns the pass wall
    times and, per pass, one (latency_s, Outcome, scale) per job, where
    scale is the host-speed scale of the segment the job ran in: the jobs
    are cut into segments of about SEGMENT_S, and the reference loop is
    timed between segments."""
    clock = time.perf_counter
    pass_s: list[float] = []
    rows = []
    refs = [hostspeed.reference()]
    segment_of: list[list[int]] = []
    start = clock()
    while len(pass_s) < min_passes or clock() - start < seconds:
        p0 = clock()
        row, segs = [], []
        busy = 0.0
        for job in jobs:
            latency, outcome = run_job(job)
            row.append((latency, outcome))
            segs.append(len(refs) - 1)
            busy += latency
            if busy >= SEGMENT_S:
                refs.append(hostspeed.reference())
                busy = 0.0
        if busy:
            refs.append(hostspeed.reference())
        pass_s.append(clock() - p0)
        rows.append(row)
        segment_of.append(segs)
        if after_pass is not None:
            after_pass()
    seg_scale = [hostspeed.scale((a + b) / 2) for a, b in zip(refs, refs[1:])]
    rows = [[(lat, o, seg_scale[i]) for (lat, o), i in zip(row, segs)] for row, segs in zip(rows, segment_of)]
    return pass_s, rows


def known_defects(wl, seed: int, workdir: Path) -> bool:
    """Run the workload's known-defect jobs once, untimed, and print their
    outcomes. Returns False if one of them contradicts its own numbers."""
    if wl.defects is None:
        return True
    jobs = wl.defects(seed, workdir)
    outcomes = [run_job(job)[1] for job in jobs]
    for job, o in zip(jobs, outcomes):
        state = "passed" if o.passed else "FAILED"
        print(f"# known defect: {job.kind:16s} {state} err {o.err!r}" + (f" ({o.error})" if o.error else ""))
    n_fail = sum(not o.passed for o in outcomes)
    print(f"# known defect: {n_fail}/{len(jobs)} jobs fail (untimed, not counted in attempted or failed)")
    return all(o.consistent for o in outcomes)


def same_results(rows_a, rows_b) -> bool:
    """True when every job's error and verdict repeat bit for bit."""
    ref = [(repr(o.err), o.passed) for _, o, _ in rows_a[0]]
    return all([(repr(o.err), o.passed) for _, o, _ in row] == ref for row in rows_a + rows_b)


def scaled_busy(rows) -> list[float]:
    """Per pass, the summed job latencies scaled to the reference host speed."""
    return [sum(lat * k for lat, _, k in row) for row in rows]


def nearest_rank(values: list[float], q: float) -> float:
    """The smallest value with at least a share q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digits(outcome) -> float:
    return -math.log10(max(outcome.err, EPS_ERR)) if outcome.passed else 0.0


def job_mix(jobs) -> str:
    return ", ".join(f"{k} x{v}" for k, v in Counter(job.kind for job in jobs).items())


def print_kinds(jobs, rows) -> None:
    """Median latency and failures per job kind."""
    by_kind: dict[str, list] = {}
    for row in rows:
        for job, (latency, outcome, _) in zip(jobs, row):
            entry = by_kind.setdefault(job.kind, [[], 0, ""])
            entry[0].append(latency)
            if not outcome.passed:
                entry[1] += 1
                entry[2] = entry[2] or outcome.error or f"err {outcome.err!r}"
    for kind, (latencies, bad, reason) in by_kind.items():
        line = f"# {kind:20s} median {statistics.median(latencies) * 1e3:9.3f} ms, failed {bad}/{len(latencies)}"
        print(line + (f" ({reason})" if bad else ""))


def emit(correct: bool, rows, metrics: dict[str, tuple[float, str]]) -> None:
    outcomes = [o for row in rows for _, o, _ in row]
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(not o.passed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def end_to_end(args, jobs, setup: tuple[float, float]):
    setups = [setup] + setup_probe(args.workload, args.seed)
    run_passes(jobs, 0, min_passes=1)  # warm-up: first-call caches, imports, page faults
    pass_s, rows = run_passes(jobs, args.seconds, min_passes=3)
    outcomes = [o for row in rows for _, o, _ in row]
    scores = [digits(o) for _, o, _ in rows[0]]  # one pass: every pass repeats it, so this is exact
    n_fail = sum(not o.passed for o in outcomes)
    correct = all(o.consistent for o in outcomes) and same_results(rows, [])
    # Times are scaled to the reference host speed (hostspeed.py). Every pass
    # runs the same jobs, so medians over passes and over the pooled
    # latencies also discard what a single stall of the host stretched.
    latencies = [lat for row in rows for lat, _, _ in row]
    scaled = [lat * k for row in rows for lat, _, k in row]
    scales = [k for row in rows for _, _, k in row]
    busy = [sum(lat for lat, _, _ in row) for row in rows]
    metrics = {
        "setup_s": (statistics.median(s * k for s, k in setups), "s"),
        "jobs_per_s": (len(jobs) / statistics.median(scaled_busy(rows)), "1/s"),
        "job_p50_ms": (nearest_rank(scaled, 0.5) * 1e3, "ms"),
        "job_p90_ms": (nearest_rank(scaled, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# passes {len(pass_s)} after one warm-up pass, jobs {len(outcomes)}, wall {sum(pass_s):.3f} s")
    print(f"# host-speed scale per job: median {statistics.median(scales):.4f}, "
          f"range {min(scales):.4f}-{max(scales):.4f}")
    print(f"# unscaled: setup_s {statistics.median(s for s, _ in setups):.4f} s, "
          f"jobs_per_s {len(jobs) / statistics.median(busy):.4f} 1/s, "
          f"job_p50_ms {nearest_rank(latencies, 0.5) * 1e3:.4f} ms, job_p90_ms {nearest_rank(latencies, 0.9) * 1e3:.4f} ms")
    print(f"# set-ups (s, scale): {', '.join(f'{s:.4f} x {k:.4f}' for s, k in setups)}")
    print(f"setup_s      {metrics['setup_s'][0]:.4f} s    (median of {len(setups)} scaled set-ups)")
    print(f"jobs_per_s   {metrics['jobs_per_s'][0]:.4f} 1/s  "
          f"({len(jobs)} jobs per pass / median over {len(rows)} passes of their scaled job time)")
    samples = f"(nearest rank over {len(latencies)} scaled latencies in {len(rows)} passes)"
    print(f"job_p50_ms   {metrics['job_p50_ms'][0]:.4f} ms   {samples}")
    print(f"job_p90_ms   {metrics['job_p90_ms'][0]:.4f} ms   {samples}")
    print(f"fail_frac    {n_fail / len(outcomes):.4f} ratio ({n_fail}/{len(outcomes)} jobs)")
    print(f"digits_p10   {nearest_rank(scores, 0.1):.4f} digits (n={len(scores)}, mean {statistics.fmean(scores):.4f})")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.4f} MB")
    print_kinds(jobs, rows)
    return correct, rows, metrics


def per_layer(args, wl, jobs):
    import spans

    half = args.seconds / 2.0
    untraced_s, untraced_rows = run_passes(jobs, half, min_passes=1)
    tracer = spans.Tracer()
    snapshots = []
    with tempfile.TemporaryDirectory(dir=TMP, prefix=f"{args.workload}-traced-") as workdir, tracer:
        traced_jobs = wl.build(args.seed, Path(workdir))
        snapshots.append(tracer.snapshot())
        traced_s, traced_rows = run_passes(
            traced_jobs, half, min_passes=2, after_pass=lambda: snapshots.append(tracer.snapshot())
        )
    counts = [spans.call_counts(s) for s in snapshots]
    per_pass = [{k: c[k] - prev.get(k, 0) for k in c} for prev, c in zip(counts[1:], counts[2:])]
    first = {k: counts[1][k] - counts[0].get(k, 0) for k in counts[1]}
    counts_repeat = all(p == first for p in per_pass)
    bitwise = same_results(untraced_rows, traced_rows)
    consistent = all(o.consistent for row in untraced_rows + traced_rows for _, o, _ in row)
    correct = counts_repeat and bitwise and consistent

    layer = spans.layer_metrics(
        snapshots[1], statistics.median(scaled_busy(traced_rows)), statistics.median(scaled_busy(untraced_rows))
    )
    print(f"# untraced passes {len(untraced_s)}, traced passes {len(traced_s)}")
    print("# layer metrics cover the traced set-up and the first traced pass")
    print(f"# results identical under tracing: {bitwise}; per-pass call counts repeat: {counts_repeat}")
    for name, (value, unit, detail) in layer.items():
        print(f"{name:34s} {value:.6g} {unit}" + (f"   ({detail})" if detail else ""))
    print_kinds(jobs, untraced_rows)
    return correct, untraced_rows + traced_rows, {k: (v, u) for k, (v, u, _) in layer.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    ref_before = hostspeed.reference()
    t0 = time.perf_counter()
    workloads = import_package()
    TMP.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    try:
        with tempfile.TemporaryDirectory(dir=TMP, prefix=f"{args.workload}-") as workdir:
            jobs = wl.build(args.seed, Path(workdir))
            setup = (time.perf_counter() - t0, hostspeed.scale((ref_before + hostspeed.reference()) / 2))
            if args.setup_probe:
                print(*setup)
                return 0
            import numpy

            print(f"# thetahyp benchmark: workload {args.workload}, seed {args.seed}, "
                  f"seconds {args.seconds}, trace {args.trace}")
            print(f"# git {git_sha()}, python {platform.python_version()}, numpy {numpy.__version__}, "
                  f"nproc {os.cpu_count()}")
            print(f"# why: {wl.why}")
            print(f"# job mix per pass ({len(jobs)} jobs): {job_mix(jobs)}")
            correct, rows, metrics = per_layer(args, wl, jobs) if args.trace else end_to_end(args, jobs, setup)
            correct = known_defects(wl, args.seed, Path(workdir)) and correct
            emit(correct, rows, metrics)
    finally:
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
