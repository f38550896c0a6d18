"""tpe benchmark: time to verdict on the gated workloads.

    python3 perfbench/run.py --workload cert-docs --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ./src.  The
untraced run (--trace 0) prints the end-to-end metrics; the traced run
(--trace 1) prints the per-layer metrics of one traced round, with the
tracing overhead against the same round untraced.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A wrong
verdict or an exception makes `correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import tpe from this checkout's src/ (never from anywhere else)."""
    if not os.path.isfile(os.path.join(SRC, "tpe", "__init__.py")):
        raise ImportError(f"no tpe package under {SRC}")
    sys.path.insert(0, SRC)
    import tpe

    if os.path.dirname(os.path.dirname(os.path.abspath(tpe.__file__))) != SRC:
        raise ImportError(f"tpe imported from {tpe.__file__}, not {SRC}")
    import workloads

    return workloads


def run_case(case, tracer=None):
    """Time one verdict: (seconds, result, error)."""
    if tracer is not None:
        tracer.input_id = case.key
    start = time.perf_counter()
    try:
        result, error = case.run(), None
    except Exception as exc:  # a crash is a wrong verdict, reported below
        result, error = None, f"{case.key}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, error


def judge(case, seconds, result, error, limit_s):
    """Check a verdict outside the timed region: (seconds, failed, mismatch
    message or None).  A verdict slower than limit_s fails but is not wrong."""
    wrong = error or case.check(result)
    return seconds, bool(wrong) or seconds > limit_s, wrong


def run_round(cases, limit_s):
    return [judge(case, *run_case(case), limit_s) for case in cases]


def tail(times):
    """Highest percentile with at least 10 verdicts beyond it: (value, pct)."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def setup(workloads, name, seed, workdir):
    """Build the inputs and warm up, SETUP_REPEATS times; (workload, median s)."""
    times, built = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        built = workloads.WORKLOADS[name](seed, workdir)
        built.warmup()
        times.append(time.perf_counter() - start)
    return built, statistics.median(times)


def measure(workload, seconds):
    """Whole rounds until the verdicts have taken `seconds`, so every run
    has the same mix."""
    outcomes, busy, r = [], 0.0, 0
    while r == 0 or busy < seconds:
        round_outcomes = run_round(workload.rounds[r % len(workload.rounds)], workload.limit_s)
        busy += sum(o[0] for o in round_outcomes)
        outcomes += round_outcomes
        r += 1
    return outcomes, busy, r


def summarize(outcomes):
    """(attempted, failed, mismatch messages)."""
    wrong = [o[2] for o in outcomes if o[2]]
    return len(outcomes), sum(o[1] for o in outcomes), wrong


def end_to_end(workload, seconds, setup_s):
    outcomes, busy, rounds = measure(workload, seconds)
    times = [o[0] for o in outcomes]
    n, failed, wrong = summarize(outcomes)
    tail_s, tail_pct = tail(times)
    print(f"{n} verdicts in {rounds} rounds, {busy:.2f} s busy; "
          f"fail_ratio {failed / n:.4f}; verdict_ms_tail is p{tail_pct:.1f} of {n}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "verdict_ms_tail": (tail_s * 1e3, "ms"),
        "verdicts_per_s": (n / busy, "1/s"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return n, failed, wrong, metrics


def traced(workload, name, seed):
    """One traced round, then the same round untraced for the overhead."""
    import spans
    from tpe.jacobian import height_ceiling_from_env

    cases = workload.rounds[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        raw = [run_case(case, tracer) for case in cases]
    finally:
        tracer.uninstall()
    outcomes = [judge(case, *r, workload.limit_s) for case, r in zip(cases, raw)]
    plain = run_round(cases, workload.limit_s)
    traced_s, plain_s = sum(o[0] for o in outcomes), sum(o[0] for o in plain)
    n, failed, wrong = summarize(outcomes + plain)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{name}-{seed}.jsonl")
    tracer.write(path)
    overhead = 100.0 * (traced_s / plain_s - 1.0)
    print(f"traced round {traced_s:.3f} s, untraced {plain_s:.3f} s "
          f"(overhead {overhead:.1f}%); {len(tracer.spans)} spans in {path}")
    ceiling_bits = height_ceiling_from_env() * 10 // 3 + 16
    print(f"jacobian.exact_max_bits {tracer.exact_max_bits} against a ceiling of "
          f"{ceiling_bits} bits")
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (overhead, "%")
    return n, failed, wrong, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload, build_s = setup(workloads, args.workload, args.seed, workdir)
        if args.trace:
            n, failed, wrong, metrics = traced(workload, args.workload, args.seed)
        else:
            n, failed, wrong, metrics = end_to_end(workload, args.seconds, import_s + build_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in wrong[:20]:
        print(f"WRONG: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
