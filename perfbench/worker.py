"""One workload in a fresh interpreter; prints one JSON line of measurements.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               [--smoke] [--setup-only]

`run.py` starts this script and turns its output into the benchmark's
metrics.  With ``--trace 0`` the ops run in a closed loop with one caller
for S seconds after an untimed warm-up.  With ``--trace 1`` a fixed list of
ops runs twice, untraced and then traced, each pass capped at S/2 seconds.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WARMUP_SECONDS = 1.5


def run_op(workload, k, inp, tracer=None):
    """Run op k; returns (seconds, problem or None).  Only `run` is timed."""
    problem = None
    if tracer is not None:
        tracer.op, tracer.enabled = k, True
    start = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problem = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    if problem is None:
        try:
            problem = workload.check(k, inp, out)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, problem


def warm_up(workload) -> None:
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_SECONDS:
        workload.run(workload.warmup_input())


def timed_run(workload, seconds, smoke):
    latencies, starts, errors = [], [], []
    start = time.perf_counter()
    k = 0
    while k < workload.smoke_ops if smoke else time.perf_counter() - start < seconds:
        inp = workload.input(k)
        starts.append(time.perf_counter())
        elapsed, problem = run_op(workload, k, inp)
        latencies.append(elapsed)
        if problem:
            errors.append(f"op {k}: {problem}")
        k += 1
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-session" else resource.RUSAGE_SELF
    return {
        "attempted": k,
        "failed": len(errors),
        "errors": errors[:20],
        "latencies_s": latencies,
        "starts_s": starts,  # perf_counter stamps, for the host-speed scale
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "distinct_ratio": workload.distinct_ratio(k),
    }


def traced_run(workload, seconds, smoke, spans_path):
    from spans import Tracer

    n_ops = min(workload.trace_ops, workload.smoke_ops) if smoke else workload.trace_ops
    errors = []

    def one_pass(tracer):
        total, k = 0.0, 0
        while k < n_ops and (smoke or total < seconds / 2):
            elapsed, problem = run_op(workload, k, workload.input(k), tracer)
            total += elapsed
            if problem:
                errors.append(f"op {k}{' (traced)' if tracer else ''}: {problem}")
            k += 1
        return k, total

    plain_ops, plain_s = one_pass(None)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops, traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(spans_path)
    return {
        "attempted": plain_ops + traced_ops,
        "failed": len(errors),
        "errors": errors[:20],
        "traced_ops": traced_ops,
        "overhead_ratio": (traced_ops / traced_s) / (plain_ops / plain_s),
        "layers": tracer.summary(),
        "degenerate": tracer.degenerate,
        "routes": tracer.routes,
        "distinct_grids": len(tracer.grids),
        "missing": tracer.missing,
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ewlgames

    if Path(ewlgames.__file__).resolve().parent != SRC / "ewlgames":
        print(f"error: imported ewlgames from {ewlgames.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CliSession

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cls = WORKLOADS[args.workload]
        extra = {"in_process": bool(args.trace)} if cls is CliSession else {}
        workload = cls(args.seed, workdir, **extra)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            if not args.smoke:
                warm_up(workload)
            if args.trace:
                RESULTS.mkdir(exist_ok=True)
                spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
                result = traced_run(workload, args.seconds, args.smoke, spans_path)
                result["spans_file"] = str(spans_path.relative_to(ROOT))
            else:
                result = timed_run(workload, args.seconds, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
