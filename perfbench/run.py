"""The ewlgames benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a checkout that has ``src/ewlgames``.  Each
workload runs in a fresh interpreter (`worker.py`).  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones; ``--smoke`` runs a
few ops of the workload instead of S seconds.  The end-to-end timings are
scaled to a reference host speed, measured while they run (`calib.py`).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report, and the full result
goes to ``perfbench/results/``.  See perfbench/README.md for the workloads
and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS = ROOT / "perfbench" / "results"
DEADLINE_S = 170  # the whole run, worker and probes included
PROBES = 10  # fresh processes per set-up and start-up median
COLD_PROBES = 30  # fresh CLI processes per cold-start median
# numpy's OpenBLAS starts a thread per core at import.  On a machine with
# few cores they compete with the measured process, and fresh-process times
# jump between two modes, so every process the benchmark starts gets one.
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
COLD_START_ARGS = ["classify", "--theta=1/2pi", "--alpha=1/2pi", "--beta=1/2pi"]

# Per-layer metric: (unit, end-to-end metric it should move, on which workload).
SUBCOMMANDS = ("classify", "extend", "solve", "isocheck", "sweep", "verify-oracle", "reproduce")
_CLI_MOVE = ("cold_start_ms, op_p50_ms, setup_s, peak_rss_mb", "cli-session; setup_s on all")
PER_LAYER = {
    "nash.support_enumeration.calls": ("count", "op_p50_ms, ops_per_s", "sweep-grid, solve-pool; none on invariance-scan"),
    "nash.support_enumeration.self_ms": ("ms", "op_p50_ms, ops_per_s", "sweep-grid, solve-pool; none on invariance-scan"),
    "nash.support_enumeration.degenerate": ("count", "op_p50_ms, ops_per_s", "solve-pool"),
    "nash.solve_rational_system.calls": ("count", "ops_per_s", "solve-pool, sweep-grid"),
    "nash.solve_rational_system.self_ms": ("ms", "ops_per_s", "solve-pool, sweep-grid"),
    "nash.verify_equilibrium.calls": ("count", "ops_per_s", "solve-pool"),
    "nash.distinct_ratio": ("ratio", "op_p50_ms", "sweep-grid only; none on solve-pool"),
    "extension.build_extension.calls": ("count", "ops_per_s", "invariance-scan; ~2% of sweep-grid"),
    "extension.build_extension.self_ms": ("ms", "ops_per_s", "invariance-scan; ~2% of sweep-grid"),
    "extension.build_extension.route_family": ("count", "ops_per_s", "invariance-scan"),
    "extension.build_extension.route_exact": ("count", "ops_per_s", "invariance-scan"),
    "extension.build_extension.route_float": ("count", "ops_per_s", "invariance-scan"),
    "extension.classify.calls": ("count", "ops_per_s", "invariance-scan"),
    "extension.classify.self_ms": ("ms", "ops_per_s", "invariance-scan"),
    "extension.empirical_invariance.calls": ("count", "ops_per_s", "invariance-scan"),
    "extension.empirical_invariance.self_ms": ("ms", "ops_per_s", "invariance-scan"),
    "ewl.closed_form_payoff.calls": ("count", "ops_per_s; op_p50_ms", "invariance-scan; cli-session"),
    "ewl.closed_form_payoff.self_ms": ("ms", "ops_per_s; op_p50_ms", "invariance-scan; cli-session"),
    "ewl.statevector.calls": ("count", "ops_per_s; op_p50_ms", "invariance-scan; cli-session"),
    "ewl.statevector.self_ms": ("ms", "ops_per_s; op_p50_ms", "invariance-scan; cli-session"),
    "ewl.parse_angle.calls": ("count", "ops_per_s; op_p50_ms", "invariance-scan; cli-session"),
    "ewl.parse_angle.self_ms": ("ms", "ops_per_s; op_p50_ms", "invariance-scan; cli-session"),
    "games.find_isomorphism.calls": ("count", "ops_per_s", "invariance-scan (float half)"),
    "games.find_isomorphism.self_ms": ("ms", "ops_per_s", "invariance-scan (float half)"),
    "games.snapped.calls": ("count", "ops_per_s", "solve-pool (float-built quarter)"),
    "games.snapped.self_ms": ("ms", "ops_per_s", "solve-pool (float-built quarter)"),
    "selfcheck.run_reference_suite.self_ms": ("ms", "op_tail_ms", "cli-session"),
    "selfcheck.max_oracle_deviation.self_ms": ("ms", "op_tail_ms", "cli-session"),
    **{f"cli.main.{sub}.self_ms": ("ms", *_CLI_MOVE) for sub in SUBCOMMANDS},
    "cli.process_start_ms": ("ms", *_CLI_MOVE),
    "cli.import_ms": ("ms", *_CLI_MOVE),
    "trace.overhead_ratio": ("ratio", "-", "all"),
}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}


class BenchError(Exception):
    pass


def spawn(argv, deadline, env):
    """Run a child to completion; returns (wall seconds, stdout)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {argv[1:3]}")
    start = time.perf_counter()
    # A session of its own, so that a timeout also stops the child's children.
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env, cwd=ROOT, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} timed out") from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}: {stderr.strip()[-400:]}")
    return wall, stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tail(latencies_ms):
    """The highest percentile with at least ten slower samples, or None."""
    n = len(latencies_ms)
    if n < 11:
        return None
    return {"value": sorted(latencies_ms)[n - 11], "percentile": 100 * (n - 10) / n, "samples": n}


def end_to_end(args, deadline, env, worker_args):
    """Set-up and cold-start probes around the timed run, all scaled by the host's speed."""
    setups, cold, cold_errors = [], [], []

    def probe(setup_times, cold_times):
        for _ in range(setup_times):
            start = time.perf_counter()
            out = spawn(worker_args + ["--setup-only"], deadline, env)[1]
            setups.append((last_json(out)["setup_s"], start, time.perf_counter()))
        for _ in range(cold_times):
            start = time.perf_counter()
            wall, out = spawn([sys.executable, "-m", "ewlgames.cli", *COLD_START_ARGS], deadline, env)
            cold.append((wall * 1000, start, start + wall))
            if not out.startswith("class: TypeII"):
                cold_errors.append(f"cold-start classify printed {out!r}")

    sampler = calib.start_sampler(env, ROOT)
    try:
        probe(*((1, 1) if args.smoke else (PROBES // 2, COLD_PROBES // 2)))
        result = last_json(spawn(worker_args, deadline, env)[1])
        if not args.smoke:
            probe(PROBES // 2, COLD_PROBES // 2)
    finally:
        speed = calib.stop_sampler(sampler)
    if speed is None:
        raise BenchError("the host-speed sampler failed")
    result["attempted"] += len(cold)
    result["failed"] += len(cold_errors)
    result["errors"] += cold_errors
    ops = [(s * 1000, start, start + s) for s, start in zip(result.pop("latencies_s"), result.pop("starts_s"))]
    scaled = {name: [t * speed.scale(a, b) for t, a, b in samples]
              for name, samples in (("setup", setups), ("cold", cold), ("ops", ops))}
    lat_ms = scaled["ops"]
    metrics = {
        "setup_s": statistics.median(scaled["setup"]),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1000),
        "op_p50_ms": statistics.median(lat_ms),
        "peak_rss_mb": result["peak_rss_mb"],
        "cold_start_ms": statistics.median(scaled["cold"]),
    }
    raw = {
        "setup_s": statistics.median(t for t, _, _ in setups),
        "ops_per_s": len(ops) / (sum(t for t, _, _ in ops) / 1000),
        "op_p50_ms": statistics.median(t for t, _, _ in ops),
        "cold_start_ms": statistics.median(t for t, _, _ in cold),
    }
    attempted = result["attempted"]
    extra = {
        "op_tail_ms": tail(lat_ms),
        "fail_ratio": result["failed"] / attempted,
        "nash.distinct_ratio": result["distinct_ratio"],
        "unscaled": raw,
        "host_speed": speed.median_speed(),
        "setup_samples_s": scaled["setup"],
        "cold_start_samples_ms": scaled["cold"],
    }
    lines = [f"{name:<22} {value:.6g} {END_TO_END[name]}"
             + (f"  (unscaled {raw[name]:.6g})" if name in raw else "") for name, value in metrics.items()]
    lines.append(f"{'host speed':<22} {extra['host_speed']:.4g} x the reference host "
                 f"(timings above are scaled to it; see perfbench/calib.py)")
    t = extra["op_tail_ms"]
    lines.append(f"{'op_tail_ms':<22} " + (
        f"{t['value']:.6g} ms (p{t['percentile']:.2f} of {t['samples']} ops)" if t
        else f"omitted: {attempted} ops, fewer than 11"))
    lines.append(f"{'fail_ratio':<22} {extra['fail_ratio']:.6g} ({result['failed']}/{attempted})")
    ratio = result["distinct_ratio"]
    lines.append(f"{'nash.distinct_ratio':<22} " + (
        f"{ratio:.6g} (distinct solver inputs / solver calls)" if ratio is not None
        else "n/a in this run: " + ("no solver calls" if args.workload == "invariance-scan"
                                    else "the solver runs in child processes; see the traced run")))
    return result, {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}, extra, lines


def per_layer(args, deadline, env, worker_args):
    result = last_json(spawn(worker_args, deadline, env)[1])
    starts, imports = [], []
    for _ in range(PROBES):
        starts.append(spawn([sys.executable, "-c", "pass"], deadline, env)[0])
        imports.append(spawn([sys.executable, "-c", "import ewlgames.cli"], deadline, env)[0])
    ops = result["traced_ops"]
    layers = result["layers"]
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = layers.get(layer, {}).get("calls", 0)
        elif field == "self_ms":
            # A subcommand's self time is per call of that subcommand, others per traced op.
            per = layers.get(layer, {}).get("calls", 0) if layer.startswith("cli.main.") else ops
            values[name] = layers.get(layer, {}).get("self_ns", 0) / 1e6 / per if per else 0.0
    values["nash.support_enumeration.degenerate"] = result["degenerate"]
    for route, count in result["routes"].items():
        values[f"extension.build_extension.route_{route}"] = count
    solves = values["nash.support_enumeration.calls"]
    values["nash.distinct_ratio"] = result["distinct_grids"] / solves if solves else 0.0
    values["cli.process_start_ms"] = statistics.median(starts) * 1000
    values["cli.import_ms"] = (statistics.median(imports) - statistics.median(starts)) * 1000
    values["trace.overhead_ratio"] = result["overhead_ratio"]
    lines = [f"traced ops: {ops} (after the same ops untraced); spans: {result['spans']} "
             f"in {result['spans_file']}", "self_ms is per traced op (cli.main.<subcommand>: per call); calls count all traced ops",
             f"{'metric':<40} {'value':>12} {'unit':<6} {'should move':<45} on"]
    for name, (unit, moves, on) in PER_LAYER.items():
        lines.append(f"{name:<40} {values[name]:>12.6g} {unit:<6} {moves:<45} {on}")
    if not solves:
        lines.append("nash.distinct_ratio reads 0: no support_enumeration calls in this workload")
    for missing in result["missing"]:
        lines.append(f"dropped: {missing} is not in this version of ewlgames; its metrics read 0")
    extra = {"traced_ops": ops, "missing": result["missing"], "spans_file": result["spans_file"]}
    metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
    return result, metrics, extra, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="a few ops instead of --seconds")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "ewlgames" / "__init__.py").is_file():
        print(f"error: no ewlgames package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, **ONE_THREAD, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    worker_args = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "python": sys.version.split()[0], "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "load": "closed loop, one caller",
    }
    try:
        measure = per_layer if args.trace else end_to_end
        result, metrics, extra, lines = measure(args, deadline, env, worker_args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps({"meta": meta, **summary, "extra": extra, "errors": result["errors"]}, indent=1))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: python {meta['python']}, numpy {numpy_version}, "
          f"nproc {meta['nproc']}, {meta['load']}")
    print("\n".join(lines))
    for error in result["errors"]:
        print(f"FAILED {error}")
    print(f"result written to {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
