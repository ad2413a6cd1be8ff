"""Benchmark for modelspace: one seeded workload per run, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload model-build --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics from spans recorded
around the package's public functions, plus the tracing overhead.  The last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.  ``--workload all`` runs every workload in turn, each in its own
process.  See bench/README.md for the metrics and what each one means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("verify-all", "model-build", "extract-certify", "cli-oneshot")
BLAS_THREADS = "1"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import modelspace.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env():
    """Environment for the benchmark and every process it starts: BLAS on
    BLAS_THREADS threads, and the checkout's sources first on the path."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def probe_interpreter():
    """Wall time of a bare interpreter, and of ``import modelspace.cli`` in a
    fresh one (timed inside it), in seconds."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    bare = time.perf_counter() - t
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return bare, float(out)


def environment():
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def measure(workload, cases, seconds, op, tracer=None):
    """Closed loop over the cases for ``seconds`` (at least one operation).

    Returns the latency of every operation and how many failed: raised,
    or produced an output that failed the workload's check.
    """
    latencies, failed = [], 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        case = cases[i % len(cases)]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            output = op(case)
        except Exception:  # a failed operation is counted, the loop goes on
            output = None
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        if output is None or not workload.check(case, output):
            failed += 1
        i += 1
    return latencies, failed


def set_up(workload, seed):
    """Set the workload up SETUP_REPEATS times.

    Returns its cases and, per repeat, the set-up time (import in a fresh
    interpreter plus input generation), the bare interpreter time and the
    import time, in seconds.
    """
    setups, bare, imports = [], [], []
    for _ in range(SETUP_REPEATS):
        interpreter_s, import_s = probe_interpreter()
        t = time.perf_counter()
        cases = workload.setup(seed)
        setups.append(import_s + time.perf_counter() - t)
        bare.append(interpreter_s)
        imports.append(import_s)
    return cases, setups, bare, imports


def warm_up(workload, cases, op):
    for i in range(workload.warmup):
        op(cases[i % len(cases)])


def end_to_end(workload, cases, seconds, setups):
    """Untraced run; returns (metrics, attempted, failed, notes)."""
    import numpy as np

    warm_up(workload, cases, workload.run)
    latencies, failed = measure(workload, cases, seconds, workload.run)
    rss = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    metrics = {
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (float(np.percentile(latencies, workload.tail_percentile)) * 1e3, "ms"),
        "ops_per_s": ((len(latencies) - failed) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(rss).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {"samples": len(latencies), "tail_percentile": workload.tail_percentile}
    return metrics, len(latencies), failed, notes


def per_layer(workload, cases, seconds, bare, imports):
    """Half the time untraced, half traced, both through ``run_in_process``;
    returns (metrics, attempted, failed, notes) and writes the spans."""
    from modelspace import CircleSampler
    from spans import Tracer, layer_metrics, unit

    op = workload.run_in_process
    warm_up(workload, cases, op)
    plain, failed_plain = measure(workload, cases, seconds / 2, op)
    tracer = Tracer()
    with tracer.installed():
        traced, failed_traced = measure(workload, cases, seconds / 2, op, tracer)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / ("spans-%s.jsonl" % workload.name)
    tracer.write(spans_path)

    layers = layer_metrics(tracer.spans, len(traced), list(CircleSampler().node_counts()))
    layers["cli.interpreter_ms"] = statistics.median(bare) * 1e3
    layers["cli.import_ms"] = statistics.median(imports) * 1e3
    layers["trace.overhead_pct"] = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    metrics = {key: (value, unit(key)) for key, value in layers.items()}
    notes = {
        "untraced_samples": len(plain), "traced_samples": len(traced),
        "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, len(plain) + len(traced), failed_plain + failed_traced, notes


def run_all_workloads(args):
    """Each workload in its own process; prints their output and a summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("%s exited with code %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "modelspace" / "__init__.py").is_file():
        print("no modelspace sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all_workloads(args)
    os.environ.update(child_env())  # before numpy loads; children inherit it
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT)
    try:
        cases, setups, bare, imports = set_up(workload, args.seed)
        if args.trace:
            metrics, attempted, failed, notes = per_layer(
                workload, cases, args.seconds, bare, imports)
        else:
            metrics, attempted, failed, notes = end_to_end(
                workload, cases, args.seconds, setups)
    finally:
        workload.close()
    notes.update(workload.notes())

    print("workload %s seed %d seconds %g trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(environment(), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print("%-40s %14.6g %-5s %s" % (key, value, unit, workload.aliases.get(key, "")))
    print("%-40s %14.6g (%d/%d)" % ("fail_ratio", failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
