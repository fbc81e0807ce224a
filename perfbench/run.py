"""nsvsim benchmark: one workload, one client, closed loop, fresh process per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ensemble --seed 0 --seconds 30 --trace 0

Each iteration is a fresh ``worker.py`` process (set-up, workload, output
check), started only after the previous one has exited, until the next one
would not fit in ``--seconds`` (at least MIN_RUNS).  Set-up and one-time work
are therefore paid on every iteration, as a CLI user pays them.

``--trace 0`` prints the end-to-end metrics (medians over iterations;
``wall_s`` and ``setup_s`` are rescaled to a fixed machine speed, measured by
a reference kernel before and after each iteration: see calibrate.py);
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics from the traced ones, plus ``trace.overhead_s``.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracer import EXACT_COUNTS  # noqa: E402

MIN_RUNS = 3
# The reference kernel's median time (calibrate.py) on the 2-vCPU Xeon VM the
# benchmark was written on.  wall_s and setup_s are rescaled to that speed, so
# they read as seconds on that machine at its usual speed.
CAL_REF_S = 0.55
MIN_TRACE_PAIRS = 2
HARD_LIMIT_S = 170.0  # every run ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS/OpenMP thread: a single client on a 2-core box, so the numbers
# measure the program rather than the scheduler.  NSV_THREADS stays unset so
# the program's default of one path thread applies.
THREADS = "1"


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"fields.fft_calls_per_step": "1/step", "galerkin.drift_calls_per_step": "1/step",
            "fields.fft_mb_per_step": "MB/step", "cli.bytes_written": "B"}.get(name, "count")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("NSV_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def environment(numpy_version: str | None) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "nsvsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {var: THREADS for var in THREAD_VARS},
        "NSV_THREADS": "unset (default 1)",
        "NSV_THREADS_in_caller": os.environ.get("NSV_THREADS"),
    }


def run_worker(workload: str, seed: int, out: str, trace: bool, deadline: float,
               spans: str | None = None, record: bool = False) -> dict:
    """Run one iteration; returns the worker's record, or a failure record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    if trace:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", spans]
    if record:
        cmd.append("--record")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": ["timed out"], "elapsed": time.monotonic() - t0,
                "trace": trace}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"ok": False, "problems": [f"exit code {proc.returncode}", *tail],
                "elapsed": elapsed, "trace": trace}
    rec = json.loads(lines[-1])
    rec.update(elapsed=elapsed, trace=trace)
    return rec


def calibrate(deadline: float) -> float | None:
    """Seconds the reference kernel takes now, in a process of its own."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py")], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    return float(lines[-1]) if proc.returncode == 0 and lines else None


def rescale(rec: dict, cal_before: float | None, cal_after: float | None) -> None:
    """Rescale an iteration's times to the reference speed, by the kernel runs
    that bracket it: wall_s by their mean; setup_s, which runs right after
    the first, by that one alone, which tracks it closer."""
    if cal_before is None or cal_after is None:
        rec["ok"] = False
        rec["problems"].append("reference kernel failed")
        del rec["wall_s"]
        return
    cal_s = 0.5 * (cal_before + cal_after)
    rec.update(cal_s=cal_s, wall_raw_s=rec["wall_s"], setup_raw_s=rec["setup_s"],
               wall_s=rec["wall_s"] * CAL_REF_S / cal_s,
               setup_s=rec["setup_s"] * CAL_REF_S / cal_before)


def cross_check(records: list[dict]) -> None:
    """Every completed iteration of a run has the same inputs, so its output
    files must match the first one byte for byte (traced or not), and traced
    iterations must repeat the exact count metrics."""
    first = next((r for r in records if "digests" in r), None)
    counts = next((r["layers"] for r in records if "layers" in r), None)
    for rec in records:
        if "digests" in rec and rec["digests"] != first["digests"]:
            rec["ok"] = False
            rec["problems"].append("output bytes differ from the run's first iteration")
        if "layers" in rec:
            moved = [k for k in EXACT_COUNTS if rec["layers"][k] != counts[k]]
            if moved:
                rec["ok"] = False
                rec["problems"].append(f"count metrics differ between traced runs: {moved}")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> int:
    parser = argparse.ArgumentParser(description="nsvsim benchmark (see README.md beside this file)")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "nsvsim", "__init__.py")):
        print(f"error: no nsvsim sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of an nsvsim checkout", file=sys.stderr)
        return 2

    # The two vCPUs of the machine this was written on speed up and slow down
    # independently (their speeds correlate at about 0), so the reference
    # kernel only tracks the workload when both run on the same one.  Every
    # process this run starts inherits this affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # On SIGTERM, unwind like Ctrl-C: subprocess.run then kills and reaps the
    # running worker instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    deadline = start + args.seconds
    work = os.path.join(ROOT, ".bench_work")
    spans = os.path.join(work, "spans", f"{args.workload}-seed{args.seed}.json") if args.trace else None
    if spans:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    pattern = [False, True] if args.trace else [False]
    min_runs = 2 * MIN_TRACE_PAIRS if args.trace else MIN_RUNS

    # Every iteration, traced or not, is bracketed by reference-kernel runs.
    cal_before = calibrate(hard_deadline)
    records: list[dict] = []
    while True:
        for trace in pattern:
            out = os.path.join(work, f"{args.workload}-{os.getpid()}-{len(records)}")
            rec = run_worker(args.workload, args.seed, out, trace, hard_deadline, spans)
            records.append(rec)
            if "wall_s" in rec:
                t0 = time.monotonic()
                cal_after = calibrate(hard_deadline)
                rec["elapsed"] += time.monotonic() - t0
                rescale(rec, cal_before, cal_after)
                cal_before = cal_after
        if "timed out" in records[-1]["problems"]:
            break
        per_round = statistics.median(r["elapsed"] for r in records) * len(pattern)
        now = time.monotonic()
        if now >= hard_deadline - per_round:
            break
        if len(records) >= min_runs and now + per_round > deadline:
            break

    cross_check(records)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    timed = [r for r in records if "wall_s" in r]
    plain = [r for r in timed if not r["trace"]]
    traced = [r for r in timed if r["trace"]]
    if not plain or (args.trace and not traced):
        for rec in records:
            print(f"run failed: {rec['problems']}", file=sys.stderr)
        return 1

    print("environment: " + json.dumps(environment(timed[0]["numpy"]), sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed} -> input case {wl.case_of(args.seed)}, "
          f"{attempted} runs ({len(traced)} traced), closed loop, one client")
    for rec in records:
        if not rec["ok"]:
            print(f"  FAILED run: {rec['problems']}")

    metrics: dict[str, dict] = {}

    def report(name: str, values: list[float], unit: str, note: str = "") -> float:
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        print(f"  {name:<28} {med:14.6g} {unit:<10} median of {len(values)}, "
              f"quartiles {q1:.6g} .. {q3:.6g}{note}")
        return med

    if not args.trace:
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": report(name, [r[name] for r in plain], unit), "unit": unit}
        for name in ("wall_raw_s", "setup_raw_s"):
            report(name, [r[name] for r in plain], "s", " (as measured, not rescaled)")
        report("cal_s", [r["cal_s"] for r in plain], "s",
               f" (reference kernel; {CAL_REF_S} s at the usual speed)")
        kind, amount = wl.units_of_work(args.workload)
        if kind:
            report(f"{kind}_per_s", [amount / r["wall_s"] for r in plain], "1/s",
                   f" ({amount:g} {kind.replace('_', ' ')} per run)")
        print("  samples wall_s: " + " ".join(f"{r['wall_s']:.4f}" for r in plain))
        print("  samples wall_raw_s: " + " ".join(f"{r['wall_raw_s']:.4f}" for r in plain))
        print("  samples cal_s: " + " ".join(f"{r['cal_s']:.4f}" for r in plain))
        print("  samples setup_s: " + " ".join(f"{r['setup_s']:.4f}" for r in plain))
        print(f"  {'failed_frac':<28} {failed / attempted:14.6g} {'1':<10} {failed} of {attempted} runs")
    else:
        for name in traced[0]["layers"]:
            unit = layer_unit(name)
            note = " (computed from array sizes)" if name == "fields.fft_mb_per_step" else ""
            value = report(name, [r["layers"][name] for r in traced], unit, note)
            metrics[name] = {"value": value, "unit": unit}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        print(f"  {'trace.overhead_s':<28} {overhead:14.6g} {'s':<10} "
              "median traced wall_s - median untraced wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        if spans:
            print(f"  spans of the last traced run: {os.path.relpath(spans, ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
