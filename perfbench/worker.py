"""One benchmark iteration in a fresh process, as a CLI user would run it.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--spans FILE] [--record]

Prints one JSON object on its last stdout line: set-up and wall times, peak
RSS, output digests, the output check, and with ``--trace`` the per-layer
metrics.  ``--record`` adds the output summary that ``make_reference.py``
stores.  Only the standard library is imported before the set-up timer
starts, so ``setup_s`` includes the NumPy import that ``import nsvsim`` pays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


def _digests(out_dir: str) -> dict[str, str]:
    found = {}
    for base, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    import workloads as wl

    case = wl.case_of(args.seed)

    t0 = time.perf_counter()
    from nsvsim import cli

    cfgs = [cli.parse_config(None, ov) for ov in wl.setup_overrides(args.workload, case)]
    cfgs[0].basis()
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported nsvsim from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    import numpy as np

    experiments = wl.EXPERIMENTS[args.workload]
    inputs = None
    if args.workload == "bogovskii":
        inputs = [wl.bogovskii_sources(case, n) for n in wl.BOGOVSKII_RESOLUTIONS]

    def body() -> None:
        if inputs is not None:
            wl.run_bogovskii(inputs, os.path.join(args.out, "bogovskii"))
        for (sub, _), cfg in zip(experiments, cfgs):
            cli.run_experiment(cfg, os.path.join(args.out, sub))

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.span("bench.workload", body)
    else:
        body()
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    problems = wl.failed_criteria(args.workload, args.out)
    summary = wl.summarize(args.workload, args.out)
    if not args.record:
        with open(wl.reference_path(args.workload)) as fh:
            reference = json.load(fh)[str(case)]
        problems += wl.compare(summary, reference)

    written = 0
    for sub, _ in experiments:
        for base, _, files in os.walk(os.path.join(args.out, sub)):
            written += sum(os.path.getsize(os.path.join(base, f)) for f in files)

    result = {
        "ok": not problems,
        "problems": problems[:10],
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digests": _digests(args.out),
        "numpy": np.__version__,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.bytes_written"] = written
        result["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    if args.record:
        result["summary"] = summary
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
