"""Regenerate the stored reference outputs, one file per workload.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each input case of each named workload (all by default) once, untraced,
in a fresh worker process, and writes ``reference/<workload>.json`` mapping
the case number to the output summary that ``workloads.compare`` checks.
Every criterion must pass, or nothing is written.  A reference records the
program's outputs at one commit: regenerate it only in a change whose point
is to change those outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import ROOT, run_worker
import workloads as wl


def main(argv: list[str]) -> int:
    names = argv or list(wl.WORKLOADS)
    for workload in names:
        if workload not in wl.WORKLOADS:
            print(f"error: unknown workload {workload!r}", file=sys.stderr)
            return 2
        reference = {}
        for case in range(wl.N_CASES):
            out = os.path.join(ROOT, ".bench_work", f"reference-{workload}-{case}")
            rec = run_worker(workload, case, out, trace=False,
                             deadline=time.monotonic() + 600, record=True)
            if not rec["ok"]:
                print(f"error: {workload} case {case}: {rec['problems']}", file=sys.stderr)
                return 1
            reference[str(case)] = rec["summary"]
            print(f"{workload} case {case}: wall {rec['wall_s']:.3f} s")
        path = wl.reference_path(workload)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{\n")
            fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                for k, v in reference.items()))
            fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
