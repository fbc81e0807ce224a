"""Workload definitions, input generation, and the output check.

Every input is a function of the benchmark seed.  The seed selects one of
``N_CASES`` input cases (``case = seed % N_CASES``); the case fixes the config
seed, which drives the random initial condition, the noise increments and the
propcheck samplers, and the Bogovskii sources.  Each case has a stored
reference, generated by ``make_reference.py``, that the outputs must match.

This module imports only the standard library at the top level, so the worker
can time ``import nsvsim`` (which brings in NumPy) as part of set-up.
"""

from __future__ import annotations

import csv
import json
import os
import re

N_CASES = 10
SEED_BASE = 1000

# Reference match: |a - b| <= RTOL * max(|a|, |b|) + ATOL.  The values compared
# are O(1e-4 .. 1e1); rfft or reordered sums move them by ~1e-13 relative,
# far inside RTOL, while any change to the discretisation moves them by far
# more.  ATOL absorbs roundoff-level diagnostics (recombination residuals,
# divergence and hermitian defects ~1e-15).
RTOL = 1e-8
ATOL = 1e-10
# Criterion details print 4 significant digits ("%.3e"), so a last-bit change
# can move the printed value by one unit in the fourth digit.
DETAIL_RTOL = 2e-3
DETAIL_ATOL = 1e-9
# trajectory.csv / pressure.csv rows kept in the reference: every CSV_STRIDE-th
# state plus the last.  The columns are cumulative or depend on the whole
# path, so a defect in a skipped row shows in the kept ones.
CSV_STRIDE = 4

ENSEMBLE_PATHS = 24
ENSEMBLE_STEPS = 100
HIRES_STEPS = 160
HIRES_DT = 0.000625
BOGOVSKII_RESOLUTIONS = (32, 48, 64)
BOGOVSKII_SOURCES = 20
BOGOVSKII_RATIO_BOUND = 10.0  # the acceptance bound of criterion 09

CRITERION_05 = [
    "nu=0.5", "p=2.5", "noise.family=linear", "noise.amplitude=0.5",
    "noise.modes=8", "ic.kind=random", f"steps={ENSEMBLE_STEPS}", "dt=0.0025", "T=0.25",
]
HIRES = [
    "grid_n=64", "n_modes=200", f"steps={HIRES_STEPS}", f"dt={HIRES_DT}",
    f"T={HIRES_STEPS * HIRES_DT!r}", "alpha=0.1", "q=4", "p=2.5",
    "noise.family=linear", "noise.amplitude=0.5", "noise.modes=8", "ic.kind=random",
]
LINEAR_NOISE = ["noise.family=linear", "noise.amplitude=0.5", "noise.modes=8"]

# workload -> list of (output subdirectory, config overrides); one
# run_experiment call each, in order.  bogovskii calls the pressure module
# directly and has no experiment of its own here.
EXPERIMENTS = {
    "ensemble": [("energy-audit", ["experiment=energy-audit", f"paths={ENSEMBLE_PATHS}", *CRITERION_05])],
    "hires_path": [("simulate", ["experiment=simulate", *HIRES]),
                   ("pressure", ["experiment=pressure", *HIRES])],
    "bogovskii": [],
    "propcheck": [("propcheck", ["experiment=propcheck", *LINEAR_NOISE])],
}
WORKLOADS = tuple(EXPERIMENTS)


def case_of(seed: int) -> int:
    return seed % N_CASES


def config_seed(case: int) -> int:
    return SEED_BASE + case


def setup_overrides(workload: str, case: int) -> list[list[str]]:
    """One override list per config the workload parses during set-up; the
    bogovskii workload runs no experiment and parses the bogovskii config."""
    seed = f"seed={config_seed(case)}"
    return [[*ov, seed] for _, ov in EXPERIMENTS[workload]] or [["experiment=bogovskii", seed]]


def units_of_work(workload: str) -> tuple[str, float]:
    """(name, amount) of the work one iteration does, for the throughput metric."""
    if workload == "ensemble":
        return "steps", ENSEMBLE_PATHS * ENSEMBLE_STEPS
    if workload == "hires_path":
        return "steps", 2 * HIRES_STEPS  # simulate's path, then pressure's
    if workload == "bogovskii":
        return "kernel_pairs", BOGOVSKII_SOURCES * sum(n**4 for n in BOGOVSKII_RESOLUTIONS)
    return "", 0.0


def bogovskii_sources(case: int, n: int):
    """The seeded mean-free sources of the bogovskii experiment, at resolution n."""
    import numpy as np
    from nsvsim import pressure

    m = pressure.midpoints(n)
    xx, yy = np.meshgrid(m, m, indexing="ij")
    xis = []
    for l in range(BOGOVSKII_SOURCES):
        rng = np.random.default_rng([config_seed(case), l])
        xi = np.zeros((n, n))
        for j in range(1, 4):
            for k in range(1, 4):
                xi += rng.standard_normal() * np.sin(j * np.pi * xx) * np.sin(k * np.pi * yy)
        xis.append(xi - xi.mean())
    return np.array(xis)


def run_bogovskii(inputs, out_dir: str) -> None:
    """Solve, then measure residuals and gradient ratios; write them as JSON."""
    from nsvsim import pressure

    residuals, ratios = [], []
    for n, xis in zip(BOGOVSKII_RESOLUTIONS, inputs):
        ws = pressure.bogovskii_solve_batch(xis, n)
        probs = [pressure.BogovskiiProblem(xi, n) for xi in xis]
        residuals.append([pressure.divergence_residual(p, w) for p, w in zip(probs, ws)])
        ratios.append([pressure.gradient_ratio(p, w) for p, w in zip(probs, ws)])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bogovskii.json"), "w") as fh:
        json.dump({"resolutions": list(BOGOVSKII_RESOLUTIONS), "residuals": residuals,
                   "gradient_ratios": ratios}, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Output check

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _csv_rows(path: str) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    keep = sorted(set(range(0, len(body), CSV_STRIDE)) | {len(body) - 1})
    cols = {name: [float(body[i][j]) for i in keep] for j, name in enumerate(header)}
    cols["_rows"] = [float(len(body))]
    return cols


def summarize(workload: str, out_dir: str) -> dict:
    """The values of one iteration's outputs that are checked against the reference."""
    summary: dict = {}
    for sub, _ in EXPERIMENTS[workload]:
        with open(os.path.join(out_dir, sub, "report.json")) as fh:
            report = json.load(fh)
        summary[f"{sub}/metrics"] = report["metrics"]
        summary[f"{sub}/details"] = {
            c["name"]: [float(x) for x in _NUMBER.findall(c["details"])] for c in report["criteria"]}
        for name in ("trajectory.csv", "pressure.csv"):
            path = os.path.join(out_dir, sub, name)
            if os.path.exists(path):
                summary[f"{sub}/{name}"] = _csv_rows(path)
    if workload == "bogovskii":
        with open(os.path.join(out_dir, "bogovskii", "bogovskii.json")) as fh:
            summary["bogovskii"] = json.load(fh)
    return summary


def failed_criteria(workload: str, out_dir: str) -> list[str]:
    """Names of criteria that did not PASS (report criteria, or the bogovskii checks)."""
    failed = []
    for sub, _ in EXPERIMENTS[workload]:
        with open(os.path.join(out_dir, sub, "report.json")) as fh:
            report = json.load(fh)
        failed += [f"{sub}: {c['name']}" for c in report["criteria"] if not c["passed"]]
        if not report["passed"]:
            failed.append(f"{sub}: report not passed")
    if workload == "bogovskii":
        with open(os.path.join(out_dir, "bogovskii", "bogovskii.json")) as fh:
            res = json.load(fh)
        for a, b in zip(res["residuals"], res["residuals"][1:]):
            if not all(y < x for x, y in zip(a, b)):
                failed.append("bogovskii: divergence residual decreases across resolutions")
        worst = max(max(r) for r in res["gradient_ratios"])
        if not worst < BOGOVSKII_RATIO_BOUND:
            failed.append(f"bogovskii: gradient ratio {worst} >= {BOGOVSKII_RATIO_BOUND}")
    return failed


def _close(a, b, rtol: float, atol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        if a != a or b != b:  # nan
            return a != a and b != b
        return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol
    return a == b


def compare(actual, expected, rtol: float = RTOL, atol: float = ATOL, where: str = "") -> list[str]:
    """Mismatches of ``actual`` against ``expected``; keys absent from the
    reference are ignored so later additions to reports and CSVs pass."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected a mapping"]
        out = []
        for key, val in expected.items():
            if key not in actual:
                out.append(f"{where}/{key}: missing")
                continue
            tol = (DETAIL_RTOL, DETAIL_ATOL) if key.endswith("/details") else (rtol, atol)
            out += compare(actual[key], val, *tol, where=f"{where}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length {len(actual) if isinstance(actual, list) else '?'} != {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, rtol, atol, where=f"{where}[{i}]")
        return out[:5]
    return [] if _close(actual, expected, rtol, atol) else [f"{where}: {actual!r} != {expected!r}"]


def reference_path(workload: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", f"{workload}.json")
