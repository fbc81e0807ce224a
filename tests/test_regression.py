"""Regression fixture: tiny CLI runs compared against stored outputs.

``regression_fixture.json`` holds the report metrics and criteria, plus the
parsed ``trajectory.csv`` / ``pressure.csv``, of small ``simulate``, noisy
``energy-audit``, ``moments``, ``alpha-sweep`` and ``pressure`` runs.  A
refactor that reorders sums moves these values in the last bits only, so
they are compared at a relative tolerance of 1e-12.  The absolute floor
covers roundoff-level diagnostics (recombination and momentum residuals,
closed-form errors near 1e-16), which carry no relative precision.

Regenerate, only in a change meant to alter the outputs, with
``PYTHONPATH=src python tests/test_regression.py``.
"""

import csv
import json
import os
import sys

import pytest

from nsvsim import cli

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "regression_fixture.json")
RTOL = 1e-12
ATOL = 1e-14

_SMALL = ["grid_n=16", "n_modes=16", "steps=20", "dt=0.0025", "T=0.05", "seed=2024"]
_NOISE = ["noise.family=linear", "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random"]

RUNS = {
    "simulate": ["experiment=simulate", "grid_n=32", "n_modes=32", "steps=20", "dt=0.0025",
                 "T=0.05", "seed=2024", "p=2.5", "q=4", "alpha=0.1", *_NOISE],
    "energy-audit": ["experiment=energy-audit", "paths=4", "p=2.5", *_SMALL, *_NOISE],
    "moments": ["experiment=moments", "paths=4", "p=2", "q=4", "alpha=0.125", *_SMALL, *_NOISE],
    "alpha-sweep": ["experiment=alpha-sweep", "p=2", "q=4", "ic.kind=random", *_SMALL],
    "pressure": ["experiment=pressure", "p=2.5", "q=4", "alpha=0.1", *_SMALL, *_NOISE],
}


def _csv(path: str) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[float(v) for v in row] for row in rows[1:]]


def collect(name: str, out_dir: str) -> dict:
    """Metrics, criteria and CSV contents of one fixture run."""
    report = cli.run_experiment(cli.parse_config(None, RUNS[name]), out_dir)
    payload = json.loads(report.to_json())
    out = {
        "metrics": payload["metrics"],
        "criteria": [[c["name"], c["passed"]] for c in payload["criteria"]],
    }
    for csv_name in ("trajectory.csv", "pressure.csv"):
        path = os.path.join(out_dir, csv_name)
        if os.path.exists(path):
            out[csv_name] = _csv(path)
    return out


def _mismatches(actual, expected, where: str) -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual) if isinstance(actual, dict) else actual!r}"]
        return [m for k in expected for m in _mismatches(actual[k], expected[k], f"{where}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in _mismatches(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if abs(actual - expected) <= RTOL * max(abs(actual), abs(expected)) + ATOL:
            return []
    elif actual == expected:
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_fixture(name, tmp_path):
    with open(FIXTURE) as fh:
        expected = json.load(fh)[name]
    bad = _mismatches(collect(name, str(tmp_path)), expected, name)
    assert not bad, "\n".join(bad[:10])


if __name__ == "__main__":
    import tempfile

    fixture = {}
    for run_name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            fixture[run_name] = collect(run_name, tmp)
    with open(FIXTURE, "w") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
