"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion.  Desk scale throughout (N = 64 grid at most,
n <= 200 modes, T <= 1, M <= 500 paths).

Criteria 01, 02, 04-09 and 11 are the CLI experiments users run: each test
runs its experiment at the pinned seed and config in ``CRITERIA``, prints its
line from the report's criteria and requires the whole report to pass.  A
negative test breaks one piece of the library and requires the report
criterion it names to FAIL.  Criterion 08 runs a second, saturating-noise leg,
where the stochastic pressure is not roundoff.  Criteria 03, 10 and 12 have no experiment and
are checked directly.

Run as ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

import dataclasses

import numpy as np
import pytest

from nsvsim import analysis, cli, fields, galerkin, pressure, rheology
from nsvsim.galerkin import run

from conftest import perturbing

pytestmark = pytest.mark.acceptance

_RANDOM = ["seed=12345", "ic.kind=random"]
_LINEAR = ["noise.family=linear", "noise.amplitude=0.5"]
_T25 = ["steps=100", "dt=0.0025", "T=0.25"]

# criterion -> (experiment, pinned overrides); criterion 02 shares 01's run
CRITERIA = {
    1: ("propcheck", ["seed=2026", "grid_n=64"]),
    4: ("energy-audit", [*_RANDOM, "nu=1", "p=1.5", "alpha=0", "noise.family=off", *_T25]),
    5: ("energy-audit", [*_RANDOM, "paths=200", "nu=0.5", "p=2.5", *_LINEAR, "noise.modes=8", *_T25]),
    6: ("moments", [*_RANDOM, "paths=160", "n_modes=64", "nu=0.5", "p=2", "q=4", "alpha=0.125", "gamma=2",
                    *_LINEAR, "noise.modes=8", "steps=80", "dt=0.0025", "T=0.2"]),
    7: ("alpha-sweep", [*_RANDOM, "nu=0.5", "p=2", "q=4", "noise.family=off", *_T25]),
    8: ("pressure", [*_RANDOM, "nu=0.5", "p=2.5", "q=4", "alpha=0.1", *_LINEAR, "noise.modes=6", *_T25]),
    9: ("bogovskii", ["seed=2026"]),
    11: ("uniqueness", [*_RANDOM, "paths=100", "nu=0.5", "p=2", *_LINEAR, "noise.modes=6", *_T25]),
}
# Criterion 08's second leg: under linear noise shape(u) = u is solenoidal,
# so pi_phi is roundoff and the checks of the stochastic part hold vacuously
SATURATING = ["noise.family=saturating"]


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} - {detail}")


def state_from(overrides: list[str], path: int = 0) -> tuple:
    """(system, c0, lineages) of the config's path ``path``: run's arguments before T."""
    cfg = cli.parse_config(None, overrides)
    system = cfg.system()
    return (system, *cli.path_starts(cfg, system.basis, [path]))


def run_criterion(number: int, out, *leg: str) -> cli.RunReport:
    """Criterion ``number``'s experiment at its pinned config, with the
    overrides ``leg`` on top, written to ``out``."""
    experiment, overrides = CRITERIA[number]
    return cli.run_experiment(cli.parse_config(None, [f"experiment={experiment}", *overrides, *leg]), str(out))


def verdict(number: int, rep: cli.RunReport, *prefixes: str) -> None:
    """Print criterion ``number``'s line from the report criteria whose names
    start with one of ``prefixes`` (all of them when none is given), and
    require the whole report to pass, naming each failed criterion."""
    shown = [c for c in rep.criteria if c.name.startswith(prefixes or ("",))]
    report(number, rep.passed, "; ".join(f"{c.name}: {c.details}" for c in shown))
    failed = "; ".join(f"{c.name}: {c.details}" for c in rep.criteria if not c.passed)
    assert rep.passed, f"criterion {number} failed: {failed}"


def criterion(rep: cli.RunReport, name: str) -> cli.Criterion:
    return next(c for c in rep.criteria if c.name == name)


@pytest.fixture(scope="module")
def propcheck(tmp_path_factory) -> cli.RunReport:
    return run_criterion(1, tmp_path_factory.mktemp("propcheck"))


def test_criterion_01_monotonicity_sweeps(propcheck):
    verdict(1, propcheck, "shear-rate inequalities")


def test_criterion_02_korn_identity(propcheck):
    verdict(2, propcheck, "symmetric-gradient identity")


def test_criterion_01_fails_on_a_sign_flipped_stress(tmp_path, monkeypatch):
    stress = rheology.power_law_stress
    monkeypatch.setattr(rheology, "power_law_stress", lambda d, d_modulus, p: -stress(d, d_modulus, p))
    rep = run_criterion(1, tmp_path)
    assert not any(c.passed for c in rep.criteria if c.name.startswith("shear-rate inequalities"))
    with pytest.raises(AssertionError, match="criterion 1 failed: shear-rate inequalities hold at p = 1.2"):
        test_criterion_01_monotonicity_sweeps(rep)


@pytest.mark.parametrize("broken, error", [
    (lambda d: 2.0 * d, "3.000e"),  # |2 D|^2 = 4 |D|^2
    (lambda d: np.full_like(d, np.nan), "nan"),  # a NaN error must not drop out of the max
], ids=["doubled", "nan"])
def test_criterion_02_fails_on_a_broken_symmetric_gradient(tmp_path, monkeypatch, broken, error):
    sym_gradient = fields.sym_gradient
    monkeypatch.setattr(fields, "sym_gradient", lambda jac, out=None: broken(sym_gradient(jac)))
    rep = run_criterion(1, tmp_path)
    assert not criterion(rep, "symmetric-gradient identity on 100 random solenoidal fields").passed
    with pytest.raises(AssertionError, match=f"symmetric-gradient identity .*: worst relative error = {error}"):
        test_criterion_02_korn_identity(rep)


def test_criterion_02_projects_onto_the_galerkin_band(tmp_path, monkeypatch):
    # the Korn check draws its fields in the basis band K = band_limit(N),
    # 21 at criterion 01's N = 64
    bands = []
    leray_project = fields.leray_project

    def recorded(v, k_max):
        bands.append(k_max)
        return leray_project(v, k_max)

    monkeypatch.setattr(fields, "leray_project", recorded)
    run_criterion(1, tmp_path)
    assert bands == [galerkin.band_limit(64)] * 100 and galerkin.band_limit(64) == 21


def euler_voigt_conservation() -> tuple:
    """Criterion 03: the inviscid energy drift of a non-steady field halves
    with dt, first-order convergence to exact conservation; returns (halving
    ratio, ratio ok)."""
    base = ["nu=0", "alpha=0", "noise.family=off", "kappa=0.5", "ic.kind=random"]
    errs = []
    for steps, dt in ((125, 0.002), (250, 0.001)):
        e = run(*state_from(base + [f"steps={steps}", f"dt={dt}", "T=0.25"]), 0.25)[0].energies()
        errs.append(abs(e[-1] - e[0]) / e[0])
    ratio = errs[1] / errs[0]
    return ratio, 0.4 <= ratio <= 0.6


def test_criterion_03_euler_voigt_conservation():
    ratio, passed = euler_voigt_conservation()
    report(3, passed, f"halving ratio {ratio:.3f} in [0.4, 0.6]")
    assert passed


def test_criterion_03_fails_on_a_convection_that_does_not_conserve_energy(monkeypatch):
    # the xy entry of u x u written u_x u_x: the convection then does work, an
    # energy drift that dt-halving leaves as it is.  (Scaling an entry of
    # u x u would not do: for divergence-free u each entry's work is the
    # integral of a derivative, zero to roundoff.)  The break's work is
    # -int u_x^2 d_x u_y.
    original = galerkin.PointwiseTerms.at

    def slipped_xy_flux(system, c):
        pw = original(system, c)
        u_grid = fields.to_grid(system.basis.scatter(c), system.basis.grid_size)
        u0, u1 = u_grid[..., 0, :, :], u_grid[..., 1, :, :]
        pw.sources[..., 1, :, :] += u0 * u1 - u0 * u0
        return pw

    monkeypatch.setattr(galerkin.PointwiseTerms, "at", staticmethod(slipped_xy_flux))
    ratio, passed = euler_voigt_conservation()
    assert not passed, ratio


def test_criterion_04_deterministic_energy_law(tmp_path):
    verdict(4, run_criterion(4, tmp_path))


def test_criterion_04_fails_on_a_ledger_without_dissipation(tmp_path, monkeypatch):
    # the residual is then the O(1) energy decay, which dt-halving leaves as it is
    original = analysis.ledger_from_trajectory

    def without_dissipation(traj):
        ledger = original(traj)
        return dataclasses.replace(ledger, residual=ledger.residual - ledger.dissipation)

    monkeypatch.setattr(analysis, "ledger_from_trajectory", without_dissipation)
    assert not criterion(run_criterion(4, tmp_path), "residual halves under dt-halving").passed


def test_criterion_05_ito_energy_balance(tmp_path):
    verdict(5, run_criterion(5, tmp_path))


def test_criterion_06_uniform_estimate_shadow(tmp_path):
    verdict(6, run_criterion(6, tmp_path))


def test_criterion_07_alpha_sweep(tmp_path):
    verdict(7, run_criterion(7, tmp_path))


def test_criterion_07_fails_on_a_drift_without_damping(tmp_path, monkeypatch):
    # every alpha then runs the alpha = 0 reference path: each distance to it is 0
    kernel = galerkin.drift_and_record
    monkeypatch.setattr(galerkin, "drift_and_record", lambda system, c, step: kernel(
        dataclasses.replace(system, params=dataclasses.replace(system.params, alpha=0.0)), c, step))
    assert not criterion(run_criterion(7, tmp_path), "distance to alpha = 0 reference decreasing").passed


def test_criterion_08_pressure(tmp_path):
    verdict(8, run_criterion(8, tmp_path))


def test_criterion_08_pressure_under_saturating_noise(tmp_path):
    rep = run_criterion(8, tmp_path, *SATURATING)
    verdict(8, rep)
    # the stochastic part is far above roundoff on this leg
    lines = (tmp_path / "pressure.csv").read_text().splitlines()
    col = lines[0].split(",").index("pi_phi_l2")
    assert max(float(line.split(",")[col]) for line in lines[1:]) > 1e-6


def nonlinear_stochastic_pressure(monkeypatch) -> None:
    # a term quadratic in the increments grows fourfold when they double, so
    # twice pi_phi is no longer the lift of the noise under doubled increments
    def quadratic(traj, s):
        s.pi_phi += np.sum(traj.increments**2)

    perturbing(monkeypatch, quadratic, every=True)


def test_criterion_08_fails_on_a_nonlinear_stochastic_pressure(tmp_path, monkeypatch):
    nonlinear_stochastic_pressure(monkeypatch)
    assert not criterion(run_criterion(8, tmp_path), "stochastic part doubles exactly with increments").passed


def test_criterion_08_saturating_fails_on_a_nonlinear_stochastic_pressure(tmp_path, monkeypatch):
    nonlinear_stochastic_pressure(monkeypatch)
    rep = run_criterion(8, tmp_path, *SATURATING)
    assert not criterion(rep, "stochastic part doubles exactly with increments").passed


def test_criterion_08_fails_on_a_transform_without_the_ky_doubling(tmp_path, monkeypatch):
    # the lift to the grid then counts each ky > 0 mode once, not with its
    # conjugate: the closed form's cos(2y) comes out at half its amplitude
    def undoubled(table, grid_size):
        return fields.to_grid(np.concatenate([table[..., :1], 0.5 * table[..., 1:]], axis=-1),
                              grid_size)

    monkeypatch.setattr(pressure, "to_grid", undoubled)
    assert not criterion(run_criterion(8, tmp_path), "vortex-array pressure matches closed form").passed


def test_criterion_09_bogovskii(tmp_path):
    verdict(9, run_criterion(9, tmp_path))


def test_criterion_09_fails_on_a_residual_that_does_not_fall(tmp_path, monkeypatch):
    # w = 0 leaves the residual at ||xi|| over the interior nodes, which
    # grows slightly with the resolution
    monkeypatch.setattr(pressure, "bogovskii_solve_batch", lambda xis, n: np.zeros((len(xis), 2, n, n)))
    assert not criterion(run_criterion(9, tmp_path), "divergence residual decreases across resolutions").passed


def test_criterion_10_weak_form_residual():
    traj = run(*state_from([
        "nu=0.5", "p=2.5", "q=4", "alpha=0.1", "noise.family=linear",
        "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random",
        "steps=100", "dt=0.0025", "T=0.25",
    ]), 0.25)[0]
    basis = traj.system.basis
    modes = np.eye(basis.n)
    base = analysis.weak_form_residual(traj, modes)
    coeffs = traj.coeffs.copy()
    coeffs[50, 5] += 1e-3
    bumped = analysis.weak_form_residual(dataclasses.replace(traj, coeffs=coeffs), modes)
    amplification = bumped / max(base, 1e-300)
    passed = base <= 1e-9 and amplification >= 1e4
    report(10, passed,
           f"scheme residual {base:.3e} <= 1e-9; 1e-3 perturbation amplifies it {amplification:.1e}x >= 1e4x")
    assert passed


def test_criterion_11_twin_uniqueness(tmp_path):
    verdict(11, run_criterion(11, tmp_path))


CRITERION_12 = [
    "noise.family=linear", "noise.amplitude=0.5", "ic.kind=random",
    "steps=40", "dt=0.0025", "T=0.1",
]


def test_criterion_12_reproducibility(tmp_path):
    args = ["--paths", "3", *(a for kv in CRITERION_12 for a in ("--override", kv))]
    outputs = {}
    for tag in ("a", "b"):
        rc = cli.main(["simulate", "--out", str(tmp_path / tag), "--seed", "2026", *args])
        assert rc == 0
        outputs[tag] = {
            name: (tmp_path / tag / name).read_bytes()
            for name in ("report.json", "trajectory.csv")
        }
        outputs[tag]["snapshot"] = (tmp_path / tag / "fields" / "final_path0.bin").read_bytes()
    same_rerun = outputs["a"] == outputs["b"]

    # each path is a function of its own (seed, path) lineage: running the
    # paths in reverse order from fresh states, one by one or as one stack,
    # changes no bit of any of them
    cfg = cli.parse_config(None, ["seed=2026", "paths=3", *CRITERION_12])
    system = cfg.system()

    def trajectories(order, stacked=False):
        c0, lineages = cli.path_starts(cfg, system.basis, order)
        if stacked:
            return dict(zip(order, run(system, c0, lineages, cfg.T)))
        return {i: run(system, c0[j:j + 1], lineages[j:j + 1], cfg.T)[0] for j, i in enumerate(order)}

    forward = trajectories(range(cfg.paths))
    arrays = ("times", "coeffs", "increments",
              *(field.name for field in dataclasses.fields(galerkin.StateRecord)))

    def same_as_forward(other):
        return all(np.array_equal(getattr(forward[i], name), getattr(other[i], name))
                   for i in forward for name in arrays)

    same_order = same_as_forward(trajectories([2, 1, 0]))
    same_stack = same_as_forward(trajectories([2, 1, 0], stacked=True))
    passed = same_rerun and same_order and same_stack
    report(12, passed,
           f"byte-identical CSV/JSON/snapshots on rerun: {same_rerun}; "
           f"every path bitwise equal with paths run in order 2, 1, 0: {same_order}, "
           f"and as one stack in that order: {same_stack}")
    assert passed


def test_criterion_12_fails_on_a_shared_generator(tmp_path, monkeypatch, capsys):
    # one generator for every path: a path's draws depend on the paths run
    # before it, and on its row in the stack
    shared = np.random.default_rng(2026)

    def draw(lineages, n_steps, dt, n_w):
        return shared.standard_normal((len(lineages), n_steps, n_w)) * np.sqrt(dt)

    monkeypatch.setattr(galerkin, "sample_increment", draw)
    with pytest.raises(AssertionError):
        test_criterion_12_reproducibility(tmp_path)
    out = capsys.readouterr().out
    assert "run in order 2, 1, 0: False" in out and "as one stack in that order: False" in out
