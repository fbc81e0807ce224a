"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion.  Desk scale throughout (N = 64 grid at most,
n <= 200 modes, T <= 1, M <= 500 paths).

Run as ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

import dataclasses

import numpy as np
import pytest

from nsvsim import analysis, cli, fields, galerkin, pressure, rheology
from nsvsim.galerkin import DivFreeBasis, GalerkinState, run
from nsvsim.noise import NoiseModel, WienerIncrement
from nsvsim.rheology import RheologyParams, monotonicity_sweep

pytestmark = pytest.mark.acceptance

OFF = NoiseModel("off", 0.0, 0)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} - {detail}")


def state_from(overrides: list[str], path: int = 0) -> GalerkinState:
    cfg = cli.parse_config(None, overrides)
    return cli.make_state(cfg, cfg.basis(), path)


def test_criterion_01_monotonicity_sweeps():
    worst_overall = np.inf
    total = 0
    for p in (1.2, 1.5, 2.0, 3.0, 4.0):
        violations, worst = monotonicity_sweep(p, samples=10_000, seed=2026)
        total += violations
        worst_overall = min(worst_overall, worst)
    passed = total == 0
    report(1, passed, f"0 violations required; got {total}, worst margin {worst_overall:.3e}")
    assert passed


def test_criterion_02_korn_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([2026, seed])
        u = fields.leray_project(rng.standard_normal((2, 64, 64)), 20)
        d = fields.sym_gradient(fields.gradient(u))
        lhs = float(np.sum(fields.sym_modulus(d) ** 2) * fields.quad_weight(64))
        rhs = 0.5 * fields.grad_l2_norm(u) ** 2
        worst = max(worst, abs(lhs - rhs) / rhs)
    passed = worst < 1e-10
    report(2, passed, f"||D(u)||_2^2 = ||grad u||_2^2 / 2 to {worst:.3e} over 100 fields")
    assert passed


def test_criterion_01_fails_on_a_sign_flipped_stress(monkeypatch):
    stress = rheology.power_law_stress
    monkeypatch.setattr(rheology, "power_law_stress", lambda d, p: -stress(d, p))
    violations, worst = monotonicity_sweep(2.0, samples=1000, seed=2026)
    assert violations > 0 and worst < 0.0
    with pytest.raises(AssertionError):
        test_criterion_01_monotonicity_sweeps()


def test_criterion_02_fails_on_a_doubled_symmetric_gradient(monkeypatch):
    sym_gradient = fields.sym_gradient
    monkeypatch.setattr(fields, "sym_gradient", lambda jac: 2.0 * sym_gradient(jac))
    with pytest.raises(AssertionError):
        test_criterion_02_korn_identity()


def test_criterion_03_euler_voigt_conservation():
    base = [
        "nu=0", "alpha=0", "noise.family=off", "kappa=0.5",
        "steps=125", "dt=0.002", "T=0.25",
    ]
    # steady shear: drift vanishes identically, so the drift test is the bound
    st = state_from(base + ["ic.kind=shear"])
    traj = run(st, 0.25)
    e = traj.energies()
    shear_drift = abs(e[-1] - e[0]) / e[0]
    shear_ok = shear_drift < 10.0 * st.dt

    # first-order convergence on a non-steady field
    errs = []
    for steps, dt in ((125, 0.002), (250, 0.001)):
        st = state_from(base[:-3] + [f"steps={steps}", f"dt={dt}", "T=0.25", "ic.kind=random"])
        e = run(st, 0.25).energies()
        errs.append(abs(e[-1] - e[0]) / e[0])
    ratio = errs[1] / errs[0]
    ratio_ok = 0.4 <= ratio <= 0.6
    passed = shear_ok and ratio_ok
    report(3, passed,
           f"shear drift {shear_drift:.3e} < {10 * 0.002:.0e}; halving ratio {ratio:.3f} in [0.4, 0.6]")
    assert passed


def test_criterion_04_deterministic_energy_law():
    base = ["nu=1", "p=1.5", "alpha=0", "noise.family=off", "ic.kind=random"]
    acc = []
    nonincreasing = True
    for steps, dt in ((100, 0.0025), (200, 0.00125)):
        st = state_from(base + [f"steps={steps}", f"dt={dt}", "T=0.25"])
        traj = run(st, 0.25)
        ledger, summary = analysis.energy_audit(traj)
        nonincreasing &= bool(summary["energy_nonincreasing"])
        acc.append(abs(summary["accumulated_residual"]))
    ratio = acc[1] / acc[0]
    passed = nonincreasing and 0.4 <= ratio <= 0.6
    report(4, passed, f"E nonincreasing: {nonincreasing}; residual halving ratio {ratio:.3f}")
    assert passed


def test_criterion_05_ito_energy_balance():
    overrides = [
        "nu=0.5", "p=2.5", "noise.family=linear", "noise.amplitude=0.5",
        "noise.modes=8", "ic.kind=random", "steps=100", "dt=0.0025", "T=0.25",
    ]
    M = 200
    cum = []
    for path in range(M):
        traj = run(state_from(overrides, path), 0.25)
        cum.append(np.cumsum(analysis.ledger_from_trajectory(traj).residual))
    cum = np.asarray(cum)
    mean = cum.mean(axis=0)
    se = cum.std(axis=0, ddof=1) / np.sqrt(M)
    z = np.abs(mean) / np.maximum(se, 1e-300)
    passed = bool(np.all(z <= 3.0))
    report(5, passed, f"max |mean residual| / SE = {float(np.max(z)):.3f} over {cum.shape[1]} output times, M = {M}")
    assert passed


def test_criterion_06_uniform_estimate_shadow():
    base = [
        "nu=0.5", "p=2", "q=4", "alpha=0.125", "noise.family=linear",
        "noise.amplitude=0.5", "noise.modes=8", "ic.kind=random",
        "steps=80", "dt=0.0025", "T=0.2", "gamma=2",
    ]
    M = 160

    def estimate(extra):
        cfg = cli.parse_config(None, base + extra)
        basis = cfg.basis()
        state0 = cli.make_state(cfg, basis, 0)
        e0 = basis.energy(state0.c, cfg.kappa)
        return analysis.moment_estimate(
            lambda i: run(cli.make_state(cfg, basis, i), cfg.T),
            M, 2.0, cfg.noise_model(), e0, 0.0, cfg.T)

    base_rep = estimate(["n_modes=64"])
    big_rep = estimate(["n_modes=128"])
    half_rep = estimate(["n_modes=64", "alpha=0.0625"])

    def delta_se(a, b, va, vb, sa, sb):
        return abs(va - vb) / max(np.hypot(sa, sb), 1e-300)

    checks = {
        "sup-E vs n": delta_se(base_rep, big_rep, base_rep.sup_energy, big_rep.sup_energy,
                               base_rep.sup_energy_se, big_rep.sup_energy_se),
        "grad-p vs n": delta_se(base_rep, big_rep, base_rep.grad_p_integral, big_rep.grad_p_integral,
                                base_rep.grad_p_integral_se, big_rep.grad_p_integral_se),
        "sup-E vs alpha": delta_se(base_rep, half_rep, base_rep.sup_energy, half_rep.sup_energy,
                                   base_rep.sup_energy_se, half_rep.sup_energy_se),
        "grad-p vs alpha": delta_se(base_rep, half_rep, base_rep.grad_p_integral, half_rep.grad_p_integral,
                                    base_rep.grad_p_integral_se, half_rep.grad_p_integral_se),
    }
    passed = all(v < 2.0 for v in checks.values())
    detail = ", ".join(f"{k}: {v:.2f} SE" for k, v in checks.items())
    report(6, passed, f"n 64->128 modes and alpha 1/8->1/16 with shared seeds; {detail}")
    assert passed


def test_criterion_07_alpha_sweep():
    cfg = cli.parse_config(None, [
        "nu=0.5", "p=2", "q=4", "noise.family=off", "ic.kind=random",
        "steps=100", "dt=0.0025", "T=0.25",
    ])
    basis = cfg.basis()

    def state_for(alpha):
        local = dataclasses.replace(cfg, alpha=alpha)
        return cli.make_state(local, basis, 0)

    rows = analysis.alpha_sweep(state_for, cfg.T, [0.25, 0.125, 0.0625, 0.03125])
    damping = [r.damping_integral for r in rows]
    dists = [r.distance_to_reference for r in rows]
    decreasing = all(b < a for a, b in zip(damping, damping[1:]))
    converging = all(b < a for a, b in zip(dists, dists[1:]))
    passed = decreasing and converging
    report(7, passed,
           f"2 alpha int ||u||_q^q dt strictly decreasing: {decreasing}; "
           f"distance to alpha=0 decreasing: {converging}")
    assert passed


def test_criterion_08_pressure():
    xx, yy = np.meshgrid(*(np.arange(64) * 2 * np.pi / 64,) * 2, indexing="ij")
    u = np.stack([np.sin(xx) * np.cos(yy), -np.cos(xx) * np.sin(yy)])
    h = np.stack([u[0] * u[0], u[0] * u[1], u[1] * u[1]])
    pi = pressure.recover_pressure(h)
    tg_err = float(np.max(np.abs(pi + 0.25 * (np.cos(2 * xx) + np.cos(2 * yy)))))

    traj = run(state_from([
        "nu=0.5", "p=2.5", "q=4", "alpha=0.1", "noise.family=linear",
        "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random",
        "steps=100", "dt=0.0025", "T=0.25",
    ]), 0.25)
    parts = pressure.decompose_pressure(traj)
    recon = parts.max_residual()
    doubled = pressure.decompose_pressure(
        dataclasses.replace(traj, increments=2.0 * traj.increments))
    doubling = bool(np.array_equal(doubled.pi_phi, 2.0 * parts.pi_phi))

    passed = tg_err < 1e-10 and recon < 1e-8 and doubling
    report(8, passed,
           f"vortex-array error {tg_err:.3e} < 1e-10; recombination residual {recon:.3e} < 1e-8; "
           f"stochastic part doubles exactly: {doubling}")
    assert passed


def test_criterion_09_bogovskii():
    resolutions = (32, 64, 128)
    n_sources = 20
    residuals = np.zeros((3, n_sources))
    ratios = np.zeros_like(residuals)
    for ri, n in enumerate(resolutions):
        m = pressure.midpoints(n)
        xx, yy = np.meshgrid(m, m, indexing="ij")
        xis = []
        for l in range(n_sources):
            rng = np.random.default_rng([2026, l])
            xi = np.zeros((n, n))
            for j in range(1, 4):
                for k in range(1, 4):
                    xi += rng.standard_normal() * np.sin(j * np.pi * xx) * np.sin(k * np.pi * yy)
            xis.append(xi - xi.mean())
        ws = pressure.bogovskii_solve_batch(np.array(xis), n)
        for l in range(n_sources):
            prob = pressure.BogovskiiProblem(xis[l], n)
            residuals[ri, l] = pressure.divergence_residual(prob, ws[l])
            ratios[ri, l] = pressure.gradient_ratio(prob, ws[l])
    decreasing = bool(np.all(residuals[1:] < residuals[:-1]))
    bound = float(np.max(ratios))
    passed = decreasing and bound < 10.0
    report(9, passed,
           f"||div w - xi||_2 decreasing across (32, 64, 128) for all 20 sources: {decreasing}; "
           f"||grad w||_2 / ||xi||_2 <= {bound:.3f} across the batch")
    assert passed


def test_criterion_10_weak_form_residual():
    traj = run(state_from([
        "nu=0.5", "p=2.5", "q=4", "alpha=0.1", "noise.family=linear",
        "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random",
        "steps=100", "dt=0.0025", "T=0.25",
    ]), 0.25)
    basis = traj.basis
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


def test_criterion_11_twin_uniqueness():
    overrides = [
        "nu=0.5", "p=2", "noise.family=linear", "noise.amplitude=0.5",
        "noise.modes=6", "ic.kind=random", "steps=100", "dt=0.0025", "T=0.25",
    ]
    cfg = cli.parse_config(None, overrides)
    basis = cfg.basis()
    weight_c = analysis.calibrate_ladyzhenskaya(basis)

    def pair_factory(local_cfg, delta):
        def make_pair(path):
            sa = cli.make_state(local_cfg, basis, path)
            sb = cli.make_state(local_cfg, basis, path)
            if delta:
                cb = sb.c.copy()
                cb[int(np.flatnonzero(basis.k2 > 0)[0])] += delta
                sb = dataclasses.replace(sb, c=cb)
            return sa, sb
        return make_pair

    identical = analysis.twin_uniqueness(pair_factory(cfg, 0.0), cfg.T, 8, weight_c)
    perturbed = analysis.twin_uniqueness(pair_factory(cfg, 1e-3), cfg.T, 100, weight_c)
    half_cfg = dataclasses.replace(cfg, dt=cfg.dt / 2.0, steps=cfg.steps * 2)
    half = analysis.twin_uniqueness(pair_factory(half_cfg, 1e-3), cfg.T, 100, weight_c)
    stability = half.gronwall_constant / perturbed.gronwall_constant
    path_by_path = bool(np.all(perturbed.per_path_ratios <= perturbed.gronwall_constant))
    passed = bool(identical.bitwise_identical) and path_by_path and 0.5 <= stability <= 2.0
    report(11, passed,
           f"identical twins bitwise equal: {identical.bitwise_identical}; "
           f"Gronwall constant C = {perturbed.gronwall_constant:.4f} holds on all 100 paths, "
           f"dt-halving ratio {stability:.3f} within x2")
    assert passed


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
    # paths in reverse order from fresh states changes no bit of any of them
    cfg = cli.parse_config(None, ["seed=2026", "paths=3", *CRITERION_12])

    def trajectories(order):
        basis = cfg.basis()
        return {i: run(cli.make_state(cfg, basis, i), cfg.T) for i in order}

    forward = trajectories(range(cfg.paths))
    reverse = trajectories(reversed(range(cfg.paths)))
    arrays = ("coeffs", "increments", "dissipation_p", "grad_p", "damping_q", "noise_mass_sq", "c_dot_s")
    same_order = all(
        np.array_equal(getattr(forward[i], name), getattr(reverse[i], name))
        for i in forward for name in arrays
    )
    passed = same_rerun and same_order
    report(12, passed,
           f"byte-identical CSV/JSON/snapshots on rerun: {same_rerun}; "
           f"every path bitwise equal with paths run in order 2, 1, 0: {same_order}")
    assert passed


def test_criterion_12_fails_on_a_shared_generator(tmp_path, monkeypatch, capsys):
    # one generator for every path: a path's draws depend on the paths run before it
    shared = np.random.default_rng(2026)

    def draw(master_seed, path, step, dt, n_w):
        return WienerIncrement(shared.standard_normal(n_w) * np.sqrt(dt), dt, (master_seed, path, step))

    monkeypatch.setattr(galerkin, "sample_increment", draw)
    with pytest.raises(AssertionError):
        test_criterion_12_reproducibility(tmp_path)
    assert "run in order 2, 1, 0: False" in capsys.readouterr().out
