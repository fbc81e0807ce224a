import dataclasses
import tracemalloc

import numpy as np
import pytest

from nsvsim import cli, fields, galerkin, pressure
from nsvsim.errors import ValidationError
from nsvsim.galerkin import System, run
from nsvsim.noise import NoiseModel
from nsvsim.rheology import RheologyParams

from conftest import perturbing, torus_grid


def noisy_trajectory(small_basis, alpha=0.1, family="saturating", seed=5, steps=40):
    rng = np.random.default_rng(7)
    c0 = rng.standard_normal(small_basis.n) * (1.0 + small_basis.k2) ** -1.0
    c0 /= np.sqrt(small_basis.energy(c0, 0.5))
    params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
    model = NoiseModel(family, 0.5, 6)
    system = System(small_basis, params, model, 2.5e-3, np.zeros(small_basis.n), True)
    return run(system, c0[None], [(seed, 0)], steps * system.dt)[0]


class TestRecover:
    def test_zero(self):
        h = np.stack([np.zeros((32, 32)), np.zeros((32, 32)), np.zeros((32, 32))])
        assert np.all(pressure.recover_pressure(h) == 0.0)

    def test_shear_no_pressure(self):
        # u = (sin y, 0): div div (u x u) = d_xx sin^2 y = 0
        _, yy = torus_grid(64)
        u = np.stack([np.sin(yy), np.zeros_like(yy)])
        h = np.stack([u[0] * u[0], u[0] * u[1], u[1] * u[1]])
        assert np.max(np.abs(pressure.recover_pressure(h))) < 1e-14

    def test_vortex_array_closed_form(self):
        xx, yy = torus_grid(64)
        u = np.stack([np.sin(xx) * np.cos(yy), -np.cos(xx) * np.sin(yy)])
        h = np.stack([u[0] * u[0], u[0] * u[1], u[1] * u[1]])
        pi = pressure.recover_pressure(h)
        assert np.max(np.abs(pi + 0.25 * (np.cos(2 * xx) + np.cos(2 * yy)))) < 1e-10

    def test_mean_zero(self, rng):
        h = rng.standard_normal((3, 32, 32))
        pi = pressure.recover_pressure(h)
        assert abs(pi.mean()) < 1e-14


def slices_of(traj):
    return list(pressure.decompose_pressure(traj))


class TestDecompose:
    def test_zero_trajectory(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        system = System(small_basis, params, NoiseModel("off", 0.0, 0), 1e-2, np.zeros(small_basis.n), True)
        slices = slices_of(run(system, np.zeros((1, small_basis.n)), [(0, 0)], 0.05)[0])
        for s in slices:
            for arr in (s.pi1, s.pi2, s.pi_phi, s.harmonic_max, s.pi_total):
                assert np.all(arr == 0.0)

    def test_initial_stochastic_slice_vanishes(self, small_basis):
        assert np.all(next(pressure.decompose_pressure(noisy_trajectory(small_basis))).pi_phi == 0.0)

    def test_stress_off_leaves_convective_part(self, small_basis):
        traj = noisy_trajectory(small_basis, alpha=0.0, family="off")
        traj = dataclasses.replace(traj, system=dataclasses.replace(
            traj.system, params=RheologyParams(p=2.5, q=4.0, nu=0.0, kappa=0.5, alpha=0.0)))
        slices = slices_of(traj)
        assert all(np.all(s.pi1 == 0.0) and np.all(s.pi_phi == 0.0) for s in slices)
        assert max(np.max(np.abs(s.pi2)) for s in slices) > 0.0

    def test_recombination_residual(self, small_basis):
        assert max(s.recombination_residual for s in slices_of(noisy_trajectory(small_basis))) < 1e-8

    def test_harmonic_part_vanishes(self, small_basis):
        traj = noisy_trajectory(small_basis)
        slices = slices_of(traj)
        assert len(slices) == traj.times.size
        assert max(s.harmonic_max for s in slices) < 1e-12

    def test_slices_mean_zero(self, small_basis):
        for s in slices_of(noisy_trajectory(small_basis)):
            for arr in (s.pi1, s.pi2, s.pi_phi, s.pi_total):
                assert abs(arr.mean()) < 1e-15

    def test_stochastic_part_linear_in_increments(self, small_basis):
        traj = noisy_trajectory(small_basis)
        doubled = pressure.decompose_pressure(dataclasses.replace(traj, increments=2.0 * traj.increments))
        pairs = list(zip(pressure.decompose_pressure(traj), doubled, strict=True))
        assert all(np.array_equal(d.pi_phi, 2.0 * s.pi_phi) for s, d in pairs)

    def test_momentum_identity_gradient_modes(self, small_basis, tmp_path):
        check = pressure.check_pressure(noisy_trajectory(small_basis), tmp_path / "pressure.csv")
        assert check.momentum_residual < 1e-7
        assert check.doubling_exact

    def test_momentum_identity_catches_perturbed_slice(self, small_basis, tmp_path, monkeypatch):
        xx, yy = torus_grid(small_basis.grid_size)

        def perturb(traj, s):
            s.pi_total += 1e-3 * np.cos(xx + 2 * yy)

        perturbing(monkeypatch, perturb)
        check = pressure.check_pressure(noisy_trajectory(small_basis), tmp_path / "pressure.csv")
        assert check.momentum_residual > 1e-7

    @pytest.mark.parametrize("ky", [0, 3])
    def test_momentum_identity_catches_perturbed_half_table(self, small_basis, tmp_path, monkeypatch, ky):
        # the tables are the ky >= 0 halves: an entry of the ky = 0 column,
        # or of ky > 0, at kx = 1 must each show in the defect
        def perturb(traj, s):
            k = s.drift_div.shape[-1] - 1
            assert s.drift_div.shape == (2, 2 * k + 1, k + 1)
            s.drift_div[0, k + 1, ky] += 1e-3 * np.max(np.abs(s.drift_div))

        perturbing(monkeypatch, perturb)
        check = pressure.check_pressure(noisy_trajectory(small_basis), tmp_path / "pressure.csv")
        assert check.momentum_residual > 1e-7

    def test_stochastic_part_reruns_from_recorded_tables(self, small_basis):
        # slice i's pi_phi lifts sum_{j<i} eta_j shape(u_j), integrated here
        # from the earlier slices' own tables
        traj = noisy_trajectory(small_basis)
        etas = traj.etas()
        slices = slices_of(traj)
        noise = np.zeros_like(slices[0].noise_shape)
        for i, s in enumerate(slices):
            assert np.array_equal(s.pi_phi, pressure._lift(noise, small_basis.grid_size))
            if i < traj.n_steps:
                noise = noise + etas[i] * s.noise_shape

    def test_a_reader_that_changes_a_slice_reaches_no_other(self, small_basis):
        # every yielded array is the slice's own: zeroing each one as it comes
        # leaves every slice as the untouched pass forms it
        traj = noisy_trajectory(small_basis, steps=10)
        seen = []
        for s in pressure.decompose_pressure(traj):
            arrays = (s.pi1, s.pi2, s.pi_phi, s.pi_total, s.drift_div, s.noise_shape)
            seen.append(([a.copy() for a in arrays], s.recombination_residual, s.harmonic_max))
            for a in arrays:
                a[...] = 0.0
        for (arrays, residual, harmonic), s in zip(seen, slices_of(traj), strict=True):
            clean = (s.pi1, s.pi2, s.pi_phi, s.pi_total, s.drift_div, s.noise_shape)
            assert all(np.array_equal(a, b) for a, b in zip(arrays, clean))
            assert (residual, harmonic) == (s.recombination_residual, s.harmonic_max)

    def test_convection_off_leaves_no_drift_pressure(self, small_basis):
        # nu = alpha = 0, noise off, f = 0: with convection off nothing drives pi2
        rng = np.random.default_rng(7)
        c0 = rng.standard_normal(small_basis.n) * (1.0 + small_basis.k2) ** -1.0
        params = RheologyParams(p=2.5, q=4.0, nu=0.0, kappa=0.5, alpha=0.0)
        system = System(small_basis, params, NoiseModel("off", 0.0, 0), 2.5e-3, np.zeros(small_basis.n), False)
        slices = slices_of(run(system, c0[None], [(0, 0)], 10 * system.dt)[0])
        assert np.max(np.abs(c0)) > 0.0
        assert all(np.all(s.pi2 == 0.0) and np.all(s.pi_total == 0.0) for s in slices)

    def test_pressure_csv(self, tmp_path, small_basis):
        traj = noisy_trajectory(small_basis, steps=10)
        path = tmp_path / "pressure.csv"
        pressure.check_pressure(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,pi_l2,pi1_pprime,pi2_q0,pi_phi_l2,recombination_residual"
        assert len(lines) == traj.n_steps + 2
        residuals = [float(line.split(",")[-1]) for line in lines[1:]]
        assert residuals == [s.recombination_residual for s in slices_of(traj)]


def test_pressure_experiment_evaluates_each_state_once(tmp_path, monkeypatch):
    # S + 1 pointwise stages in run and S + 1 in the decomposition; the
    # momentum check and the doubling criterion read the slices' tables
    original = galerkin.PointwiseTerms.at.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(galerkin.PointwiseTerms, "at", classmethod(counted))
    steps = 12
    cfg = cli.parse_config(None, [
        "experiment=pressure", "grid_n=16", "n_modes=16", f"steps={steps}", "dt=0.0025",
        f"T={steps * 0.0025!r}", "p=2.5", "q=4", "alpha=0.1", "ic.kind=random",
        "noise.family=linear", "noise.amplitude=0.5", "noise.modes=6",
    ])
    report = cli.run_experiment(cfg, str(tmp_path))
    assert report.passed
    assert len(calls) == 2 * (steps + 1)


def test_pressure_pass_forms_one_modulus_per_slice(small_basis, monkeypatch):
    # the slice sources read |u| (the damping, the saturating shape) and no
    # quadrature, so the pass never forms |grad u|
    traj = noisy_trajectory(small_basis, steps=10)
    original, moduli = fields.modulus, []

    def counted(v):
        moduli.append(v.shape[-3])
        return original(v)

    monkeypatch.setattr(fields, "modulus", counted)
    slices_of(traj)
    assert moduli == [2] * (traj.n_steps + 1)


def saturating_pressure_report(tmp_path) -> cli.RunReport:
    steps = 12
    cfg = cli.parse_config(None, [
        "experiment=pressure", "grid_n=16", "n_modes=16", f"steps={steps}", "dt=0.0025",
        f"T={steps * 0.0025!r}", "p=2.5", "q=4", "alpha=0.1", "ic.kind=random",
        "noise.family=saturating", "noise.amplitude=0.5", "noise.modes=6",
    ])
    return cli.run_experiment(cfg, str(tmp_path))


def test_pressure_experiment_doubling_fails_on_a_rescaled_noise_slice(tmp_path, monkeypatch):
    # one yielded shape(u) slice off by 1 %: the noise that the check
    # integrates under doubled increments then differs from the noise that
    # pi_phi lifts, and the doubled part from 2 pi_phi
    def rescale(traj, s):
        s.noise_shape *= 1.01

    perturbing(monkeypatch, rescale)
    report = saturating_pressure_report(tmp_path)
    doubling = next(c for c in report.criteria if c.name == "stochastic part doubles exactly with increments")
    assert not doubling.passed


def test_pressure_experiment_momentum_fails_on_a_nan_slice(tmp_path, monkeypatch):
    # one NaN entry of one pi_total slice makes that slice's momentum defect
    # NaN, and the worst defect over the slices must stay NaN
    def poison(traj, s):
        s.pi_total[3, 5] = np.nan

    perturbing(monkeypatch, poison)
    report = saturating_pressure_report(tmp_path)
    momentum = next(c for c in report.criteria if c.name == "momentum identity vs gradient modes < 1e-7")
    assert not momentum.passed and not report.passed


def test_pressure_pass_working_set_does_not_grow_with_steps(tmp_path):
    # Traced peak of the whole streamed pass (decomposition, momentum check,
    # doubling check and CSV) at N = 64 (K = (N - 1) // 3), for S = 40 and
    # S = 160 steps.  Across slices the pass holds only its running sums:
    # four (2, 2K+1, K+1) complex tables (the decomposition's integrated
    # sources and integrated noise, the momentum check's sources and the
    # doubling check's noise) and the (N, N) drift integral.  One
    # slice's pointwise stage (velocity, Jacobian, strain, stress, flux,
    # noise shape), its coefficient tables and lifts stay under 64 N^2
    # doubles (2 MiB).  The pass peaks at about 1.5 MB for either S; the
    # (S+1) arrays it replaced peaked at 8.5 MB for S = 40, which grew with S.
    n = 64
    k = galerkin.band_limit(n)
    basis = galerkin.DivFreeBasis(64, n)
    rng = np.random.default_rng(7)
    c0 = rng.standard_normal(basis.n) * (1.0 + basis.k2) ** -1.0
    c0 /= np.sqrt(basis.energy(c0, 0.5))
    system = System(basis, RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1),
                    NoiseModel("saturating", 0.5, 6), 2.5e-3, np.zeros(basis.n), True)
    bound = 8 * 64 * n * n + 16 * 4 * 2 * (2 * k + 1) * (k + 1) + 8 * n * n
    for steps in (40, 160):
        traj = run(system, c0[None], [(5, 0)], steps * system.dt)[0]
        tracemalloc.start()
        try:
            check = pressure.check_pressure(traj, tmp_path / f"pressure_{steps}.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.momentum_residual < 1e-7 and check.doubling_exact
        assert peak < bound, (steps, peak)


def _bump(points):
    """The smooth bump of unit integral supported in the inscribed ball, with
    the kernel's centre, radius and normalization."""
    d2 = np.sum((points - pressure.BUMP_CENTER) ** 2, axis=-1) / pressure.BUMP_RADIUS**2
    out = np.zeros(d2.shape)
    inside = d2 < 1.0
    out[inside] = pressure._BUMP_CONST * np.exp(-1.0 / (1.0 - d2[inside]))
    return out


def _direct_bogovskii(xis, n):
    """Unsymmetrised evaluation of the Bogovskii integral: the ray integral is
    evaluated for every (target, source) pair, with the kernel's 12-node rule
    and formulas, after compacting first to rays aimed at the ball (b < 0) or
    starting inside it (cc < 0) and then to nonempty segments."""
    xis = np.asarray(xis, dtype=float).reshape(-1, n * n)
    m = pressure.midpoints(n)
    xx, yy = np.meshgrid(m, m, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    n_pts = n * n
    center, radius = pressure.BUMP_CENTER, pressure.BUMP_RADIUS
    gauss_s, gauss_w = np.polynomial.legendre.leggauss(12)
    d0 = pts[:, 0] - center[0]
    d1 = pts[:, 1] - center[1]
    cc = d0 * d0 + d1 * d1 - radius**2
    e0 = pts[:, 0:1] - pts[None, :, 0]
    e1 = pts[:, 1:2] - pts[None, :, 1]
    b = e0 * d0[None, :] + e1 * d1[None, :]
    cand = np.flatnonzero((b < 0.0) | (cc[None, :] < 0.0))
    g = np.zeros(e0.shape)
    ev0 = e0.ravel()[cand]
    ev1 = e1.ravel()[cand]
    bv = 2.0 * b.ravel()[cand]
    av = ev0 * ev0 + ev1 * ev1
    cv = cc[cand % n_pts]
    disc = bv * bv - 4.0 * av * cv
    ok = (disc > 0.0) & (av > 1e-28)
    sq = np.sqrt(disc, where=ok, out=np.zeros_like(disc))
    inv2a = np.divide(0.5, av, where=ok, out=np.zeros_like(av))
    s_hi = (sq - bv) * inv2a
    s_lo = np.maximum((-sq - bv) * inv2a, 1.0)
    sub = np.flatnonzero(ok & (s_hi > s_lo))
    flat = cand[sub]
    src = flat % n_pts
    half = 0.5 * (s_hi[sub] - s_lo[sub])
    mid = s_lo[sub] + half
    acc = np.zeros(sub.size)
    for node, wt in zip(gauss_s, gauss_w):
        s = mid + half * node
        z0 = pts[src, 0] + s * ev0[sub] - center[0]
        z1 = pts[src, 1] + s * ev1[sub] - center[1]
        r2 = np.minimum((z0 * z0 + z1 * z1) / radius**2, 1.0 - 1e-14)
        acc += (wt * s) * np.exp(1.0 / (r2 - 1.0))
    g.ravel()[flat] = pressure._BUMP_CONST * acc * half
    w = np.stack([xis @ (e0 * g).T, xis @ (e1 * g).T], axis=1) / n_pts
    return w.reshape(-1, 2, n, n)


def _square_symmetry(n, swap, flip_x, flip_y):
    """Index arrays of R(i, j) over an (n, n) grid for one of the square's
    8 symmetries: swap the axes, then reflect each as flagged."""
    i, j = np.indices((n, n))
    r0, r1 = (j, i) if swap else (i, j)
    return (n - 1 - r0 if flip_x else r0), (n - 1 - r1 if flip_y else r1)


class TestBogovskii:
    def _random_xi(self, n, seed):
        m = pressure.midpoints(n)
        xx, yy = np.meshgrid(m, m, indexing="ij")
        rng = np.random.default_rng(seed)
        xi = np.zeros((n, n))
        for j in range(1, 4):
            for k in range(1, 4):
                xi += rng.standard_normal() * np.sin(j * np.pi * xx) * np.sin(k * np.pi * yy)
        return xi - xi.mean()

    def test_zero_source(self):
        prob = pressure.BogovskiiProblem(np.zeros((16, 16)), 16)
        assert np.all(pressure.bogovskii_solve_batch(prob.xi[None], 16)[0] == 0.0)

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValidationError):
            pressure.BogovskiiProblem(np.ones((16, 16)), 16)

    def test_batch_rejects_nonzero_mean(self):
        with pytest.raises(ValidationError, match="zero mean"):
            pressure.bogovskii_solve_batch(np.ones((1, 16, 16)), 16)

    def test_batch_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match="16x16"):
            pressure.bogovskii_solve_batch(np.zeros((1, 15, 15)), 16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_rejects_nonfinite(self, bad):
        xis = np.array([self._random_xi(16, s) for s in range(3)])
        xis[2, 5, 7] = bad
        with pytest.raises(ValidationError, match="finite: source 2"):
            pressure.bogovskii_solve_batch(xis, 16)

    def test_bump_properties(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.76], [0.0, 0.0]])
        vals = _bump(pts)
        assert vals[0] > 0.0 and vals[1] == 0.0 and vals[2] == 0.0
        # unit integral, by midpoint quadrature
        n = 256
        m = pressure.midpoints(n)
        xx, yy = np.meshgrid(m, m, indexing="ij")
        total = np.sum(_bump(np.stack([xx, yy], axis=-1))) / (n * n)
        assert total == pytest.approx(1.0, abs=2e-4)

    def test_divergence_residual_decreases(self):
        resolutions = (16, 32, 64)
        resids = []
        ratios = []
        for n in resolutions:
            xis = np.array([self._random_xi(n, s) for s in range(4)])
            ws = pressure.bogovskii_solve_batch(xis, n)
            probs = [pressure.BogovskiiProblem(xis[l], n) for l in range(4)]
            resids.append([pressure.divergence_residual(probs[l], ws[l]) for l in range(4)])
            ratios.extend(pressure.gradient_ratio(probs[l], ws[l]) for l in range(4))
        resids = np.asarray(resids)
        assert np.all(resids[1:] < resids[:-1])
        assert max(ratios) < 10.0

    @pytest.mark.parametrize("n", [12, 13, 16])
    def test_matches_direct_evaluation(self, n):
        xis = np.array([self._random_xi(n, s) for s in range(3)])
        ref = _direct_bogovskii(xis, n)
        w = pressure.bogovskii_solve_batch(xis, n)
        np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_tiling_does_not_change_the_result(self, monkeypatch):
        # n = 13 has 28 fundamental targets of 169 pairs each.  Tiles of 3
        # targets in blocks of 8 give blocks 8, 8, 8, 4, each ending in a
        # partial tile (8 = 3 + 3 + 2, 4 = 3 + 1), where the defaults run
        # one block of 28 targets in one tile.
        n = 13
        xis = np.array([self._random_xi(n, s) for s in range(3)])
        ref = pressure.bogovskii_solve_batch(xis, n)
        monkeypatch.setattr(pressure, "_TILE_PAIRS", 3 * n * n)
        monkeypatch.setattr(pressure, "_BLOCK_PAIRS", 8 * n * n)
        assert np.array_equal(pressure.bogovskii_solve_batch(xis, n), ref)

    def test_working_set_bounded_by_tile_and_block(self):
        # Peak traced memory of a 4-source solve at n = 64.  The block holds
        # e g for both components: 2 * _BLOCK_PAIRS doubles (16 MiB).  The
        # ray pass keeps at most about 32 arrays of one tile's pairs alive
        # (the dense tests, then the compacted roots and nodes): 32 *
        # _TILE_PAIRS doubles (8 MiB).  The permuted sources, their gathered
        # copies and the output are 8L + 8L + 2L rows of n^2 doubles, and
        # the points and index arrays 8 more rows.  Twice the sum, about
        # 53 MiB, leaves room for NumPy's temporaries; one 4M-pair chunk
        # per matmul peaked at 228 MiB here.
        n, n_src = 64, 4
        xis = np.array([self._random_xi(n, s) for s in range(n_src)])
        doubles = 2 * pressure._BLOCK_PAIRS + 32 * pressure._TILE_PAIRS + (18 * n_src + 8) * n * n
        tracemalloc.start()
        try:
            pressure.bogovskii_solve_batch(xis, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * doubles

    @pytest.mark.parametrize("n", [12, 13])
    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("flip_x", [False, True])
    @pytest.mark.parametrize("flip_y", [False, True])
    def test_square_symmetry_equivariance(self, n, swap, flip_x, flip_y):
        # w[xi](R x) = L_R w[xi o R](x), with L_R the linear part of R
        xi = self._random_xi(n, 1)
        r0, r1 = _square_symmetry(n, swap, flip_x, flip_y)
        w = pressure.bogovskii_solve_batch(xi[None], n)[0]
        w_r = pressure.bogovskii_solve_batch(xi[r0, r1][None], n)[0]
        lw0, lw1 = (w_r[1], w_r[0]) if swap else (w_r[0], w_r[1])
        lw = np.stack([-lw0 if flip_x else lw0, -lw1 if flip_y else lw1])
        np.testing.assert_allclose(w[:, r0, r1], lw, rtol=1e-12, atol=1e-12 * np.max(np.abs(w)))

    def test_boundary_trace_zero(self):
        n = 32
        prob = pressure.BogovskiiProblem(self._random_xi(n, 0), n)
        w = pressure.bogovskii_solve_batch(prob.xi[None], n)[0]
        edge = max(
            np.max(np.abs(w[:, 0, :])), np.max(np.abs(w[:, -1, :])),
            np.max(np.abs(w[:, :, 0])), np.max(np.abs(w[:, :, -1])))
        interior = np.max(np.abs(w))
        assert edge < 1e-3 * interior
