import dataclasses

import numpy as np
import pytest

from nsvsim import analysis, cli, fields
from nsvsim.errors import ValidationError
from nsvsim.galerkin import DivFreeBasis, GalerkinState, assemble_drift_terms, run
from nsvsim.noise import NoiseModel
from nsvsim.rheology import RheologyParams

from conftest import torus_grid

OFF = NoiseModel("off", 0.0, 0)


def make_state(basis, c, params, noise=OFF, dt=1e-3, seed=11, path=0):
    return GalerkinState(
        t=0.0, c=np.asarray(c, float), basis=basis, params=params, noise=noise,
        dt=dt, forcing=np.zeros(basis.n), master_seed=seed, path=path)


def smooth_coeffs(basis, seed=7, kappa=0.5, energy=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n) * (1.0 + basis.k2) ** -1.0
    return c * np.sqrt(energy / basis.energy(c, kappa))


class TestEnergyAudit:
    def test_bookkeeping_identity_exact(self, small_basis):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6)
        traj = run(make_state(small_basis, smooth_coeffs(small_basis), params, model), 0.05)
        ledger, summary = analysis.energy_audit(traj)
        assert summary["bookkeeping_error"] == 0.0
        assert len(ledger.residual) == traj.n_steps

    def test_ledger_reads_the_kernel_record(self, small_basis):
        # state columns equal, bitwise, the kernel recomputed at each stored state
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6)
        traj = run(make_state(small_basis, smooth_coeffs(small_basis), params, model), 0.02)
        ledger = analysis.ledger_from_trajectory(traj)
        mass = small_basis.mass_multipliers(params.kappa)
        eta = traj.increments @ model.mode_scales()
        for i in range(traj.n_steps):
            c = traj.coeffs[i]
            t = assemble_drift_terms(
                small_basis, small_basis.scatter(c), traj.forcing, params, model)
            assert ledger.dissipation[i] == 2.0 * params.nu * t.dissipation_p * traj.dt
            assert ledger.damping[i] == 2.0 * params.alpha * t.damping_q * traj.dt
            assert ledger.ito_trace[i] == (
                model.trace_const * float(np.sum(t.s * t.s / mass)) * traj.dt)
            assert ledger.martingale[i] == 2.0 * float(np.dot(c, t.s)) * eta[i]

    def test_euler_voigt_shear_conserves(self, small_basis):
        _, yy = torus_grid(small_basis.grid_size)
        c = small_basis.gather_grid(np.stack([np.sin(yy), np.zeros_like(yy)]))
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        traj = run(make_state(small_basis, c, params, dt=1e-2), 0.5)
        ledger, _ = analysis.energy_audit(traj)
        assert np.max(np.abs(ledger.d_energy)) < 1e-10 * ledger.energy[0]

    def test_viscous_residual_halves_with_dt(self, small_basis):
        params = RheologyParams(p=1.5, q=3.0, nu=1.0, kappa=0.5)
        c = smooth_coeffs(small_basis)
        coarse = run(make_state(small_basis, c, params, dt=1e-3), 0.2)
        fine = run(make_state(small_basis, c, params, dt=5e-4), 0.2)
        _, summary = analysis.energy_audit(coarse, refined=fine)
        assert summary["energy_nonincreasing"]
        assert summary["residual_halving_ratio"] == pytest.approx(0.5, abs=0.1)

    def test_refined_trajectory_step_checked(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        c = smooth_coeffs(small_basis)
        traj = run(make_state(small_basis, c, params, dt=1e-3), 0.01)
        with pytest.raises(ValidationError, match="halve"):
            analysis.energy_audit(traj, refined=traj)

    def test_noisy_residual_statistically_zero(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 6)
        c = smooth_coeffs(small_basis)
        finals = []
        for path in range(60):
            traj = run(make_state(small_basis, c, params, model, dt=2.5e-3, path=path), 0.1)
            finals.append(np.sum(analysis.ledger_from_trajectory(traj).residual))
        finals = np.asarray(finals)
        se = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean()) <= 3.0 * se


class TestWeakForm:
    def _traj(self, small_basis, noise=True):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6) if noise else OFF
        return run(make_state(small_basis, smooth_coeffs(small_basis), params, model, dt=2e-3), 0.05)

    def test_scheme_satisfies_own_identity(self, small_basis):
        traj = self._traj(small_basis)
        modes = analysis.basis_test_modes(small_basis, range(0, small_basis.n, 5))
        assert analysis.weak_form_residual(traj, modes) < 1e-9

    def test_convection_off_satisfies_own_identity(self):
        # criterion-10 configuration with convection off: the residual must not
        # re-add the convective term the stepper left out
        cfg = cli.parse_config(None, [
            "nu=0.5", "p=2.5", "q=4", "alpha=0.1", "noise.family=linear",
            "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random",
            "steps=100", "dt=0.0025", "T=0.25", "convection=false",
        ])
        traj = run(cli.make_state(cfg, cfg.basis()), cfg.T)
        modes = analysis.basis_test_modes(traj.basis, range(traj.basis.n))
        assert analysis.weak_form_residual(traj, modes) <= 1e-9

    def test_zero_trajectory_zero_residual(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        traj = run(make_state(small_basis, np.zeros(small_basis.n), params), 0.02)
        modes = analysis.basis_test_modes(small_basis, [0, 3, 7])
        assert analysis.weak_form_residual(traj, modes) == 0.0

    def test_perturbation_sensitivity(self, small_basis):
        traj = self._traj(small_basis)
        modes = analysis.basis_test_modes(small_basis, range(small_basis.n))
        base = analysis.weak_form_residual(traj, modes)
        coeffs = traj.coeffs.copy()
        coeffs[traj.n_steps // 2, 4] += 1e-3
        bumped = dataclasses.replace(traj, coeffs=coeffs)
        jumped = analysis.weak_form_residual(bumped, modes)
        assert jumped >= 1e4 * max(base, 1e-16)
        assert jumped >= 1e-4 * 1e-3  # absolute floor relative to the term scale

    def test_non_solenoidal_mode_rejected(self, small_basis):
        traj = self._traj(small_basis, noise=False)
        bad = fields.zero_field(2, small_basis.grid_size)
        bad.coeffs[0, 3, 2] = 1.0  # k = (1, 0) with x-polarization: k . u != 0
        bad.coeffs[0, 1, 2] = 1.0
        with pytest.raises(ValidationError, match="divergence-free"):
            analysis.weak_form_residual(traj, [bad])

    def test_out_of_span_mode_rejected(self, small_basis):
        traj = self._traj(small_basis, noise=False)
        outside = fields.zero_field(9, small_basis.grid_size)
        outside.coeffs[0, 9, 17] = 0.5j  # wave mode far beyond the span
        outside.coeffs[0, 9, 1] = -0.5j
        with pytest.raises(ValidationError, match="span"):
            analysis.weak_form_residual(traj, [outside])


class TestMoments:
    def _runner(self, small_basis, params, model, dt=2.5e-3, T=0.05):
        c = smooth_coeffs(small_basis)

        def run_path(path):
            return run(make_state(small_basis, c, params, model, dt=dt, path=path), T)

        return run_path, small_basis.energy(c, params.kappa)

    def test_single_path_equals_its_statistic(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 4)
        run_path, e0 = self._runner(small_basis, params, model)
        rep = analysis.moment_estimate(run_path, 1, 2.0, model, e0, 0.0, 0.05)
        traj = run_path(0)
        sup_e = float(np.max(traj.energies()))
        assert rep.sup_energy == pytest.approx(sup_e, rel=1e-12)
        assert rep.sup_energy_se == 0.0

    def test_deterministic_monotone_energy(self, small_basis):
        # noise off, f = 0: sup_t E = E(0) exactly, all moments = E(0)^(gamma/2)
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        run_path, e0 = self._runner(small_basis, params, OFF)
        rep = analysis.moment_estimate(run_path, 3, 4.0, OFF, e0, 0.0, 0.05)
        assert rep.sup_energy == pytest.approx(e0 ** 2.0, rel=1e-10)

    def test_bound_is_honest_for_gamma_two(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 4)
        run_path, e0 = self._runner(small_basis, params, model)
        rep = analysis.moment_estimate(run_path, 8, 2.0, model, e0, 0.0, 0.05)
        assert rep.bound_rigorous
        assert rep.sup_energy <= rep.bound
        assert rep.passed

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            analysis.MomentReport(1.5, 1, 0, 0, 0, 0, 0, 0, 0)

    def test_divergent_paths_excluded(self, small_basis):
        params = RheologyParams(p=4.0, q=3.0, nu=1.0, kappa=1e-6)
        model = NoiseModel("off", 0.0, 0)
        big = 50.0 * smooth_coeffs(small_basis)

        def run_path(path):
            if path == 1:
                st = make_state(small_basis, big, params, model, dt=10.0)
                import warnings
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    return run(st, 100.0)
            return run(make_state(small_basis, smooth_coeffs(small_basis), params, model), 0.002)

        rep = analysis.moment_estimate(run_path, 3, 2.0, model, 1.0, 0.0, 0.002)
        assert rep.excluded_paths == 1
        assert rep.paths == 3


class TestAlphaSweep:
    def test_decreasing_contribution(self, small_basis):
        c = smooth_coeffs(small_basis)

        def state_for(alpha):
            params = RheologyParams(p=2.0, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
            return make_state(small_basis, c, params, dt=2.5e-3)

        rows = analysis.alpha_sweep(state_for, 0.05, [0.25, 0.125, 0.0625, 0.03125])
        damping = [r.damping_integral for r in rows]
        assert all(b < a for a, b in zip(damping, damping[1:]))
        dists = [r.distance_to_reference for r in rows]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert rows[0].distance_to_previous is None
        assert rows[1].distance_to_previous is not None

    def test_alpha_zero_contribution_is_zero(self, small_basis):
        c = smooth_coeffs(small_basis)

        def state_for(alpha):
            params = RheologyParams(p=2.0, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
            return make_state(small_basis, c, params, dt=2.5e-3)

        rows = analysis.alpha_sweep(state_for, 0.01, [1e-12])
        assert rows[0].damping_integral == pytest.approx(0.0, abs=1e-10)
        # and the ledger's damping column vanishes identically on the reference
        ledger = analysis.ledger_from_trajectory(run(state_for(0.0), 0.01))
        assert np.all(ledger.damping == 0.0)

    def test_validation(self, small_basis):
        with pytest.raises(ValidationError):
            analysis.alpha_sweep(lambda a: None, 0.01, [0.1, 0.2])


class TestMonotoneLimitShadow:
    def test_two_resolution_stress_gap(self):
        # matched noise at two span sizes: the pairing of the stress gap with
        # the shear-rate gap stays nonnegative after time integration
        grid = 32
        params = RheologyParams(p=2.5, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 6)
        from nsvsim.rheology import power_law_stress

        trajs = {}
        for n_modes in (16, 32):
            basis = DivFreeBasis(n_modes, grid)
            c = smooth_coeffs(basis)
            trajs[n_modes] = run(make_state(basis, c, params, model, dt=2.5e-3), 0.05)
        t_small, t_big = trajs[16], trajs[32]
        w = fields.quad_weight(grid)
        total = 0.0
        scale = 0.0
        for i in range(t_small.n_steps):
            du = fields.sym_gradient(t_small.field_at(i))
            dv = fields.sym_gradient(t_big.field_at(i))
            au = power_law_stress(du, params)
            av = power_law_stress(dv, params)
            gap = fields.SymTensorField(au.xx - av.xx, au.xy - av.xy, au.yy - av.yy)
            dd = fields.SymTensorField(du.xx - dv.xx, du.xy - dv.xy, du.yy - dv.yy)
            total += float(np.sum(gap.contract(dd)) * w) * t_small.dt
            scale += float(np.sum(du.modulus() ** params.p) * w) * t_small.dt
        assert total >= -1e-8 * max(scale, 1.0)


class TestTwin:
    def _pair_factory(self, basis, perturb, noise=None, dt=2.5e-3):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = noise or NoiseModel("linear", 0.5, 6)
        base = smooth_coeffs(basis)

        def make_pair(path):
            sa = make_state(basis, base, params, model, dt=dt, seed=3, path=path)
            cb = base.copy()
            if perturb:
                cb[int(np.flatnonzero(basis.k2 > 0)[0])] += perturb
            sb = make_state(basis, cb, params, model, dt=dt, seed=3, path=path)
            return sa, sb

        return make_pair

    def test_identical_initial_data_bitwise(self, small_basis):
        rep = analysis.twin_uniqueness(self._pair_factory(small_basis, 0.0), 0.05, 4, 1.0)
        assert rep.bitwise_identical
        assert np.all(rep.per_path_ratios == 0.0)

    def test_weight_in_unit_interval(self, small_basis):
        c1 = analysis.calibrate_ladyzhenskaya(small_basis, samples=16)
        rep = analysis.twin_uniqueness(self._pair_factory(small_basis, 1e-3), 0.05, 3, c1)
        assert rep.weighted_gap_series is not None
        assert np.all(rep.weighted_gap_series >= 0.0)
        assert rep.gronwall_constant > 0.0

    def test_delta_halving_approximately_linear(self, small_basis):
        # half the perturbation -> half the final gap (on the norm scale)
        gaps = []
        for delta in (1e-3, 5e-4):
            rep = analysis.twin_uniqueness(
                self._pair_factory(small_basis, delta), 0.05, 6, 1.0)
            gaps.append(np.sqrt(np.mean(rep.per_path_ratios) * delta**2))
        ratio = gaps[1] / gaps[0]
        assert 0.3 <= ratio <= 0.7

    def test_viscous_newtonian_decay(self, small_basis):
        # noise off, p = 2: the gap decays and the weighted peak sits at t = 0
        rep = analysis.twin_uniqueness(
            self._pair_factory(small_basis, 1e-3, noise=OFF), 0.05, 1, 0.5)
        series = rep.weighted_gap_series
        assert series[-1] < series[0]
        assert np.argmax(series) == 0

    def test_mismatched_span_rejected(self, small_basis):
        other = DivFreeBasis(16, 32)
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)

        def bad_pair(path):
            return (
                make_state(small_basis, smooth_coeffs(small_basis), params),
                make_state(other, smooth_coeffs(other), params),
            )

        with pytest.raises(ValidationError, match="span"):
            analysis.twin_uniqueness(bad_pair, 0.01, 1, 1.0)

    def test_gronwall_constant_stable_under_dt_halving(self, small_basis):
        reps = [
            analysis.twin_uniqueness(
                self._pair_factory(small_basis, 1e-3, dt=dt), 0.05, 4, 1.0)
            for dt in (2.5e-3, 1.25e-3)
        ]
        ratio = reps[1].gronwall_constant / reps[0].gronwall_constant
        assert 0.5 <= ratio <= 2.0

    def test_gronwall_constant_stable_under_span_doubling(self, small_basis):
        big = DivFreeBasis(2 * small_basis.n, small_basis.grid_size)
        reps = [
            analysis.twin_uniqueness(self._pair_factory(b, 1e-3), 0.05, 4, 1.0)
            for b in (small_basis, big)
        ]
        ratio = reps[1].gronwall_constant / reps[0].gronwall_constant
        assert 0.5 <= ratio <= 2.0


def test_ladyzhenskaya_constant_plausible(small_basis):
    c = analysis.calibrate_ladyzhenskaya(small_basis, samples=32)
    # scale-invariant ratio; known to sit near (2/pi)^(1/2)-ish levels in 2D
    assert 0.1 < c < 2.0
