import dataclasses

import numpy as np
import pytest

from nsvsim import analysis, cli, fields, galerkin
from nsvsim.errors import DivergenceError, ValidationError
from nsvsim.galerkin import DivFreeBasis, System, assemble_drift_terms, drift_and_record, run
from nsvsim.noise import NoiseModel
from nsvsim.rheology import RheologyParams

from conftest import torus_grid

OFF = NoiseModel("off", 0.0, 0)


def make_state(basis, c, params, noise=OFF, dt=1e-3, seed=11, path=0) -> tuple:
    """(system, c0, lineages) of one path starting from ``c``: run's arguments before T."""
    system = System(basis, params, noise, dt, np.zeros(basis.n), True)
    return system, np.asarray(c, float)[None], [(seed, path)]


def smooth_coeffs(basis, seed=7, kappa=0.5, energy=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n) * (1.0 + basis.k2) ** -1.0
    return c * np.sqrt(energy / basis.energy(c, kappa))


class TestEnergyAudit:
    def test_bookkeeping_identity_exact(self, small_basis):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6)
        traj = run(*make_state(small_basis, smooth_coeffs(small_basis), params, model), 0.05)[0]
        ledger = analysis.ledger_from_trajectory(traj)
        assert ledger.bookkeeping_error() == 0.0
        assert len(ledger.residual) == traj.n_steps

    def test_ledger_reads_the_kernel_record(self, small_basis):
        # every declared record column, and the ledger's state columns, equal
        # bitwise the stepper's kernel call recomputed at each stored state,
        # the final one included; the martingale reads the stepper's row-wise eta
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6)
        traj = run(*make_state(small_basis, smooth_coeffs(small_basis), params, model), 0.02)[0]
        ledger = analysis.ledger_from_trajectory(traj)
        mass = small_basis.mass_multipliers(params.kappa)
        eta = galerkin.row_dot(traj.increments, model.mode_scales())
        for i, c in enumerate(traj.coeffs):
            t = drift_and_record(traj.system, c, i)
            for field in dataclasses.fields(galerkin.StateRecord):
                assert np.array_equal(getattr(traj, field.name)[i], getattr(t, field.name)), (field.name, i)
            if i == traj.n_steps:
                break
            assert ledger.dissipation[i] == 2.0 * params.nu * t.dissipation_p * traj.system.dt
            assert ledger.damping[i] == 2.0 * params.alpha * t.damping_q * traj.system.dt
            assert ledger.ito_trace[i] == (
                model.trace_const * float(np.sum(t.s * t.s / mass)) * traj.system.dt)
            assert ledger.martingale[i] == 2.0 * float(np.dot(c, t.s)) * eta[i]

    def test_euler_voigt_shear_conserves(self, small_basis):
        _, yy = torus_grid(small_basis.grid_size)
        c = small_basis.gather_grid(np.stack([np.sin(yy), np.zeros_like(yy)]))
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        traj = run(*make_state(small_basis, c, params, dt=1e-2), 0.5)[0]
        ledger = analysis.ledger_from_trajectory(traj)
        assert np.max(np.abs(ledger.d_energy)) < 1e-10 * ledger.energy[0]

    def test_viscous_residual_halves_with_dt(self, small_basis):
        params = RheologyParams(p=1.5, q=3.0, nu=1.0, kappa=0.5)
        c = smooth_coeffs(small_basis)
        coarse = run(*make_state(small_basis, c, params, dt=1e-3), 0.2)[0]
        fine = run(*make_state(small_basis, c, params, dt=5e-4), 0.2)[0]
        coarse, fine = analysis.ledger_from_trajectory(coarse), analysis.ledger_from_trajectory(fine)
        assert coarse.energy_nonincreasing() and fine.energy_nonincreasing()
        assert np.sum(fine.residual) / np.sum(coarse.residual) == pytest.approx(0.5, abs=0.1)

    def test_energy_law_holds_on_no_step(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        traj = run(*make_state(small_basis, smooth_coeffs(small_basis), params), 0.0)[0]
        ledger = analysis.ledger_from_trajectory(traj)
        assert traj.n_steps == 0 and ledger.energy.size == 0
        assert ledger.energy_nonincreasing() is True

    def test_energy_law_sees_one_rising_step(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        traj = run(*make_state(small_basis, smooth_coeffs(small_basis), params), 0.01)[0]
        ledger = analysis.ledger_from_trajectory(traj)
        assert ledger.energy_nonincreasing() is True
        tolerance = 1e-12 * max(ledger.energy[0], 1.0)
        ledger.d_energy[3] = 0.5 * tolerance
        assert ledger.energy_nonincreasing() is True
        ledger.d_energy[3] = 2.0 * tolerance
        assert ledger.energy_nonincreasing() is False

    def test_noisy_residual_statistically_zero(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 6)
        c = smooth_coeffs(small_basis)
        finals = []
        for path in range(60):
            traj = run(*make_state(small_basis, c, params, model, dt=2.5e-3, path=path), 0.1)[0]
            finals.append(np.sum(analysis.ledger_from_trajectory(traj).residual))
        finals = np.asarray(finals)
        se = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean()) <= 3.0 * se


class TestWeakForm:
    def _traj(self, small_basis, noise=True):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6) if noise else OFF
        return run(*make_state(small_basis, smooth_coeffs(small_basis), params, model, dt=2e-3), 0.05)[0]

    def test_scheme_satisfies_own_identity(self, small_basis):
        traj = self._traj(small_basis)
        modes = np.eye(small_basis.n)[::5]
        assert analysis.weak_form_residual(traj, modes) < 1e-9

    def test_convection_off_satisfies_own_identity(self):
        # criterion-10 configuration with convection off: the residual must not
        # re-add the convective term the stepper left out
        cfg = cli.parse_config(None, [
            "nu=0.5", "p=2.5", "q=4", "alpha=0.1", "noise.family=linear",
            "noise.amplitude=0.5", "noise.modes=6", "ic.kind=random",
            "steps=100", "dt=0.0025", "T=0.25", "convection=false",
        ])
        system = cfg.system()
        traj = run(system, *cli.path_starts(cfg, system.basis, [0]), cfg.T)[0]
        modes = np.eye(traj.system.basis.n)
        assert analysis.weak_form_residual(traj, modes) <= 1e-9

    def test_zero_trajectory_zero_residual(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        traj = run(*make_state(small_basis, np.zeros(small_basis.n), params), 0.02)[0]
        modes = np.eye(small_basis.n)[[0, 3, 7]]
        assert analysis.weak_form_residual(traj, modes) == 0.0

    def test_perturbation_sensitivity(self, small_basis):
        traj = self._traj(small_basis)
        modes = np.eye(small_basis.n)
        base = analysis.weak_form_residual(traj, modes)
        coeffs = traj.coeffs.copy()
        coeffs[traj.n_steps // 2, 4] += 1e-3
        bumped = dataclasses.replace(traj, coeffs=coeffs)
        jumped = analysis.weak_form_residual(bumped, modes)
        assert jumped >= 1e4 * max(base, 1e-16)
        assert jumped >= 1e-4 * 1e-3  # absolute floor relative to the term scale

    def test_matches_per_step_loop(self, small_basis):
        # one kernel call and array reductions against a loop of single-state
        # calls and per-mode running sums, on a perturbed path where the
        # residual is far above roundoff
        traj = self._traj(small_basis)
        coeffs = traj.coeffs.copy()
        coeffs[traj.n_steps // 2, 4] += 1e-3
        traj = dataclasses.replace(traj, coeffs=coeffs)
        modes = np.eye(small_basis.n)[[0, 4, 9]]
        mass = small_basis.mass_multipliers(traj.system.params.kappa)
        scales = traj.system.noise.mode_scales()
        worst = 0.0
        for d in modes:
            base = float(np.dot(mass * d, traj.coeffs[0]))
            acc, scale = 0.0, max(abs(base), 1e-300)
            for i in range(traj.n_steps):
                t = assemble_drift_terms(traj.system, traj.coeffs[i], i)
                acc += float(np.dot(d, t.b * traj.system.dt + t.s * float(np.dot(scales, traj.increments[i]))))
                lhs = float(np.dot(mass * d, traj.coeffs[i + 1]))
                scale = max(scale, abs(lhs), abs(acc))
                worst = max(worst, abs(lhs - base - acc) / scale)
        assert worst > 1e-6
        assert analysis.weak_form_residual(traj, modes) == pytest.approx(worst, rel=1e-9)

    def test_nan_drift_fails(self, small_basis, monkeypatch):
        # a kernel whose stress turns NaN after the run: the residual is NaN,
        # so no bound on it can pass
        traj = self._traj(small_basis)
        monkeypatch.setattr(galerkin, "power_law_stress", lambda d, d_modulus, p, **_: np.full_like(d, np.nan))
        residual = analysis.weak_form_residual(traj, np.eye(small_basis.n))
        assert np.isnan(residual) and not residual <= 1e-9

    def test_zero_step_trajectory(self, small_basis):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        traj = run(*make_state(small_basis, smooth_coeffs(small_basis), params,
                              NoiseModel("linear", 0.5, 6)), 0.0)[0]
        assert traj.n_steps == 0
        assert analysis.weak_form_residual(traj, np.eye(small_basis.n)) == 0.0


class TestMoments:
    def _runner(self, small_basis, params, model, dt=2.5e-3, T=0.05):
        c = smooth_coeffs(small_basis)

        def run_path(path):
            return run(*make_state(small_basis, c, params, model, dt=dt, path=path), T)[0]

        return run_path, small_basis.energy(c, params.kappa)

    def test_single_path_equals_its_statistic(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 4)
        run_path, e0 = self._runner(small_basis, params, model)
        rep = analysis.moment_estimate(map(run_path, range(1)), 2.0)
        traj = run_path(0)
        sup_e = float(np.max(traj.energies()))
        assert rep.sup_energy == pytest.approx(sup_e, rel=1e-12)
        assert rep.sup_energy_se == 0.0
        assert rep.bound == analysis.explicit_moment_bound(2.0, e0, 0.0, model, 0.05)[0]

    def test_deterministic_monotone_energy(self, small_basis):
        # noise off, f = 0: sup_t E = E(0) exactly, all moments = E(0)^(gamma/2)
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        run_path, e0 = self._runner(small_basis, params, OFF)
        rep = analysis.moment_estimate(map(run_path, range(3)), 4.0)
        assert rep.sup_energy == pytest.approx(e0 ** 2.0, rel=1e-10)

    def test_bound_is_honest_for_gamma_two(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 4)
        run_path, e0 = self._runner(small_basis, params, model)
        rep = analysis.moment_estimate(map(run_path, range(8)), 2.0)
        assert rep.bound_rigorous
        assert rep.sup_energy <= rep.bound
        assert rep.passed

    @pytest.mark.parametrize("gamma", [2.0, 4.0])
    @pytest.mark.parametrize("per_step", [False, True])
    def test_bound_is_the_mean_of_the_per_path_bounds(self, small_basis, gamma, per_step):
        # paths of E(0) = 0.1 and 2, each bounded at its own E(0), and at
        # int ||f||^2 dt over its 20 steps of a static or a per-step forcing
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = NoiseModel("linear", 0.5, 4)
        f = 0.1 * smooth_coeffs(small_basis, seed=3)
        if per_step:
            f = np.linspace(1.0, 3.0, 20)[:, None] * f
        trajs = []
        for energy in (0.1, 2.0):
            system, c0, lineages = make_state(small_basis, smooth_coeffs(small_basis, energy=energy),
                                              params, model, dt=2.5e-3)
            trajs.append(run(dataclasses.replace(system, forcing=f), c0, lineages, 0.05)[0])
        rep = analysis.moment_estimate(trajs, gamma)
        f_int = float(np.sum(np.broadcast_to(f, (20, small_basis.n)) ** 2)) * 2.5e-3
        bounds = [analysis.explicit_moment_bound(gamma, energy, f_int, model, 0.05)[0] for energy in (0.1, 2.0)]
        assert rep.bound == pytest.approx(np.mean(bounds), rel=1e-12)
        assert rep.bound_rigorous == (gamma == 2.0)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            analysis.MomentReport(1.5, 1, 0, 0, 0, 0, 0, 0, 0, bound=1.0, bound_rigorous=True, passed=True)

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
                    return run(*st, 100.0)[0]
            return run(*make_state(small_basis, smooth_coeffs(small_basis), params, model), 0.002)[0]

        assert isinstance(run_path(1), DivergenceError)
        rep = analysis.moment_estimate(map(run_path, range(3)), 2.0)
        assert rep.excluded_paths == 1
        assert rep.paths == 3

    def test_every_path_diverged_raises_the_lowest_index_error(self):
        errors = [DivergenceError(9, 0), DivergenceError(2, 1)]
        with pytest.raises(DivergenceError) as raised:
            analysis.moment_estimate(iter(errors), 2.0)
        assert raised.value is errors[0]

    def test_no_results_rejected(self):
        with pytest.raises(ValidationError):
            analysis.moment_estimate([], 2.0)


class TestAlphaSweep:
    def test_decreasing_contribution(self, small_basis):
        c = smooth_coeffs(small_basis)

        def state_for(alpha):
            params = RheologyParams(p=2.0, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
            return make_state(small_basis, c, params, dt=2.5e-3)

        rows = analysis.alpha_sweep(run(*state_for(0.0), 0.05)[0],
                                    (run(*state_for(a), 0.05)[0] for a in [0.25, 0.125, 0.0625, 0.03125]))
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

        rows = analysis.alpha_sweep(run(*state_for(0.0), 0.01)[0], [run(*state_for(1e-12), 0.01)[0]])
        assert rows[0].damping_integral == pytest.approx(0.0, abs=1e-10)
        # and the ledger's damping column vanishes identically on the reference
        ledger = analysis.ledger_from_trajectory(run(*state_for(0.0), 0.01)[0])
        assert np.all(ledger.damping == 0.0)

    def test_validation(self, small_basis):
        c = smooth_coeffs(small_basis)
        ref, *trajs = (
            run(*make_state(small_basis, c, RheologyParams(p=2.0, q=4.0, nu=0.5, kappa=0.5, alpha=a),
                           dt=2.5e-3), 0.01)[0]
            for a in (0.0, 0.1, 0.2))
        with pytest.raises(ValidationError):
            analysis.alpha_sweep(ref, trajs)


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
            trajs[n_modes] = run(*make_state(basis, c, params, model, dt=2.5e-3), 0.05)[0]
        t_small, t_big = trajs[16], trajs[32]
        w = fields.quad_weight(grid)
        total = 0.0
        scale = 0.0
        for i in range(t_small.n_steps):
            du = fields.sym_gradient(fields.gradient(t_small.field_at(i)))
            dv = fields.sym_gradient(fields.gradient(t_big.field_at(i)))
            au = power_law_stress(du, fields.sym_modulus(du), params.p)
            av = power_law_stress(dv, fields.sym_modulus(dv), params.p)
            gap = au - av
            dd = du - dv
            total += float(np.sum(fields.sym_contract(gap, dd)) * w) * t_small.system.dt
            scale += float(np.sum(fields.sym_modulus(du) ** params.p) * w) * t_small.system.dt
        assert total >= -1e-8 * max(scale, 1.0)


class TestTwin:
    def _pairs(self, basis, perturb, paths, T=0.05, noise=None, dt=2.5e-3, path_b=None):
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)
        model = noise or NoiseModel("linear", 0.5, 6)
        base = smooth_coeffs(basis)
        for path in range(paths):
            sa = make_state(basis, base, params, model, dt=dt, seed=3, path=path)
            cb = base.copy()
            if perturb:
                cb[int(np.flatnonzero(basis.k2 > 0)[0])] += perturb
            sb = make_state(basis, cb, params, model, dt=dt, seed=3,
                            path=path if path_b is None else path_b)
            yield run(*sa, T)[0], run(*sb, T)[0]

    def test_identical_initial_data_bitwise(self, small_basis):
        rep = analysis.twin_uniqueness(self._pairs(small_basis, 0.0, 4), 1.0)
        assert rep.bitwise_identical
        assert np.all(rep.per_path_ratios == 0.0)

    @staticmethod
    def _weighted_gap(ta, tb, weight_constant):
        """phi(t) E_w(t) of one pair, with phi = exp(-C int ||grad u_b|| dt)."""
        w = ta.coeffs - tb.coeffs
        grad_u = np.sqrt(ta.system.basis.field_norms_sq(tb.coeffs)[1])
        phi = np.exp(-weight_constant * np.concatenate([[0.0], np.cumsum(grad_u[:-1]) * ta.system.dt]))
        return phi, ta.system.basis.energy(w, ta.system.params.kappa)

    def test_weight_in_unit_interval(self, small_basis):
        c1 = analysis.calibrate_ladyzhenskaya(small_basis)
        pairs = list(self._pairs(small_basis, 1e-3, 3))
        rep = analysis.twin_uniqueness(pairs, c1)
        phi, e_w = self._weighted_gap(*pairs[0], c1)
        assert np.all((0.0 < phi) & (phi <= 1.0)) and phi[0] == 1.0
        assert np.all(phi * e_w >= 0.0)
        assert rep.gronwall_constant > 0.0

    def test_delta_halving_approximately_linear(self, small_basis):
        # half the perturbation -> half the final gap (on the norm scale)
        gaps = []
        for delta in (1e-3, 5e-4):
            rep = analysis.twin_uniqueness(
                self._pairs(small_basis, delta, 6), 1.0)
            gaps.append(np.sqrt(np.mean(rep.per_path_ratios) * delta**2))
        ratio = gaps[1] / gaps[0]
        assert 0.3 <= ratio <= 0.7

    def test_viscous_newtonian_decay(self, small_basis):
        # noise off, p = 2: the gap decays and the weighted peak sits at t = 0;
        # phi <= 1, so E_w(T) < E_w(0) makes the weighted gap decay too
        pairs = list(self._pairs(small_basis, 1e-3, 1, noise=OFF))
        rep = analysis.twin_uniqueness(pairs, 0.5)
        _, e_w = self._weighted_gap(*pairs[0], 0.5)
        w0 = pairs[0][0].coeffs[0] - pairs[0][1].coeffs[0]
        assert rep.per_path_ratios[0] == e_w[0] / np.sum(small_basis.k2 * w0**2)
        assert e_w[-1] < e_w[0]

    def test_mismatched_span_rejected(self, small_basis):
        other = DivFreeBasis(16, 32)
        params = RheologyParams(p=2.0, q=3.0, nu=0.5, kappa=0.5)

        bad_pair = (
            run(*make_state(small_basis, smooth_coeffs(small_basis), params), 0.01)[0],
            run(*make_state(other, smooth_coeffs(other), params), 0.01)[0],
        )
        with pytest.raises(ValidationError, match="span"):
            analysis.twin_uniqueness([bad_pair], 1.0)

    def test_twins_on_different_increments_rejected(self, small_basis):
        # path 0 against path 1: the twins draw different increments, so their
        # gap is not a pathwise comparison
        with pytest.raises(ValidationError, match="increments"):
            analysis.twin_uniqueness(self._pairs(small_basis, 1e-3, 1, path_b=1), 1.0)

    def test_gronwall_constant_stable_under_dt_halving(self, small_basis):
        reps = [
            analysis.twin_uniqueness(
                self._pairs(small_basis, 1e-3, 4, dt=dt), 1.0)
            for dt in (2.5e-3, 1.25e-3)
        ]
        ratio = reps[1].gronwall_constant / reps[0].gronwall_constant
        assert 0.5 <= ratio <= 2.0

    def test_gronwall_constant_stable_under_span_doubling(self, small_basis):
        big = DivFreeBasis(2 * small_basis.n, small_basis.grid_size)
        reps = [
            analysis.twin_uniqueness(self._pairs(b, 1e-3, 4), 1.0)
            for b in (small_basis, big)
        ]
        ratio = reps[1].gronwall_constant / reps[0].gronwall_constant
        assert 0.5 <= ratio <= 2.0


def test_ladyzhenskaya_constant_plausible(small_basis):
    c = analysis.calibrate_ladyzhenskaya(small_basis)
    # scale-invariant ratio; known to sit near (2/pi)^(1/2)-ish levels in 2D
    assert 0.1 < c < 2.0
