import sys
import warnings

import numpy as np
import pytest

from nsvsim import fields
from nsvsim.errors import ConfigurationError, DivergenceError, ValidationError
from nsvsim.galerkin import (
    DivFreeBasis,
    GalerkinState,
    StoppingMonitor,
    assemble_drift_terms,
    run,
    trajectory_csv,
)
from nsvsim.noise import NoiseModel
from nsvsim.rheology import RheologyParams

from conftest import l2_norm, torus_grid

OFF = NoiseModel("off", 0.0, 0)


def shear_coeffs(basis: DivFreeBasis) -> np.ndarray:
    _, yy = torus_grid(basis.grid_size)
    return basis.gather_grid(np.stack([np.sin(yy), np.zeros_like(yy)]))


def smooth_random_coeffs(basis: DivFreeBasis, seed: int = 7, kappa: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n) * (1.0 + basis.k2) ** -1.0
    return c / np.sqrt(basis.energy(c, kappa))


def drift(basis: DivFreeBasis, c: np.ndarray, params: RheologyParams) -> np.ndarray:
    """Kernel drift at coefficients c with zero forcing and the noise off."""
    return assemble_drift_terms(basis, basis.scatter(c), np.zeros(basis.n), params, OFF).b


def make_state(basis, c, params, noise=OFF, dt=1e-3, **kw) -> GalerkinState:
    return GalerkinState(
        t=0.0, c=np.asarray(c, float), basis=basis, params=params, noise=noise,
        dt=dt, forcing=np.zeros(basis.n), **kw,
    )


class TestBasis:
    def test_orthonormal_round_trip(self, small_basis, rng):
        c = rng.standard_normal(small_basis.n)
        f = small_basis.scatter(c)
        assert fields.divergence_error(f) < 1e-12
        assert np.max(np.abs(small_basis.gather(f) - c)) < 1e-12

    def test_coefficient_norms_match_field_norms(self, small_basis, rng):
        c = rng.standard_normal(small_basis.n)
        f = small_basis.scatter(c)
        l2, g2 = small_basis.field_norms_sq(c)
        assert l2 == pytest.approx(l2_norm(f) ** 2, rel=1e-12)
        assert g2 == pytest.approx(fields.grad_l2_norm(f) ** 2, rel=1e-12)

    def test_projection_idempotent_and_contractive(self, small_basis, rng):
        # a field with more modes than the span: projecting shrinks both norms
        big = fields.leray_project(rng.standard_normal((2, 32, 32)), 9)
        c = small_basis.gather(big)
        proj = small_basis.scatter(c)
        assert np.max(np.abs(small_basis.gather(proj) - c)) < 1e-12
        assert l2_norm(proj) <= l2_norm(big) * (1 + 1e-12)
        assert fields.grad_l2_norm(proj) <= fields.grad_l2_norm(big) * (1 + 1e-12)

    def test_mode_count_limited_by_grid(self):
        with pytest.raises(ConfigurationError):
            DivFreeBasis(10_000, 32)

    def test_mean_mode_toggle(self):
        with_mean = DivFreeBasis(8, 32, include_mean=True)
        without = DivFreeBasis(8, 32, include_mean=False)
        assert np.sum(with_mean.k2 == 0) == 2
        assert np.all(without.k2 > 0)


class TestMassOperator:
    def test_apply_solve_identity(self, small_basis, rng):
        # the Voigt mass operator is diagonal on the basis: m(k) = 1 + kappa |k|^2
        mass = small_basis.mass_multipliers(kappa=0.7)
        x = rng.standard_normal(small_basis.n)
        assert np.max(np.abs(mass * x / mass - x)) < 1e-14
        assert np.all(mass >= 1.0)
        assert np.array_equal(mass, 1.0 + 0.7 * small_basis.k2)


class TestDrift:
    def test_zero_state(self, small_basis):
        params = RheologyParams(p=2.0, q=4.0, nu=1.0, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 4)
        zero = np.zeros(small_basis.n)
        terms = assemble_drift_terms(small_basis, small_basis.scatter(zero), zero, params, model)
        assert np.all(terms.b == 0.0) and np.all(terms.s == 0.0)
        assert terms.dissipation_p == terms.grad_p == terms.damping_q == 0.0

    def test_shear_is_convection_free(self, small_basis):
        # u = (sin y, 0): u . grad u = 0, so with nu = alpha = 0 the drift vanishes
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        b = drift(small_basis, shear_coeffs(small_basis), params)
        assert np.max(np.abs(b)) < 1e-12

    def test_quadrature_scalars_at_p_q_two(self, small_basis):
        # at p = q = 2 the quadratures equal the Parseval norms, and Korn's
        # identity ||D u||_2^2 = ||grad u||_2^2 / 2 holds for solenoidal u
        params = RheologyParams(p=2.0, q=2.0, nu=0.5, kappa=0.5)
        c = smooth_random_coeffs(small_basis)
        terms = assemble_drift_terms(
            small_basis, small_basis.scatter(c), np.zeros(small_basis.n), params, OFF)
        l2, g2 = small_basis.field_norms_sq(c)
        assert terms.damping_q == pytest.approx(l2, rel=1e-12)
        assert terms.grad_p == pytest.approx(g2, rel=1e-12)
        assert terms.dissipation_p == pytest.approx(0.5 * g2, rel=1e-12)

    def test_dense_quadrature_oracle(self, small_basis):
        # three active modes; every pairing recomputed by trapezoid quadrature
        # from closed-form basis fields on a finer grid
        params = RheologyParams(p=2.0, q=3.0, nu=0.8, kappa=0.5, alpha=0.0)
        c = np.zeros(small_basis.n)
        c[2], c[5], c[9] = 0.8, -0.5, 0.3
        b = drift(small_basis, c, params)

        n_fine = 128
        xx, yy = torus_grid(n_fine)
        w = (2 * np.pi / n_fine) ** 2
        amp = 1.0 / (np.pi * np.sqrt(2.0))

        def basis_field(j):
            kx, ky, phase = small_basis.kx[j], small_basis.ky[j], small_basis.phase[j]
            pol = small_basis.pol[j]
            if phase == 2:
                return np.stack([np.full_like(xx, pol[0]), np.full_like(xx, pol[1])]) / (2 * np.pi)
            wave = kx * xx + ky * yy
            prof = np.cos(wave) if phase == 0 else np.sin(wave)
            return amp * np.stack([pol[0] * prof, pol[1] * prof])

        u = sum(c[j] * basis_field(j) for j in range(small_basis.n))
        # derivative of the trig sum, exact:
        exact_grad = np.zeros((2, 2, n_fine, n_fine))
        for j in range(small_basis.n):
            if c[j] == 0 or small_basis.phase[j] == 2:
                continue
            kx, ky, phase = small_basis.kx[j], small_basis.ky[j], small_basis.phase[j]
            pol = small_basis.pol[j]
            wave = kx * xx + ky * yy
            dprof = -np.sin(wave) if phase == 0 else np.cos(wave)
            for i, kk in enumerate((kx, ky)):
                exact_grad[i, 0] += c[j] * amp * pol[0] * kk * dprof
                exact_grad[i, 1] += c[j] * amp * pol[1] * kk * dprof
        d11 = exact_grad[0, 0]
        d12 = 0.5 * (exact_grad[1, 0] + exact_grad[0, 1])
        d22 = exact_grad[1, 1]

        for j in (2, 5, 9, 12):
            psi = basis_field(j)
            gpsi = np.zeros((2, 2, n_fine, n_fine))
            kx, ky, phase = small_basis.kx[j], small_basis.ky[j], small_basis.phase[j]
            pol = small_basis.pol[j]
            if phase != 2:
                wave = kx * xx + ky * yy
                dprof = -np.sin(wave) if phase == 0 else np.cos(wave)
                for i, kk in enumerate((kx, ky)):
                    gpsi[i, 0] = amp * pol[0] * kk * dprof
                    gpsi[i, 1] = amp * pol[1] * kk * dprof
            conv = np.sum(
                (u[0] * u[0] * gpsi[0, 0] + u[0] * u[1] * gpsi[0, 1]
                 + u[1] * u[0] * gpsi[1, 0] + u[1] * u[1] * gpsi[1, 1])
            ) * w
            dpsi11, dpsi22 = gpsi[0, 0], gpsi[1, 1]
            dpsi12 = 0.5 * (gpsi[1, 0] + gpsi[0, 1])
            diss = params.nu * np.sum(d11 * dpsi11 + 2 * d12 * dpsi12 + d22 * dpsi22) * w
            expected = conv - diss
            assert b[j] == pytest.approx(expected, abs=1e-10)


class TestStep:
    def test_zero_state_forever(self, small_basis):
        params = RheologyParams(p=2.5, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, np.zeros(small_basis.n), params)
        traj = run(st, 0.05)
        assert np.all(traj.coeffs == 0.0)

    def test_steady_euler_voigt_shear(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        c = shear_coeffs(small_basis)
        traj = run(make_state(small_basis, c, params, dt=1e-2), 0.5)
        assert np.max(np.abs(traj.coeffs - c[None, :])) < 1e-12

    def test_single_mode_decay_closed_form(self, small_basis):
        # p = 2, convection off, single mode: dc/dt = -nu |k|^2 c / (2 (1 + kappa |k|^2))
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        c = shear_coeffs(small_basis)
        j = int(np.flatnonzero(np.abs(c) > 1e-12)[0])
        rate = params.nu * small_basis.k2[j] / (2.0 * (1.0 + params.kappa * small_basis.k2[j]))
        T = 0.5
        errs = []
        for dt in (1e-3, 5e-4):
            st = make_state(small_basis, c, params, dt=dt, convection=False)
            traj = run(st, T)
            errs.append(abs(traj.coeffs[-1, j] - c[j] * np.exp(-rate * T)))
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.05)

    def test_energy_increment_second_order(self, small_basis):
        # noise off, f = 0: E(t + dt) <= E(t) + O(dt^2) per step
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        c = smooth_random_coeffs(small_basis)
        for dt in (2e-3, 1e-3):
            traj = run(make_state(small_basis, c, params, dt=dt), dt * 50)
            de = np.diff(traj.energies())
            assert np.max(de) < 50.0 * dt**2

    def test_divergence_error_carries_step(self, small_basis):
        params = RheologyParams(p=4.0, q=3.0, nu=1.0, kappa=1e-6)
        c = 50.0 * smooth_random_coeffs(small_basis)
        st = make_state(small_basis, c, params, dt=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DivergenceError) as err:
                run(st, 100.0)
        assert err.value.step >= 0

    def test_cfl_warning(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        c = 100.0 * shear_coeffs(small_basis)
        with pytest.warns(UserWarning, match="unstable"):
            run(make_state(small_basis, c, params, dt=0.05), 0.05)

    def test_determinism_bitwise(self, small_basis):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6)
        c = smooth_random_coeffs(small_basis)
        t1 = run(make_state(small_basis, c, params, noise=model, master_seed=9, path=2), 0.05)
        t2 = run(make_state(small_basis, c, params, noise=model, master_seed=9, path=2), 0.05)
        assert np.array_equal(t1.coeffs, t2.coeffs)
        assert np.array_equal(t1.increments, t2.increments)


class TestRun:
    def test_zero_horizon(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, shear_coeffs(small_basis), params)
        traj = run(st, 0.0)
        assert traj.n_steps == 0
        assert np.array_equal(traj.coeffs[0], st.c)

    def test_non_integer_horizon_rejected(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, shear_coeffs(small_basis), params, dt=1e-3)
        with pytest.raises(ValidationError):
            run(st, 0.0105)

    def test_monitor_trips_immediately(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, shear_coeffs(small_basis), params)
        monitor = StoppingMonitor(threshold=0.1)
        traj = run(st, 0.1, monitor=monitor)
        assert monitor.tripped_at == 0.0
        assert traj.n_steps == 0
        assert traj.tripped_at == 0.0

    def test_monitor_never_trips_for_decaying_flow(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        c = shear_coeffs(small_basis)
        g0 = float(np.sqrt(np.sum(small_basis.k2 * c**2)))
        monitor = StoppingMonitor(threshold=g0 * 1.0001)
        traj = run(make_state(small_basis, c, params), 0.1, monitor=monitor)
        assert traj.tripped_at is None
        assert traj.n_steps == 100

    def test_forcing_balances_dissipation(self, small_basis):
        # forcing equal to the dissipative drift freezes the single-mode state
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        c = shear_coeffs(small_basis)
        f = -drift(small_basis, c, params)
        st = GalerkinState(
            t=0.0, c=c, basis=small_basis, params=params, noise=OFF, dt=1e-3, forcing=f)
        traj = run(st, 0.05)
        assert np.max(np.abs(traj.coeffs[-1] - c)) < 1e-10


def test_trajectory_csv_layout(tmp_path, small_basis):
    params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
    traj = run(make_state(small_basis, shear_coeffs(small_basis), params, dt=1e-2), 0.05)
    path = tmp_path / "trajectory.csv"
    trajectory_csv(path, traj)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,l2,grad_l2,lp_gradp,lq_q,energy,dissipation_acc,noise_trace_acc,tripped"
    assert len(lines) == traj.n_steps + 2
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["l2"]) == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-12)
    assert first["tripped"] == "0"


@pytest.mark.parametrize("experiment", ["simulate", "energy-audit"])
def test_one_kernel_evaluation_per_stored_state(experiment, tmp_path, monkeypatch):
    # run, the ledger and the trajectory CSV share one drift evaluation per
    # stored state: steps + 1 per path, the final state included
    from nsvsim import cli, galerkin

    original = galerkin.assemble_drift_terms
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("nsvsim") and getattr(mod, "assemble_drift_terms", None) is original:
            monkeypatch.setattr(mod, "assemble_drift_terms", counted)
    monkeypatch.delenv("NSV_THREADS", raising=False)
    steps, paths = 12, 2
    cfg = cli.parse_config(None, [
        f"experiment={experiment}", f"paths={paths}", f"steps={steps}", "dt=0.0025",
        f"T={steps * 0.0025!r}", "ic.kind=random", "noise.family=linear",
        "noise.amplitude=0.5", "noise.modes=6",
    ])
    cli.run_experiment(cfg, str(tmp_path))
    assert len(calls) == paths * (steps + 1)
