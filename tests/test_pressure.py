import dataclasses

import numpy as np
import pytest

from nsvsim import fields, pressure
from nsvsim.errors import ValidationError
from nsvsim.galerkin import GalerkinState, run
from nsvsim.noise import NoiseModel
from nsvsim.rheology import RheologyParams

from conftest import torus_grid


def noisy_trajectory(small_basis, alpha=0.1, family="saturating", seed=5, steps=40):
    rng = np.random.default_rng(7)
    c0 = rng.standard_normal(small_basis.n) * (1.0 + small_basis.k2) ** -1.0
    c0 /= np.sqrt(small_basis.energy(c0, 0.5))
    params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
    model = NoiseModel(family, 0.5, 6)
    st = GalerkinState(
        t=0.0, c=c0, basis=small_basis, params=params, noise=model, dt=2.5e-3,
        forcing=np.zeros(small_basis.n), master_seed=seed, path=0)
    return run(st, steps * st.dt)


class TestRecover:
    def test_zero(self):
        h = fields.SymTensorField(np.zeros((32, 32)), np.zeros((32, 32)), np.zeros((32, 32)))
        assert np.all(pressure.recover_pressure(h) == 0.0)

    def test_shear_no_pressure(self):
        # u = (sin y, 0): div div (u x u) = d_xx sin^2 y = 0
        _, yy = torus_grid(64)
        u = np.stack([np.sin(yy), np.zeros_like(yy)])
        h = fields.SymTensorField(u[0] * u[0], u[0] * u[1], u[1] * u[1])
        assert np.max(np.abs(pressure.recover_pressure(h))) < 1e-14

    def test_vortex_array_closed_form(self):
        xx, yy = torus_grid(64)
        u = np.stack([np.sin(xx) * np.cos(yy), -np.cos(xx) * np.sin(yy)])
        h = fields.SymTensorField(u[0] * u[0], u[0] * u[1], u[1] * u[1])
        pi = pressure.recover_pressure(h)
        assert np.max(np.abs(pi + 0.25 * (np.cos(2 * xx) + np.cos(2 * yy)))) < 1e-10

    def test_mean_zero(self, rng):
        h = fields.SymTensorField(*rng.standard_normal((3, 32, 32)))
        pi = pressure.recover_pressure(h)
        assert abs(pi.mean()) < 1e-14


class TestDecompose:
    def test_zero_trajectory(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = GalerkinState(
            t=0.0, c=np.zeros(small_basis.n), basis=small_basis, params=params,
            noise=NoiseModel("off", 0.0, 0), dt=1e-2, forcing=np.zeros(small_basis.n))
        parts = pressure.decompose_pressure(run(st, 0.05))
        for arr in (parts.pi1, parts.pi2, parts.pi_phi, parts.pi_h, parts.pi_total):
            assert np.all(arr == 0.0)
        # initial slice of every part vanishes even on nonzero runs
        assert np.all(parts.pi_phi[0] == 0.0)

    def test_stress_off_leaves_convective_part(self, small_basis):
        traj = noisy_trajectory(small_basis, alpha=0.0, family="off")
        traj = dataclasses.replace(
            traj, params=RheologyParams(p=2.5, q=4.0, nu=0.0, kappa=0.5, alpha=0.0))
        parts = pressure.decompose_pressure(traj)
        assert np.all(parts.pi1 == 0.0)
        assert np.all(parts.pi_phi == 0.0)
        assert np.max(np.abs(parts.pi2)) > 0.0

    def test_recombination_residual(self, small_basis):
        parts = pressure.decompose_pressure(noisy_trajectory(small_basis))
        assert parts.max_residual() < 1e-8

    def test_harmonic_part_vanishes(self, small_basis):
        parts = pressure.decompose_pressure(noisy_trajectory(small_basis))
        assert np.max(np.abs(parts.pi_h)) < 1e-12

    def test_slices_mean_zero(self, small_basis):
        parts = pressure.decompose_pressure(noisy_trajectory(small_basis))
        for arr in (parts.pi1, parts.pi2, parts.pi_phi, parts.pi_total):
            assert np.max(np.abs(arr.mean(axis=(1, 2)))) < 1e-15

    def test_stochastic_part_linear_in_increments(self, small_basis):
        traj = noisy_trajectory(small_basis)
        parts = pressure.decompose_pressure(traj)
        doubled = pressure.decompose_pressure(
            dataclasses.replace(traj, increments=2.0 * traj.increments))
        assert np.array_equal(doubled.pi_phi, 2.0 * parts.pi_phi)

    def test_momentum_identity_gradient_modes(self, small_basis):
        traj = noisy_trajectory(small_basis)
        parts = pressure.decompose_pressure(traj)
        assert pressure.momentum_gradient_residual(traj, parts) < 1e-7

    def test_convection_off_leaves_no_drift_pressure(self, small_basis):
        # nu = alpha = 0, noise off, f = 0: with convection off nothing drives pi2
        rng = np.random.default_rng(7)
        c0 = rng.standard_normal(small_basis.n) * (1.0 + small_basis.k2) ** -1.0
        params = RheologyParams(p=2.5, q=4.0, nu=0.0, kappa=0.5, alpha=0.0)
        st = GalerkinState(
            t=0.0, c=c0, basis=small_basis, params=params, noise=NoiseModel("off", 0.0, 0),
            dt=2.5e-3, forcing=np.zeros(small_basis.n), convection=False)
        parts = pressure.decompose_pressure(run(st, 10 * st.dt))
        assert np.max(np.abs(c0)) > 0.0
        assert np.all(parts.pi2 == 0.0)
        assert np.all(parts.pi_total == 0.0)

    def test_pressure_csv(self, tmp_path, small_basis):
        traj = noisy_trajectory(small_basis, steps=10)
        parts = pressure.decompose_pressure(traj)
        path = tmp_path / "pressure.csv"
        pressure.pressure_csv(path, parts, p=2.5, q=4.0)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,pi_l2,pi1_pprime,pi2_q0,pi_phi_l2,recombination_residual"
        assert len(lines) == traj.n_steps + 2


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
        assert np.all(pressure.bogovskii_solve(prob) == 0.0)

    def test_nonzero_mean_rejected(self):
        with pytest.raises(ValidationError):
            pressure.BogovskiiProblem(np.ones((16, 16)), 16)

    def test_bump_properties(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.76], [0.0, 0.0]])
        vals = pressure.bump(pts)
        assert vals[0] > 0.0 and vals[1] == 0.0 and vals[2] == 0.0
        # unit integral, by midpoint quadrature
        n = 256
        m = pressure.midpoints(n)
        xx, yy = np.meshgrid(m, m, indexing="ij")
        total = np.sum(pressure.bump(np.stack([xx, yy], axis=-1))) / (n * n)
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

    def test_boundary_trace_zero(self):
        n = 32
        prob = pressure.BogovskiiProblem(self._random_xi(n, 0), n)
        w = pressure.bogovskii_solve(prob)
        edge = max(
            np.max(np.abs(w[:, 0, :])), np.max(np.abs(w[:, -1, :])),
            np.max(np.abs(w[:, :, 0])), np.max(np.abs(w[:, :, -1])))
        interior = np.max(np.abs(w))
        assert edge < 1e-3 * interior
