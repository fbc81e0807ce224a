import ast
import copy
import dataclasses
import math
import pathlib
import pickle
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from nsvsim import analysis, fields, galerkin
from nsvsim.errors import ConfigurationError, DivergenceError, ValidationError
from nsvsim.galerkin import (
    DivFreeBasis,
    PointwiseTerms,
    System,
    assemble_drift_terms,
    drift_and_record,
    run,
    trajectory_csv,
)
from nsvsim.noise import NoiseModel
from nsvsim.rheology import RheologyParams, power_law_stress, stabilizer

from conftest import full_scatter, full_table, l2_norm, torus_grid

OFF = NoiseModel("off", 0.0, 0)


def shear_coeffs(basis: DivFreeBasis) -> np.ndarray:
    _, yy = torus_grid(basis.grid_size)
    return basis.gather_grid(np.stack([np.sin(yy), np.zeros_like(yy)]))


def smooth_random_coeffs(basis: DivFreeBasis, seed: int = 7, kappa: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n) * (1.0 + basis.k2) ** -1.0
    return c / np.sqrt(basis.energy(c, kappa))


def make_system(basis, params, noise=OFF, dt=1e-3, forcing=None, convection=True) -> System:
    """A system of ``basis``, unforced unless ``forcing`` is given."""
    return System(basis, params, noise, dt, np.zeros(basis.n) if forcing is None else forcing, convection)


def drift(basis: DivFreeBasis, c: np.ndarray, params: RheologyParams) -> np.ndarray:
    """Kernel drift at coefficients c with zero forcing and the noise off."""
    return assemble_drift_terms(make_system(basis, params), c, 0).b


def count_transforms(monkeypatch) -> list:
    """Record each call of the transform pair as ``galerkin`` binds it,
    and every ``numpy.fft`` call, by name."""
    calls = []
    for module, names in ((galerkin, ("to_grid", "from_grid")), (np.fft, np.fft.__all__)):
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def make_state(basis, c, params, noise=OFF, dt=1e-3, seed=0, path=0, forcing=None, convection=True) -> tuple:
    """(system, c0, lineages) of one path starting from ``c``: run's arguments before T."""
    system = make_system(basis, params, noise, dt, forcing, convection)
    return system, np.asarray(c, float)[None], [(seed, path)]


class TestBasis:
    def test_orthonormal_round_trip(self, small_basis, rng):
        c = rng.standard_normal(small_basis.n)
        f = fields.SpectralField(small_basis.scatter(c), small_basis.grid_size)
        assert fields.divergence_error(f) < 1e-12
        assert np.max(np.abs(small_basis.gather(f.coeffs) - c)) < 1e-12

    def test_coefficient_norms_match_field_norms(self, small_basis, rng):
        c = rng.standard_normal(small_basis.n)
        f = fields.SpectralField(small_basis.scatter(c), small_basis.grid_size)
        l2, g2 = small_basis.field_norms_sq(c)
        assert l2 == pytest.approx(l2_norm(f) ** 2, rel=1e-12)
        assert g2 == pytest.approx(fields.grad_l2_norm(f) ** 2, rel=1e-12)

    def test_projection_idempotent_and_contractive(self, small_basis, rng):
        # a field with more modes than the span: projecting shrinks both norms
        big = fields.leray_project(rng.standard_normal((2, 32, 32)), 9)
        c = small_basis.gather(big.coeffs)
        proj = fields.SpectralField(small_basis.scatter(c), small_basis.grid_size)
        assert np.max(np.abs(small_basis.gather(proj.coeffs) - c)) < 1e-12
        assert l2_norm(proj) <= l2_norm(big) * (1 + 1e-12)
        assert fields.grad_l2_norm(proj) <= fields.grad_l2_norm(big) * (1 + 1e-12)

    @pytest.mark.parametrize("n_modes", [31, 32])
    def test_scatter_and_gather_match_full_table_references(self, n_modes, rng):
        # bases with ky < 0 representatives, whose +k image lies outside the
        # ky >= 0 half: scatter equals the half of a full-table scatter, and
        # gather of a stack of tables, of the basis's own K and of a wider
        # one, equals the pairings read from the conjugate-filled full tables
        basis = DivFreeBasis(n_modes, 32)
        assert np.any(basis.ky < 0)
        c = rng.standard_normal((3, basis.n))
        assert np.array_equal(basis.scatter(c), full_scatter(basis, c)[..., basis.k_max:])
        amp = 2.0 * np.sqrt(2.0) * np.pi
        for k in (basis.k_max, 9):
            tables = fields.from_grid(rng.standard_normal((3, 2, 32, 32)), k)
            vals = full_table(tables)[..., basis.kx + k, basis.ky + k]
            z = basis.pol[:, 0] * vals[..., 0, :] + basis.pol[:, 1] * vals[..., 1, :]
            ref = np.where(basis.phase == 0, amp * z.real,
                           np.where(basis.phase == 1, -amp * z.imag, 2.0 * np.pi * z.real))
            assert np.array_equal(basis.gather(tables), ref)

    def test_mode_count_limited_by_grid(self):
        with pytest.raises(ConfigurationError):
            DivFreeBasis(10_000, 32)

    @pytest.mark.parametrize("n, grid", [
        (8, 16), (16, 16), (32, 16), (120, 16), (8, 32), (16, 32), (24, 32), (32, 32),
        (64, 32), (128, 32), (440, 32), (200, 64),
    ])
    @pytest.mark.parametrize("include_mean", [True, False])
    def test_tables_match_the_full_band(self, n, grid, include_mean):
        # the basis sorts only a square around the origin; the first n entries
        # are those of the whole alias-free band in its canonical order
        entries = [(0, 0, 2), (0, 0, 2)] if include_mean else []
        for kx, ky in fields.mode_table((grid - 1) // 3):
            if kx > 0 or (kx == 0 and ky > 0):
                entries += [(kx, ky, 0), (kx, ky, 1)]
        kx, ky, phase = np.array(entries[:n]).T
        basis = DivFreeBasis(n, grid, include_mean=include_mean)
        assert np.array_equal(basis.kx, kx)
        assert np.array_equal(basis.ky, ky)
        assert np.array_equal(basis.phase, phase)

    def test_fine_grid_builds_the_same_tables(self):
        coarse, fine = DivFreeBasis(32, 64), DivFreeBasis(32, 2048)
        for name in ("kx", "ky", "phase"):
            assert np.array_equal(getattr(fine, name), getattr(coarse, name))

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
        terms = drift_and_record(make_system(small_basis, params, model), np.zeros(small_basis.n), 0)
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
        terms = drift_and_record(make_system(small_basis, params), c, 0)
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


    @pytest.mark.parametrize("convection,alpha,family", [
        (True, 0.1, "saturating"), (False, 0.0, "off"), (True, 0.0, "linear")])
    def test_stack_equals_single_states(self, small_basis, convection, alpha, family):
        # scatter, the pointwise stage, its drift tables and gather over a
        # leading (M,) axis give each state's single-call result bit for bit
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
        system = make_system(small_basis, params, NoiseModel(family, 0.5, 4), convection=convection)
        c = np.stack([smooth_random_coeffs(small_basis, seed) for seed in range(4)])
        tables = small_basis.scatter(c)
        pw = PointwiseTerms.at(system, c)
        sources = pw.drift_tables(small_basis.k_max)
        # copies: a single call writes into the work arrays that the stack's fields view
        kept = {name: None if value is None else value.copy() for name, value in vars(pw).items()}
        for i in range(len(c)):
            assert np.array_equal(tables[i], small_basis.scatter(c[i]))
            one = PointwiseTerms.at(system, c[i])
            for name in (field.name for field in dataclasses.fields(PointwiseTerms)):
                stacked, single = kept[name], getattr(one, name)
                assert (stacked is None) == (single is None)
                assert single is None or np.array_equal(stacked[i], single)
            for stacked, single in zip(sources, one.drift_tables(small_basis.k_max)):
                assert (stacked is None) == (single is None)
                if single is not None:
                    assert np.array_equal(stacked[i], single)
                    pairings = small_basis.gather(stacked)
                    assert pairings.flags.c_contiguous
                    assert np.array_equal(pairings[i], small_basis.gather(single))

    @pytest.mark.parametrize("convection", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("family", ["off", "saturating"])
    def test_drift_table_matches_separate_transforms(self, small_basis, convection, alpha, family):
        # drift = nu div A - div(u x u) - alpha |u|^(q-2) u with every term
        # transformed on its own, for one state and for a stack of three
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
        model = NoiseModel(family, 0.5, 4)
        n, k = small_basis.grid_size, small_basis.k_max
        single = smooth_random_coeffs(small_basis)
        stack = np.stack([smooth_random_coeffs(small_basis, seed) for seed in range(3)])
        for c in (single, stack):
            tables = small_basis.scatter(c)
            u = fields.to_grid(tables, n)
            d = fields.sym_gradient(fields.to_grid(fields.gradient_table(tables), n))
            expected = params.nu * fields.tensor_divergence(
                fields.from_grid(power_law_stress(d, fields.sym_modulus(d), params.p), k))
            if convection:
                u0, u1 = u[..., 0, :, :], u[..., 1, :, :]
                expected -= fields.tensor_divergence(
                    fields.from_grid(np.stack([u0 * u0, u0 * u1, u1 * u1], axis=-3), k))
            if alpha > 0:
                expected -= fields.from_grid(stabilizer(u, fields.modulus(u), params), k)
            system = make_system(small_basis, params, model, convection=convection)
            drift, shape = PointwiseTerms.at(system, c).drift_tables(k)
            assert drift.shape == expected.shape
            assert np.max(np.abs(drift - expected)) <= 1e-13 * np.max(np.abs(expected))
            if family == "off":
                assert shape is None
            else:
                ref = fields.from_grid(model.shape(u, fields.modulus(u)), k)
                assert np.max(np.abs(shape - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha,family", [
        (0.0, "off"), (0.1, "off"), (0.0, "linear"), (0.1, "linear")])
    def test_forward_transform_rows_per_evaluation(self, small_basis, monkeypatch, alpha, family):
        # one forward transform of the flux (3 rows), plus the damping term and
        # the noise shape (2 rows each) when they are on
        rows = []

        def counted(v, k_max):
            rows.append(np.shape(v)[-3])
            return fields.from_grid(v, k_max)

        monkeypatch.setattr(galerkin, "from_grid", counted)
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
        c = smooth_random_coeffs(small_basis)
        assemble_drift_terms(make_system(small_basis, params, NoiseModel(family, 0.5, 4)), c, 0)
        assert rows == [3 + 2 * (alpha > 0) + 2 * (family != "off")]

    def test_two_real_transforms_per_stored_state(self, small_basis, monkeypatch):
        # the CFL check reads max |u| from the kernel's first evaluation: a run
        # of S steps makes the transform pair S + 1 times and no FFT
        calls = count_transforms(monkeypatch)
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        c = smooth_random_coeffs(small_basis)
        run(*make_state(small_basis, c, params, noise=NoiseModel("linear", 0.5, 4)), 0.005)
        assert calls == ["to_grid", "from_grid"] * 6
        terms = drift_and_record(make_system(small_basis, params), c, 0)
        speed = np.sqrt(np.sum(fields.to_grid(small_basis.scatter(c), small_basis.grid_size) ** 2, axis=0))
        assert terms.max_speed == np.max(speed)

    def test_two_real_transforms_per_evaluation(self, small_basis, monkeypatch):
        # one inverse transform of (u, grad u) and one forward transform of
        # every source row, with convection, damping and noise all on, and no FFT
        calls = count_transforms(monkeypatch)
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        c = smooth_random_coeffs(small_basis)
        terms = assemble_drift_terms(make_system(small_basis, params, NoiseModel("saturating", 0.5, 4)), c, 0)
        assert calls == ["to_grid", "from_grid"]
        assert np.any(terms.s != 0.0)  # the noise projection was formed

    def test_one_modulus_of_u_and_of_its_gradient_per_evaluation(self, small_basis, monkeypatch):
        # the damping, the saturating shape, max |u| and ||u||_q^q share one
        # |u|; only the stepper's call forms the one |grad u| that
        # ||grad u||_p^p reads
        original, moduli = fields.modulus, []

        def counted(v):
            moduli.append(v.shape[-3])
            return original(v)

        monkeypatch.setattr(fields, "modulus", counted)
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        system = make_system(small_basis, params, NoiseModel("saturating", 0.5, 4))
        per_call = []
        for call in (assemble_drift_terms, drift_and_record):
            moduli.clear()
            call(system, smooth_random_coeffs(small_basis), 0)
            per_call.append(list(moduli))
        assert per_call == [[2], [2, 4]]

    def test_the_drift_alone_forms_no_record(self, small_basis, monkeypatch):
        # the samplers and the weak-form residual read b and s only: they run
        # with the record's one function broken, which the stepper calls
        from nsvsim import solvability

        def broken(*args):
            raise AssertionError("the record was formed")

        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        system = make_system(small_basis, params, NoiseModel("linear", 0.5, 4))
        traj = run(system, smooth_random_coeffs(small_basis)[None], [(11, 0)], 0.005)[0]
        monkeypatch.setattr(galerkin, "_state_record", broken)
        assert solvability.check_weak_monotonicity(system, 5.0, samples=10, seed=0).passed
        assert solvability.check_coercivity(system, samples=10, seed=0).passed
        assert analysis.weak_form_residual(traj, np.eye(small_basis.n)[:3]) < 1e-12
        with pytest.raises(AssertionError, match="the record was formed"):
            run(system, traj.coeffs[:1], [(11, 0)], 0.005)

    @pytest.mark.parametrize("p,q,alpha,family,convection", [
        (2.5, 4.0, 0.0, "linear", True),
        (1.5, 6.0, 0.1, "saturating", True),
        (2.5, 4.0, 0.0, "off", False),
    ])
    def test_stacked_states_match_single_calls(self, small_basis, p, q, alpha, family, convection):
        # a stack gives each state's outputs bit for bit, in one chunk or in
        # several (8 states per chunk at grid 32): 5 states under one static
        # forcing in one chunk, and a (3, 3) stack in two, each state at its
        # own step of a per-step forcing
        params = RheologyParams(p=p, q=q, nu=0.5, kappa=0.5, alpha=alpha)
        noise = NoiseModel(family, 0.5 if family != "off" else 0.0, 4 if family != "off" else 0)
        n = small_basis.n
        f = smooth_random_coeffs(small_basis, seed=3)
        cs = np.stack([smooth_random_coeffs(small_basis, seed=s) for s in range(5)])
        grid_cs = np.stack([smooth_random_coeffs(small_basis, seed=s) for s in range(9)]).reshape(3, 3, n)
        per_step = np.stack([smooth_random_coeffs(small_basis, seed=s) for s in range(10, 19)])
        for c, forcing, step in ((cs, f, 0), (grid_cs, per_step, np.arange(9).reshape(3, 3))):
            system = make_system(small_basis, params, noise, forcing=forcing, convection=convection)
            for call, output in ((assemble_drift_terms, galerkin.DriftTerms),
                                 (drift_and_record, galerkin.RecordedDriftTerms)):
                stacked = call(system, c, step)
                assert type(stacked) is output
                single = [call(system, ci, si)
                          for ci, si in zip(c.reshape(-1, n), np.broadcast_to(step, c.shape[:-1]).ravel())]
                for name in (field.name for field in dataclasses.fields(output)):
                    rows = [getattr(t, name) for t in single]
                    expected = np.reshape(rows, c.shape[:-1] + np.shape(rows[0]))
                    assert np.array_equal(getattr(stacked, name), expected), (call.__name__, name)
                if family == "off":
                    assert stacked.s.shape == c.shape and np.all(stacked.s == 0.0)
        for call in (assemble_drift_terms, drift_and_record):
            empty = call(system, np.zeros((0, n)), 0)
            assert empty.b.shape == empty.s.shape == (0, n)
        assert empty.max_speed.shape == (0,)
        for field in dataclasses.fields(galerkin.StateRecord):
            assert getattr(empty, field.name).shape == (0,), field.name

    @pytest.mark.parametrize("family", ["off", "linear", "saturating"])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_the_drift_alone_is_the_steppers_drift(self, small_basis, family, alpha):
        # b and s of the drift kernel are the stepper's bit for bit, on a
        # stack of 19 states at their own steps of a per-step forcing: three
        # chunks of 8 states at grid 32, the last one partial
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=alpha)
        noise = NoiseModel(family, 0.5 if family != "off" else 0.0, 4 if family != "off" else 0)
        forcing = np.stack([smooth_random_coeffs(small_basis, seed=s) for s in range(100, 119)])
        system = make_system(small_basis, params, noise, forcing=forcing)
        c = np.stack([smooth_random_coeffs(small_basis, seed=s) for s in range(19)])
        assert len(c) > 2 * galerkin.states_per_call(small_basis.grid_size)
        drift_alone = assemble_drift_terms(system, c, np.arange(19))
        stepper = drift_and_record(system, c, np.arange(19))
        for name in (field.name for field in dataclasses.fields(galerkin.DriftTerms)):
            assert np.array_equal(getattr(drift_alone, name), getattr(stepper, name)), name
        assert np.any(drift_alone.s != 0.0) == (family != "off")

    def test_chunk_memory_is_the_held_work_arrays(self, small_basis, monkeypatch):
        # Traced peak of one grid-32 chunk, with damping and saturating noise
        # on.  The stage holds, per state, u and its Jacobian (6 N^2 doubles),
        # D(u) and the stress (3 each) and the source rows (7): 19 N^2.  Its
        # temporaries are single components (moduli, squares, a product) and
        # the saturating shape, 6 N^2 at most, and coefficient tables.  So a
        # first call peaks below 27 N^2 doubles per state and a repeat call,
        # which reuses the held arrays, below 8 N^2; without work arrays a
        # 4-state chunk peaked at 28 N^2 per state on every call.
        monkeypatch.setattr(galerkin, "_WORK", {})
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        system = make_system(small_basis, params, NoiseModel("saturating", 0.5, 4))
        n = small_basis.grid_size
        states = galerkin.states_per_call(n)
        c = np.stack([smooth_random_coeffs(small_basis, seed=s) for s in range(states)])
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                drift_and_record(system, c, 0)
                peaks.append((tracemalloc.get_traced_memory()[1] - start) / (8 * n * n * states))
        finally:
            tracemalloc.stop()
        assert peaks[0] < 27 and peaks[1] < 8, peaks

    def test_outputs_share_no_memory(self, small_basis):
        # the kernel's outputs are its own: a second call at the same chunk
        # shape reuses the work arrays but leaves the first call's outputs as
        # they were, and no output views a work array
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        system = make_system(small_basis, params, NoiseModel("linear", 0.5, 4))
        states = galerkin.states_per_call(small_basis.grid_size)
        c = np.stack([smooth_random_coeffs(small_basis, seed=s) for s in range(2 * states)])
        first = drift_and_record(system, c[:states], 0)
        kept = {name: value.copy() for name, value in vars(first).items()}
        second = drift_and_record(system, c[states:], 0)
        work = [a for held in galerkin._WORK.values() for a in held]
        for name, value in vars(first).items():
            assert np.array_equal(value, kept[name]), name
            assert not np.array_equal(value, getattr(second, name)), name
            for other in (*vars(second).values(), *work):
                assert not np.shares_memory(value, other), name


class TestStep:
    def test_zero_state_forever(self, small_basis):
        params = RheologyParams(p=2.5, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, np.zeros(small_basis.n), params)
        traj = run(*st, 0.05)[0]
        assert np.all(traj.coeffs == 0.0)

    def test_steady_euler_voigt_shear(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        c = shear_coeffs(small_basis)
        traj = run(*make_state(small_basis, c, params, dt=1e-2), 0.5)[0]
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
            traj = run(*st, T)[0]
            errs.append(abs(traj.coeffs[-1, j] - c[j] * np.exp(-rate * T)))
        assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.05)

    def test_energy_increment_second_order(self, small_basis):
        # noise off, f = 0: E(t + dt) <= E(t) + O(dt^2) per step
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        c = smooth_random_coeffs(small_basis)
        for dt in (2e-3, 1e-3):
            traj = run(*make_state(small_basis, c, params, dt=dt), dt * 50)[0]
            de = np.diff(traj.energies())
            assert np.max(de) < 50.0 * dt**2

    def test_divergence_error_carries_step(self, small_basis):
        params = RheologyParams(p=4.0, q=3.0, nu=1.0, kappa=1e-6)
        c = 50.0 * smooth_random_coeffs(small_basis)
        st = make_state(small_basis, c, params, dt=10.0, path=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            [err] = run(*st, 100.0)
        assert isinstance(err, DivergenceError)
        assert err.step >= 0 and err.path == 3
        assert str(err) == f"nonfinite state detected at step {err.step} of path 3"

    @pytest.mark.parametrize("rebuild", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy])
    def test_divergence_error_survives_pickle_and_copy(self, rebuild):
        err = rebuild(DivergenceError(3, 7))
        assert type(err) is DivergenceError and (err.step, err.path) == (3, 7)
        assert str(err) == "nonfinite state detected at step 3 of path 7"

    def test_cfl_warning(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        c = 100.0 * shear_coeffs(small_basis)
        with pytest.warns(UserWarning, match="unstable"):
            run(*make_state(small_basis, c, params, dt=0.05), 0.05)

    def test_determinism_bitwise(self, small_basis):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        model = NoiseModel("linear", 0.5, 6)
        c = smooth_random_coeffs(small_basis)
        t1 = run(*make_state(small_basis, c, params, noise=model, seed=9, path=2), 0.05)[0]
        t2 = run(*make_state(small_basis, c, params, noise=model, seed=9, path=2), 0.05)[0]
        assert np.array_equal(t1.coeffs, t2.coeffs)
        assert np.array_equal(t1.increments, t2.increments)


class TestRun:
    def test_zero_horizon(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, shear_coeffs(small_basis), params)
        traj = run(*st, 0.0)[0]
        assert traj.n_steps == 0
        assert np.array_equal(traj.coeffs[0], st[1][0])

    def test_non_integer_horizon_rejected(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, shear_coeffs(small_basis), params, dt=1e-3)
        with pytest.raises(ValidationError):
            run(*st, 0.0105)

    def test_monitor_trips_immediately(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, shear_coeffs(small_basis), params)
        traj = run(*st, 0.1, grad_threshold=0.1)[0]
        assert traj.n_steps == 0
        assert traj.tripped_at == 0.0

    def test_monitor_never_trips_for_decaying_flow(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        c = shear_coeffs(small_basis)
        g0 = float(np.sqrt(np.sum(small_basis.k2 * c**2)))
        traj = run(*make_state(small_basis, c, params), 0.1, grad_threshold=g0 * 1.0001)[0]
        assert traj.tripped_at is None
        assert traj.n_steps == 100

    def test_monitor_trips_after_step_zero(self, tmp_path, small_basis):
        # a forced shear grows from rest, so ||grad u|| rises at every step and
        # a threshold at step k's value stops the run there
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        st = make_state(small_basis, np.zeros(small_basis.n), params, forcing=shear_coeffs(small_basis))
        free = run(*st, 0.02)[0]
        grads = np.sqrt(small_basis.field_norms_sq(free.coeffs)[1])
        assert np.all(np.diff(grads) > 0)
        k = 12
        traj = run(*st, 0.02, grad_threshold=grads[k])[0]
        assert traj.n_steps == k
        assert traj.tripped_at == traj.times[-1] == free.times[k]
        assert np.array_equal(traj.coeffs, free.coeffs[: k + 1])
        reached = np.sqrt(small_basis.field_norms_sq(traj.coeffs)[1]) >= grads[k]
        assert np.flatnonzero(reached).tolist() == [k]
        path = tmp_path / "trajectory.csv"
        trajectory_csv(path, traj, analysis.ledger_from_trajectory(traj))
        tripped = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        assert tripped == ["0"] * k + ["1"]

    def test_supplied_increments_reproduce_the_path(self, small_basis):
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        st = make_state(small_basis, smooth_random_coeffs(small_basis), params,
                        noise=NoiseModel("linear", 0.5, 6), seed=9, path=2)
        traj = run(*st, 0.02)[0]
        replay = run(*st, 0.02, increments=traj.increments[None])[0]
        for name in RECORD:
            assert np.array_equal(getattr(replay, name), getattr(traj, name)), name
        with pytest.raises(ValidationError, match="shorter"):
            run(*st, 0.02, increments=traj.increments[None, :-1])

    def test_supplied_increments_checked_before_the_first_step(self, small_basis):
        # too few noise modes, or a row per state missing, is a ValidationError
        # that names the shape, raised before any step is taken
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5)
        st = make_state(small_basis, smooth_random_coeffs(small_basis), params,
                        noise=NoiseModel("linear", 0.5, 8))
        with pytest.raises(ValidationError, match=r"\(1, 10, 3\)"):
            run(*st, 10 * st[0].dt, increments=np.zeros((1, 10, 3)))
        with pytest.raises(ValidationError, match=r"\(2, 10, 8\)"):
            run(*st, 10 * st[0].dt, increments=np.zeros((2, 10, 8)))

    def test_etas_are_the_steps_own(self):
        # every stored step is the Euler-Maruyama update with traj.etas()'s eta,
        # bit for bit, so the ledger, the weak-form residual and the pressure
        # read the eta that the stepper used; criterion 05's config, where a
        # matrix-vector eta rounds differently in 56 of the 100 steps and 17
        # of those steps do not reproduce
        from nsvsim import cli

        cfg = cli.parse_config(None, ["seed=12345", "ic.kind=random", "nu=0.5", "p=2.5",
                                      "noise.family=linear", "noise.amplitude=0.5", "noise.modes=8",
                                      "steps=100", "dt=0.0025", "T=0.25"])
        system = cfg.system()
        basis = system.basis
        traj = run(system, *cli.path_starts(cfg, basis, [0]), cfg.T)[0]
        terms = assemble_drift_terms(system, traj.coeffs[:-1], np.arange(100))
        eta = traj.etas()
        assert traj.n_steps == 100 and np.all(eta != 0.0)
        mass = basis.mass_multipliers(system.params.kappa)
        stepped = traj.coeffs[:-1] + (terms.b * system.dt + terms.s * eta[:, None]) / mass
        assert [i for i in range(100) if not np.array_equal(stepped[i], traj.coeffs[i + 1])] == []

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_a_system_needs_a_positive_step(self, small_basis, dt):
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        with pytest.raises(ValidationError, match=f"^dt={dt} must be positive"):
            System(small_basis, params, OFF, dt, np.zeros(small_basis.n), True)

    def test_forcing_balances_dissipation(self, small_basis):
        # forcing equal to the dissipative drift freezes the single-mode state
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        c = shear_coeffs(small_basis)
        f = -drift(small_basis, c, params)
        st = make_state(small_basis, c, params, forcing=f)
        traj = run(*st, 0.05)[0]
        assert np.max(np.abs(traj.coeffs[-1] - c)) < 1e-10


RECORD = ("times", "coeffs", "increments",
          *(field.name for field in dataclasses.fields(galerkin.StateRecord)))


def assert_same_path(stacked, single):
    for name in RECORD:
        assert np.array_equal(getattr(stacked, name), getattr(single, name)), name
    assert stacked.tripped_at == single.tripped_at


class TestStack:
    """``run`` over a stack: every row is bit for bit its own run."""

    @staticmethod
    def stack(basis, k, family="linear", scales=None, dt=2.5e-3, steps=8) -> tuple:
        """(system, c0, lineages) of k paths of one forced, damped, noisy system."""
        params = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
        forcing = 0.1 * np.random.default_rng(3).standard_normal((steps, basis.n))
        scales = scales or [1.0] * k
        system = System(basis, params, NoiseModel(family, 0.5, 6), dt, forcing, True)
        c0 = np.stack([scale * smooth_random_coeffs(basis, seed=j) for j, scale in enumerate(scales)])
        return system, c0, [(11, 3 * j + 1) for j in range(len(scales))]

    @staticmethod
    def row(stack, j) -> tuple:
        """Row j of ``stack`` as a stack of one."""
        system, c0, lineages = stack
        return system, c0[j:j + 1], lineages[j:j + 1]

    @pytest.mark.parametrize("grid, n_modes", [(16, 16), (32, 32)])
    @pytest.mark.parametrize("family", ["linear", "saturating"])
    @pytest.mark.parametrize("k", [1, 3, 4, 5, 9])
    def test_rows_equal_their_own_runs(self, grid, n_modes, family, k):
        # at grid 32 the kernel evaluates 8 states per call, so 9 rows cross
        # its chunk boundary
        stack = self.stack(DivFreeBasis(n_modes, grid), k, family)
        paths = run(*stack, 8 * 2.5e-3)
        assert len(paths) == k and paths.n_steps == 8 * k
        for j, traj in enumerate(paths):
            assert_same_path(traj, run(*self.row(stack, j), 8 * 2.5e-3)[0])

    def test_a_diverged_row_leaves_the_others_unchanged(self, small_basis):
        stack = self.stack(small_basis, 3, scales=[1.0, 1e4, 1.0], dt=0.025, steps=20)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            paths = run(*stack, 0.5)
            [alone] = run(*self.row(stack, 1), 0.5)
        err = paths[1]
        assert isinstance(err, DivergenceError) and isinstance(alone, DivergenceError)
        assert (err.step, err.path) == (alone.step, 4) and 0 < err.step < 20
        for j in (0, 2):
            assert_same_path(paths[j], run(*self.row(stack, j), 0.5)[0])
            assert paths[j].n_steps == 20

    def test_a_tripped_row_stops_alone(self, small_basis):
        # a forced shear grows from rest along one orbit: the middle row starts
        # at the orbit's step 10 and reaches the threshold of step 18 after 8
        # steps; the rows at rest stop at step 15, below it
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
        system, rest, _ = make_state(small_basis, np.zeros(small_basis.n), params,
                                     forcing=shear_coeffs(small_basis))
        orbit = run(system, rest, [(0, 0)], 0.02)[0]
        threshold = np.sqrt(small_basis.field_norms_sq(orbit.coeffs[18])[1])
        stack = (system, np.concatenate([rest, orbit.coeffs[10:11], rest]), [(0, 0), (0, 1), (0, 2)])
        paths = run(*stack, 0.015, grad_threshold=threshold)
        assert [traj.n_steps for traj in paths] == [15, 8, 15]
        assert [traj.tripped_at for traj in paths] == [None, paths[1].times[-1], None]
        for j, traj in enumerate(paths):
            assert_same_path(traj, run(*self.row(stack, j), 0.015, grad_threshold=threshold)[0])

    def test_rows_share_no_writable_element(self, small_basis):
        # each row's record views its own prefix of the stack's arrays: writing
        # into one row leaves its siblings their own runs; the shared times
        # are read-only
        stack = self.stack(small_basis, 3)
        paths = run(*stack, 0.02)
        for traj in paths:
            assert all(getattr(traj, name).flags.c_contiguous for name in RECORD)
            assert not traj.times.flags.writeable
        for name in RECORD[1:]:
            getattr(paths[1], name)[...] = np.nan
        for j in (0, 2):
            assert_same_path(paths[j], run(*self.row(stack, j), 0.02)[0])

    def test_cfl_warned_once_per_row_over_half(self, small_basis):
        params = RheologyParams(p=2.0, q=3.0, nu=0.0, kappa=0.5)
        system, _, _ = make_state(small_basis, np.zeros(small_basis.n), params, dt=0.05)
        c0 = np.stack([scale * shear_coeffs(small_basis) for scale in (100.0, 0.01, 200.0)])
        with pytest.warns(UserWarning) as caught:
            run(system, c0, [(0, j) for j in range(3)], 0.05)
        assert [str(w.message) for w in caught] == [
            f"dt*max|u|*k_max = {cfl:.3g} > 0.5: explicit convection may be unstable"
            for cfl in (0.05 * float(drift_and_record(system, c, 0).max_speed)
                        * small_basis.k_max for c in (c0[0], c0[2]))]

    def test_twins_draw_their_lineage_once(self, small_basis, monkeypatch):
        # a path and its twin share one (seed, path) lineage: the stack draws
        # it once, and each row still holds its own copy of its run's draws
        system, c0, lineages = self.stack(small_basis, 2)
        stack = (system, c0, [lineages[0]] * 2)
        original, drawn = galerkin.sample_increment, []

        def counted(lineages, *args):
            drawn.append(len(lineages))
            return original(lineages, *args)

        monkeypatch.setattr(galerkin, "sample_increment", counted)
        paths = run(*stack, 0.02)
        assert drawn == [1]
        assert not np.shares_memory(paths[0].increments, paths[1].increments)
        for j, traj in enumerate(paths):
            assert_same_path(traj, run(*self.row(stack, j), 0.02)[0])

    def test_a_negative_seed_rejected(self, small_basis):
        system, c0, lineages = self.stack(small_basis, 2)
        with pytest.raises(ValidationError, match="noise keys"):
            run(system, c0, [lineages[0], (-1, lineages[1][1])], 0.02)

    def test_supplied_increments_reproduce_every_row(self, small_basis):
        stack = self.stack(small_basis, 5)
        paths = run(*stack, 0.02)
        replay = run(*stack, 0.02, increments=np.stack([traj.increments for traj in paths]))
        for traj, again in zip(paths, replay):
            assert_same_path(again, traj)
        with pytest.raises(ValidationError, match="shape"):
            run(*stack, 0.02, increments=paths[0].increments)

    @pytest.mark.parametrize("case, match", [
        ("narrow", r"shape \(3, 31\), need \(states >= 1, 32\)"),
        ("empty", r"shape \(0, 32\), need \(states >= 1, 32\)"),
        ("lineages", "2 noise lineages for a stack of 3 states"),
    ])
    def test_a_malformed_stack_rejected_before_the_first_step(self, small_basis, monkeypatch, case, match):
        # c0 is (states >= 1, n), with one (seed, path) lineage per row
        system, c0, lineages = self.stack(small_basis, 3)
        c0, lineages = {"narrow": (c0[:, :-1], lineages), "empty": (c0[:0], []),
                        "lineages": (c0, lineages[:2])}[case]
        for name in ("drift_and_record", "sample_increment"):
            monkeypatch.setattr(galerkin, name, lambda *args, **kwargs: pytest.fail("the run started"))
        with pytest.raises(ValidationError, match=match):
            run(system, c0, lineages, 0.02)


def test_every_public_name_resolves():
    import nsvsim

    assert [name for name in nsvsim.__all__ if not hasattr(nsvsim, name)] == []


def test_every_public_definition_is_read_by_the_program():
    # a module-level public function or class that no code in src/ or
    # perfbench/ reads, only tests, is dead code
    root = pathlib.Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "nsvsim").glob("*.py"))
    read = set()
    for path in [*modules, *(root / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{path.stem}.{node.name}" for path in modules for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and node.name not in read]
    # criterion 10 has no experiment: the acceptance suite calls its check itself
    assert unread == ["analysis.weak_form_residual"]


def test_the_band_rule_is_written_once():
    # the 2/3-rule band is one decision: src/ divides by 3 only in band_limit
    root = pathlib.Path(__file__).resolve().parents[1]
    where = []
    for path in sorted((root / "src" / "nsvsim").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function (ast.walk visits outer ones first)
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            owner.update((id(node), fn.name) for node in ast.walk(fn))
        where += [f"{path.stem}.{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                  and isinstance(node.right, ast.Constant) and node.right.value == 3]
    assert where == ["galerkin.band_limit"]


def test_every_public_attribute_is_read_by_the_program():
    # a public attribute that a src/ class assigns on self and that no code
    # in src/ or perfbench/ reads, only tests, is state kept for nothing
    root = pathlib.Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "nsvsim").glob("*.py"))
    read = {node.attr for path in [*modules, *(root / "perfbench").rglob("*.py")]
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted({f"{path.stem}.{cls.name}.{node.attr}" for path in modules
                     for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
                     for node in ast.walk(cls)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                     and getattr(node.value, "id", None) == "self"
                     and not node.attr.startswith("_") and node.attr not in read})
    assert unread == []


def test_every_keyword_option_is_set_by_the_program():
    # a defaulted parameter of a src/ function, method or __init__, or a
    # defaulted field of a src/ dataclass, that no call in src/ or perfbench/
    # sets, by keyword or by position, is a constant dressed as an option.
    # Calls are matched by the callee's name (a perfbench script's call to
    # its own function is not a call into src/), and a call that forwards
    # **kwargs sets what its enclosing function is called with by keyword.
    # A dataclass takes its fields in order, a dataclass base's first.
    # SimConfig's fields are config keys, which parse_config sets by key.
    from nsvsim import cli

    root = pathlib.Path(__file__).resolve().parents[1]
    modules = sorted((root / "src" / "nsvsim").glob("*.py"))
    options = []   # (where, callee name, parameter, its position in a call or None)
    declared = {}  # dataclass name -> (module, its bases, its own (field, defaulted) pairs)
    for path in modules:
        tree = ast.parse(path.read_text())
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            if any("dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
                   for d in cls.decorator_list):
                declared[cls.name] = (path.stem, [getattr(b, "id", None) for b in cls.bases],
                                      [(a.target.id, a.value is not None) for a in cls.body
                                       if isinstance(a, ast.AnnAssign)])
        owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            cls = owner.get(id(fn))
            name = cls if fn.name == "__init__" else fn.name
            where = f"{path.stem}.{cls + '.' if cls else ''}{fn.name}"
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            options += [(where, name, arg.arg, i - (cls is not None))
                        for i, arg in enumerate(positional) if i >= first]
            options += [(where, name, arg.arg, None)
                        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]

    def fields_in_order(name):
        _, bases, own = declared[name]
        return [f for base in bases if base in declared for f in fields_in_order(base)] + own

    keyed = {attr for attr, _ in cli._KEY_MAP.values()}
    options += [(f"{stem}.{name}", name, field, i) for name, (stem, _, _) in declared.items()
                for i, (field, defaulted) in enumerate(fields_in_order(name))
                if defaulted and not (name == "SimConfig" and field in keyed)]
    keywords, positions, forwards = set(), {}, set()
    for path in [*modules, *(root / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text())
        own = set() if path in modules else {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef))]:
            for call in (n for n in ast.walk(scope) if isinstance(n, ast.Call)
                         and getattr(n.func, "id", None) not in own):
                callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                keywords |= {(callee, kw.arg) for kw in call.keywords if kw.arg}
                reach = math.inf if any(isinstance(a, ast.Starred) for a in call.args) else len(call.args)
                positions[callee] = max(positions.get(callee, 0), reach)
                forwards |= {(getattr(scope, "name", None), callee) for kw in call.keywords if kw.arg is None}
    for _ in forwards:
        keywords |= {(callee, kw) for outer, callee in forwards for name, kw in keywords if name == outer}
    unset = sorted(f"{where}({param}=)" for where, name, param, pos in options
                   if (name, param) not in keywords and (pos is None or positions.get(name, 0) <= pos))
    # main's argv: the console script parses sys.argv, and only tests pass
    # argv.  run's increments: ROADMAP item 3's matched-noise legs will
    # supply them; today only tests do.
    assert unset == ["cli.main(argv=)", "galerkin.run(increments=)"]


def test_every_pointwise_field_is_read_by_the_program():
    # a field of the kernel's pointwise stage that no code in src/ reads as
    # an attribute is a grid field formed for tests alone
    root = pathlib.Path(__file__).resolve().parents[1]
    read = {node.attr for path in (root / "src" / "nsvsim").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [f.name for f in dataclasses.fields(PointwiseTerms) if f.name not in read] == []


def takes_the_system_in_parts(source: str) -> list:
    """The functions and methods of ``source`` that take a ``galerkin.System``
    in parts: two or more of its parts, that is parameters annotated as a
    DivFreeBasis, a RheologyParams or a NoiseModel, or named ``convection``;
    or trajectories, which carry their system, beside a part annotated so.  A
    trajectory parameter is annotated as a Trajectory or named ``traj``,
    ``trajs`` or ``results``."""
    parts = {"DivFreeBasis", "RheologyParams", "NoiseModel"}
    tree = ast.parse(source)
    owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}

    def annotated(arg, names: set) -> bool:
        return arg.annotation is not None and bool(names & set(re.findall(r"\w+", ast.unparse(arg.annotation))))

    found = []
    for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        taken = [a for a in args if a.arg == "convection" or annotated(a, parts)]
        typed = any(annotated(a, parts) for a in args)
        carried = any(a.arg in {"traj", "trajs", "results"} or annotated(a, {"Trajectory"}) for a in args)
        if len(taken) >= 2 or carried and typed:
            found.append(f"{owner[id(fn)]}.{fn.name}" if id(fn) in owner else fn.name)
    return found


def test_no_function_takes_the_system_in_parts():
    # the kernel, its pointwise stage, the solvability samplers and the
    # moment estimate take the system whole, or the trajectories that carry
    # it: a src/ function that takes it in parts makes every caller unpack a
    # system that it already holds
    assert takes_the_system_in_parts("def f(basis: DivFreeBasis, params: RheologyParams): pass") == ["f"]
    assert takes_the_system_in_parts("class P:\n def at(cls, noise: 'NoiseModel', convection): pass") == ["P.at"]
    assert takes_the_system_in_parts("def f(traj, model: NoiseModel): pass") == ["f"]
    assert takes_the_system_in_parts("def f(a: 'Trajectory', basis: DivFreeBasis | None): pass") == ["f"]
    assert takes_the_system_in_parts("def f(results, gamma: float): pass") == []
    root = pathlib.Path(__file__).resolve().parents[1]
    assert [f"{path.stem}.{name}" for path in sorted((root / "src" / "nsvsim").glob("*.py"))
            for name in takes_the_system_in_parts(path.read_text())] == []


def test_trajectory_csv_layout(tmp_path, small_basis):
    params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5)
    traj = run(*make_state(small_basis, shear_coeffs(small_basis), params, dt=1e-2), 0.05)[0]
    path = tmp_path / "trajectory.csv"
    trajectory_csv(path, traj, analysis.ledger_from_trajectory(traj))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,l2,grad_l2,lp_gradp,lq_q,energy,dissipation_acc,noise_trace_acc,tripped"
    assert len(lines) == traj.n_steps + 2
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["l2"]) == pytest.approx(np.sqrt(2.0) * np.pi, rel=1e-12)
    assert first["tripped"] == "0"


@pytest.mark.parametrize("experiment", ["simulate", "energy-audit"])
def test_one_kernel_evaluation_per_stored_state(experiment, tmp_path, monkeypatch):
    # run, the ledger and the trajectory CSV share one drift evaluation per
    # stored state: steps + 1 per path, the final state included, in one
    # recording call per step on the stack of both paths, and no other call
    from nsvsim import cli, galerkin

    calls = []
    for kernel in ("assemble_drift_terms", "drift_and_record"):
        def counted(system, c, *args, _kernel=kernel, _original=getattr(galerkin, kernel), **kwargs):
            calls.append((_kernel, len(np.reshape(c, (-1, system.basis.n)))))
            return _original(system, c, *args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("nsvsim") and getattr(mod, kernel, None) is getattr(galerkin, kernel):
                monkeypatch.setattr(mod, kernel, counted)
    steps, paths = 12, 2
    cfg = cli.parse_config(None, [
        f"experiment={experiment}", f"paths={paths}", f"steps={steps}", "dt=0.0025",
        f"T={steps * 0.0025!r}", "ic.kind=random", "noise.family=linear",
        "noise.amplitude=0.5", "noise.modes=6",
    ])
    cli.run_experiment(cfg, str(tmp_path))
    assert calls == [("drift_and_record", paths)] * (steps + 1)
