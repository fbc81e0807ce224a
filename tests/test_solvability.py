from dataclasses import replace

import numpy as np
import pytest

from nsvsim import galerkin
from nsvsim.errors import ValidationError
from nsvsim.galerkin import DivFreeBasis, System, assemble_drift_terms
from nsvsim.noise import NoiseModel
from nsvsim.rheology import RheologyParams
from nsvsim.solvability import check_coercivity, check_weak_monotonicity

PARAMS = RheologyParams(p=2.5, q=4.0, nu=0.5, kappa=0.5, alpha=0.1)
LINEAR = NoiseModel("linear", 0.5, 6)
OFF = NoiseModel("off", 0.0, 0)
# small viscosity, so that convection drives a positive fitted constant
LOOSE = RheologyParams(p=2.0, q=3.0, nu=1e-4, kappa=0.5, alpha=0.0)


@pytest.fixture(scope="module")
def basis():
    return DivFreeBasis(24, 32)


def make_system(basis, params, noise, forcing=None, convection=True) -> System:
    """The system under test, unforced unless ``forcing`` is given."""
    return System(basis, params, noise, 1e-3, np.zeros(basis.n) if forcing is None else forcing, convection)


class TestWeakMonotonicity:
    def test_pure_monotone_part_nonpositive(self, basis):
        # convection and noise off: the drift gap pairing is <= 0 by monotonicity
        rep = check_weak_monotonicity(make_system(basis, PARAMS, OFF, convection=False),
                                      radius=3.0, samples=80, seed=2)
        assert rep.passed
        assert rep.fitted_constant == 0.0

    def test_full_drift_margin(self, basis):
        rep = check_weak_monotonicity(make_system(basis, PARAMS, LINEAR), radius=5.0, samples=200, seed=1)
        assert rep.passed
        assert rep.worst_margin >= -1e-8
        assert np.isfinite(rep.fitted_constant)

    def test_fitted_constant_stable_under_resampling(self, basis):
        # small-viscosity regime so convection actually drives the constant
        loose = RheologyParams(p=2.0, q=3.0, nu=1e-4, kappa=0.5, alpha=0.0)
        reps = [
            check_weak_monotonicity(make_system(basis, loose, OFF), radius=5.0, samples=400, seed=s)
            for s in (10, 11)
        ]
        assert all(r.passed for r in reps)
        c = [r.fitted_constant for r in reps]
        assert c[0] > 0.0
        assert 0.2 < c[1] / c[0] < 5.0

    def test_radius_validation(self, basis):
        with pytest.raises(ValidationError):
            check_weak_monotonicity(make_system(basis, PARAMS, OFF), radius=0.0, samples=1, seed=0)

    def test_homogeneity_of_margin(self, basis):
        # doubling the radius, the normalized margins stay finite and the
        # check keeps passing
        r1 = check_weak_monotonicity(make_system(basis, PARAMS, OFF), radius=2.0, samples=100, seed=5)
        r2 = check_weak_monotonicity(make_system(basis, PARAMS, OFF), radius=4.0, samples=100, seed=5)
        assert r1.passed and r2.passed

    def test_fitted_constant_tracks_scale(self, basis):
        # with negligible viscosity the convection term drives the fitted
        # constant, which should roughly double when the ball radius doubles
        loose = RheologyParams(p=2.0, q=3.0, nu=1e-4, kappa=0.5, alpha=0.0)
        r1 = check_weak_monotonicity(make_system(basis, loose, OFF), radius=2.0, samples=300, seed=6)
        r2 = check_weak_monotonicity(make_system(basis, loose, OFF), radius=4.0, samples=300, seed=6)
        assert r1.fitted_constant > 0.0
        assert 1.2 < r2.fitted_constant / r1.fitted_constant < 3.5


class TestCoercivity:
    def test_zero_state(self, basis):
        rep = check_coercivity(make_system(basis, PARAMS, LINEAR), samples=1, seed=0)
        assert rep.passed

    def test_pure_dissipation_nonpositive(self, basis):
        # f = 0, noise off: <b(u), u> <= 0 for every sample
        rep = check_coercivity(make_system(basis, PARAMS, OFF), samples=100, seed=3)
        assert rep.passed
        assert rep.fitted_constant <= 0.0

    def test_mixed_scales_no_violations(self, basis):
        f = np.zeros(basis.n)
        f[4] = 0.7
        rep = check_coercivity(make_system(basis, PARAMS, LINEAR, f), samples=300, seed=4)
        assert rep.passed
        assert rep.worst_margin >= -1e-8

    def test_reads_the_forcing_of_step_0(self, basis):
        # under a per-step forcing the check is that of its first row, held
        # static; a later row would give another ||f||
        forcing = 0.3 * np.random.default_rng(8).standard_normal((5, basis.n))
        per_step = make_system(basis, PARAMS, LINEAR, forcing)
        rep = check_coercivity(per_step, samples=50, seed=4)
        assert rep == check_coercivity(replace(per_step, forcing=forcing[0]), samples=50, seed=4)
        assert rep != check_coercivity(replace(per_step, forcing=forcing[1]), samples=50, seed=4)


def monotonicity_envelope(system, radius):
    """C(R, n) of ``check_weak_monotonicity``, term for term as it forms it."""
    basis = system.basis
    k_eff = float(np.sqrt(np.max(basis.k2))) if np.any(basis.k2 > 0) else 0.0
    unif_amp = 1.0 / (np.pi * np.sqrt(2.0))  # sup-norm of a unit basis field
    convective = 2.0 * radius * np.sqrt(basis.n) * unif_amp * k_eff if system.convection else 0.0
    return convective + system.noise.trace_const


def per_sample_monotonicity(system, radius, samples, seed):
    """(worst margin, fitted constant) by one single-state kernel call per state."""
    basis, model = system.basis, system.noise
    envelope = monotonicity_envelope(system, radius)

    def ball():
        v = rng.standard_normal(basis.n)
        return v * (radius * rng.uniform() ** (1.0 / basis.n) / np.linalg.norm(v))

    rng = np.random.default_rng(seed)
    worst, fitted = np.inf, 0.0
    for _ in range(samples):
        cu = ball()
        cv = ball()
        dw = cu - cv
        norm_sq = float(np.sum(dw * dw))
        if norm_sq == 0.0:
            continue
        tu = assemble_drift_terms(system, cu, 0)
        tv = assemble_drift_terms(system, cv, 0)
        ratio = (float(np.dot(tu.b - tv.b, dw)) / norm_sq
                 + model.trace_const * (float(np.sum((tu.s - tv.s) ** 2)) / norm_sq))
        worst = min(worst, envelope - ratio)
        fitted = max(fitted, ratio)
    return worst, fitted


def per_sample_coercivity(system, samples, seed):
    """(worst margin, fitted constant) by one single-state kernel call per state."""
    basis, model = system.basis, system.noise
    rng = np.random.default_rng(seed)
    envelope = 0.5 + model.trace_const
    f_norm = float(np.linalg.norm(system.forcing))
    worst, fitted = np.inf, 0.0
    for _ in range(samples):
        scale = 10.0 ** rng.uniform(-2, 1.5)
        cu = rng.standard_normal(basis.n) * scale
        terms = assemble_drift_terms(system, cu, 0)
        rhs_norm = (1.0 + f_norm) * (1.0 + float(np.sum(cu * cu)))
        ratio = (float(np.dot(terms.b, cu)) / rhs_norm
                 + model.trace_const * (float(np.sum(terms.s * terms.s)) / rhs_norm))
        worst = min(worst, envelope - ratio)
        fitted = max(fitted, ratio)
    return worst, fitted


@pytest.mark.parametrize("params, model, convection", [
    (PARAMS, LINEAR, True), (PARAMS, OFF, False), (LOOSE, OFF, True), (LOOSE, LINEAR, True)])
@pytest.mark.parametrize("samples", [1, 7])
def test_stacked_samplers_match_per_sample_loop(basis, params, model, convection, samples):
    # the samplers stack states through the kernel; every margin and constant
    # is bit for bit that of one single-state call per state, a partial last
    # stack included (7 samples); the bitwise worst margin pins the envelope
    f = np.zeros(basis.n)
    f[4] = 0.7
    system = make_system(basis, params, model, f, convection)
    mono = check_weak_monotonicity(system, 5.0, samples, seed=10)
    assert (mono.worst_margin, mono.fitted_constant) == per_sample_monotonicity(system, 5.0, samples, 10)
    coer = check_coercivity(system, samples, seed=10)
    assert (coer.worst_margin, coer.fitted_constant) == per_sample_coercivity(system, samples, 10)
    if params is LOOSE and samples == 7:
        assert mono.fitted_constant > 0.0 and coer.fitted_constant > 0.0  # not pinned at the floor


def test_nan_kernel_fails_both_samplers(monkeypatch):
    # a kernel whose stress is NaN gives NaN margins, which fail both checks
    monkeypatch.setattr(galerkin, "power_law_stress", lambda d, d_modulus, p, **_: np.full_like(d, np.nan))
    small = make_system(DivFreeBasis(16, 16), PARAMS, OFF)
    mono = check_weak_monotonicity(small, 5.0, samples=20, seed=0)
    coer = check_coercivity(small, samples=20, seed=0)
    assert not mono.passed and not coer.passed


def test_no_samples_rejected(basis):
    with pytest.raises(ValidationError, match="samples"):
        check_weak_monotonicity(make_system(basis, PARAMS, OFF), radius=1.0, samples=0, seed=0)
    with pytest.raises(ValidationError, match="samples"):
        check_coercivity(make_system(basis, PARAMS, OFF), samples=0, seed=0)
