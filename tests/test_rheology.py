import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvsim import fields
from nsvsim.errors import ConfigurationError, ValidationError
from nsvsim.rheology import (
    MonotonicityReport,
    RheologyParams,
    monotonicity_gap,
    monotonicity_sweep,
    power_law_stress,
    stabilizer,
)

from conftest import random_divfree


class TestParams:
    def test_accepts_newtonian(self):
        RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.5, alpha=0.0)

    def test_rejects_small_p(self):
        with pytest.raises(ConfigurationError, match="p > 1"):
            RheologyParams(p=0.9, q=3.0, nu=1.0, kappa=0.5)

    def test_q_floor_active_only_with_damping(self):
        # p' = 3 at p = 1.5, so q must reach max(2p', 3) = 6 when alpha > 0
        RheologyParams(p=1.5, q=5.0, nu=1.0, kappa=0.5, alpha=0.0)
        with pytest.raises(ConfigurationError, match="max\\(2p', 3\\) = 6"):
            RheologyParams(p=1.5, q=5.0, nu=1.0, kappa=0.5, alpha=0.1)
        RheologyParams(p=1.5, q=6.0, nu=1.0, kappa=0.5, alpha=0.1)

    def test_positive_constants(self):
        with pytest.raises(ConfigurationError):
            RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=0.0)
        with pytest.raises(ConfigurationError):
            RheologyParams(p=2.0, q=3.0, nu=-1.0, kappa=1.0)
        with pytest.raises(ConfigurationError):
            RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=1.0, alpha=-0.5)


def _tensor(entries) -> np.ndarray:
    xx, xy, yy = entries
    one = np.ones((4, 4))
    return np.stack([xx * one, xy * one, yy * one])


class TestStress:
    def test_newtonian_identity(self):
        d = _tensor((0.7, -0.3, 1.1))
        params = RheologyParams(p=2.0, q=3.0, nu=1.0, kappa=1.0)
        a = power_law_stress(d, fields.sym_modulus(d), params.p)
        assert np.array_equal(a[0], d[0]) and np.array_equal(a[1], d[1])

    def test_zero_convention_below_two(self):
        d = _tensor((0.0, 0.0, 0.0))
        params = RheologyParams(p=1.5, q=3.0, nu=1.0, kappa=1.0)
        a = power_law_stress(d, fields.sym_modulus(d), params.p)
        assert np.all(a[0] == 0.0) and np.all(np.isfinite(a[0]))

    def test_diagonal_oracle_p3(self):
        # D = diag(1, -1): |D| = sqrt(2), A = sqrt(2) diag(1, -1)
        d = _tensor((1.0, 0.0, -1.0))
        params = RheologyParams(p=3.0, q=4.0, nu=1.0, kappa=1.0)
        a = power_law_stress(d, fields.sym_modulus(d), params.p)
        assert a[0, 0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert a[2, 0, 0] == pytest.approx(-np.sqrt(2.0), rel=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.sampled_from([1.2, 1.5, 2.0, 3.0, 4.0]),
        lam=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**31),
    )
    def test_positive_homogeneity(self, p, lam, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 4))
        d = np.stack([m, rng.standard_normal((4, 4)), -m])
        params = RheologyParams(p=p, q=6.0, nu=1.0, kappa=1.0)
        d1 = np.full((4, 4), lam) * d
        a1 = power_law_stress(d1, fields.sym_modulus(d1), params.p)
        a0 = power_law_stress(d, fields.sym_modulus(d), params.p)
        scale = lam ** (p - 1.0)
        for c0, c1 in zip(a0, a1):
            assert np.allclose(c1, scale * c0, rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_stack_equals_single_fields(self, p, rng):
        d = rng.standard_normal((4, 3, 8, 8))
        d[1, :, :2] = 0.0  # the zero convention inside a stack
        a = power_law_stress(d, fields.sym_modulus(d), p)
        for i in range(4):
            assert np.array_equal(a[i], power_law_stress(d[i], fields.sym_modulus(d[i]), p))


class TestStabilizer:
    def test_stack_equals_single_fields(self, rng):
        params = RheologyParams(p=2.0, q=4.5, nu=1.0, kappa=1.0, alpha=0.5)
        u = rng.standard_normal((4, 2, 8, 8))
        u[2, :, 3:] = 0.0
        out = stabilizer(u, fields.modulus(u), params)
        for i in range(4):
            assert np.array_equal(out[i], stabilizer(u[i], fields.modulus(u[i]), params))

    def test_zero(self):
        params = RheologyParams(p=2.0, q=4.0, nu=1.0, kappa=1.0, alpha=2.0)
        u = np.zeros((2, 4, 4))
        out = stabilizer(u, fields.modulus(u), params)
        assert np.all(out == 0.0)

    def test_q3_scalar(self):
        # q = 3, u = (2, 0): a(u) = |u| u = (4, 0), times alpha
        # (q = 3 needs 2p' <= 3 for an active damping term, hence p = 3)
        params = RheologyParams(p=3.0, q=3.0, nu=1.0, kappa=1.0, alpha=0.5)
        u = np.zeros((2, 1, 1))
        u[0] = 2.0
        out = stabilizer(u, fields.modulus(u), params)
        assert out[0, 0, 0] == pytest.approx(0.5 * 4.0)
        assert out[1, 0, 0] == 0.0

    def test_q4_vector(self):
        # q = 4, u = (1, 1): |u|^2 = 2, a(u) = 2 (1, 1)
        params = RheologyParams(p=2.0, q=4.0, nu=1.0, kappa=1.0, alpha=1.0)
        u = np.ones((2, 1, 1))
        out = stabilizer(u, fields.modulus(u), params)
        assert out[0, 0, 0] == pytest.approx(2.0, rel=1e-15)


class TestMonotonicity:
    def test_equal_pair_degenerate(self):
        m = np.array([[1.0, 0.5], [0.5, -2.0]])
        rep = monotonicity_gap(m, m, 3.0)
        assert rep.lhs == rep.rhs == rep.product == 0.0
        assert rep.holds

    def test_newtonian_reduction(self, rng):
        # p = 2: lhs = |M-N|^2 / 2 <= |M-N|^2 = rhs for any pair
        for _ in range(50):
            m = rng.standard_normal((2, 2))
            n = rng.standard_normal((2, 2))
            m, n = 0.5 * (m + m.T), 0.5 * (n + n.T)
            rep = monotonicity_gap(m, n, 2.0)
            assert rep.holds
            assert rep.rhs == pytest.approx(2.0 * rep.lhs, rel=1e-12)

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0])
    def test_stack_equals_single_pairs(self, p, rng):
        ab = rng.uniform(-5.0, 5.0, size=(6, 2, 2, 2))
        ab = 0.5 * (ab + np.swapaxes(ab, -1, -2))
        ab[0, 1] = ab[0, 0]  # an equal pair
        ab[1, 1] = 0.0       # a zero tensor
        rep = monotonicity_gap(ab[:, 0], ab[:, 1], p)
        for i in range(len(ab)):
            one = monotonicity_gap(ab[i, 0], ab[i, 1], p)
            for name in ("lhs", "rhs", "product", "scale", "holds"):
                assert np.array_equal(getattr(rep, name)[i], getattr(one, name))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValidationError):
            monotonicity_gap(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2), 2.0)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    def test_sweep_no_violations(self, p):
        violations, worst = monotonicity_sweep(p, samples=2000, seed=7)
        assert violations == 0
        assert worst > -1e-12

    def test_integral_monotonicity_of_stress(self):
        # int (A(u) - A(v)) : (D(u) - D(v)) dx >= 0 on sampled field pairs
        params = RheologyParams(p=2.5, q=3.0, nu=1.0, kappa=1.0)
        w = fields.quad_weight(32)
        for seed in range(10):
            u = random_divfree(6, 32, seed)
            v = random_divfree(6, 32, seed + 100)
            du, dv = fields.sym_gradient(fields.gradient(u)), fields.sym_gradient(fields.gradient(v))
            au = power_law_stress(du, fields.sym_modulus(du), params.p)
            av = power_law_stress(dv, fields.sym_modulus(dv), params.p)
            gap = au - av
            dd = du - dv
            val = np.sum(fields.sym_contract(gap, dd)) * w
            scale = np.sum(fields.sym_modulus(du) ** params.p + fields.sym_modulus(dv) ** params.p) * w
            assert val >= -1e-10 * max(scale, 1.0)

    def test_report_type(self):
        rep = monotonicity_gap(np.eye(2), np.zeros((2, 2)), 1.5)
        assert isinstance(rep, MonotonicityReport)
        assert rep.product >= 0.0
