import numpy as np
import pytest

from nsvsim.errors import ValidationError
from nsvsim.noise import BASEL, NoiseModel, sample_increment, verify_noise_conditions


class TestModel:
    def test_analytic_constants_linear(self):
        m = NoiseModel("linear", 1.0, 8)
        assert m.growth_const == pytest.approx(BASEL)
        assert m.lipschitz_const == pytest.approx(BASEL)
        assert m.decay_const == 1.0

    def test_off_family(self):
        m = NoiseModel("off", 0.0, 0)
        assert not m.active
        assert m.growth_const == m.lipschitz_const == m.decay_const == 0.0

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            NoiseModel("pink", 1.0, 4)


class TestPhiApply:
    """phi_k(u) = scale_k * shape(u), as the stepper applies it."""

    def test_off_zero(self):
        m = NoiseModel("off", 0.0, 3)
        u = np.ones((2, 4, 4))
        assert np.all(m.mode_scale(1) * m.shape(u) == 0.0)

    def test_linear_scalar_oracle(self):
        # c = 1, k = 2, u = (3, 0): phi = (3/4, 0)
        m = NoiseModel("linear", 1.0, 4)
        out = m.mode_scale(2) * m.shape(np.array([3.0, 0.0]))
        assert out[0] == pytest.approx(0.75)
        assert out[1] == 0.0

    def test_saturating_bounded(self):
        m = NoiseModel("saturating", 1.0, 4)
        big = m.mode_scale(1) * m.shape(np.array([1e9, 0.0]))
        assert np.linalg.norm(big) <= 1.0 + 1e-9

    def test_mode_out_of_range(self):
        m = NoiseModel("linear", 1.0, 4)
        with pytest.raises(ValidationError):
            m.mode_scale(5)


class TestConditions:
    def test_off(self):
        rep = verify_noise_conditions(NoiseModel("off", 0.0, 0), samples=10)
        assert rep.K_emp == rep.L_emp == rep.C_emp == 0.0 and rep.passed

    def test_linear_partial_sum_oracle(self):
        # truncated envelope sum never exceeds the full Basel series
        m = NoiseModel("linear", 1.0, 16)
        rep = verify_noise_conditions(m, samples=10_000, seed=3)
        assert rep.passed
        assert rep.K_emp <= BASEL + 1e-9
        partial = sum(1.0 / k**2 for k in range(1, 17))
        assert rep.K_emp <= partial + 1e-9  # brute-force partial-sum bound

    def test_saturating_decay(self):
        m = NoiseModel("saturating", 1.0, 8)
        rep = verify_noise_conditions(m, samples=10_000, seed=5)
        assert rep.passed
        assert rep.C_emp <= 1.0 + 1e-12

    def test_lipschitz_audit_both_families(self):
        for fam in ("linear", "saturating"):
            m = NoiseModel(fam, 0.7, 8)
            rep = verify_noise_conditions(m, samples=1000, seed=11)
            assert rep.L_emp <= m.lipschitz_const + 1e-9


class TestIncrements:
    def test_determinism(self):
        a = sample_increment(42, 3, 17, 0.01, 6)
        b = sample_increment(42, 3, 17, 0.01, 6)
        assert np.array_equal(a.db, b.db)
        assert a.lineage == (42, 3, 17)

    def test_distinct_lineages_differ(self):
        a = sample_increment(42, 3, 17, 0.01, 6)
        b = sample_increment(42, 3, 18, 0.01, 6)
        c = sample_increment(42, 4, 17, 0.01, 6)
        assert not np.array_equal(a.db, b.db)
        assert not np.array_equal(a.db, c.db)

    def test_empty_increment(self):
        inc = sample_increment(1, 0, 0, 0.5, 0)
        assert inc.db.shape == (0,)

    def test_dt_validation(self):
        with pytest.raises(ValidationError):
            sample_increment(1, 0, 0, 0.0, 4)

    def test_variance_law_of_large_numbers(self):
        dt = 0.003
        draws = np.array([sample_increment(9, 0, s, dt, 1).db[0] for s in range(100_000)])
        var = np.var(draws / np.sqrt(dt))
        assert 0.99 <= var <= 1.01
        assert abs(np.mean(draws)) < 5e-4


def test_ito_trace_envelope():
    m = NoiseModel("linear", 0.5, 8)
    s4 = sum((0.5 / k**2) ** 2 for k in range(1, 9))
    assert m.trace_const == pytest.approx(s4)
    assert NoiseModel("off", 0.0, 0).trace_const == 0.0
    assert NoiseModel("linear", 0.0, 8).trace_const == 0.0
    # sum_k ||phi_k(u)||^2 <= S ||u||^2 pointwise, for both families
    u = np.random.default_rng(3).standard_normal((2, 8, 8))
    for fam in ("linear", "saturating"):
        mf = NoiseModel(fam, 0.5, 8)
        lhs = sum(np.sum((mf.mode_scale(k) * mf.shape(u)) ** 2) for k in range(1, 9))
        assert lhs <= mf.trace_const * np.sum(u**2) * (1 + 1e-12)
