import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvsim.errors import ValidationError
from nsvsim.fields import modulus
from nsvsim.noise import BASEL, NoiseModel, keyed_normals, sample_increment, verify_noise_conditions


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
        assert np.all(m.mode_scales()[0] * m.shape(u, modulus(u)) == 0.0)

    def test_linear_scalar_oracle(self):
        # c = 1, k = 2, u = (3, 0): phi = (3/4, 0)
        m = NoiseModel("linear", 1.0, 4)
        u = np.array([3.0, 0.0])[:, None, None]
        out = m.mode_scales()[1] * m.shape(u, modulus(u))
        assert out[0, 0, 0] == pytest.approx(0.75)
        assert out[1, 0, 0] == 0.0

    def test_saturating_bounded(self):
        m = NoiseModel("saturating", 1.0, 4)
        u = np.array([1e9, 0.0])[:, None, None]
        big = m.mode_scales()[0] * m.shape(u, modulus(u))
        assert np.linalg.norm(big) <= 1.0 + 1e-9

    def test_saturating_stack_equals_single_fields(self):
        m = NoiseModel("saturating", 1.0, 4)
        u = np.random.default_rng(5).standard_normal((4, 2, 8, 8))
        out = m.shape(u, modulus(u))
        for i in range(4):
            assert np.array_equal(out[i], m.shape(u[i], modulus(u[i])))


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

    def test_envelopes_fail_on_a_doubled_shape(self, monkeypatch):
        # the audit evaluates the shape the kernel applies, not a copy of it
        monkeypatch.setattr(NoiseModel, "shape", lambda self, u, speed: 2.0 * np.asarray(u))
        rep = verify_noise_conditions(NoiseModel("linear", 1.0, 8), samples=1000, seed=3)
        assert not rep.passed

    def test_lipschitz_audit_both_families(self):
        for fam in ("linear", "saturating"):
            m = NoiseModel(fam, 0.7, 8)
            rep = verify_noise_conditions(m, samples=1000, seed=11)
            assert rep.L_emp <= m.lipschitz_const + 1e-9


class TestIncrements:
    def test_determinism(self):
        a = sample_increment([(42, 3)], 18, 0.01, 6)
        b = sample_increment([(42, 3)], 18, 0.01, 6)
        assert np.array_equal(a, b)

    def test_distinct_lineages_differ(self):
        inc = sample_increment([(42, 3), (42, 4)], 19, 0.01, 6)
        a, b, c = inc[0, 17], inc[0, 18], inc[1, 17]
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_row_is_its_own_lineage(self):
        # each (path, step) draw is default_rng([seed, path, step]) scaled by
        # sqrt(dt), whatever else the stack holds
        dt, lineages = 0.01, [(42, 3), (2**32, 0), (42, 3)]
        inc = sample_increment(lineages, 5, dt, 4)
        assert inc.shape == (3, 5, 4)
        for row, (seed, path) in enumerate(lineages):
            for step in range(5):
                expected = np.random.default_rng([seed, path, step]).standard_normal(4) * np.sqrt(dt)
                assert np.array_equal(inc[row, step], expected)

    def test_empty_increment(self):
        inc = sample_increment([(1, 0)], 1, 0.5, 0)
        assert inc.shape == (1, 1, 0)

    def test_dt_validation(self):
        with pytest.raises(ValidationError):
            sample_increment([(1, 0)], 1, 0.0, 4)

    def test_negative_lineage_rejected(self):
        with pytest.raises(ValidationError, match="2\\*\\*64"):
            sample_increment([(1, -1)], 1, 0.5, 4)

    def test_variance_law_of_large_numbers(self):
        dt = 0.003
        draws = sample_increment([(9, 0)], 100_000, dt, 1)[0, :, 0]
        var = np.var(draws / np.sqrt(dt))
        assert 0.99 <= var <= 1.01
        assert abs(np.mean(draws)) < 5e-4


SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])  # one and two entropy words
WORDS = st.integers(0, 2**32 - 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), entries=st.sampled_from([3, 5]), n=st.integers(0, 16))
def test_keyed_normals_are_default_rng_draws(data, entries, n):
    # 3-entry step keys (seed, path, step) and 5-entry initial-condition
    # keys (seed, path, kx, ky, phase), several of them in one call, each row
    # bit for bit its own default_rng(key).standard_normal(n)
    keys = data.draw(st.lists(st.tuples(SEEDS, *[WORDS] * (entries - 1)), min_size=1, max_size=4))
    out = keyed_normals(keys, n)
    assert out.shape == (len(keys), n)
    for key, row in zip(keys, out):
        assert np.array_equal(row, np.random.default_rng(list(key)).standard_normal(n))


def test_keyed_normals_reject_bad_keys():
    for bad in ([[-1, 0]], [[2**64, 0]], [1, 2], np.zeros((3, 0), dtype=int)):
        with pytest.raises(ValidationError):
            keyed_normals(bad, 2)


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
        lhs = sum(np.sum((mf.mode_scales()[k - 1] * mf.shape(u, modulus(u))) ** 2) for k in range(1, 9))
        assert lhs <= mf.trace_const * np.sum(u**2) * (1 + 1e-12)
