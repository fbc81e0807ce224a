import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvsim import fields
from nsvsim.errors import ConfigurationError, ValidationError

from conftest import l2_norm, random_divfree, random_hermitian_coeffs, torus_grid


class TestTransforms:
    def test_zero_field_round_trip(self):
        f = fields.zero_field(4, 16)
        g = fields.to_grid(f)
        assert np.all(g == 0.0)
        assert np.all(fields.from_grid(g, 4).coeffs == 0.0)

    def test_single_mode_is_transform_eigenfunction(self):
        # u = (sin y, 0) samples to sin(y_j) and comes back as the same mode
        f = fields.zero_field(2, 16)
        f.coeffs[0, 2, 3] = -0.5j
        f.coeffs[0, 2, 1] = 0.5j
        g = fields.to_grid(f)
        _, yy = torus_grid(16)
        assert np.allclose(g[0], np.sin(yy), atol=1e-14)
        assert np.allclose(g[1], 0.0, atol=1e-14)
        back = fields.from_grid(g, 2)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), k_max=st.integers(1, 7))
    def test_round_trip_random_hermitian(self, seed, k_max):
        c = random_hermitian_coeffs(k_max, seed)
        f = fields.SpectralField(c, 32)
        back = fields.from_grid(fields.to_grid(f), k_max)
        scale = np.max(np.abs(c))
        assert np.max(np.abs(back.coeffs - c)) < 1e-12 * max(scale, 1.0)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            fields.zero_field(8, 16)  # needs N >= 18

    def test_grid_power_of_two_required(self):
        with pytest.raises(ConfigurationError):
            fields.zero_field(4, 24)

    def test_hermitian_and_mean_flow(self):
        f = fields.SpectralField(random_hermitian_coeffs(3, 5), 16)
        assert fields.hermitian_error(f) == 0.0
        assert np.all(np.isreal(f.mean_flow()))


class TestSymGradient:
    def _fd_sym_gradient(self, g: np.ndarray) -> tuple[np.ndarray, ...]:
        # central differences on the periodic grid, the independent oracle
        n = g.shape[-1]
        h = 2.0 * np.pi / n
        dx = lambda a: (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2 * h)
        dy = lambda a: (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2 * h)
        return dx(g[0]), 0.5 * (dy(g[0]) + dx(g[1])), dy(g[1])

    def test_zero(self):
        d = fields.sym_gradient(fields.zero_field(3, 16))
        assert np.all(d.xx == 0.0) and np.all(d.xy == 0.0) and np.all(d.yy == 0.0)

    def test_shear_closed_form(self):
        f = fields.zero_field(2, 32)
        f.coeffs[0, 2, 3] = -0.5j
        f.coeffs[0, 2, 1] = 0.5j
        d = fields.sym_gradient(f)
        _, yy = torus_grid(32)
        assert np.allclose(d.xy, 0.5 * np.cos(yy), atol=1e-13)
        assert np.allclose(d.xx, 0.0, atol=1e-13)
        assert np.allclose(d.yy, 0.0, atol=1e-13)

    def test_periodic_rotation_matches_finite_differences(self):
        # u = (-sin y, sin x): D = [[0, (cos x - cos y)/2], [(cos x - cos y)/2, 0]]
        n = 128
        xx, yy = torus_grid(n)
        g = np.stack([-np.sin(yy), np.sin(xx)])
        f = fields.from_grid(g, 4)
        d = fields.sym_gradient(f)
        assert np.allclose(d.xy, 0.5 * (np.cos(xx) - np.cos(yy)), atol=1e-13)
        fd = self._fd_sym_gradient(g)
        # second-order oracle on a fine grid
        assert np.max(np.abs(d.xy - fd[1])) < 1e-3
        assert np.max(np.abs(d.xx - fd[0])) < 1e-3


class TestLeray:
    def test_gradients_annihilated(self):
        n = 32
        xx, yy = torus_grid(n)
        grad_chi = np.stack([np.cos(xx) * np.sin(yy), np.sin(xx) * np.cos(yy)])
        p = fields.leray_project(grad_chi, 8)
        assert np.max(np.abs(p.coeffs)) < 1e-14

    def test_idempotent_on_solenoidal(self, rng):
        f = random_divfree(6, 32, seed=3)
        again = fields.leray_project(fields.to_grid(f), 6)
        assert np.max(np.abs(again.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_projection_identity_mode_by_mode(self, rng):
        v = rng.standard_normal((2, 32, 32))
        p = fields.leray_project(v, 9)
        assert fields.divergence_error(p) < 1e-12
        # remainder v - P v is curl-free: curl of the difference vanishes
        diff = fields.from_grid(v, 9).coeffs - p.coeffs
        kx, ky = fields.wavenumbers(9)
        curl = kx * diff[1] - ky * diff[0]
        assert np.max(np.abs(curl)) < 1e-12 * max(np.max(np.abs(diff)), 1.0)

    def test_double_projection(self, rng):
        v = rng.standard_normal((2, 32, 32))
        p1 = fields.leray_project(v, 9)
        p2 = fields.leray_project(fields.to_grid(p1), 9)
        assert np.max(np.abs(p2.coeffs - p1.coeffs)) < 1e-14 * max(np.max(np.abs(p1.coeffs)), 1.0)


class TestNorms:
    def test_shear_closed_forms(self):
        f = fields.zero_field(2, 32)
        f.coeffs[0, 2, 3] = -0.5j
        f.coeffs[0, 2, 1] = 0.5j
        assert l2_norm(f) ** 2 == pytest.approx(2.0 * np.pi**2, rel=1e-13)
        assert fields.grad_l2_norm(f) ** 2 == pytest.approx(2.0 * np.pi**2, rel=1e-13)
        # quadrature route agrees with the Parseval route at p = 2
        w = fields.quad_weight(32)
        assert np.sum(fields.to_grid(f) ** 2) * w == pytest.approx(2.0 * np.pi**2, rel=1e-12)
        assert np.sum(fields.gradient(f) ** 2) * w == pytest.approx(2.0 * np.pi**2, rel=1e-12)

    def test_zero_field(self):
        f = fields.zero_field(3, 16)
        w = fields.quad_weight(16)
        speed = np.sqrt(np.sum(fields.to_grid(f) ** 2, axis=0))
        lp = (np.sum(speed**2.5) * w) ** (1.0 / 2.5)
        lq = (np.sum(speed**3.0) * w) ** (1.0 / 3.0)
        assert l2_norm(f) == fields.grad_l2_norm(f) == lp == lq == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_korn_identity(self, seed):
        u = random_divfree(9, 32, seed)
        d = fields.sym_gradient(u)
        lhs = np.sum(d.modulus() ** 2) * fields.quad_weight(32)
        rhs = 0.5 * fields.grad_l2_norm(u) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_poincare_mean_zero(self):
        for seed in range(20):
            u = random_divfree(9, 32, seed)
            k = u.k_max
            u.coeffs[:, k, k] = 0.0  # remove the mean
            assert l2_norm(u) <= fields.grad_l2_norm(u) * (1.0 + 1e-12)

    def test_convection_cancellation(self):
        # int (u x u) : grad u dx = 0 for solenoidal u
        for seed in range(10):
            u = random_divfree(9, 64, seed)
            g = fields.to_grid(u)
            jac = fields.gradient(u)
            integrand = (
                g[0] * g[0] * jac[0, 0] + g[0] * g[1] * jac[0, 1]
                + g[1] * g[0] * jac[1, 0] + g[1] * g[1] * jac[1, 1]
            )
            val = abs(np.sum(integrand) * fields.quad_weight(64))
            scale = l2_norm(u) ** 3
            assert val < 1e-10 * max(scale, 1.0)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        f = fields.SpectralField(random_hermitian_coeffs(4, 11), 16)
        path = tmp_path / "field.bin"
        fields.save_field(path, f)
        g = fields.load_field(path)
        assert g.grid_size == 16
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_header_layout(self, tmp_path):
        f = fields.zero_field(2, 16)
        path = tmp_path / "field.bin"
        fields.save_field(path, f)
        raw = path.read_bytes()
        assert raw[:4] == b"NSVF"
        version, n, k = np.frombuffer(raw[4:16], dtype="<u4")
        assert (version, n, k) == (1, 16, 2)
        assert len(raw) == 16 + 25 * 2 * 2 * 8  # modes x components x (re, im) x f64

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(ValidationError):
            fields.load_field(path)
