import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvsim import fields
from nsvsim.errors import ConfigurationError, ValidationError
from nsvsim.galerkin import DivFreeBasis

from conftest import full_scatter, full_table, l2_norm, random_divfree, random_hermitian_coeffs, torus_grid, zero_field


class TestTransforms:
    def test_zero_field_round_trip(self):
        f = zero_field(4, 16)
        g = fields.to_grid(f.coeffs, f.grid_size)
        assert np.all(g == 0.0)
        assert np.all(fields.from_grid(g, 4) == 0.0)

    def test_single_mode_is_transform_eigenfunction(self):
        # u = (sin y, 0) samples to sin(y_j) and comes back as the same mode
        f = zero_field(2, 16)
        f.coeffs[0, 2, 1] = -0.5j  # k = (0, 1); (0, -1) is its conjugate
        g = fields.to_grid(f.coeffs, f.grid_size)
        _, yy = torus_grid(16)
        assert np.allclose(g[0], np.sin(yy), atol=1e-14)
        assert np.allclose(g[1], 0.0, atol=1e-14)
        back = fields.from_grid(g, 2)
        assert np.max(np.abs(back - f.coeffs)) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), k_max=st.integers(1, 7))
    def test_round_trip_random_hermitian(self, seed, k_max):
        c = random_hermitian_coeffs(k_max, seed)
        f = fields.SpectralField(c, 32)
        back = fields.from_grid(fields.to_grid(f.coeffs, f.grid_size), k_max)
        scale = np.max(np.abs(c))
        assert np.max(np.abs(back - c)) < 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("n,k_max", [(16, 5), (32, 3), (32, 10), (64, 8), (64, 21), (64, 31)])
    def test_pair_matches_full_spectrum_fft(self, n, k_max):
        # the band-limited pair against an FFT over the whole N x N spectrum
        tables = np.stack([random_hermitian_coeffs(k_max, seed) for seed in range(2)])
        idx = np.arange(-k_max, k_max + 1) % n
        full = np.zeros(tables.shape[:-2] + (n, n), dtype=complex)
        full[..., idx[:, None], idx[None, :]] = full_table(tables)
        ref_grid = np.fft.ifft2(full, norm="forward").real
        grids = fields.to_grid(tables, n)
        assert np.max(np.abs(grids - ref_grid)) <= 1e-14 * np.max(np.abs(ref_grid))
        ref_table = np.fft.fft2(ref_grid, norm="forward")[..., idx[:, None], np.arange(k_max + 1)]
        back = fields.from_grid(ref_grid, k_max)
        assert np.max(np.abs(back - ref_table)) <= 1e-14 * np.max(np.abs(ref_table))

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_highest_band_mode_round_trip(self, n):
        # u = (cos(K x - K y), 0) at K = N/2 - 1, the widest band the grid holds
        k_max = n // 2 - 1
        f = zero_field(k_max, n)
        f.coeffs[0, 0, -1] = 0.5  # k = (-K, K); (K, -K) is its conjugate
        g = fields.to_grid(f.coeffs, n)
        j = np.arange(n)
        expected = np.cos(2.0 * np.pi * (k_max * (j[:, None] - j[None, :]) % n) / n)
        assert np.max(np.abs(g[0] - expected)) < 1e-14
        assert np.all(g[1] == 0.0)
        assert np.max(np.abs(fields.from_grid(g, k_max) - f.coeffs)) < 1e-14

    def test_stacked_transforms_equal_per_row_calls_bitwise(self):
        for n, k_max in [(32, 5), (64, 31)]:
            tables = np.stack([random_hermitian_coeffs(k_max, seed) for seed in range(3)])  # (3, 2, 2K+1, K+1)
            grids = fields.to_grid(tables, n)
            back = fields.from_grid(grids, k_max)
            assert grids.shape == (3, 2, n, n) and back.shape == tables.shape
            for idx in np.ndindex(tables.shape[:2]):
                assert np.array_equal(grids[idx], fields.to_grid(tables[idx], n))
                assert np.array_equal(back[idx], fields.from_grid(grids[idx], k_max))

    def test_cached_matrices_are_read_only(self):
        for m in fields._band_dft(32, 3):
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 0.0

    def test_non_square_grid_rejected(self):
        with pytest.raises(ValidationError):
            fields.from_grid(np.zeros((2, 16, 8)), 2)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            zero_field(8, 16)  # needs N >= 18

    def test_grid_power_of_two_required(self):
        with pytest.raises(ConfigurationError):
            zero_field(4, 24)

    def test_hermitian_and_mean_flow(self):
        f = fields.SpectralField(random_hermitian_coeffs(3, 5), 16)
        assert fields.hermitian_error(f) == 0.0
        assert np.all(f.coeffs[:, 3, 0].imag == 0.0)  # the mean flow is real

    def test_hermitian_error_reads_the_ky_zero_column(self):
        # only the ky = 0 column holds both k and -k: an entry there without
        # its conjugate breaks the symmetry, an entry at ky > 0 cannot
        f = fields.SpectralField(random_hermitian_coeffs(3, 5), 16)
        f.coeffs[1, 4, 2] += 1.0
        assert fields.hermitian_error(f) == 0.0
        f.coeffs[1, 4, 0] += 1.0  # k = (1, 0), not (-1, 0)
        assert fields.hermitian_error(f) > 0.1

    @pytest.mark.parametrize("shape", [(2, 7, 7), (7, 7), (2, 7, 3), (2, 8, 4), (4,)])
    def test_only_ky_half_tables_accepted(self, shape):
        # a full (2K+1, 2K+1) table, or any other shape, names the one format
        with pytest.raises(ValidationError, match=r"\(\.\.\., 2K\+1, K\+1\)"):
            fields.to_grid(np.zeros(shape, dtype=complex), 16)
        if len(shape) == 3:
            with pytest.raises(ValidationError, match=r"\(2, 2K\+1, K\+1\)"):
                fields.SpectralField(np.zeros(shape, dtype=complex), 16)


class TestSymGradient:
    def _fd_sym_gradient(self, g: np.ndarray) -> tuple[np.ndarray, ...]:
        # central differences on the periodic grid, the independent oracle
        n = g.shape[-1]
        h = 2.0 * np.pi / n
        dx = lambda a: (np.roll(a, -1, axis=0) - np.roll(a, 1, axis=0)) / (2 * h)
        dy = lambda a: (np.roll(a, -1, axis=1) - np.roll(a, 1, axis=1)) / (2 * h)
        return dx(g[0]), 0.5 * (dy(g[0]) + dx(g[1])), dy(g[1])

    def test_stack_equals_single_fields(self):
        # sym_gradient and sym_modulus over a leading (M,) axis, bit for bit
        jac = np.stack([fields.gradient(random_divfree(6, 32, seed)) for seed in range(4)])
        d = fields.sym_gradient(jac)
        mod = fields.sym_modulus(d)
        assert d.shape == (4, 3, 32, 32) and mod.shape == (4, 32, 32)
        for i in range(4):
            assert np.array_equal(d[i], fields.sym_gradient(jac[i]))
            assert np.array_equal(mod[i], fields.sym_modulus(d[i]))

    def test_zero(self):
        d = fields.sym_gradient(fields.gradient(zero_field(3, 16)))
        assert np.all(d[0] == 0.0) and np.all(d[1] == 0.0) and np.all(d[2] == 0.0)

    def test_shear_closed_form(self):
        f = zero_field(2, 32)
        f.coeffs[0, 2, 1] = -0.5j  # u = (sin y, 0)
        d = fields.sym_gradient(fields.gradient(f))
        _, yy = torus_grid(32)
        assert np.allclose(d[1], 0.5 * np.cos(yy), atol=1e-13)
        assert np.allclose(d[0], 0.0, atol=1e-13)
        assert np.allclose(d[2], 0.0, atol=1e-13)

    def test_periodic_rotation_matches_finite_differences(self):
        # u = (-sin y, sin x): D = [[0, (cos x - cos y)/2], [(cos x - cos y)/2, 0]]
        n = 128
        xx, yy = torus_grid(n)
        g = np.stack([-np.sin(yy), np.sin(xx)])
        f = fields.SpectralField(fields.from_grid(g, 4), n)
        d = fields.sym_gradient(fields.gradient(f))
        assert np.allclose(d[1], 0.5 * (np.cos(xx) - np.cos(yy)), atol=1e-13)
        fd = self._fd_sym_gradient(g)
        # second-order oracle on a fine grid
        assert np.max(np.abs(d[1] - fd[1])) < 1e-3
        assert np.max(np.abs(d[0] - fd[0])) < 1e-3


class TestLeray:
    def test_gradients_annihilated(self):
        n = 32
        xx, yy = torus_grid(n)
        grad_chi = np.stack([np.cos(xx) * np.sin(yy), np.sin(xx) * np.cos(yy)])
        p = fields.leray_project(grad_chi, 8)
        assert np.max(np.abs(p.coeffs)) < 1e-14

    def test_idempotent_on_solenoidal(self, rng):
        f = random_divfree(6, 32, seed=3)
        again = fields.leray_project(fields.to_grid(f.coeffs, f.grid_size), 6)
        assert np.max(np.abs(again.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_projection_identity_mode_by_mode(self, rng):
        v = rng.standard_normal((2, 32, 32))
        p = fields.leray_project(v, 9)
        assert fields.divergence_error(p) < 1e-12
        # remainder v - P v is curl-free: curl of the difference vanishes
        diff = fields.from_grid(v, 9) - p.coeffs
        kx, ky = fields.wavenumbers(9)
        curl = kx * diff[1] - ky * diff[0]
        assert np.max(np.abs(curl)) < 1e-12 * max(np.max(np.abs(diff)), 1.0)

    def test_double_projection(self, rng):
        v = rng.standard_normal((2, 32, 32))
        p1 = fields.leray_project(v, 9)
        p2 = fields.leray_project(fields.to_grid(p1.coeffs, p1.grid_size), 9)
        assert np.max(np.abs(p2.coeffs - p1.coeffs)) < 1e-14 * max(np.max(np.abs(p1.coeffs)), 1.0)


class TestModulus:
    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("shape", [(10000, 1, 1), (4, 8, 8), (2, 3, 16, 16), (2, 64, 64)])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_the_one_vector_modulus(self, m, shape, scale):
        # over leading axes each slice is its own call, and the in-place
        # component sum is bit for bit NumPy's sum over axis -3
        lead, grid = shape[:-2], shape[-2:]
        v = scale * np.random.default_rng(m).standard_normal(lead + (m,) + grid)
        mod = fields.modulus(v)
        assert mod.shape == shape
        assert np.array_equal(mod, np.sqrt(np.sum(v**2, axis=-3)))
        for i in range(lead[0] if lead else 0):
            assert np.array_equal(mod[i], fields.modulus(v[i]))
        if m == 2:
            assert np.array_equal(mod, np.linalg.norm(v, axis=-3))


class TestNorms:
    def test_shear_closed_forms(self):
        f = zero_field(2, 32)
        f.coeffs[0, 2, 1] = -0.5j  # u = (sin y, 0)
        assert l2_norm(f) ** 2 == pytest.approx(2.0 * np.pi**2, rel=1e-13)
        assert fields.grad_l2_norm(f) ** 2 == pytest.approx(2.0 * np.pi**2, rel=1e-13)
        # quadrature route agrees with the Parseval route at p = 2
        w = fields.quad_weight(32)
        assert np.sum(fields.to_grid(f.coeffs, f.grid_size) ** 2) * w == pytest.approx(2.0 * np.pi**2, rel=1e-12)
        assert np.sum(fields.gradient(f) ** 2) * w == pytest.approx(2.0 * np.pi**2, rel=1e-12)

    def test_zero_field(self):
        f = zero_field(3, 16)
        w = fields.quad_weight(16)
        speed = np.sqrt(np.sum(fields.to_grid(f.coeffs, f.grid_size) ** 2, axis=0))
        lp = (np.sum(speed**2.5) * w) ** (1.0 / 2.5)
        lq = (np.sum(speed**3.0) * w) ** (1.0 / 3.0)
        assert l2_norm(f) == fields.grad_l2_norm(f) == lp == lq == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_korn_identity(self, seed):
        u = random_divfree(9, 32, seed)
        d = fields.sym_gradient(fields.gradient(u))
        lhs = np.sum(fields.sym_modulus(d) ** 2) * fields.quad_weight(32)
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
            g = fields.to_grid(u.coeffs, u.grid_size)
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

    def test_rewrite_is_byte_identical_to_the_full_table_writer(self, tmp_path):
        # 31 modes on grid 32 hold ky < 0 representatives; the file lists every
        # mode of the full table, each ky < 0 one as the conjugate of its -k
        # entry, and an empty cell as +0.0, as a writer of full tables does
        basis = DivFreeBasis(31, 32)
        assert np.any(basis.ky < 0)
        c = np.random.default_rng(3).standard_normal(basis.n)
        first, again, ref = (tmp_path / name for name in ("first.bin", "again.bin", "ref.bin"))
        fields.save_field(first, fields.SpectralField(basis.scatter(c), 32))
        fields.save_field(again, fields.load_field(first))
        assert again.read_bytes() == first.read_bytes()
        full, k = full_scatter(basis, c), basis.k_max
        values = np.empty((len(fields.mode_table(k)), 2, 2), dtype="<f8")
        for i, (kx, ky) in enumerate(fields.mode_table(k)):
            values[i, :, 0] = full[:, kx + k, ky + k].real
            values[i, :, 1] = full[:, kx + k, ky + k].imag
        ref.write_bytes(b"NSVF" + np.array([1, 32, k], dtype="<u4").tobytes() + values.tobytes())
        assert first.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("mode, bump", [((1, -1), 1e-6), ((1, -1), np.nan), ((1, 1), np.inf)])
    def test_non_hermitian_snapshot_rejected(self, tmp_path, mode, bump):
        # the (1, -1) entry is not kept in memory, so a file where it is not
        # the conjugate of (-1, 1) cannot be read as the table of a real field;
        # nor can one with a nonfinite entry
        path = tmp_path / "field.bin"
        fields.save_field(path, fields.SpectralField(random_hermitian_coeffs(2, 4), 16))
        raw = bytearray(path.read_bytes())
        offset = 16 + 32 * fields.mode_table(2).index(mode)
        raw[offset:offset + 8] = (np.frombuffer(raw[offset:offset + 8], "<f8") + bump).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="real field|nonfinite"):
            fields.load_field(path)

    def test_header_layout(self, tmp_path):
        f = zero_field(2, 16)
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

    @pytest.mark.parametrize("cut", [10, 16 + 25 * 32 - 5, 16 + 24 * 32])
    def test_truncated_file_rejected(self, tmp_path, cut):
        # cut inside the 16-byte header, mid-value in the payload, on a mode boundary
        path = tmp_path / "field.bin"
        fields.save_field(path, zero_field(2, 16))
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValidationError, match="truncated|payload"):
            fields.load_field(path)
