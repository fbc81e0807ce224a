"""Spectral vector/tensor field algebra on the 2D periodic torus [0, 2pi)^2.

Velocity fields live either as grid samples or as a truncated table of
Fourier coefficients indexed by wavevectors ``k`` with ``|k_x|, |k_y| <= k_max``.
Every field is real, so its table is Hermitian, ``coeff(-k) = conj(coeff(k))``,
and only its ky >= 0 half is kept, ``table[..., kx + K, ky]``: that is the one
table format, and full tables exist only in the snapshot file.
Differential operators act in coefficient space; nonlinear products are formed
on the grid and truncated by the 2/3 rule.  One layout serves every pointwise
operator, over any leading axes: vectors ``(..., 2, N, N)``, symmetric tensors
``(..., 3, N, N)`` of their xx, xy, yy entries, Jacobians ``(..., 2, 2, N, N)``,
with ``2K+1, K+1`` for ``N, N`` in coefficient tables.  Operators reduce over
the component axis -3 or the trailing axes, never over axis 0.

One transform pair, :func:`to_grid`/:func:`from_grid`, maps tables to grid
samples (..., N, N) and back over any leading axes, so a stack of rows takes
one call.  Both are band-limited DFTs done as two matmuls by cached (N, K)
matrices.  One field costs O(N^2 K), against O(N^2 log N) for an FFT over the
grid: faster at the narrow bands the Galerkin systems use (K = 3 at grid 32,
K = 8 at grid 64) and at the pressure's K = N/3, about on par at full band on
grid 64 (K = 31), and about 2x slower at full band on grid 128, where no
experiment runs.

Conventions: ``u(x) = sum_k uhat(k) exp(i k.x)``, grid points ``x_j = 2 pi j / N``,
L2 inner product ``(u, v) = 4 pi^2 sum_k uhat(k) . conj(vhat(k))``.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError

TWO_PI = 2.0 * np.pi
AREA = TWO_PI * TWO_PI

SNAPSHOT_MAGIC = b"NSVF"
SNAPSHOT_VERSION = 1


def _check_grid(grid_size: int, k_max: int) -> None:
    if grid_size < 2 * k_max + 2:
        raise ConfigurationError(
            f"grid_size={grid_size} too small for k_max={k_max}: need >= {2 * k_max + 2}"
        )
    if grid_size & (grid_size - 1):
        raise ConfigurationError(f"grid_size={grid_size} is not a power of two")


def mode_table(k_max: int) -> list[tuple[int, int]]:
    """All wavevectors with |k_x|, |k_y| <= k_max, sorted by (|k|^2, k_x, k_y).

    This ordering is the canonical one: snapshot files store coefficients in
    it, and "the first n modes" of any truncation refers to it.
    """
    modes = [
        (kx, ky)
        for kx in range(-k_max, k_max + 1)
        for ky in range(-k_max, k_max + 1)
    ]
    modes.sort(key=lambda k: (k[0] * k[0] + k[1] * k[1], k[0], k[1]))
    return modes


def wavenumbers(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumbers of a table: kx = -K..K along axis 0, ky = 0..K along axis 1."""
    return (np.arange(-k_max, k_max + 1)[:, None].astype(float),
            np.arange(k_max + 1)[None, :].astype(float))


@dataclass
class SpectralField:
    """Truncated Fourier representation of a real 2-component field.

    ``coeffs[c, kx + k_max, ky]`` is the coefficient of component ``c`` at
    wavevector ``(kx, ky)``, ky >= 0: the table's half, (2, 2K+1, K+1).
    """

    coeffs: np.ndarray
    grid_size: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        shape = self.coeffs.shape
        if len(shape) != 3 or shape[0] != 2 or shape[1] != 2 * shape[2] - 1:
            raise ValidationError(f"coeffs must have shape (2, 2K+1, K+1), got {self.coeffs.shape}")
        _check_grid(self.grid_size, self.k_max)

    @property
    def k_max(self) -> int:
        return self.coeffs.shape[-1] - 1


def hermitian_error(f: SpectralField) -> float:
    """Max deviation from coeff(-k) = conj(coeff(k)) over the ky = 0 column,
    the only entries of a table with both k and -k, relative to the field scale."""
    c = f.coeffs[:, :, 0]
    err = np.max(np.abs(c - np.conj(c[:, ::-1])))
    scale = max(np.max(np.abs(c)), 1e-300)
    return float(err / scale)


def divergence_error(f: SpectralField) -> float:
    """Max |k.uhat(k)| relative to the field scale (0 for solenoidal fields)."""
    kx, ky = wavenumbers(f.k_max)
    dots = kx * f.coeffs[0] + ky * f.coeffs[1]
    scale = max(np.max(np.abs(f.coeffs)), 1e-300)
    return float(np.max(np.abs(dots)) / scale)


@functools.lru_cache(maxsize=32)
def _band_dft(grid_size: int, k_max: int) -> tuple:
    """Read-only matrices (ex, ey, fx, fy) of the transform pair on an N-grid
    over the band |kx|, ky <= K, N = ``grid_size``, K = ``k_max``:

    - ex (N, 2K+1): e^{+i kx x_j}, rows x_j, columns kx = -K..K;
    - ey (2(K+1), N): rows alternating w cos(ky y_j) and -w sin(ky y_j) for
      ky = 0..K, with w = 1 at ky = 0 and 2 above, so that a complex
      (..., N, K+1) half viewed as reals times ey is the real field;
    - fx (2K+1, N) and fy (N, 2(K+1)): the forward ones, e^{-i kx x_j} / N
      and columns alternating cos(ky y_j) / N and -sin(ky y_j) / N.

    Phases are reduced exactly, 2 pi ((k j) mod N) / N: the float product
    k x_j would lose about K eps."""
    j = np.arange(grid_size)
    step = TWO_PI / grid_size
    ex = np.exp(1j * step * (np.outer(j, np.arange(-k_max, k_max + 1)) % grid_size))
    phase_y = step * (np.outer(np.arange(k_max + 1), j) % grid_size)
    cos_y, sin_y = np.cos(phase_y), np.sin(phase_y)
    w = np.where(np.arange(k_max + 1) == 0, 1.0, 2.0)[:, None]
    ey = np.empty((2 * (k_max + 1), grid_size))
    ey[0::2], ey[1::2] = w * cos_y, -w * sin_y
    fy = np.empty((grid_size, 2 * (k_max + 1)))
    fy[:, 0::2], fy[:, 1::2] = cos_y.T / grid_size, -sin_y.T / grid_size
    fx = np.conj(ex.T) / grid_size
    for m in (ex, ey, fx, fy):
        m.flags.writeable = False
    return ex, ey, fx, fy


def to_grid(table: np.ndarray, grid_size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Grid samples (..., N, N) of real fields from their tables
    (..., 2K+1, K+1), over any leading axes: a complex matmul over kx, then a
    real matmul over ky that counts each ky > 0 column twice, once for its
    conjugate.  Cost O(N^2 K) per field; each table of a stack goes through
    matmuls of its own fixed shape, so its samples are bit for bit those of
    its own call.  As in NumPy, ``out`` is an array to write the samples to."""
    if np.ndim(table) < 2 or table.shape[-2] != 2 * table.shape[-1] - 1:
        raise ValidationError(f"expected ky >= 0 half tables (..., 2K+1, K+1), got {np.shape(table)}")
    k = table.shape[-1] - 1
    _check_grid(grid_size, k)
    ex, ey, _, _ = _band_dft(grid_size, k)
    return np.matmul((ex @ table).view(float), ey, out=out)


def from_grid(v: np.ndarray, k_max: int) -> np.ndarray:
    """Tables (..., 2K+1, K+1), K = ``k_max``, of real grid fields
    (..., N, N), over any leading axes: a real matmul over y onto the columns
    ky = 0..K, then a complex matmul over x.  Cost O(N^2 K) per field; each
    field of a stack goes through matmuls of its own fixed shape, so its
    table is bit for bit that of its own call."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValidationError(f"expected grid fields of shape (..., N, N), got {v.shape}")
    n = v.shape[-1]
    _check_grid(n, k_max)
    _, _, fx, fy = _band_dft(n, k_max)
    return fx @ (v @ fy).view(complex)


def gradient_table(coeffs: np.ndarray) -> np.ndarray:
    """Jacobian tables (..., 2, 2, 2K+1, K+1), ``out[..., i, j] = i k_i coeffs[..., j]``,
    of vector tables (..., 2, 2K+1, K+1)."""
    kx, ky = wavenumbers(coeffs.shape[-1] - 1)
    return np.stack([1j * kx * coeffs, 1j * ky * coeffs], axis=-4)


def gradient(f: SpectralField) -> np.ndarray:
    """Jacobian on the grid: J[i, j] = d_i u_j, shape (2, 2, N, N)."""
    return to_grid(gradient_table(f.coeffs), f.grid_size)


def tensor_divergence(t: np.ndarray) -> np.ndarray:
    """Tables (..., 2, 2K+1, K+1) of div T for the tables (..., 3, 2K+1, K+1)
    of a symmetric tensor's xx, xy and yy entries."""
    kx, ky = wavenumbers(t.shape[-1] - 1)
    xx, xy, yy = t[..., 0, :, :], t[..., 1, :, :], t[..., 2, :, :]
    return np.stack([1j * (kx * xx + ky * xy), 1j * (kx * xy + ky * yy)], axis=-3)


def sym_gradient(jac: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Symmetric part D = (J + J^T) / 2 of Jacobians J[..., i, j] = d_i u_j of
    shape (..., 2, 2, N, N), as the (..., 3, N, N) stack of its xx, xy, yy
    entries, written to ``out`` if given, as in NumPy."""
    return np.stack([jac[..., 0, 0, :, :], 0.5 * (jac[..., 1, 0, :, :] + jac[..., 0, 1, :, :]),
                     jac[..., 1, 1, :, :]], axis=-3, out=out)


def sym_contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise double contraction A:B = A11 B11 + 2 A12 B12 + A22 B22 of
    symmetric tensors (..., 3, N, N), over the entry axis -3."""
    return (a[..., 0, :, :] * b[..., 0, :, :] + 2.0 * a[..., 1, :, :] * b[..., 1, :, :]
            + a[..., 2, :, :] * b[..., 2, :, :])


def modulus(v: np.ndarray) -> np.ndarray:
    """Pointwise modulus sqrt(sum_i v_i^2) over the component axis -3 of grid
    samples (..., m, N, N), summed one component at a time in place: |u| of
    velocities (m = 2), |grad u| of Jacobians flattened to m = 4."""
    out = np.square(v[..., 0, :, :])
    for i in range(1, v.shape[-3]):
        out += np.square(v[..., i, :, :])
    return np.sqrt(out, out=out)


def sym_modulus(t: np.ndarray) -> np.ndarray:
    """Pointwise Frobenius modulus |T| = sqrt(T11^2 + 2 T12^2 + T22^2) of
    symmetric tensors (..., 3, N, N)."""
    return np.sqrt(t[..., 0, :, :] ** 2 + 2.0 * t[..., 1, :, :] ** 2 + t[..., 2, :, :] ** 2)


def leray_project(v: np.ndarray, k_max: int) -> SpectralField:
    """Project grid samples onto divergence-free fields (Fourier multiplier I - kk^T/|k|^2)."""
    c = from_grid(v, k_max)
    kx, ky = wavenumbers(k_max)
    k2 = kx * kx + ky * ky
    dots = (kx * c[0] + ky * c[1]) / np.where(k2 == 0, 1.0, k2)
    return SpectralField(np.stack([c[0] - kx * dots, c[1] - ky * dots]), np.shape(v)[-1])


def quad_weight(grid_size: int) -> float:
    """Trapezoid weight per grid cell (exact for periodic trigonometric polynomials)."""
    return (TWO_PI / grid_size) ** 2


def grad_l2_norm(f: SpectralField) -> float:
    """||grad u||_2 by Parseval; each ky > 0 entry stands for itself and its conjugate."""
    kx, ky = wavenumbers(f.k_max)
    weight = (kx * kx + ky * ky) * np.where(ky > 0, 2.0, 1.0)
    return float(np.sqrt(AREA * np.sum(weight * np.abs(f.coeffs) ** 2)))


def save_field(path, f: SpectralField) -> None:
    """Write the snapshot format: magic, u32 version, u32 N, u32 K, then per
    mode of the full table in canonical order two (re, im) f64 pairs
    (components interleaved).  A ky < 0 mode is the conjugate of its -k
    entry, its imaginary part written 0.0 - imag so that zeros stay +0.0."""
    k = f.k_max
    kx, ky = np.array(mode_table(k)).T
    flip = ky < 0
    c = f.coeffs[:, np.where(flip, -kx, kx) + k, np.abs(ky)].T  # (modes, 2)
    out = np.empty(c.shape + (2,), dtype="<f8")
    out[..., 0] = c.real
    out[..., 1] = np.where(flip[:, None], 0.0 - c.imag, c.imag)
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, f.grid_size, k))
        fh.write(out.tobytes())


def load_field(path) -> SpectralField:
    """Read a snapshot written by :func:`save_field`; a file that is not one,
    a bad header grid included, raises ValidationError.  Its table must be
    Hermitian to 1e-12 of its largest entry, since only the ky >= 0 half is
    kept: a table that is not would lose its ky < 0 entries unseen."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValidationError(f"bad snapshot magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise ValidationError(f"snapshot header truncated: {len(header)} of 12 bytes")
        version, n, k = struct.unpack("<III", header)
        if version != SNAPSHOT_VERSION:
            raise ValidationError(f"unsupported snapshot version {version}")
        try:
            _check_grid(n, k)
        except ConfigurationError as exc:
            raise ValidationError(f"bad snapshot header: {exc}") from None
        payload = fh.read()
    n_modes = (2 * k + 1) ** 2  # len(mode_table(k)), known before building the table
    if len(payload) != n_modes * 32:
        raise ValidationError(
            f"snapshot payload is {len(payload)} bytes, K={k} needs {n_modes * 32}"
        )
    kx, ky = np.array(mode_table(k)).T
    raw = np.frombuffer(payload, dtype="<f8").reshape(n_modes, 2, 2)
    table = np.zeros((2, 2 * k + 1, 2 * k + 1), dtype=complex)
    table[:, kx + k, ky + k] = (raw[:, :, 0] + 1j * raw[:, :, 1]).T
    if not np.isfinite(table).all():
        raise ValidationError("snapshot holds a nonfinite coefficient")
    defect = np.max(np.abs(table - np.conj(table[:, ::-1, ::-1])))
    if defect > 1e-12 * np.max(np.abs(table)):
        raise ValidationError(f"snapshot is not the table of a real field: defect {defect:.3e}")
    return SpectralField(np.ascontiguousarray(table[:, :, k:]), int(n))
