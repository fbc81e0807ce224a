"""Spectral vector/tensor field algebra on the 2D periodic torus [0, 2pi)^2.

Velocity fields live either as grid samples or as a truncated table of
Fourier coefficients indexed by wavevectors ``k`` with ``|k_x|, |k_y| <= k_max``.
Differential operators act in coefficient space; nonlinear products are formed
on the grid and truncated by the 2/3 rule.  One layout serves every pointwise
operator, over any leading axes: vectors ``(..., 2, N, N)``, symmetric tensors
``(..., 3, N, N)`` of their xx, xy, yy entries, Jacobians ``(..., 2, 2, N, N)``,
with ``2K+1, 2K+1`` for ``N, N`` in coefficient tables.  Operators reduce over
the component axis -3 or the trailing axes, never over axis 0.

One transform pair, :func:`to_grid`/:func:`from_grid`, maps centered tables
(..., 2K+1, 2K+1) to grid samples (..., N, N) and back over any leading axes,
so a stack of rows takes one call.  Both are band-limited DFTs done as two
matmuls by cached (N, K) matrices, and both keep only the ky >= 0 half:
:func:`to_grid` assumes Hermitian tables (every real field's table is one)
and :func:`from_grid` fills the ky < 0 half by conjugation.  One field costs
O(N^2 K), against O(N^2 log N) for an FFT over the grid: faster at the narrow
bands the Galerkin systems use (K = 3 at grid 32, K = 8 at grid 64) and at
the pressure's K = N/3, about on par at full band on grid 64 (K = 31), and
about 2x slower at full band on grid 128, where no experiment runs.

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
    """Centered wavenumber grids (kx varies along axis 0, ky along axis 1)."""
    k = np.arange(-k_max, k_max + 1)
    return k[:, None].astype(float), k[None, :].astype(float)


@dataclass
class SpectralField:
    """Truncated Fourier representation of a real 2-component field.

    ``coeffs[c, kx + k_max, ky + k_max]`` is the coefficient of component
    ``c`` at wavevector ``(kx, ky)``.  Real-valuedness of the field is the
    Hermitian symmetry ``coeffs[-k] == conj(coeffs[k])``.
    """

    coeffs: np.ndarray
    grid_size: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 3 or self.coeffs.shape[0] != 2:
            raise ValidationError(f"coeffs must have shape (2, 2K+1, 2K+1), got {self.coeffs.shape}")
        if self.coeffs.shape[1] != self.coeffs.shape[2] or self.coeffs.shape[1] % 2 == 0:
            raise ValidationError(f"coeffs must have shape (2, 2K+1, 2K+1), got {self.coeffs.shape}")
        _check_grid(self.grid_size, self.k_max)

    @property
    def k_max(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2


def hermitian_error(f: SpectralField) -> float:
    """Max deviation from coeff(-k) = conj(coeff(k)), relative to the field scale."""
    c = f.coeffs
    err = np.max(np.abs(c - np.conj(c[:, ::-1, ::-1])))
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


def to_grid(table: np.ndarray, grid_size: int) -> np.ndarray:
    """Grid samples (..., N, N) of real fields from their centered coefficient
    tables (..., 2K+1, 2K+1), over any leading axes: a complex matmul over kx
    of the K+1 columns ky >= 0, then a real matmul over ky.  Only that half
    is read: the tables must be Hermitian, ``table[-k] == conj(table[k])``, as
    every table of a real field is.  Cost O(N^2 K) per field; each table of a
    stack goes through matmuls of its own fixed shape, so its samples are bit
    for bit those of its own call."""
    return _half_to_grid(table[..., (table.shape[-1] - 1) // 2:], grid_size)


def _half_to_grid(half: np.ndarray, grid_size: int) -> np.ndarray:
    """:func:`to_grid` of tables given by their ky >= 0 halves (..., 2K+1, K+1)."""
    k = half.shape[-1] - 1
    _check_grid(grid_size, k)
    ex, ey, _, _ = _band_dft(grid_size, k)
    return (ex @ half).view(float) @ ey


def from_grid(v: np.ndarray, k_max: int) -> np.ndarray:
    """Centered coefficient tables (..., 2K+1, 2K+1), K = ``k_max``, of real
    grid fields (..., N, N), over any leading axes: a real matmul over y onto
    the K+1 columns 0 <= ky <= K, then a complex matmul over x; the ky < 0
    half is filled by conjugation.  Cost O(N^2 K) per field; each field of a
    stack goes through matmuls of its own fixed shape, so its table is bit
    for bit that of its own call."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValidationError(f"expected grid fields of shape (..., N, N), got {v.shape}")
    n = v.shape[-1]
    _check_grid(n, k_max)
    _, _, fx, fy = _band_dft(n, k_max)
    table = np.empty(v.shape[:-2] + (2 * k_max + 1, 2 * k_max + 1), dtype=complex)
    table[..., k_max:] = fx @ (v @ fy).view(complex)
    table[..., :k_max] = np.conj(table[..., ::-1, :k_max:-1])
    return table


def gradient_table(coeffs: np.ndarray) -> np.ndarray:
    """Jacobian tables (..., 2, 2, 2K+1, 2K+1), ``out[..., i, j] = i k_i coeffs[..., j]``,
    of vector tables (..., 2, 2K+1, 2K+1)."""
    kx, ky = wavenumbers((coeffs.shape[-1] - 1) // 2)
    return np.stack([1j * kx * coeffs, 1j * ky * coeffs], axis=-4)


def gradient(f: SpectralField) -> np.ndarray:
    """Jacobian on the grid: J[i, j] = d_i u_j, shape (2, 2, N, N)."""
    return to_grid(gradient_table(f.coeffs), f.grid_size)


def tensor_divergence(t: np.ndarray) -> np.ndarray:
    """Coefficient table (..., 2, 2K+1, 2K+1) of div T for the tables
    (..., 3, 2K+1, 2K+1) of a symmetric tensor's xx, xy and yy entries."""
    kx, ky = wavenumbers((t.shape[-1] - 1) // 2)
    xx, xy, yy = t[..., 0, :, :], t[..., 1, :, :], t[..., 2, :, :]
    return np.stack([1j * (kx * xx + ky * xy), 1j * (kx * xy + ky * yy)], axis=-3)


def sym_gradient(jac: np.ndarray) -> np.ndarray:
    """Symmetric part D = (J + J^T) / 2 of Jacobians J[..., i, j] = d_i u_j of
    shape (..., 2, 2, N, N), as the (..., 3, N, N) stack of its xx, xy, yy entries."""
    return np.stack([jac[..., 0, 0, :, :], 0.5 * (jac[..., 1, 0, :, :] + jac[..., 0, 1, :, :]),
                     jac[..., 1, 1, :, :]], axis=-3)


def sym_contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise double contraction A:B = A11 B11 + 2 A12 B12 + A22 B22 of
    symmetric tensors (..., 3, N, N), over the entry axis -3."""
    return (a[..., 0, :, :] * b[..., 0, :, :] + 2.0 * a[..., 1, :, :] * b[..., 1, :, :]
            + a[..., 2, :, :] * b[..., 2, :, :])


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
    kx, ky = wavenumbers(f.k_max)
    k2 = kx * kx + ky * ky
    return float(np.sqrt(AREA * np.sum(k2[None, :, :] * np.abs(f.coeffs) ** 2)))


def save_field(path, f: SpectralField) -> None:
    """Write the snapshot format: magic, u32 version, u32 N, u32 K, then per
    mode in canonical order two (re, im) f64 pairs (components interleaved)."""
    k = f.k_max
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_VERSION, f.grid_size, k))
        out = np.empty((len(mode_table(k)), 2, 2), dtype="<f8")
        for i, (kx, ky) in enumerate(mode_table(k)):
            c = f.coeffs[:, kx + k, ky + k]
            out[i, :, 0] = c.real
            out[i, :, 1] = c.imag
        fh.write(out.tobytes())


def load_field(path) -> SpectralField:
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
        payload = fh.read()
    n_modes = (2 * k + 1) ** 2  # len(mode_table(k)), known before building the table
    if len(payload) != n_modes * 32:
        raise ValidationError(
            f"snapshot payload is {len(payload)} bytes, K={k} needs {n_modes * 32}"
        )
    table = mode_table(k)
    raw = np.frombuffer(payload, dtype="<f8").reshape(n_modes, 2, 2)
    coeffs = np.zeros((2, 2 * k + 1, 2 * k + 1), dtype=complex)
    for i, (kx, ky) in enumerate(table):
        coeffs[:, kx + k, ky + k] = raw[i, :, 0] + 1j * raw[i, :, 1]
    return SpectralField(coeffs, int(n))
