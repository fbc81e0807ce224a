"""Spectral vector/tensor field algebra on the 2D periodic torus [0, 2pi)^2.

Velocity fields live either as grid samples (shape ``(2, N, N)``) or as a
truncated table of Fourier coefficients indexed by wavevectors ``k`` with
``|k_x|, |k_y| <= k_max``.  Differential operators act in coefficient space;
nonlinear products are formed on the grid and truncated by the 2/3 rule.

Conventions: ``u(x) = sum_k uhat(k) exp(i k.x)``, grid points ``x_j = 2 pi j / N``,
L2 inner product ``(u, v) = 4 pi^2 sum_k uhat(k) . conj(vhat(k))``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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

    def mean_flow(self) -> np.ndarray:
        """The k=0 coefficient (spatial mean of each component)."""
        k = self.k_max
        return self.coeffs[:, k, k].real.copy()


def zero_field(k_max: int, grid_size: int) -> SpectralField:
    return SpectralField(np.zeros((2, 2 * k_max + 1, 2 * k_max + 1), dtype=complex), grid_size)


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


def to_grid(f: SpectralField) -> np.ndarray:
    """Sample the field on its N x N grid.  Inverse of :func:`from_grid`."""
    n, k = f.grid_size, f.k_max
    big = np.zeros((2, n, n), dtype=complex)
    idx = np.arange(-k, k + 1) % n
    big[:, idx[:, None], idx[None, :]] = f.coeffs
    return np.fft.ifft2(big, axes=(1, 2)).real * n * n


def from_grid(v: np.ndarray, k_max: int) -> SpectralField:
    """Project grid samples onto the retained coefficient table."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 3 or v.shape[0] != 2 or v.shape[1] != v.shape[2]:
        raise ValidationError(f"expected grid field of shape (2, N, N), got {v.shape}")
    n = v.shape[1]
    _check_grid(n, k_max)
    big = np.fft.fft2(v, axes=(1, 2)) / (n * n)
    idx = np.arange(-k_max, k_max + 1) % n
    return SpectralField(big[:, idx[:, None], idx[None, :]].copy(), n)


def scalar_to_grid(coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    """Grid samples of a scalar field given its centered coefficient table."""
    k = (coeffs.shape[0] - 1) // 2
    big = np.zeros((grid_size, grid_size), dtype=complex)
    idx = np.arange(-k, k + 1) % grid_size
    big[idx[:, None], idx[None, :]] = coeffs
    return np.fft.ifft2(big).real * grid_size * grid_size


def scalar_from_grid(v: np.ndarray, k_max: int) -> np.ndarray:
    """Centered coefficient table of a scalar grid field."""
    n = v.shape[0]
    big = np.fft.fft2(v) / (n * n)
    idx = np.arange(-k_max, k_max + 1) % n
    return big[idx[:, None], idx[None, :]].copy()


def gradient(f: SpectralField) -> np.ndarray:
    """Jacobian on the grid: J[i, j] = d_i u_j, shape (2, 2, N, N)."""
    kx, ky = wavenumbers(f.k_max)
    out = np.empty((2, 2, f.grid_size, f.grid_size))
    for j in range(2):
        gx = SpectralField(
            np.stack([1j * kx * f.coeffs[j], 1j * ky * f.coeffs[j]]), f.grid_size
        )
        g = to_grid(gx)
        out[0, j] = g[0]
        out[1, j] = g[1]
    return out


@dataclass
class SymTensorField:
    """Symmetric 2x2 tensor field on the grid, stored as its 3 independent entries."""

    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray
    grid_size: int = field(default=0)

    def __post_init__(self):
        self.xx = np.asarray(self.xx, dtype=float)
        self.xy = np.asarray(self.xy, dtype=float)
        self.yy = np.asarray(self.yy, dtype=float)
        if not (self.xx.shape == self.xy.shape == self.yy.shape):
            raise ValidationError("tensor components must share a shape")
        self.grid_size = self.xx.shape[0]

    def modulus(self) -> np.ndarray:
        """Pointwise Frobenius modulus |T| = sqrt(T11^2 + 2 T12^2 + T22^2)."""
        return np.sqrt(self.xx**2 + 2.0 * self.xy**2 + self.yy**2)

    def contract(self, other: "SymTensorField") -> np.ndarray:
        """Pointwise double contraction T:S."""
        return self.xx * other.xx + 2.0 * self.xy * other.xy + self.yy * other.yy

    def scaled(self, w: np.ndarray) -> "SymTensorField":
        return SymTensorField(w * self.xx, w * self.xy, w * self.yy)


def sym_gradient(u: SpectralField) -> SymTensorField:
    """Symmetric part of the velocity gradient, D(u) = (grad u + grad u^T) / 2."""
    j = gradient(u)
    return SymTensorField(j[0, 0], 0.5 * (j[1, 0] + j[0, 1]), j[1, 1])


def leray_project(v: np.ndarray, k_max: int) -> SpectralField:
    """Project grid samples onto divergence-free fields (Fourier multiplier I - kk^T/|k|^2)."""
    f = from_grid(v, k_max)
    kx, ky = wavenumbers(k_max)
    k2 = kx * kx + ky * ky
    k2s = np.where(k2 == 0, 1.0, k2)
    dots = (kx * f.coeffs[0] + ky * f.coeffs[1]) / k2s
    f.coeffs[0] -= kx * dots
    f.coeffs[1] -= ky * dots
    return f


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
        version, n, k = struct.unpack("<III", fh.read(12))
        if version != SNAPSHOT_VERSION:
            raise ValidationError(f"unsupported snapshot version {version}")
        table = mode_table(k)
        raw = np.frombuffer(fh.read(len(table) * 32), dtype="<f8").reshape(len(table), 2, 2)
    coeffs = np.zeros((2, 2 * k + 1, 2 * k + 1), dtype=complex)
    for i, (kx, ky) in enumerate(table):
        coeffs[:, kx + k, ky + k] = raw[i, :, 0] + 1j * raw[i, :, 1]
    return SpectralField(coeffs, int(n))
