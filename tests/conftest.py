import numpy as np
import pytest

from nsvsim import fields, pressure
from nsvsim.galerkin import DivFreeBasis


def random_hermitian_coeffs(k_max: int, seed: int = 0) -> np.ndarray:
    """A random vector table (2, 2K+1, K+1) of a real field: its ky = 0
    column is made Hermitian, the rest is free."""
    rng = np.random.default_rng(seed)
    shape = (2, 2 * k_max + 1, k_max + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[..., 0] = 0.5 * (c[..., 0] + np.conj(c[..., ::-1, 0]))
    return c


def full_table(half: np.ndarray) -> np.ndarray:
    """The centered table (..., 2K+1, 2K+1) over every wavevector, the ky < 0
    half filled by conjugation: the reference that nsvsim keeps only in its
    snapshot files."""
    k = half.shape[-1] - 1
    full = np.empty(half.shape[:-1] + (2 * k + 1,), dtype=complex)
    full[..., k:] = half
    full[..., :k] = np.conj(half[..., ::-1, :0:-1])
    return full


def full_scatter(basis: DivFreeBasis, c: np.ndarray) -> np.ndarray:
    """Reference for ``basis.scatter``: every basis field's +k and -k images
    added into a centered (..., 2, 2K+1, 2K+1) table, the +k images first."""
    c = np.asarray(c, dtype=float)[..., None, :]
    k = basis.k_max
    amp = 1.0 / (np.pi * np.sqrt(2.0))
    w_plus = np.where(basis.phase == 0, 0.5 * amp + 0j,
                      np.where(basis.phase == 1, -0.5j * amp, 1.0 / (2.0 * np.pi) + 0j))
    w_minus = np.where(basis.phase == 2, 0.0, np.conj(w_plus))
    table = np.zeros(c.shape[:-2] + (2, 2 * k + 1, 2 * k + 1), dtype=complex)
    np.add.at(table, (..., basis.kx + k, basis.ky + k), c * w_plus * basis.pol.T)
    np.add.at(table, (..., k - basis.kx, k - basis.ky), c * w_minus * basis.pol.T)
    return table


def zero_field(k_max: int, grid_size: int) -> fields.SpectralField:
    return fields.SpectralField(np.zeros((2, 2 * k_max + 1, k_max + 1), dtype=complex), grid_size)


def random_divfree(k_max: int, grid_size: int, seed: int = 0) -> fields.SpectralField:
    rng = np.random.default_rng(seed)
    return fields.leray_project(rng.standard_normal((2, grid_size, grid_size)), k_max)


def l2_norm(f: fields.SpectralField) -> float:
    """||u||_2 by Parseval on the coefficient table."""
    return float(np.sqrt(fields.AREA * np.sum(np.abs(full_table(f.coeffs)) ** 2)))


def perturbing(monkeypatch, perturb, every: bool = False) -> None:
    """Patch the pressure decomposition so that ``perturb(traj, slice)``
    alters the middle slice, or with ``every`` each slice, before the pass's
    readers see it."""
    decompose = pressure.decompose_pressure

    def perturbed(traj):
        for i, s in enumerate(decompose(traj)):
            if every or i == traj.n_steps // 2:
                perturb(traj, s)
            yield s

    monkeypatch.setattr(pressure, "decompose_pressure", perturbed)


def torus_grid(n: int):
    x = np.arange(n) * 2.0 * np.pi / n
    return np.meshgrid(x, x, indexing="ij")


@pytest.fixture(scope="session")
def small_basis() -> DivFreeBasis:
    return DivFreeBasis(32, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
