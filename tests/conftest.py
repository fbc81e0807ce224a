import numpy as np
import pytest

from nsvsim import fields
from nsvsim.galerkin import DivFreeBasis


def random_hermitian_coeffs(k_max: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (2, 2 * k_max + 1, 2 * k_max + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = 0.5 * (c + np.conj(c[:, ::-1, ::-1]))
    return c


def random_divfree(k_max: int, grid_size: int, seed: int = 0) -> fields.SpectralField:
    rng = np.random.default_rng(seed)
    return fields.leray_project(rng.standard_normal((2, grid_size, grid_size)), k_max)


def l2_norm(f: fields.SpectralField) -> float:
    """||u||_2 by Parseval on the coefficient table."""
    return float(np.sqrt(fields.AREA * np.sum(np.abs(f.coeffs) ** 2)))


def torus_grid(n: int):
    x = np.arange(n) * 2.0 * np.pi / n
    return np.meshgrid(x, x, indexing="ij")


@pytest.fixture(scope="session")
def small_basis() -> DivFreeBasis:
    return DivFreeBasis(32, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
