"""Constitutive operators of the power-law model and their monotonicity checks.

The stress is ``|D|^(p-2) D`` with the Frobenius modulus; the damping term is
``|u|^(q-2) u``.  Both act pointwise on the layout of :mod:`nsvsim.fields`,
over any leading axes: symmetric tensors ``(..., 3, N, N)``, vectors
``(..., 2, N, N)``, and take the modulus they scale by, ``(..., N, N)``,
which the caller forms once.  Both extend continuously by zero where the
modulus vanishes, which is the only sensible convention for p < 2 (the
operators appear only inside integrals and are never differentiated by the
time stepper, so no epsilon-regularization is added).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .fields import sym_contract, sym_modulus


@dataclass(frozen=True)
class RheologyParams:
    """Constitutive constants: power-law index p, damping exponent q,
    viscosity nu, relaxation coefficient kappa, damping weight alpha."""

    p: float
    q: float
    nu: float
    kappa: float
    alpha: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ConfigurationError(
                f"power-law index p={self.p} must satisfy p > 1 (= 2d/(d+2) in 2D)"
            )
        if self.nu < 0:
            raise ConfigurationError(f"viscosity nu={self.nu} must be nonnegative")
        if self.kappa <= 0:
            raise ConfigurationError(f"relaxation coefficient kappa={self.kappa} must be positive")
        if self.alpha < 0:
            raise ConfigurationError(f"damping weight alpha={self.alpha} must be nonnegative")
        if self.alpha > 0 and self.q < self.q_floor:
            raise ConfigurationError(
                f"damping exponent q={self.q} < max(2p', 3) = {self.q_floor} "
                f"required when alpha > 0 (p' = {self.p_conj:.6g})"
            )
        if not self.q > 1.0:
            raise ConfigurationError(f"damping exponent q={self.q} must exceed 1")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_floor(self) -> float:
        """Smallest admissible q for an active damping term."""
        return max(2.0 * self.p_conj, 3.0)


def _power_modulus(mod: np.ndarray, expo: float) -> np.ndarray:
    """|.|^expo with the zero convention at mod == 0 for negative exponents."""
    if expo >= 0:
        return mod**expo
    out = np.zeros_like(mod)
    nz = mod > 0
    out[nz] = mod[nz] ** expo
    return out


def power_law_stress(D: np.ndarray, d_modulus: np.ndarray, p: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise stress A = |D|^(p-2) D of symmetric tensors D (..., 3, N, N),
    given ``d_modulus`` = |D| (..., N, N); A = 0 wherever |D| = 0.  Written
    to ``out`` if given, as in NumPy."""
    w = _power_modulus(d_modulus, p - 2.0)
    return np.multiply(w[..., None, :, :], D, out=out)


def stabilizer(u: np.ndarray, speed: np.ndarray, params: RheologyParams,
               out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise damping alpha |u|^(q-2) u on grid samples (..., 2, N, N),
    given ``speed`` = |u| (..., N, N); written to ``out`` if given, as in NumPy."""
    w = _power_modulus(speed, params.q - 2.0)
    return np.multiply(params.alpha * w[..., None, :, :], u, out=out)


@dataclass(frozen=True)
class MonotonicityReport:
    """The shear-rate inequality pair at each pair of a stack of tensor pairs;
    every field has the stack's leading shape."""

    lhs: np.ndarray
    rhs: np.ndarray
    product: np.ndarray  # (|M|^(p-2)M - |N|^(p-2)N) : (M - N)
    scale: np.ndarray    # max(1, |M|, |N|)^p, the scale of the tolerance
    holds: np.ndarray


def _as_sym(m) -> np.ndarray:
    """Symmetric matrices (..., 2, 2) as (..., 3, 1, 1) entry stacks: the
    tensor layout on a 1 x 1 grid."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (2, 2):
        raise ValidationError(f"expected 2x2 matrices (..., 2, 2), got shape {m.shape}")
    if np.any(m[..., 0, 1] != m[..., 1, 0]):
        raise ValidationError("matrix is not symmetric")
    return np.stack([m[..., 0, 0], m[..., 0, 1], m[..., 1, 1]], axis=-1)[..., None, None]


def monotonicity_gap(M, N, p: float) -> MonotonicityReport:
    """Evaluate the p-regime monotonicity inequality for symmetric pairs, given
    as stacks (..., 2, 2) of matrices.

    For p >= 2:      2^(1-p) |M-N|^p  <=  (A(M) - A(N)) : (M - N)
    For 1 < p < 2:   (p-1) |M-N|^2    <=  (A(M) - A(N)) : (M - N) * (|M|^p + |N|^p)^((2-p)/p)

    where A(T) = |T|^(p-2) T.  Reports rhs >= lhs - 1e-12 * scale and the plain
    monotonicity product.
    """
    if not 1.0 < p < np.inf:
        raise ValidationError(f"p={p} outside (1, inf)")
    m, n = _as_sym(M), _as_sym(N)
    diff = m - n
    mod_m, mod_n, mod_d = (sym_modulus(t) for t in (m, n, diff))
    product = sym_contract(power_law_stress(m, mod_m, p) - power_law_stress(n, mod_n, p), diff)
    product, mod_m, mod_n, mod_d = (t[..., 0, 0] for t in (product, mod_m, mod_n, mod_d))
    if p >= 2.0:
        lhs = 2.0 ** (1.0 - p) * mod_d**p
        rhs = product
    else:
        lhs = (p - 1.0) * mod_d**2
        rhs = product * (mod_m**p + mod_n**p) ** ((2.0 - p) / p)
    scale = np.maximum(np.maximum(1.0, mod_m), mod_n) ** p
    return MonotonicityReport(lhs=lhs, rhs=rhs, product=product, scale=scale,
                              holds=rhs >= lhs - 1e-12 * scale)


def monotonicity_sweep(p: float, samples: int, seed: int = 0) -> tuple[int, float]:
    """Brute-force sweep over random symmetric pairs, entries uniform in [-5, 5];
    returns (violations, worst margin).

    Margin is min((rhs - lhs) / scale); nonnegative means zero violations.
    The plain monotonicity product is checked for nonnegativity as well.
    """
    rng = np.random.default_rng(seed)
    ab = rng.uniform(-5.0, 5.0, size=(samples, 2, 2, 2))
    ab += np.swapaxes(ab, -1, -2)
    ab *= 0.5
    rep = monotonicity_gap(ab[:, 0], ab[:, 1], p)
    margin = (rep.rhs - rep.lhs) / rep.scale
    violations = np.count_nonzero(~rep.holds | (rep.product < -1e-12 * rep.scale))
    return int(violations), float(np.min(margin, initial=np.inf))
