"""Truncated cylindrical Wiener process and the multiplicative noise coefficients.

The coefficient family is separable: ``phi_k(xi) = (c / k^2) * shape(xi)`` with
``shape`` the identity (linear family) or ``xi / (1 + |xi|)`` (saturating
family).  The 1/k^2 envelope makes the growth/Lipschitz sums convergent with
closed-form constants K = L = c pi^2 / 6 and the decay constant C = c^2, so the
empirical validators have exact targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FAMILIES = ("linear", "saturating", "off")

BASEL = np.pi**2 / 6.0  # sum k^-2


@dataclass(frozen=True)
class NoiseModel:
    family: str
    amplitude: float
    n_w: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown noise family {self.family!r}; choose from {FAMILIES}")
        if self.amplitude < 0:
            raise ValidationError(f"noise amplitude {self.amplitude} must be nonnegative")
        if self.n_w < 0:
            raise ValidationError(f"noise truncation {self.n_w} must be >= 0")

    @property
    def active(self) -> bool:
        return self.family != "off" and self.amplitude > 0 and self.n_w > 0

    # Analytic constants of the growth/Lipschitz/decay conditions.
    @property
    def growth_const(self) -> float:
        """K with sum_k |phi_k(xi)| <= K (1 + |xi|)."""
        return 0.0 if not self.active else self.amplitude * BASEL

    @property
    def lipschitz_const(self) -> float:
        """L with sum_k |phi_k(xi) - phi_k(zeta)| <= L |xi - zeta|."""
        return 0.0 if not self.active else self.amplitude * BASEL

    @property
    def decay_const(self) -> float:
        """C with sup_k k^2 |phi_k(xi)|^2 <= C (1 + |xi|^2)."""
        return 0.0 if not self.active else self.amplitude**2

    @property
    def trace_const(self) -> float:
        """S = sum_k scale_k^2, the Ito trace constant: sum_k ||phi_k(u)||^2 =
        S ||shape(u)||^2 <= S ||u||^2 for both families, since |shape(u)| <= |u|
        pointwise."""
        return 0.0 if not self.active else float(np.sum(self.mode_scales() ** 2))

    def mode_scale(self, k: int) -> float:
        """The 1/k^2 envelope factor of mode k."""
        if not 1 <= k <= self.n_w:
            raise ValidationError(f"noise mode {k} out of range 1..{self.n_w}")
        return 0.0 if self.family == "off" else self.amplitude / float(k * k)

    def mode_scales(self) -> np.ndarray:
        if self.family == "off" or self.n_w == 0:
            return np.zeros(self.n_w)
        k = np.arange(1, self.n_w + 1, dtype=float)
        return self.amplitude / (k * k)

    def shape(self, u: np.ndarray) -> np.ndarray:
        """The amplitude-one pointwise profile shared by every mode."""
        u = np.asarray(u, dtype=float)
        if self.family == "linear":
            return u
        if self.family == "saturating":
            speed = np.sqrt(np.sum(u**2, axis=0))
            return u / (1.0 + speed)[None, ...]
        return np.zeros_like(u)


@dataclass(frozen=True)
class NoiseConditionReport:
    K_emp: float
    L_emp: float
    C_emp: float
    K: float
    L: float
    C: float
    passed: bool


def verify_noise_conditions(
    model: NoiseModel, samples: int, seed: int = 0, tol: float = 1e-9
) -> NoiseConditionReport:
    """Empirically tighten the growth/Lipschitz/decay constants over random points
    and compare against the analytic ones."""
    if samples < 1:
        raise ValidationError("need at least one sample")
    if not model.active:
        return NoiseConditionReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, True)
    rng = np.random.default_rng(seed)
    # Mixed scales so both the small-|xi| and saturated regimes are exercised.
    scales = 10.0 ** rng.uniform(-2, 3, size=samples)
    xi = rng.standard_normal((samples, 2)) * scales[:, None]
    zeta = rng.standard_normal((samples, 2)) * scales[::-1, None]
    sc = model.mode_scales()
    s2 = float(np.sum(sc))  # partial sum of the envelope

    def profile(v):
        speed = np.linalg.norm(v, axis=-1)
        if model.family == "linear":
            return v, speed
        return v / (1.0 + speed)[..., None], speed / (1.0 + speed)

    pxi, mag_xi = profile(xi)
    pzeta, _ = profile(zeta)
    norm_xi = np.linalg.norm(xi, axis=-1)
    K_emp = float(np.max(s2 * mag_xi / (1.0 + norm_xi)))
    diff = np.linalg.norm(pxi - pzeta, axis=-1)
    gap = np.linalg.norm(xi - zeta, axis=-1)
    ok = gap > 0
    L_emp = float(np.max(s2 * diff[ok] / gap[ok]))
    # sup_k k^2 |phi_k|^2 = amplitude^2 |shape|^2 attained at k = 1
    C_emp = float(np.max(model.amplitude**2 * mag_xi**2 / (1.0 + norm_xi**2)))
    passed = (
        K_emp <= model.growth_const + tol
        and L_emp <= model.lipschitz_const + tol
        and C_emp <= model.decay_const + tol
    )
    return NoiseConditionReport(
        K_emp, L_emp, C_emp,
        model.growth_const, model.lipschitz_const, model.decay_const, passed,
    )


@dataclass(frozen=True)
class WienerIncrement:
    """One step of per-mode Brownian increments with its seed lineage."""

    db: np.ndarray  # shape (n_w,), N(0, dt) draws
    dt: float
    lineage: tuple[int, int, int]  # (master seed, path index, step index)


def sample_increment(master_seed: int, path: int, step: int, dt: float, n_w: int) -> WienerIncrement:
    """n_w independent N(0, dt) draws, a pure function of (seed, path, step)."""
    if dt <= 0:
        raise ValidationError(f"dt={dt} must be positive")
    rng = np.random.default_rng([int(master_seed), int(path), int(step)])
    db = rng.standard_normal(n_w) * np.sqrt(dt)
    return WienerIncrement(db=db, dt=dt, lineage=(int(master_seed), int(path), int(step)))

