"""Sampling validators for the well-posedness conditions of the assembled
finite-dimensional system: weak monotonicity of the drift/noise pair on balls
and weak coercivity against the data.

These are diagnostics, not gates: the stepper runs regardless, and a failed
margin flags a broken noise model or parameter set.  The envelopes are fully
explicit so the margins are rigorous, and the fitted constants are reported
alongside for sharpness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .galerkin import DivFreeBasis, assemble_drift_terms
from .noise import NoiseModel
from .rheology import RheologyParams

_UNIF_AMP = 1.0 / (np.pi * np.sqrt(2.0))  # sup-norm of a unit basis field


@dataclass(frozen=True)
class SolvabilityReport:
    radius: float
    samples: int
    worst_margin: float       # min over samples of envelope - lhs, relative
    fitted_constant: float    # tightest constant observed
    envelope_constant: float  # explicit analytic envelope
    passed: bool


def _random_ball(rng: np.ndarray, n: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(n)
    v *= radius * rng.uniform() ** (1.0 / n) / np.linalg.norm(v)
    return v


def check_weak_monotonicity(
    basis: DivFreeBasis,
    params: RheologyParams,
    model: NoiseModel,
    radius: float,
    samples: int,
    seed: int = 0,
    convection: bool = True,
) -> SolvabilityReport:
    """Sample pairs in the L2 ball of the span and test
    <b(u)-b(v), u-v> + ||G(u)-G(v)||_F^2 <= C(R, n) ||u-v||_2^2.

    The envelope uses the finite-dimensional sup-norm bound for convection
    (the monotone stress and damping terms only help) plus the Lipschitz
    trace of the noise family.
    """
    if radius <= 0:
        raise ValidationError("radius must be positive")
    rng = np.random.default_rng(seed)
    k_eff = float(np.sqrt(np.max(basis.k2))) if np.any(basis.k2 > 0) else 0.0
    convective = 2.0 * radius * np.sqrt(basis.n) * _UNIF_AMP * k_eff if convection else 0.0
    envelope = convective + model.trace_const

    zero_f = np.zeros(basis.n)
    worst = np.inf
    fitted = 0.0
    for _ in range(samples):
        cu = _random_ball(rng, basis.n, radius)
        cv = _random_ball(rng, basis.n, radius)
        dw = cu - cv
        norm_sq = float(np.sum(dw * dw))
        if norm_sq == 0.0:
            continue
        tu = assemble_drift_terms(basis, basis.scatter(cu), zero_f, params, model, convection)
        tv = assemble_drift_terms(basis, basis.scatter(cv), zero_f, params, model, convection)
        # ||G(u) - G(v)||_F^2 = S ||P shape(u) - P shape(v)||_2^2 for the separable family
        lhs = float(np.dot(tu.b - tv.b, dw)) + model.trace_const * float(np.sum((tu.s - tv.s) ** 2))
        worst = min(worst, (envelope * norm_sq - lhs) / max(norm_sq, 1e-300))
        fitted = max(fitted, lhs / norm_sq)
    return SolvabilityReport(
        radius=radius,
        samples=samples,
        worst_margin=float(worst),
        fitted_constant=float(fitted),
        envelope_constant=float(envelope),
        passed=bool(worst >= -1e-8),
    )


def check_coercivity(
    basis: DivFreeBasis,
    params: RheologyParams,
    model: NoiseModel,
    f_coeffs: np.ndarray,
    samples: int,
    seed: int = 0,
) -> SolvabilityReport:
    """Sample states at mixed scales and test
    <b(u), u> + ||G(u)||_F^2 <= C (1 + ||f||_2)(1 + ||u||_2^2).

    The convective contribution cancels exactly against u, the sign-definite
    stress and damping terms are dropped, so C = 1/2 + trace constant works.
    """
    rng = np.random.default_rng(seed)
    f_coeffs = np.asarray(f_coeffs, dtype=float)
    f_norm = float(np.linalg.norm(f_coeffs))
    envelope = 0.5 + model.trace_const

    worst = np.inf
    fitted = 0.0
    for _ in range(samples):
        scale = 10.0 ** rng.uniform(-2, 1.5)
        cu = rng.standard_normal(basis.n) * scale
        terms = assemble_drift_terms(basis, basis.scatter(cu), f_coeffs, params, model)
        # ||G(u)||_F^2 = S ||P shape(u)||_2^2 for the separable family
        lhs = float(np.dot(terms.b, cu)) + model.trace_const * float(np.sum(terms.s * terms.s))
        rhs_norm = (1.0 + f_norm) * (1.0 + float(np.sum(cu * cu)))
        worst = min(worst, (envelope * rhs_norm - lhs) / rhs_norm)
        fitted = max(fitted, lhs / rhs_norm)
    return SolvabilityReport(
        radius=0.0,
        samples=samples,
        worst_margin=float(worst),
        fitted_constant=float(fitted),
        envelope_constant=float(envelope),
        passed=bool(worst >= -1e-8),
    )
