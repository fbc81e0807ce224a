"""Sampling validators for the well-posedness conditions of the assembled
finite-dimensional system: weak monotonicity of the drift/noise pair on balls
and weak coercivity against the data.

These are diagnostics, not gates: the stepper runs regardless, and a failed
margin flags a broken noise model or parameter set.  The envelopes are fully
explicit so the margins are rigorous, and the fitted constants are reported
alongside for sharpness.

Both samplers take the :class:`galerkin.System` under test and evaluate its
drift at step 0, so its forcing is that step's.  Each draws every sample
first, in the order a per-sample loop would, then passes all of them to the
drift kernel in one call and reduces the margins as arrays; each sample's
terms are bit for bit those of a single-state call.  The kernel call forms
b and s only, no record.  Each margin is the envelope less the sample's
ratio lhs / norm, and each term of that ratio is a constant times a ratio of
norms of order one, so the terms stay near the constants, which the config
keeps finite, and the margins do not overflow at an admitted noise amplitude.
A check passes only if every margin is finite and none is negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .galerkin import _AMP, System, assemble_drift_terms, forcing_at, row_dot


@dataclass(frozen=True)
class SolvabilityReport:
    worst_margin: float     # min over samples of envelope - lhs, relative
    fitted_constant: float  # tightest constant observed
    passed: bool


def _random_ball(rng: np.ndarray, n: int, radius: float) -> np.ndarray:
    v = rng.standard_normal(n)
    v *= radius * rng.uniform() ** (1.0 / n) / np.linalg.norm(v)
    return v


def _report(envelope: float, ratios: np.ndarray) -> SolvabilityReport:
    """Worst margin envelope - lhs / norm and tightest constant over the
    samples' ratios lhs / norm; a NaN or infinite margin fails the check."""
    margins = envelope - ratios
    worst = float(np.min(margins, initial=np.inf))
    return SolvabilityReport(
        worst_margin=worst,
        fitted_constant=float(np.max(ratios, initial=0.0)),
        passed=bool(np.all(np.isfinite(margins)) and worst >= -1e-8),
    )


def check_weak_monotonicity(system: System, radius: float, samples: int, seed: int) -> SolvabilityReport:
    """Sample pairs in the L2 ball of the span and test
    <b(u)-b(v), u-v> + ||G(u)-G(v)||_F^2 <= C(R, n) ||u-v||_2^2.

    The envelope uses the finite-dimensional sup-norm bound for convection
    (the monotone stress and damping terms only help) plus the Lipschitz
    trace of the noise family.
    """
    if radius <= 0:
        raise ValidationError("radius must be positive")
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    basis, trace = system.basis, system.noise.trace_const
    rng = np.random.default_rng(seed)
    k_eff = float(np.sqrt(np.max(basis.k2))) if np.any(basis.k2 > 0) else 0.0
    convective = 2.0 * radius * np.sqrt(basis.n) * _AMP * k_eff if system.convection else 0.0
    envelope = convective + trace

    # (samples, 2, n): the pair (u, v) of each sample
    pairs = np.array([[_random_ball(rng, basis.n, radius) for _ in range(2)] for _ in range(samples)])
    terms = assemble_drift_terms(system, pairs, 0)
    dw = pairs[:, 0] - pairs[:, 1]
    norm_sq = np.sum(dw * dw, axis=-1)
    keep = norm_sq != 0.0
    # ||G(u) - G(v)||_F^2 = S ||P shape(u) - P shape(v)||_2^2 for the separable family
    ratios = (row_dot(terms.b[:, 0] - terms.b[:, 1], dw)[keep] / norm_sq[keep]
              + trace * (np.sum((terms.s[:, 0] - terms.s[:, 1]) ** 2, axis=-1)[keep] / norm_sq[keep]))
    return _report(envelope, ratios)


def check_coercivity(system: System, samples: int, seed: int) -> SolvabilityReport:
    """Sample states at mixed scales and test
    <b(u), u> + ||G(u)||_F^2 <= C (1 + ||f||_2)(1 + ||u||_2^2).

    The convective contribution cancels exactly against u, the sign-definite
    stress and damping terms are dropped, so C = 1/2 + trace constant works.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    trace = system.noise.trace_const
    rng = np.random.default_rng(seed)
    f_norm = float(np.linalg.norm(forcing_at(system.forcing, 0)))

    states = []
    for _ in range(samples):
        scale = 10.0 ** rng.uniform(-2, 1.5)
        states.append(rng.standard_normal(system.basis.n) * scale)
    cu = np.array(states)
    terms = assemble_drift_terms(system, cu, 0)
    rhs_norm = (1.0 + f_norm) * (1.0 + np.sum(cu * cu, axis=-1))
    # ||G(u)||_F^2 = S ||P shape(u)||_2^2 for the separable family
    ratios = row_dot(terms.b, cu) / rhs_norm + trace * (np.sum(terms.s * terms.s, axis=-1) / rhs_norm)
    return _report(0.5 + trace, ratios)
