"""Verification harness: discrete energy audits, Monte-Carlo moment
estimation, weak-form residuals, the damping-weight sweep, and the twin-path
uniqueness experiment.

All operations are pure functions of trajectories; Monte-Carlo reductions run
over paths in index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, ValidationError
from .fields import modulus, quad_weight, to_grid
from .galerkin import DivFreeBasis, Trajectory, assemble_drift_terms, forcing_at
from .noise import NoiseModel


@dataclass
class EnergyLedger:
    """Per-step terms of the discrete stochastic energy balance.

    Each row refers to the step from t_i to t_{i+1}, with every state-dependent
    term evaluated at t_i.  The bookkeeping identity

        residual = d_energy + dissipation + damping - work - ito_trace - martingale

    holds exactly by construction; its statistical size is what the audits test.
    ``ito_trace`` is the exact compensator of the noise contribution to the
    Voigt energy (mass-weighted, projected), so the residual is mean-zero up to
    the O(dt^2) drift term of the explicit scheme.
    """

    energy: np.ndarray
    d_energy: np.ndarray
    dissipation: np.ndarray
    damping: np.ndarray
    work: np.ndarray
    ito_trace: np.ndarray
    martingale: np.ndarray
    residual: np.ndarray

    def bookkeeping_error(self) -> float:
        """Max defect of the row identity when recomputed from the row itself."""
        recomputed = (
            self.d_energy + self.dissipation + self.damping
            - self.work - self.ito_trace - self.martingale
        )
        return float(np.max(np.abs(recomputed - self.residual), initial=0.0))

    def energy_nonincreasing(self) -> bool:
        """No step raises E by more than 1e-12 max(E(0), 1): the energy law of
        the noise-off, f = 0 regime.  A ledger of no steps satisfies it."""
        return not len(self.d_energy) or bool(np.all(self.d_energy <= 1e-12 * max(self.energy[0], 1.0)))


def ledger_from_trajectory(traj: Trajectory) -> EnergyLedger:
    """Ledger rows as array reductions: the state terms at t_i come from the
    kernel record of ``traj``, the noise increment eta_i from its increments."""
    system = traj.system
    params, model, dt = system.params, system.noise, system.dt
    energy = traj.energies()
    d_energy = np.diff(energy)
    dissipation = 2.0 * params.nu * traj.dissipation_p[:-1] * dt
    damping = 2.0 * params.alpha * traj.damping_q[:-1] * dt
    forcing = forcing_at(system.forcing, np.arange(traj.n_steps))
    work = 2.0 * np.sum(forcing * traj.coeffs[:-1], axis=1) * dt
    ito_trace = model.trace_const * traj.noise_mass_sq[:-1] * dt
    martingale = 2.0 * traj.c_dot_s[:-1] * traj.etas()

    residual = d_energy + dissipation + damping - work - ito_trace - martingale
    return EnergyLedger(
        energy=energy[:-1],
        d_energy=d_energy,
        dissipation=dissipation,
        damping=damping,
        work=work,
        ito_trace=ito_trace,
        martingale=martingale,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo moments

@dataclass
class MomentReport:
    """Plug-in estimates of the gamma/2-moments of the energy functionals."""

    gamma: float
    paths: int
    excluded_paths: int
    sup_energy: float            # mean of (sup_t E)^(gamma/2)
    sup_energy_se: float
    grad_p_integral: float       # mean of (int ||grad u||_p^p dt)^(gamma/2)
    grad_p_integral_se: float
    damping_integral: float      # alpha * mean of (int ||u||_q^q dt)^(gamma/2)
    damping_integral_se: float
    bound: float
    bound_rigorous: bool
    passed: bool

    def __post_init__(self):
        if self.gamma < 2.0:
            raise ValidationError(f"gamma={self.gamma} must be >= 2")


def explicit_moment_bound(
    gamma: float,
    energy0: float,
    forcing_l2_sq_integral: float,
    model: NoiseModel,
    T: float,
) -> tuple[float, bool]:
    """Data-driven upper bound for E[(sup_t E)^(gamma/2)].

    Pathwise Gronwall gives sup E <= (A + 2 sup|M|) e^((1+S)T) with
    A = E(0) + int ||f||_2^2 dt and S = sum_k scale_k^2.  For gamma = 2 the
    constant-3 Davis inequality E[sup|M|] <= 3 E[<M>^(1/2)] applies (the
    discrete martingale is a sampled continuous one) and Young's inequality
    closes the estimate; that case is rigorous.  For gamma > 2 the same
    pathwise inequality is raised to the power gamma/2 with Doob's maximal
    constant, which is valid but loose.
    """
    s4 = model.trace_const
    a = energy0 + forcing_l2_sq_integral + s4 * T
    growth = np.exp((1.0 + s4) * T)
    if gamma == 2.0:
        # E[sup E] <= 2[A + ((1+S) + 18 S) T A growth]
        bound = 2.0 * (a + ((1.0 + s4) + 18.0 * s4) * T * a * growth)
        return float(bound), True
    g = gamma / 2.0
    doob = (g / (g - 1.0)) ** g if g > 1.0 else 1.0
    martingale_part = doob * (9.0 * s4 * T) ** (g / 2.0) * (a * growth) ** g
    bound = growth**g * 2.0 ** (g - 1.0) * (a**g + 2.0**g * martingale_part)
    return float(bound), False


def moment_estimate(results, gamma: float) -> MomentReport:
    """Estimate the gamma/2-moments over a leg's paths.  ``results`` yields
    each path's result in path order, a Trajectory or its DivergenceError:
    the diverged paths are excluded, and when every path diverged the
    lowest-index one's error is raised.  The bound is the mean of the
    per-path explicit bounds, each read from its own trajectory: its E(0),
    int ||f||_2^2 dt over its steps, its noise model and its horizon."""
    rows, errors = [], []
    for traj in results:
        if isinstance(traj, DivergenceError):
            errors.append(traj)
            continue
        system, dt = traj.system, traj.system.dt
        energies = traj.energies()
        # a static forcing row holds at every step
        forcing = np.broadcast_to(forcing_at(system.forcing, np.arange(traj.n_steps)), traj.coeffs[:-1].shape)
        f_int = float(np.sum(forcing**2)) * dt
        bound, rigorous = explicit_moment_bound(gamma, energies[0], f_int, system.noise, traj.n_steps * dt)
        # per path: alpha, its bound, sup_t E, int ||grad u||_p^p dt and int ||u||_q^q dt
        rows.append((system.params.alpha, bound, np.max(energies), np.sum(traj.grad_p[:-1] * dt),
                     np.sum(traj.damping_q[:-1] * dt)))
    if not rows:
        if errors:
            raise errors[0]
        raise ValidationError("no path to estimate from")
    table = np.array(rows)
    vals = np.ascontiguousarray(table[:, 2:].T) ** (gamma / 2.0)   # (3, paths)
    mean = vals.mean(axis=1).tolist()
    se = (vals.std(axis=1, ddof=1) / np.sqrt(len(rows))).tolist() if len(rows) > 1 else [0.0] * 3
    alpha = rows[-1][0]
    bound = float(np.mean(table[:, 1]))
    return MomentReport(
        gamma=gamma,
        paths=len(rows) + len(errors),
        excluded_paths=len(errors),
        sup_energy=mean[0],
        sup_energy_se=se[0],
        grad_p_integral=mean[1],
        grad_p_integral_se=se[1],
        damping_integral=alpha * mean[2],
        damping_integral_se=alpha * se[2],
        bound=bound,
        bound_rigorous=rigorous,
        passed=mean[0] <= bound,
    )


# ---------------------------------------------------------------------------
# Weak-form residual

def weak_form_residual(traj: Trajectory, test_coeffs: np.ndarray) -> float:
    """Max relative defect of the cumulative weak identity over the test modes
    and all recorded times.  The test modes are rows (m, n) of basis
    coefficients, so they are divergence-free and inside the span.

    Every term (mass pairing, convection, stress, damping, forcing, noise) is
    accumulated with the same left-endpoint rule as the stepper, so a
    scheme-generated trajectory satisfies the identity to roundoff.  The drift
    is recomputed from ``traj.coeffs`` rather than read from the kernel
    record: this is the independent check that catches a corrupted state.  A
    non-finite defect gives NaN, which fails any bound.
    """
    d = np.asarray(test_coeffs, dtype=float)
    steps = traj.n_steps
    system = traj.system
    terms = assemble_drift_terms(system, traj.coeffs[:-1], np.arange(steps))
    acc = np.cumsum((terms.b * system.dt + terms.s * traj.etas()[:, None]) @ d.T, axis=0)   # (S, m)
    lhs = traj.coeffs @ (system.basis.mass_multipliers(system.params.kappa) * d).T    # (S+1, m)
    # running scale: the largest |lhs| and |acc| so far, and at least |lhs[0]|
    scale = np.maximum.accumulate(np.maximum(np.abs(lhs[1:]), np.abs(acc)), axis=0)
    scale = np.maximum(scale, np.maximum(np.abs(lhs[0]), 1e-300))
    defect = np.abs(lhs[1:] - lhs[0] - acc) / scale
    return float(np.max(defect, initial=0.0))


# ---------------------------------------------------------------------------
# Damping-weight sweep

@dataclass
class AlphaSweepRow:
    alpha: float
    damping_integral: float      # 2 alpha int ||u||_q^q dt
    distance_to_reference: float  # Voigt-energy distance at final time vs alpha = 0
    distance_to_previous: float | None


def alpha_sweep(ref: Trajectory, trajs) -> list[AlphaSweepRow]:
    """One row per damped trajectory in ``trajs``, in order of decreasing
    alpha (read from each one's params), against the alpha = 0 reference
    ``ref`` run on matched noise."""
    def final_distance(a: Trajectory, b: Trajectory) -> float:
        return float(np.sqrt(ref.system.basis.energy(a.coeffs[-1] - b.coeffs[-1], ref.system.params.kappa)))

    rows = []
    prev = None
    for traj in trajs:
        alpha = traj.system.params.alpha
        if alpha <= 0 or (prev is not None and alpha > prev.system.params.alpha):
            raise ValidationError("alphas must be positive and decreasing")
        damping = float(np.sum(traj.damping_q[:-1] * traj.system.dt))
        rows.append(
            AlphaSweepRow(
                alpha=alpha,
                damping_integral=2.0 * alpha * damping,
                distance_to_reference=final_distance(traj, ref),
                distance_to_previous=None if prev is None else final_distance(traj, prev),
            )
        )
        prev = traj
    return rows


# ---------------------------------------------------------------------------
# Twin-path uniqueness

def calibrate_ladyzhenskaya(basis: DivFreeBasis) -> float:
    """Empirical constant C with ||w||_4^2 <= C ||w||_2 ||grad w||_2 over 64
    random mean-zero divergence-free fields in the span (2D Ladyzhenskaya
    inequality), drawn from the fixed seed 2024."""
    rng = np.random.default_rng(2024)
    c = np.empty((64, basis.n))
    for row in c:
        row[:] = rng.standard_normal(basis.n) * (1.0 + basis.k2) ** -rng.uniform(0.0, 1.5)
    c[:, basis.k2 == 0] = 0.0
    speed = modulus(to_grid(basis.scatter(c), basis.grid_size))
    l4sq = (np.sum(speed**4, axis=(-2, -1)) * quad_weight(basis.grid_size)) ** 0.5
    l2, g2 = basis.field_norms_sq(c)
    denom = np.sqrt(l2) * np.sqrt(g2)
    ok = denom > 0
    return float(np.max(l4sq[ok] / denom[ok], initial=0.0))


@dataclass
class TwinReport:
    """Gronwall shadow of the two-solution comparison under shared noise."""

    delta0: float                 # ||grad w(0)||_2, representative path
    gronwall_constant: float      # max over paths of sup_t phi E_w / ||grad w(0)||_2^2
    per_path_ratios: np.ndarray
    bitwise_identical: bool


def twin_uniqueness(pairs, weight_constant: float) -> TwinReport:
    """For each pair (ta, tb) of trajectories from two initial fields driven by
    the same increments, one pair per path, report the weighted Gronwall ratio
    sup_t phi(t)(||w||_2^2 + kappa ||grad w||_2^2) / ||grad w(0)||_2^2.

    Both runs must share the basis and the increments; shared increments are
    what make the comparison pathwise, so twins with equal initial data stay
    bitwise equal forever.
    """
    ratios = []
    delta0 = 0.0
    bitwise = True
    for path, (ta, tb) in enumerate(pairs):
        if ta.system.basis is not tb.system.basis:
            raise ValidationError("twin states must share the Galerkin span")
        if not np.array_equal(ta.increments, tb.increments):
            raise ValidationError("twin runs must share their noise increments")
        if np.array_equal(ta.coeffs, tb.coeffs):
            ratios.append(0.0)
            continue
        bitwise = False
        w = ta.coeffs - tb.coeffs
        basis = ta.system.basis
        e_w = basis.energy(w, ta.system.params.kappa)
        grad_u = np.sqrt(basis.field_norms_sq(tb.coeffs)[1])
        phi = np.exp(-weight_constant * np.concatenate([[0.0], np.cumsum(grad_u[:-1]) * ta.system.dt]))
        gap0 = float(np.sum(basis.k2 * w[0] ** 2))
        if gap0 == 0.0:
            raise ValidationError("perturbed twin run started from identical gradients")
        ratios.append(float(np.max(phi * e_w)) / gap0)
        if path == 0:
            delta0 = float(np.sqrt(gap0))
    ratios = np.asarray(ratios)
    return TwinReport(
        delta0=delta0,
        gronwall_constant=float(np.max(ratios)),
        per_path_ratios=ratios,
        bitwise_identical=bitwise,
    )
