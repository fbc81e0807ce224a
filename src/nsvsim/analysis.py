"""Verification harness: discrete energy audits, Monte-Carlo moment
estimation, weak-form residuals, the damping-weight sweep, and the twin-path
uniqueness experiment.

All operations are pure functions of trajectories; Monte-Carlo reductions are
ordered by path index so aggregate statistics are schedule-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields
from .errors import DivergenceError, ValidationError
from .fields import SpectralField, quad_weight, to_grid
from .galerkin import DivFreeBasis, Trajectory, assemble_drift_terms, forcing_at, run
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

    times: np.ndarray
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


def ledger_from_trajectory(traj: Trajectory) -> EnergyLedger:
    """Ledger rows as array reductions: the state terms at t_i come from the
    kernel record of ``traj``, the noise increment eta_i from its increments."""
    params, model, dt = traj.params, traj.noise, traj.dt
    energy = traj.energies()
    d_energy = np.diff(energy)
    dissipation = 2.0 * params.nu * traj.dissipation_p[:-1] * dt
    damping = 2.0 * params.alpha * traj.damping_q[:-1] * dt
    forcing = forcing_at(traj.forcing, np.arange(traj.n_steps))
    work = 2.0 * np.sum(forcing * traj.coeffs[:-1], axis=1) * dt
    ito_trace = model.trace_const * traj.noise_mass_sq[:-1] * dt
    martingale = 2.0 * traj.c_dot_s[:-1] * (traj.increments @ model.mode_scales())

    residual = d_energy + dissipation + damping - work - ito_trace - martingale
    return EnergyLedger(
        times=traj.times[:-1],
        energy=energy[:-1],
        d_energy=d_energy,
        dissipation=dissipation,
        damping=damping,
        work=work,
        ito_trace=ito_trace,
        martingale=martingale,
        residual=residual,
    )


def energy_audit(traj: Trajectory, refined: Trajectory | None = None) -> tuple[EnergyLedger, dict]:
    """Ledger plus a summary: max |residual|, accumulated residual, whether the
    energy is nonincreasing (meaningful for the noise-off, f=0 regime).

    Passing a matching half-step trajectory as ``refined`` adds the observed
    residual scaling ratio (0.5 for a first-order-consistent scheme).
    """
    ledger = ledger_from_trajectory(traj)
    summary = {
        "max_abs_residual": float(np.max(np.abs(ledger.residual), initial=0.0)),
        "accumulated_residual": float(np.sum(ledger.residual)),
        "bookkeeping_error": ledger.bookkeeping_error(),
        "energy_nonincreasing": bool(np.all(ledger.d_energy <= 1e-12 * max(ledger.energy[0], 1.0)))
        if len(ledger.d_energy)
        else True,
    }
    if refined is not None:
        if abs(refined.dt * 2.0 - traj.dt) > 1e-15 * traj.dt:
            raise ValidationError("refined trajectory must halve the step size")
        fine = ledger_from_trajectory(refined)
        summary["residual_halving_ratio"] = float(
            abs(np.sum(fine.residual)) / max(abs(np.sum(ledger.residual)), 1e-300)
        )
    return ledger, summary


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
    bound: float | None = None
    bound_rigorous: bool = False
    passed: bool | None = None

    def __post_init__(self):
        if self.gamma < 2.0:
            raise ValidationError(f"gamma={self.gamma} must be >= 2")


def _path_functionals(traj: Trajectory) -> tuple[float, float, float]:
    """(sup_t E, int ||grad u||_p^p dt, int ||u||_q^q dt) for one path."""
    return (
        float(np.max(traj.energies())),
        float(np.sum(traj.grad_p[:-1] * traj.dt)),
        float(np.sum(traj.damping_q[:-1] * traj.dt)),
    )


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


def moment_estimate(
    run_path,
    M: int,
    gamma: float,
    model: NoiseModel,
    energy0: float,
    forcing_l2_sq_integral: float,
    T: float,
) -> MomentReport:
    """Run M independent paths (``run_path(path_index) -> Trajectory``) and
    estimate the gamma/2-moments; divergent paths are excluded and counted."""
    if M < 1:
        raise ValidationError("need at least one path")
    sup_vals, grad_vals, damp_vals = [], [], []
    excluded = 0
    alpha = None
    for path in range(M):
        try:
            traj = run_path(path)
        except DivergenceError:
            excluded += 1
            continue
        alpha = traj.params.alpha
        sup_e, grad_p, lq_q = _path_functionals(traj)
        sup_vals.append(sup_e ** (gamma / 2.0))
        grad_vals.append(grad_p ** (gamma / 2.0))
        damp_vals.append(lq_q ** (gamma / 2.0))
    if not sup_vals:
        raise DivergenceError(0, "every Monte-Carlo path diverged")

    def mean_se(vals):
        arr = np.asarray(vals)
        se = float(np.std(arr, ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
        return float(np.mean(arr)), se

    sup_mean, sup_se = mean_se(sup_vals)
    grad_mean, grad_se = mean_se(grad_vals)
    damp_mean, damp_se = mean_se(damp_vals)
    bound, rigorous = explicit_moment_bound(gamma, energy0, forcing_l2_sq_integral, model, T)
    return MomentReport(
        gamma=gamma,
        paths=M,
        excluded_paths=excluded,
        sup_energy=sup_mean,
        sup_energy_se=sup_se,
        grad_p_integral=grad_mean,
        grad_p_integral_se=grad_se,
        damping_integral=(alpha or 0.0) * damp_mean,
        damping_integral_se=(alpha or 0.0) * damp_se,
        bound=bound,
        bound_rigorous=rigorous,
        passed=sup_mean <= bound,
    )


# ---------------------------------------------------------------------------
# Weak-form residual

def weak_form_residual(traj: Trajectory, test_modes: list[SpectralField]) -> float:
    """Max relative defect of the cumulative weak identity over the supplied
    divergence-free test modes and all recorded times.

    Every term (mass pairing, convection, stress, damping, forcing, noise) is
    accumulated with the same left-endpoint rule as the stepper, so a
    scheme-generated trajectory satisfies the identity to roundoff.  The drift
    is recomputed from ``traj.coeffs`` rather than read from the kernel
    record: this is the independent check that catches a corrupted state.
    """
    basis = traj.basis
    mass = basis.mass_multipliers(traj.params.kappa)
    scales = traj.noise.mode_scales()

    test_coeffs = []
    for phi in test_modes:
        if fields.divergence_error(phi) > 1e-10:
            raise ValidationError("test mode is not divergence-free")
        if phi.k_max < basis.k_max:
            raise ValidationError("test mode truncation smaller than the span")
        d = basis.gather(phi)
        back = basis.scatter(d)
        embedded = np.zeros_like(phi.coeffs)
        off = phi.k_max - back.k_max
        sl = slice(off, off + 2 * back.k_max + 1)
        embedded[:, sl, sl] = back.coeffs
        scale = max(float(np.max(np.abs(phi.coeffs))), 1e-300)
        if np.max(np.abs(embedded - phi.coeffs)) > 1e-10 * scale:
            raise ValidationError("test mode lies outside the Galerkin span")
        test_coeffs.append(d)

    s_steps = traj.n_steps
    drift = np.zeros((s_steps, basis.n))
    noise_part = np.zeros((s_steps, basis.n))
    for i in range(s_steps):
        terms = assemble_drift_terms(
            basis, traj.field_at(i), forcing_at(traj.forcing, i), traj.params, traj.noise,
            convection=traj.convection,
        )
        drift[i] = terms.b * traj.dt
        noise_part[i] = terms.s * float(np.dot(scales, traj.increments[i]))

    worst = 0.0
    for d in test_coeffs:
        mass_d = mass * d
        base = float(np.dot(mass_d, traj.coeffs[0]))
        acc = 0.0
        scale = max(abs(base), 1e-300)
        for i in range(1, s_steps + 1):
            acc += float(np.dot(d, drift[i - 1] + noise_part[i - 1]))
            lhs = float(np.dot(mass_d, traj.coeffs[i]))
            scale = max(scale, abs(lhs), abs(acc))
            worst = max(worst, abs(lhs - base - acc) / scale)
    return worst


def basis_test_modes(basis: DivFreeBasis, indices) -> list[SpectralField]:
    """Unit basis fields as ready-made solenoidal test modes."""
    out = []
    for j in indices:
        e = np.zeros(basis.n)
        e[j] = 1.0
        out.append(basis.scatter(e))
    return out


# ---------------------------------------------------------------------------
# Damping-weight sweep

@dataclass
class AlphaSweepRow:
    alpha: float
    damping_integral: float      # 2 alpha int ||u||_q^q dt
    distance_to_reference: float  # Voigt-energy distance at final time vs alpha = 0
    distance_to_previous: float | None


def alpha_sweep(make_state, T: float, alphas, increments: np.ndarray | None = None) -> list[AlphaSweepRow]:
    """Run the damped system for each weight in ``alphas`` (descending) plus the
    alpha = 0 reference on matched noise; ``make_state(alpha) -> GalerkinState``.

    Noise is matched automatically when every state shares a seed lineage,
    or explicitly via ``increments``.
    """
    alphas = list(alphas)
    if any(a <= 0 for a in alphas) or alphas != sorted(alphas, reverse=True):
        raise ValidationError("alphas must be positive and decreasing")
    ref = run(make_state(0.0), T, increments=increments)
    kappa = ref.params.kappa
    basis = ref.basis

    def final_distance(a: Trajectory, b: Trajectory) -> float:
        w = a.coeffs[-1] - b.coeffs[-1]
        return float(np.sqrt(np.sum((1.0 + kappa * basis.k2) * w * w)))

    rows = []
    prev = None
    for alpha in alphas:
        traj = run(make_state(alpha), T, increments=increments)
        damping = float(np.sum(traj.damping_q[:-1] * traj.dt))
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

def calibrate_ladyzhenskaya(
    basis: DivFreeBasis, samples: int = 64, seed: int = 2024
) -> float:
    """Empirical constant C with ||w||_4^2 <= C ||w||_2 ||grad w||_2 over random
    mean-zero divergence-free fields in the span (2D Ladyzhenskaya inequality)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    wq = quad_weight(basis.grid_size)
    for _ in range(samples):
        c = rng.standard_normal(basis.n) * (1.0 + basis.k2) ** -rng.uniform(0.0, 1.5)
        c[basis.k2 == 0] = 0.0
        f = basis.scatter(c)
        g = to_grid(f)
        speed = np.sqrt(np.sum(g**2, axis=0))
        l4sq = float(np.sum(speed**4) * wq) ** 0.5
        l2, g2 = basis.field_norms_sq(c)
        denom = np.sqrt(l2) * np.sqrt(g2)
        if denom > 0:
            worst = max(worst, l4sq / denom)
    return worst


@dataclass
class TwinReport:
    """Gronwall shadow of the two-solution comparison under shared noise."""

    delta0: float                 # ||grad w(0)||_2, representative path
    weighted_peak: float          # max over paths of sup_t phi(t) E_w(t)
    gronwall_constant: float      # max over paths of sup_t phi E_w / ||grad w(0)||_2^2
    weight_constant: float        # C1 in phi(t) = exp(-C1 int ||grad u2|| ds)
    per_path_ratios: np.ndarray
    times: np.ndarray = field(default=None)
    weighted_gap_series: np.ndarray = field(default=None)
    bitwise_identical: bool | None = None


def twin_uniqueness(
    make_state_pair,
    T: float,
    M: int,
    weight_constant: float,
) -> TwinReport:
    """Evolve two initial fields per path under shared increments and report the
    weighted Gronwall ratio sup_t phi(t)(||w||_2^2 + kappa ||grad w||_2^2) / ||grad w(0)||_2^2.

    ``make_state_pair(path) -> (GalerkinState, GalerkinState)``.  Both states
    must share the basis and the seed lineage; identical lineage is what makes
    the noise increments pathwise-shared, so twins with equal initial data stay
    bitwise equal forever.
    """
    ratios = []
    peaks = []
    delta0 = 0.0
    series_t = None
    series_gap = None
    bitwise = True
    for path in range(M):
        sa, sb = make_state_pair(path)
        if sa.basis is not sb.basis or sa.basis.n != sb.basis.n:
            raise ValidationError("twin states must share the Galerkin span")
        if (sa.master_seed, sa.path) != (sb.master_seed, sb.path):
            raise ValidationError("twin states must share the seed lineage")
        ta = run(sa, T)
        tb = run(sb, T)
        if np.array_equal(ta.coeffs, tb.coeffs):
            ratios.append(0.0)
            peaks.append(0.0)
            continue
        bitwise = False
        kappa = sa.params.kappa
        w = ta.coeffs - tb.coeffs
        k2 = sa.basis.k2
        e_w = np.sum((1.0 + kappa * k2) * w * w, axis=1)
        grad_u2 = tb.grad_norms()
        phi = np.exp(-weight_constant * np.concatenate([[0.0], np.cumsum(grad_u2[:-1]) * sa.dt]))
        gap0 = float(np.sum(k2 * w[0] ** 2))
        if gap0 == 0.0:
            raise ValidationError("perturbed twin run started from identical gradients")
        weighted = phi * e_w
        ratios.append(float(np.max(weighted)) / gap0)
        peaks.append(float(np.max(weighted)))
        if path == 0:
            delta0 = float(np.sqrt(gap0))
            series_t = ta.times
            series_gap = weighted
    ratios = np.asarray(ratios)
    return TwinReport(
        delta0=delta0,
        weighted_peak=float(np.max(peaks)),
        gronwall_constant=float(np.max(ratios)),
        weight_constant=weight_constant,
        per_path_ratios=ratios,
        times=series_t,
        weighted_gap_series=series_gap,
        bitwise_identical=bitwise,
    )
