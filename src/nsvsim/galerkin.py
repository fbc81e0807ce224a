"""Finite-dimensional stochastic Galerkin system on the divergence-free
Fourier basis, advanced by semi-implicit Euler-Maruyama.

The basis is L2-orthonormal and diagonalizes the Voigt mass operator, so the
mass solve is an exact per-mode division by ``1 + kappa |k|^2``.  Drift terms
are evaluated pseudo-spectrally on the dealiased grid and projected back onto
the first ``n`` modes; the grid is required to satisfy ``N > 3 K`` so that
quadratic products are alias-free in the retained band, which is what makes
the discrete energy identities of the audits exact.

:func:`assemble_drift_terms` is the one per-state kernel.  Its pointwise stage
(:class:`PointwiseTerms`) forms u on the grid, the Jacobian, D(u), the stress,
u x u, the damping term and the noise shape once; the kernel projects them to
the drift ``b`` and the noise projection ``s`` and integrates the quadrature
scalars ||D u||_p^p, ||grad u||_p^p and ||u||_q^q.  :func:`run` evaluates it
once per stored state and keeps the state-only outputs on the
:class:`Trajectory`, which every audit reads.  Two passes recompute from the
stored coefficients on purpose: ``analysis.weak_form_residual`` is the
independent check that catches a corrupted state, and the pressure
decomposition takes its grid fields from the pointwise stage at
``traj.coeffs`` under ``traj.params``, so that it describes whatever
trajectory and parameters it is handed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import fields
from .errors import ConfigurationError, DivergenceError, ValidationError
from .fields import SpectralField, SymTensorField, from_grid, mode_table, quad_weight, to_grid
from .noise import NoiseModel, sample_increment
from .rheology import RheologyParams, power_law_stress, stabilizer

_COS, _SIN, _MEAN = 0, 1, 2
_AMP = 1.0 / (np.pi * np.sqrt(2.0))  # L2-normalization of cos/sin basis fields
_MEAN_AMP = 1.0 / (2.0 * np.pi)


class DivFreeBasis:
    """First ``n`` real divergence-free Fourier basis fields on the torus.

    Per nonzero representative wavevector (half-space convention) there are a
    cosine and a sine field polarized along ``k_perp / |k|``; the two constant
    mean-flow fields come first when retained.  Entries are ordered by
    ``(|k|^2, k_x, k_y, phase)`` so that truncation to the first n modes is
    reproducible.
    """

    def __init__(self, n_modes: int, grid_size: int, include_mean: bool = True):
        if n_modes < 1:
            raise ConfigurationError("need at least one basis mode")
        k_limit = (grid_size - 1) // 3
        if k_limit < 1:
            raise ConfigurationError(f"grid_size={grid_size} leaves no alias-free band")
        entries: list[tuple[int, int, int]] = []
        if include_mean:
            entries.append((0, 0, _MEAN))
            entries.append((0, 0, _MEAN + 1))
        for kx, ky in mode_table(k_limit):
            if kx > 0 or (kx == 0 and ky > 0):
                entries.append((kx, ky, _COS))
                entries.append((kx, ky, _SIN))
            if len(entries) >= n_modes + 1:
                break
        if len(entries) < n_modes:
            raise ConfigurationError(
                f"grid_size={grid_size} supports only {len(entries)} basis modes, "
                f"requested {n_modes}"
            )
        entries = entries[:n_modes]

        self.n = n_modes
        self.grid_size = grid_size
        self.include_mean = include_mean
        self.kx = np.array([e[0] for e in entries], dtype=int)
        self.ky = np.array([e[1] for e in entries], dtype=int)
        self.phase = np.array([min(e[2], _MEAN) for e in entries], dtype=int)
        self.k2 = (self.kx**2 + self.ky**2).astype(float)
        self.k_max = int(max(1, np.max(np.abs(self.kx)), np.max(np.abs(self.ky))))
        if grid_size <= 3 * self.k_max:
            raise ConfigurationError(
                f"grid_size={grid_size} must exceed 3*k_max={3 * self.k_max} for the retained modes"
            )

        # Polarization k_perp/|k| for wave modes, coordinate unit vectors for means.
        pol = np.zeros((n_modes, 2))
        wave = self.k2 > 0
        kn = np.sqrt(np.where(wave, self.k2, 1.0))
        pol[:, 0] = np.where(wave, -self.ky / kn, 0.0)
        pol[:, 1] = np.where(wave, self.kx / kn, 0.0)
        mean_rows = np.flatnonzero(~wave)
        for comp, row in enumerate(mean_rows):
            pol[row, comp] = 1.0
        self.pol = pol

        # Scatter weights for the +k and -k coefficient images.
        w_plus = np.where(
            self.phase == _COS, 0.5 * _AMP + 0j,
            np.where(self.phase == _SIN, -0.5j * _AMP, _MEAN_AMP + 0j),
        )
        self._w_plus = w_plus
        self._w_minus = np.where(self.phase == _MEAN, 0.0, np.conj(w_plus))
        k = self.k_max
        self._rows_p = self.kx + k
        self._cols_p = self.ky + k
        self._rows_m = k - self.kx
        self._cols_m = k - self.ky

    def mass_multipliers(self, kappa: float) -> np.ndarray:
        return 1.0 + kappa * self.k2

    def scatter(self, c: np.ndarray) -> SpectralField:
        """Coefficient vector -> spectral field (u = sum_j c_j psi_j)."""
        c = np.asarray(c, dtype=float)
        k = self.k_max
        coeffs = np.zeros((2, 2 * k + 1, 2 * k + 1), dtype=complex)
        for comp in range(2):
            vp = c * self._w_plus * self.pol[:, comp]
            vm = c * self._w_minus * self.pol[:, comp]
            np.add.at(coeffs[comp], (self._rows_p, self._cols_p), vp)
            np.add.at(coeffs[comp], (self._rows_m, self._cols_m), vm)
        return SpectralField(coeffs, self.grid_size)

    def gather(self, f: SpectralField) -> np.ndarray:
        """L2 pairings (f, psi_j); the orthogonal projection onto the span."""
        off = f.k_max - self.k_max
        if off < 0:
            raise ValidationError("field truncation too small for this basis")
        vals = f.coeffs[:, self._rows_p + off, self._cols_p + off]
        z = self.pol[:, 0] * vals[0] + self.pol[:, 1] * vals[1]
        amp = 2.0 * np.sqrt(2.0) * np.pi
        return np.where(
            self.phase == _COS, amp * z.real,
            np.where(self.phase == _SIN, -amp * z.imag, 2.0 * np.pi * z.real),
        )

    def gather_grid(self, v: np.ndarray) -> np.ndarray:
        return self.gather(from_grid(v, self.k_max))

    def field_norms_sq(self, c: np.ndarray) -> tuple[float, float]:
        """(||u||_2^2, ||grad u||_2^2) in coefficient space."""
        c = np.asarray(c, dtype=float)
        return float(np.sum(c * c)), float(np.sum(self.k2 * c * c))

    def energy(self, c: np.ndarray, kappa: float) -> float:
        """||u||_2^2 + kappa ||grad u||_2^2."""
        l2, g2 = self.field_norms_sq(c)
        return l2 + kappa * g2


@dataclass
class StoppingMonitor:
    """First time ||grad u(t)||_2 reaches the threshold."""

    threshold: float
    tripped_at: float | None = None

    def check(self, grad_norm: float, t: float) -> bool:
        if self.tripped_at is None and self.threshold > 0 and grad_norm >= self.threshold:
            self.tripped_at = t
        return self.tripped_at is not None


def _spectral_div_tensor(t: SymTensorField, k_max: int, grid_size: int) -> SpectralField:
    """Divergence of a symmetric grid tensor, truncated to |k_i| <= k_max."""
    cxx = fields.scalar_from_grid(t.xx, k_max)
    cxy = fields.scalar_from_grid(t.xy, k_max)
    cyy = fields.scalar_from_grid(t.yy, k_max)
    kx, ky = fields.wavenumbers(k_max)
    v0 = 1j * (kx * cxx + ky * cxy)
    v1 = 1j * (kx * cxy + ky * cyy)
    return SpectralField(np.stack([v0, v1]), grid_size)


def forcing_at(forcing: np.ndarray, step):
    """Forcing coefficients at a step index, or at an array of them.  A static
    (n,) forcing applies at every step; a per-step (steps, n) one holds its
    last row past the end."""
    return forcing if forcing.ndim == 1 else forcing[np.minimum(step, forcing.shape[0] - 1)]


@dataclass
class PointwiseTerms:
    """Grid fields of one state: the pointwise stage of the drift kernel,
    also read by the pressure sources.  Terms that are switched off are None."""

    u: np.ndarray                   # (2, N, N) velocity samples
    jac: np.ndarray                 # (2, 2, N, N) Jacobian J[i, j] = d_i u_j
    d: SymTensorField               # D(u) = (J + J^T) / 2
    stress: SymTensorField          # A = |D|^(p-2) D, without the factor nu
    conv: SymTensorField | None     # u x u; None with convection off
    damping: np.ndarray | None      # alpha |u|^(q-2) u; None when alpha = 0
    noise_shape: np.ndarray | None  # shape(u); None when the noise is off

    @classmethod
    def at(cls, u: SpectralField, params: RheologyParams, noise: NoiseModel,
           convection: bool) -> "PointwiseTerms":
        u_grid = to_grid(u)
        jac = fields.gradient(u)
        d = SymTensorField(jac[0, 0], 0.5 * (jac[1, 0] + jac[0, 1]), jac[1, 1])
        u0, u1 = u_grid
        return cls(
            u=u_grid,
            jac=jac,
            d=d,
            stress=power_law_stress(d, params),
            conv=SymTensorField(u0 * u0, u0 * u1, u1 * u1) if convection else None,
            damping=stabilizer(u_grid, params) if params.alpha > 0 else None,
            noise_shape=noise.shape(u_grid) if noise.active else None,
        )


@dataclass
class DriftTerms:
    """Output of the drift kernel at one state."""

    b: np.ndarray          # drift coefficients
    s: np.ndarray          # noise projection (shape(u), psi_j); zero with the noise off
    dissipation_p: float   # ||D(u)||_p^p by grid quadrature
    grad_p: float          # ||grad u||_p^p by grid quadrature
    damping_q: float       # ||u||_q^q by grid quadrature


def assemble_drift_terms(
    basis: DivFreeBasis,
    u: SpectralField,
    f_coeffs: np.ndarray,
    params: RheologyParams,
    noise: NoiseModel,
    convection: bool = True,
) -> DriftTerms:
    """The drift kernel: Galerkin drift b_j = (f,psi_j) + (u x u : grad psi_j)
    - nu (A(u) : D(psi_j)) - alpha (a(u), psi_j), the noise projection
    s_j = (shape(u), psi_j), so that phi_k(u) projects to scale_k * s, and the
    quadrature scalars of the energy functionals, all from one pointwise stage."""
    pw = PointwiseTerms.at(u, params, noise, convection)
    n_grid = basis.grid_size
    w = quad_weight(n_grid)
    b = np.asarray(f_coeffs, dtype=float).copy()
    if pw.conv is not None:
        b -= basis.gather(_spectral_div_tensor(pw.conv, basis.k_max, n_grid))
    b += params.nu * basis.gather(_spectral_div_tensor(pw.stress, basis.k_max, n_grid))
    if pw.damping is not None:
        b -= basis.gather_grid(pw.damping)
    s = basis.gather_grid(pw.noise_shape) if pw.noise_shape is not None else np.zeros(basis.n)
    return DriftTerms(
        b=b,
        s=s,
        dissipation_p=float(np.sum(pw.d.modulus() ** params.p) * w),
        grad_p=float(np.sum(np.sqrt(np.sum(pw.jac**2, axis=(0, 1))) ** params.p) * w),
        damping_q=float(np.sum(np.sqrt(np.sum(pw.u**2, axis=0)) ** params.q) * w),
    )


@dataclass
class GalerkinState:
    """Time-stepper state: coefficient vector over the first n basis modes."""

    t: float
    c: np.ndarray
    basis: DivFreeBasis
    params: RheologyParams
    noise: NoiseModel
    dt: float
    forcing: np.ndarray          # (n,) static or (steps, n) per-step coefficients
    master_seed: int = 0
    path: int = 0
    step_index: int = 0
    convection: bool = True

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.basis.n,):
            raise ValidationError(f"coefficient vector has shape {self.c.shape}, expected ({self.basis.n},)")
        if self.dt <= 0:
            raise ValidationError(f"dt={self.dt} must be positive")

    def field(self) -> SpectralField:
        return self.basis.scatter(self.c)

    def grad_norm(self) -> float:
        return float(np.sqrt(self.basis.field_norms_sq(self.c)[1]))

    def energy(self) -> float:
        return self.basis.energy(self.c, self.params.kappa)


@dataclass
class Trajectory:
    """A realized path plus the drift kernel's record at each of its states.

    ``coeffs`` (S+1 states) and ``increments`` (S steps of raw Gaussian draws)
    reproduce the path.  For every stored state i, the final one included,
    ``run`` keeps the kernel's state-only outputs: the quadrature scalars
    ``dissipation_p``, ``grad_p`` and ``damping_q``, and with s the noise
    projection and M the mass multipliers, ``noise_mass_sq = s.(s/M)`` and
    ``c_dot_s = c.s``.  The ledger, the trajectory CSV, the moment functionals
    and the damping sweep are array reductions over this record; the terms
    that involve the increments (eta, the martingale) are formed from
    ``increments``, so the record stays valid under
    ``replace(traj, increments=...)``.  Replacing ``coeffs`` or ``params``
    leaves it stale: ``analysis.weak_form_residual`` and the pressure
    decomposition recompute from ``coeffs`` and ``params`` on purpose, since
    they are the independent checks of a stored path.
    """

    times: np.ndarray          # (S+1,)
    coeffs: np.ndarray         # (S+1, n)
    increments: np.ndarray     # (S, n_w)
    dissipation_p: np.ndarray  # (S+1,) ||D(u_i)||_p^p
    grad_p: np.ndarray         # (S+1,) ||grad u_i||_p^p
    damping_q: np.ndarray      # (S+1,) ||u_i||_q^q
    noise_mass_sq: np.ndarray  # (S+1,) s_i . (s_i / M)
    c_dot_s: np.ndarray        # (S+1,) c_i . s_i
    basis: DivFreeBasis
    params: RheologyParams
    noise: NoiseModel
    dt: float
    forcing: np.ndarray
    convection: bool
    tripped_at: float | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def field_at(self, i: int) -> SpectralField:
        return self.basis.scatter(self.coeffs[i])

    def energies(self) -> np.ndarray:
        kappa = self.params.kappa
        return np.sum((1.0 + kappa * self.basis.k2) * self.coeffs**2, axis=1)

    def grad_norms(self) -> np.ndarray:
        return np.sqrt(np.sum(self.basis.k2 * self.coeffs**2, axis=1))


def run(
    state0: GalerkinState,
    T: float,
    monitor: StoppingMonitor | None = None,
    increments: np.ndarray | None = None,
) -> Trajectory:
    """Advance to min(T, trip time) by semi-implicit Euler-Maruyama: exact
    diagonal mass solve, explicit drift, explicit noise increment.  The drift
    kernel runs once per stored state.  Deterministic given the seed lineage;
    pass ``increments`` to drive several runs with matched noise."""
    if T < 0:
        raise ValidationError(f"T={T} must be nonnegative")
    dt = state0.dt
    n_steps = int(round(T / dt)) if T > 0 else 0
    if abs(n_steps * dt - T) > 1e-12 * max(1.0, abs(T)):
        raise ValidationError(f"T={T} is not an integer number of steps of dt={dt}")
    if increments is not None and increments.shape[0] < n_steps:
        raise ValidationError("supplied increment array shorter than the run")

    basis, params, noise = state0.basis, state0.params, state0.noise
    mass = basis.mass_multipliers(params.kappa)
    scales = noise.mode_scales()

    speed0 = float(np.max(np.sqrt(np.sum(to_grid(state0.field()) ** 2, axis=0))))
    cfl = dt * speed0 * basis.k_max
    if cfl > 0.5:
        warnings.warn(
            f"dt*max|u|*k_max = {cfl:.3g} > 0.5: explicit convection may be unstable",
            stacklevel=2,
        )

    state = state0
    times = [state.t]
    coeffs = [state.c.copy()]
    incs = []
    record = []
    # One kernel evaluation per stored state: it drives the step out of a
    # state and gives that state's record row, the final state's included.
    while True:
        terms = assemble_drift_terms(
            basis, state.field(), forcing_at(state.forcing, state.step_index), params, noise,
            convection=state.convection,
        )
        record.append((
            terms.dissipation_p, terms.grad_p, terms.damping_q,
            float(np.sum(terms.s * terms.s / mass)), float(np.dot(state.c, terms.s)),
        ))
        i = len(incs)
        if (monitor is not None and monitor.check(state.grad_norm(), state.t)) or i == n_steps:
            break
        if increments is not None:
            db = np.asarray(increments[i, : noise.n_w], dtype=float)
        elif noise.active:
            db = sample_increment(state.master_seed, state.path, state.step_index, dt, noise.n_w).db
        else:
            db = np.zeros(noise.n_w)
        rhs = terms.b * dt
        if noise.active:
            rhs = rhs + terms.s * float(np.dot(scales, db))
        c_new = state.c + rhs / mass
        if not np.all(np.isfinite(c_new)):
            raise DivergenceError(state.step_index)
        state = replace(state, t=state.t + dt, c=c_new, step_index=state.step_index + 1)
        incs.append(db.copy())
        times.append(state.t)
        coeffs.append(state.c.copy())

    dissipation_p, grad_p, damping_q, noise_mass_sq, c_dot_s = np.asarray(record).T.copy()
    return Trajectory(
        times=np.asarray(times),
        coeffs=np.asarray(coeffs),
        increments=np.asarray(incs).reshape(len(incs), noise.n_w),
        dissipation_p=dissipation_p,
        grad_p=grad_p,
        damping_q=damping_q,
        noise_mass_sq=noise_mass_sq,
        c_dot_s=c_dot_s,
        basis=basis,
        params=params,
        noise=noise,
        dt=dt,
        forcing=state0.forcing,
        convection=state0.convection,
        tripped_at=None if monitor is None else monitor.tripped_at,
    )


def trajectory_csv(path, traj: Trajectory) -> None:
    """Per-state CSV: t, l2, grad_l2, lp_gradp, lq_q, energy, dissipation_acc,
    noise_trace_acc, tripped, read from the kernel record and the ledger.
    Floats carry 17 significant digits."""
    from .analysis import ledger_from_trajectory  # local import to keep layering one-way

    ledger = ledger_from_trajectory(traj)
    c = traj.coeffs
    l2 = np.sum(c * c, axis=1)
    g2 = np.sum(traj.basis.k2 * c * c, axis=1)
    columns = (
        traj.times, np.sqrt(l2), np.sqrt(g2), traj.grad_p, traj.damping_q,
        l2 + traj.params.kappa * g2,
        np.concatenate([[0.0], np.cumsum(ledger.dissipation)]),
        np.concatenate([[0.0], np.cumsum(ledger.ito_trace)]),
    )
    with open(path, "w", newline="") as fh:
        fh.write("t,l2,grad_l2,lp_gradp,lq_q,energy,dissipation_acc,noise_trace_acc,tripped\n")
        for i, t in enumerate(traj.times):
            tripped = int(traj.tripped_at is not None and t >= traj.tripped_at)
            fh.write(",".join(f"{col[i]:.17g}" for col in columns) + f",{tripped}\n")
