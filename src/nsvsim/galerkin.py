"""Finite-dimensional stochastic Galerkin system on the divergence-free
Fourier basis, advanced by semi-implicit Euler-Maruyama.

The basis is L2-orthonormal and diagonalizes the Voigt mass operator, so the
mass solve is an exact per-mode division by ``1 + kappa |k|^2``.  Drift terms
are evaluated pseudo-spectrally on the dealiased grid and projected back onto
the first ``n`` modes; the grid is required to satisfy ``N > 3 K`` so that
quadratic products are alias-free in the retained band, which is what makes
the discrete energy identities of the audits exact.

:func:`assemble_drift_terms` is the one drift kernel: it takes a
:class:`System`, a state's coefficients or a stack of them, evaluated in
chunks of bounded grid size, and the step whose forcing applies.  Its
pointwise stage (:class:`PointwiseTerms`, also at a system and coefficients)
forms u and its Jacobian on the grid by one inverse transform, D(u), |u|
and |D(u)| once each for every map and quadrature that scales by them, the
stress A, the flux nu A - u x u, the damping term and the noise shape; one
forward transform gives the drift source and the shape table, which the
kernel and the pressure both read.  The stage writes its other grid fields
into work arrays held per grid and source count and reused by every
evaluation, the flux and vector terms straight into the rows that the
forward transform reads; nothing the kernel returns views them.  The kernel
projects the tables to the drift ``b`` and the noise projection ``s``, and
that is all the solvability samplers and ``analysis.weak_form_residual``
read.  Only the stepper's call, :func:`drift_and_record`, also forms
|grad u|, the grid quadratures and the rest of the state's
:class:`StateRecord`, the one declaration of the columns that :func:`run`
records, and max |u|, from the same pointwise stage; both calls share one
chunk loop.

A :class:`System` is what every path of a stack solves: the basis, the
rheology, the noise, the step, the forcing and the convection switch,
declared once; the kernel, the pressure sources and the solvability samplers
take it whole.  A path is its initial coefficients and its (seed, path)
noise lineage.  :func:`run` steps a stack of paths of one system, each on
its own lineage, so that every row is bit for bit its own run; a single path
is a stack of one.  It allocates the stack's record once (coefficients,
increments, every :class:`StateRecord` column and the times), draws every
increment of the stack in one call before the first step, once per distinct
lineage, evaluates :func:`drift_and_record` once per step on the running
rows' coefficients and writes each step's column in place.  A row leaves the
stack on its own, with a :class:`Trajectory` of views of its own prefix of
the record, which every audit reads: a row that diverges as its
:class:`DivergenceError`, and a row stopped by the gradient threshold with
its stopping time as ``tripped_at``.  The experiments feed it stacks of
:func:`states_per_call` paths, one kernel chunk.  Two passes recompute from
the stored coefficients on purpose: ``analysis.weak_form_residual`` is the
independent check that catches a corrupted state, and the pressure
decomposition takes its tables from the pointwise stage at ``traj.coeffs``
under ``traj.system``, so that it describes whatever trajectory and system
it is handed.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import ConfigurationError, DivergenceError, ValidationError
from .fields import SpectralField, from_grid, mode_table, quad_weight, to_grid
from .noise import NoiseModel, sample_increment
from .rheology import RheologyParams, power_law_stress, stabilizer

_COS, _SIN, _MEAN = 0, 1, 2
_AMP = 1.0 / (np.pi * np.sqrt(2.0))  # L2-normalization of cos/sin basis fields, and their sup-norm
_MEAN_AMP = 1.0 / (2.0 * np.pi)


def band_limit(grid_size: int) -> int:
    """K of the alias-free band |k_x|, |k_y| <= K on an N grid, by the
    2/3 rule: K = (N - 1) // 3, so no mode |k| <= 2K of a quadratic product
    aliases into the band."""
    return (grid_size - 1) // 3


def basis_capacity(grid_size: int, include_mean: bool = True) -> int:
    """Number of basis fields in the alias-free band (:func:`band_limit`): a
    cosine and a sine per half-space wavevector, and the two means if kept."""
    k = band_limit(grid_size)
    return 4 * k * (k + 1) + 2 * include_mean


class DivFreeBasis:
    """First ``n`` real divergence-free Fourier basis fields on the torus.

    Per nonzero representative wavevector (half-space convention) there are a
    cosine and a sine field polarized along ``k_perp / |k|``; the two constant
    mean-flow fields come first when retained.  Entries are ordered by
    ``(|k|^2, k_x, k_y, phase)`` so that truncation to the first n modes is
    reproducible.
    """

    def __init__(self, n_modes: int, grid_size: int, include_mean: bool = True):
        k_limit = band_limit(grid_size)
        if k_limit < 1:
            raise ConfigurationError(f"grid_size={grid_size} leaves no alias-free band")
        capacity = basis_capacity(grid_size, include_mean)
        if not 1 <= n_modes <= capacity:
            raise ConfigurationError(
                f"grid_size={grid_size} supports 1 to {capacity} basis modes, requested {n_modes}"
            )
        # The sorted table of the square |k_x|, |k_y| <= r begins with the disk
        # |k| <= r in the full band's order, and that disk holds at least
        # pi (r - 1/sqrt(2))^2 wavevectors: at this r, enough for the n_modes + 1
        # entries the loop takes, so no larger square needs sorting.
        r = min(k_limit, math.ceil(math.sqrt((n_modes + 2) / math.pi)) + 1)
        entries: list[tuple[int, int, int]] = []
        if include_mean:
            entries.append((0, 0, _MEAN))
            entries.append((0, 0, _MEAN + 1))
        for kx, ky in mode_table(r):
            if kx > 0 or (kx == 0 and ky > 0):
                entries.append((kx, ky, _COS))
                entries.append((kx, ky, _SIN))
            if len(entries) >= n_modes + 1:
                break
        entries = entries[:n_modes]

        self.n = n_modes
        self.grid_size = grid_size
        self.kx = np.array([e[0] for e in entries], dtype=int)
        self.ky = np.array([e[1] for e in entries], dtype=int)
        self.phase = np.array([min(e[2], _MEAN) for e in entries], dtype=int)
        self.k2 = (self.kx**2 + self.ky**2).astype(float)
        self.k_max = int(max(1, np.max(np.abs(self.kx)), np.max(np.abs(self.ky))))

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

        # Scatter weights of the +k and -k images, each with the modes whose
        # image falls in the ky >= 0 half, and its (row, column) there.
        w_plus = np.where(
            self.phase == _COS, 0.5 * _AMP + 0j,
            np.where(self.phase == _SIN, -0.5j * _AMP, _MEAN_AMP + 0j),
        )
        w_minus = np.where(self.phase == _MEAN, 0.0, np.conj(w_plus))
        self._images = []
        for sign, w, keep in ((1, w_plus, self.ky >= 0), (-1, w_minus, self.ky <= 0)):
            m = np.flatnonzero(keep)
            self._images.append((m, w[m], pol.T[:, m], sign * self.kx[m] + self.k_max, sign * self.ky[m]))
        # gather reads a mode with ky < 0 at -k, conjugated
        self._conj = self.ky < 0
        self._gather_kx = np.where(self._conj, -self.kx, self.kx)

    def mass_multipliers(self, kappa: float) -> np.ndarray:
        return 1.0 + kappa * self.k2

    def scatter(self, c: np.ndarray) -> np.ndarray:
        """Coefficients (..., n) -> vector tables (..., 2, 2K+1, K+1), K = ``k_max``,
        of u = sum_j c_j psi_j."""
        c = np.asarray(c, dtype=float)[..., None, :]
        k = self.k_max
        coeffs = np.zeros(c.shape[:-2] + (2, 2 * k + 1, k + 1), dtype=complex)
        for modes, w, pol, rows, cols in self._images:
            # grouped (c * w) * pol: c * (w * pol) rounds differently
            np.add.at(coeffs, (..., rows, cols), c[..., modes] * w * pol)
        return coeffs

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """L2 pairings (f, psi_j), shape (..., n), for the vector tables
        (..., 2, 2K'+1, K'+1) of f, K' >= ``k_max``; the orthogonal projection."""
        k = coeffs.shape[-1] - 1
        if k < self.k_max:
            raise ValidationError("field truncation too small for this basis")
        vals = coeffs[..., self._gather_kx + k, np.abs(self.ky)]
        vals = np.where(self._conj, np.conj(vals), vals)
        z = self.pol[:, 0] * vals[..., 0, :] + self.pol[:, 1] * vals[..., 1, :]
        amp = 2.0 * np.sqrt(2.0) * np.pi
        # C order: over a stack, the fancy index leaves the mode axis outermost
        # in memory, and BLAS dot products of strided rows round differently
        return np.ascontiguousarray(np.where(
            self.phase == _COS, amp * z.real,
            np.where(self.phase == _SIN, -amp * z.imag, 2.0 * np.pi * z.real),
        ))

    def gather_grid(self, v: np.ndarray) -> np.ndarray:
        return self.gather(from_grid(v, self.k_max))

    def field_norms_sq(self, c: np.ndarray) -> tuple:
        """(||u||_2^2, ||grad u||_2^2) in coefficient space, for coefficients (..., n)."""
        c = np.asarray(c, dtype=float)
        return np.sum(c * c, axis=-1), np.sum(self.k2 * c * c, axis=-1)

    def energy(self, c: np.ndarray, kappa: float) -> np.ndarray:
        """The Voigt energy ||u||_2^2 + kappa ||grad u||_2^2, for coefficients (..., n)."""
        l2, g2 = self.field_norms_sq(c)
        return l2 + kappa * g2


@dataclass(frozen=True, eq=False)
class System:
    """The Galerkin system that every path of a stack solves."""

    basis: DivFreeBasis
    params: RheologyParams
    noise: NoiseModel
    dt: float
    forcing: np.ndarray          # (n,) static or (steps, n) per-step coefficients
    convection: bool

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError(f"dt={self.dt} must be positive")


def forcing_at(forcing: np.ndarray, step):
    """Forcing coefficients at a step index, or at an array of them.  A static
    (n,) forcing applies at every step; a per-step (steps, n) one holds its
    last row past the end."""
    return forcing if forcing.ndim == 1 else forcing[np.minimum(step, forcing.shape[0] - 1)]


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b over the last axis, each row rounded as ``np.dot`` rounds it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


_WORK: dict = {}  # (grid_size, source rows) -> work arrays of the largest chunk so far


def _work_arrays(states: int, grid_size: int, sources: int) -> tuple:
    """The pointwise stage's work arrays for a chunk of ``states`` states on
    an N-grid: the inverse transform's rows (states, 3, 2, N, N), u and its
    Jacobian; D(u) and the stress, (states, 3, N, N) each; and the forward
    transform's rows (states, ``sources``, N, N).  They are leading slices of
    one set per grid and source count, sized for the largest chunk so far,
    so that a stack's last, shorter chunk and a single state reuse it and no
    evaluation maps fresh pages for them, whatever the allocator does."""
    held = _WORK.get((grid_size, sources))
    if held is None or len(held[0]) < states:
        n = grid_size
        held = _WORK[grid_size, sources] = (
            np.empty((states, 3, 2, n, n)), np.empty((states, 3, n, n)), np.empty((states, 3, n, n)),
            np.empty((states, sources, n, n)))
    return tuple(a[:states] for a in held)


@dataclass
class PointwiseTerms:
    """Grid fields of a state, or of a stack of states along the leading axes
    ``...``: the pointwise stage of the drift kernel, also read by the
    pressure sources.  Terms that are switched off are None.  The drift's nu
    and signs are applied here only: in the flux rows of ``sources`` and in
    :meth:`drift_tables`, the one drift source.  The moduli |u| and |D(u)|
    are formed once each, here, and are fresh arrays; the stepper's kernel
    call forms |grad u| from ``jac`` for its quadrature, and the drift alone
    and the pressure, which read no quadrature, never form it.  Every other
    grid field views the stage's work arrays, which the next evaluation on
    the same grid and source count overwrites: read them before it, and
    evaluate from one thread at a time."""

    speed: np.ndarray               # (..., N, N) |u|: the damping, the noise shape, max |u|, ||u||_q^q
    jac: np.ndarray                 # (..., 4, N, N) the components of grad u, read by ||grad u||_p^p
    d_modulus: np.ndarray           # (..., N, N) |D(u)|, read by the stress and the dissipation
    stress: np.ndarray              # (..., 3, N, N) A = |D|^(p-2) D, without the factor nu
    sources: np.ndarray             # (..., 3|5|7, N, N) rows: flux nu A - u x u, damping, noise_shape
    damping: np.ndarray | None      # (..., 2, N, N) alpha |u|^(q-2) u; None when alpha = 0
    noise_shape: np.ndarray | None  # (..., 2, N, N) shape(u); None when the noise is off

    @classmethod
    def at(cls, system: System, c: np.ndarray) -> "PointwiseTerms":
        """The grid fields of ``system`` at the coefficients ``c`` (..., n)."""
        params, noise, grid_size = system.params, system.noise, system.basis.grid_size
        u = system.basis.scatter(c)
        lead = u.shape[:-3]
        rows, d, stress, sources = (a.reshape(lead + a.shape[1:]) for a in _work_arrays(
            math.prod(lead), grid_size, 3 + 2 * (params.alpha > 0) + 2 * noise.active))
        to_grid(np.concatenate([u[..., None, :, :, :], fields.gradient_table(u)], axis=-4), grid_size,
                out=rows)
        u_grid, jac = rows[..., 0, :, :, :], rows[..., 1:, :, :, :]
        speed = fields.modulus(u_grid)
        damping = noise_shape = None
        if params.alpha > 0:
            damping = stabilizer(u_grid, speed, params, out=sources[..., 3:5, :, :])
        if noise.active:
            noise_shape = sources[..., -2:, :, :]
            noise_shape[...] = noise.shape(u_grid, speed)
        d = fields.sym_gradient(jac, out=d)
        d_modulus = fields.sym_modulus(d)
        stress = power_law_stress(d, d_modulus, params.p, out=stress)
        flux = np.multiply(params.nu, stress, out=sources[..., :3, :, :])
        if system.convection:
            u0, u1 = u_grid[..., 0, :, :], u_grid[..., 1, :, :]
            flux[..., 0, :, :] -= u0 * u0
            flux[..., 1, :, :] -= u0 * u1
            flux[..., 2, :, :] -= u1 * u1
        return cls(speed=speed, jac=jac.reshape(lead + (4,) + jac.shape[-2:]), d_modulus=d_modulus,
                   stress=stress, sources=sources, damping=damping, noise_shape=noise_shape)

    def drift_tables(self, k_max: int) -> tuple:
        """Tables (drift, shape), each (..., 2, 2K+1, K+1) with K = ``k_max``,
        of the drift source div(nu A - u x u) - alpha |u|^(q-2) u and of
        shape(u), by one forward transform of the flux, the damping term and
        the noise shape; ``shape`` is None with the noise off."""
        tables = from_grid(self.sources, k_max)
        drift = fields.tensor_divergence(tables[..., :3, :, :])
        if self.damping is not None:
            drift -= tables[..., 3:5, :, :]
        return drift, (tables[..., -2:, :, :] if self.noise_shape is not None else None)


@dataclass
class DriftTerms:
    """Output of the drift kernel at a state, or at each state of a stack of
    states with leading shape ``...``: the step's terms."""

    b: np.ndarray              # (..., n) drift coefficients
    s: np.ndarray              # (..., n) noise projection (shape(u), psi_j); zero with the noise off


@dataclass
class StateRecord:
    """The columns that :func:`run` records at each stored state, of the
    stack's leading shape ``...``: a column is one field here and its
    expression in :func:`_state_record`.  s is the noise projection, M = 1 +
    kappa |k|^2."""

    dissipation_p: np.ndarray  # (...) ||D(u)||_p^p by grid quadrature
    grad_p: np.ndarray         # (...) ||grad u||_p^p by grid quadrature
    damping_q: np.ndarray      # (...) ||u||_q^q by grid quadrature
    noise_mass_sq: np.ndarray  # (...) s.(s/M)
    c_dot_s: np.ndarray        # (...) c.s, each row rounded as in its own call


@dataclass
class RecordedDriftTerms(StateRecord, DriftTerms):
    """Output of :func:`drift_and_record`: the drift terms, the state's
    record and max |u|, of the stack's leading shape ``...``."""

    max_speed: np.ndarray      # (...) max |u| over the grid, read by the CFL warning


# Grid points per kernel evaluation of a stack.  Larger chunks cut the
# per-call overhead further but raise peak memory with every state added.
_STACK_POINTS = 8 * 32**2


def states_per_call(grid_size: int) -> int:
    """States per kernel evaluation of a stack on this grid: 8 at grid 32, 2
    at grid 64, 1 from grid 128 up.  The experiments run their paths in
    stacks of this many."""
    return max(1, _STACK_POINTS // grid_size**2)


def assemble_drift_terms(system: System, c: np.ndarray, step) -> DriftTerms:
    """The drift kernel of ``system``: Galerkin drift b_j = (f,psi_j) + (drift,
    psi_j) for the forcing f at ``step`` and the drift source of
    :meth:`PointwiseTerms.drift_tables`, that is (f,psi_j) + (u x u : grad
    psi_j) - nu (A(u) : D(psi_j)) - alpha (a(u), psi_j), and the noise
    projection s_j = (shape(u), psi_j), so that phi_k(u) projects to scale_k
    * s, from one pointwise stage.  ``c`` holds the coefficients of one state
    (n,) or of a stack of states (..., n), and ``step``, an int or an int
    array, broadcasts against its leading shape; every output has the
    stack's leading shape.  A stack is evaluated in chunks of at most
    :func:`states_per_call` states, and each state's outputs are bit for bit
    those of its own call.  It forms no record: the solvability samplers and
    the weak-form residual read only b and s, and :func:`run` takes them
    with the record from :func:`drift_and_record`."""
    return _chunked(_drift, system, c, step)


def drift_and_record(system: System, c: np.ndarray, step) -> RecordedDriftTerms:
    """The stepper's kernel call: the drift terms of
    :func:`assemble_drift_terms`, bit for bit, and each state's
    :class:`StateRecord` and max |u|, from the same pointwise stage and the
    same chunks."""
    return _chunked(_drift_and_record, system, c, step)


def _chunked(evaluate, system: System, c: np.ndarray, step):
    """``evaluate`` (:func:`_drift` or :func:`_drift_and_record`) at the
    coefficients ``c`` (..., n) and the forcing at ``step``, over chunks of
    at most :func:`states_per_call` states, its outputs in the stack's
    leading shape."""
    basis = system.basis
    c = np.asarray(c, dtype=float)
    f = forcing_at(system.forcing, step)
    lead = c.shape[:-1]
    states = math.prod(lead)
    per_call = states_per_call(basis.grid_size)
    if states <= per_call:
        return evaluate(system, c, f)
    c = c.reshape(states, basis.n)
    f = np.broadcast_to(f, lead + (basis.n,)).reshape(states, basis.n)
    for i in range(0, states, per_call):
        part = evaluate(system, c[i:i + per_call], f[i:i + per_call])
        if i == 0:  # preallocated in the first chunk's shapes: concatenated chunks raise peak memory
            out = {name: np.empty((states,) + value.shape[1:]) for name, value in vars(part).items()}
        for name, value in vars(part).items():
            out[name][i:i + per_call] = value
    return type(part)(**{name: value.reshape(lead + value.shape[1:]) for name, value in out.items()})


def _drift(system: System, c: np.ndarray, f: np.ndarray) -> DriftTerms:
    """The drift terms at a state or at one chunk of a stack, by one pointwise stage."""
    return _project(system, PointwiseTerms.at(system, c), f)


def _drift_and_record(system: System, c: np.ndarray, f: np.ndarray) -> RecordedDriftTerms:
    """The drift terms, the record and max |u| at a state or at one chunk of
    a stack, by one pointwise stage."""
    pw = PointwiseTerms.at(system, c)
    terms = _project(system, pw, f)
    return RecordedDriftTerms(**vars(terms), **vars(_state_record(system, pw, c, terms.s)),
                              max_speed=pw.speed.max(axis=(-2, -1)))


def _project(system: System, pw: PointwiseTerms, f: np.ndarray) -> DriftTerms:
    """b and s from the pointwise stage's tables, for the forcing ``f``."""
    basis = system.basis
    drift, shape = pw.drift_tables(basis.k_max)
    pairings = basis.gather(np.stack([drift] if shape is None else [drift, shape], axis=-4))
    b = f + pairings[..., 0, :]
    return DriftTerms(b=b, s=np.zeros_like(b) if shape is None else pairings[..., 1, :])


def _state_record(system: System, pw: PointwiseTerms, c: np.ndarray, s: np.ndarray) -> StateRecord:
    """The record of the states ``c``, from their pointwise stage ``pw`` and
    their noise projection ``s``: the grid quadratures and the s reductions."""
    basis, params = system.basis, system.params
    w = quad_weight(basis.grid_size)
    return StateRecord(
        dissipation_p=(pw.d_modulus ** params.p).sum(axis=(-2, -1)) * w,
        grad_p=(fields.modulus(pw.jac) ** params.p).sum(axis=(-2, -1)) * w,
        damping_q=(pw.speed**params.q).sum(axis=(-2, -1)) * w,
        noise_mass_sq=(s * s / basis.mass_multipliers(params.kappa)).sum(axis=-1),
        c_dot_s=row_dot(c, s),
    )


@dataclass
class Trajectory(StateRecord):
    """A realized path of ``system`` plus the drift kernel's record at each of
    its states.

    ``coeffs`` (S+1 states) and ``increments`` (S steps of raw Gaussian draws)
    reproduce the path; ``run`` keeps every :class:`StateRecord` column at
    each stored state, the final one included.  The ledger, the trajectory
    CSV, the moment functionals and the damping sweep are array reductions
    over this record; the terms that involve the increments (:meth:`etas`,
    the martingale) are formed from ``increments``, so the record stays valid
    under ``replace(traj, increments=...)``.  Replacing ``coeffs`` or
    ``system`` (``replace(traj, system=...)``) leaves it stale:
    ``analysis.weak_form_residual`` and the pressure decomposition recompute
    from ``coeffs`` and ``system`` on purpose, since they are the independent
    checks of a stored path.
    """

    times: np.ndarray          # (S+1,)
    coeffs: np.ndarray         # (S+1, n)
    increments: np.ndarray     # (S, n_w)
    system: System
    tripped_at: float | None = None

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def field_at(self, i: int) -> SpectralField:
        basis = self.system.basis
        return SpectralField(basis.scatter(self.coeffs[i]), basis.grid_size)

    def energies(self) -> np.ndarray:
        return self.system.basis.energy(self.coeffs, self.system.params.kappa)

    def etas(self) -> np.ndarray:
        """Per-step noise scalars eta_i = sum_k scale_k dW_k, (S,), each rounded
        as in its step of :func:`run`; zero with the noise off."""
        return row_dot(self.increments, self.system.noise.mode_scales())


class Paths(list):
    """What :func:`run` returns: for each path of the stack, in order, its
    :class:`Trajectory` or the :class:`DivergenceError` that ended it."""

    @property
    def n_steps(self) -> int:
        """Steps taken by the finished paths, summed over the stack."""
        return sum(r.n_steps for r in self if isinstance(r, Trajectory))


def run(
    system: System,
    c0: np.ndarray,
    lineages: Sequence[tuple[int, int]],
    T: float,
    grad_threshold: float = 0.0,
    increments: np.ndarray | None = None,
) -> Paths:
    """Advance a stack of paths of ``system`` from t = 0 to T by semi-implicit
    Euler-Maruyama: exact diagonal mass solve, explicit drift, explicit noise
    increment.  Row r starts from ``c0[r]`` ((states, n) for states >= 1)
    and draws its increments from the lineage ``lineages[r]``, a (seed, path)
    pair; every step of each distinct lineage is drawn in one call before the
    first step, so each row is bit for bit its own run, and a single path is
    a stack of one.  Each step evaluates :func:`drift_and_record` once on
    the stack, once per stored state of every row.  A row leaves the stack
    on its own: at a nonfinite state, as the DivergenceError of that step,
    or with ``grad_threshold`` > 0 at its first state with ||grad u||_2 >=
    ``grad_threshold``, whose time it records as ``tripped_at``.  Each
    row's Trajectory views its own prefix of the stack's record, so the rows
    share no writable element; ``times`` is shared and read-only.  Pass
    ``increments`` (states, >= steps, >= n_w) to drive runs with matched
    noise; any other shape is a ValidationError before the first step."""
    basis, params, noise, dt = system.basis, system.params, system.noise, system.dt
    c0 = np.asarray(c0, dtype=float)
    if c0.ndim != 2 or len(c0) < 1 or c0.shape[1] != basis.n:
        raise ValidationError(f"initial coefficients have the shape {c0.shape}, "
                              f"need (states >= 1, {basis.n})")
    states = len(c0)
    if len(lineages) != states:
        raise ValidationError(f"{len(lineages)} noise lineages for a stack of {states} states")
    if T < 0:
        raise ValidationError(f"T={T} must be nonnegative")
    n_steps = int(round(T / dt)) if T > 0 else 0
    if abs(n_steps * dt - T) > 1e-12 * max(1.0, abs(T)):
        raise ValidationError(f"T={T} is not an integer number of steps of dt={dt}")
    given = None if increments is None else np.shape(increments)
    if given is not None and (len(given) != 3 or given[0] != states):
        raise ValidationError(f"supplied increments have the shape {given}, need (states, steps, n_w) "
                              f"with {states} states")
    if given is not None and (given[1] < n_steps or given[2] < noise.n_w):
        raise ValidationError(f"supplied increments of shape {given} are shorter than the run's "
                              f"{n_steps} steps of {noise.n_w} noise modes")
    mass = basis.mass_multipliers(params.kappa)
    scales = noise.mode_scales()
    # the stack's record, written in place: a row's Trajectory views its prefix
    coeffs = np.empty((states, n_steps + 1, basis.n))
    if increments is not None:
        incs = np.asarray(increments, dtype=float)[:, :n_steps, :noise.n_w].copy()
    elif noise.active:  # every step of each distinct lineage drawn at once, copied to its rows
        distinct = {lineage: j for j, lineage in enumerate(dict.fromkeys(lineages))}
        incs = sample_increment(list(distinct), n_steps, dt, noise.n_w)[[distinct[x] for x in lineages]]
    else:
        incs = np.zeros((states, n_steps, noise.n_w))
    record = {f.name: np.empty((states, n_steps + 1)) for f in dataclasses.fields(StateRecord)}
    times = np.concatenate([[0.0], np.cumsum(np.full(n_steps, dt))])  # t += dt, step by step
    times.flags.writeable = False  # shared by every row
    coeffs[:, 0] = c0
    rows = np.arange(states)  # the stack's rows still running
    out = Paths([None] * states)

    # One kernel evaluation per step: it drives the step out of each row's
    # state and gives that state's record column, the final state's included.
    for i in range(n_steps + 1):
        c = coeffs[rows, i]
        terms = drift_and_record(system, c, i)
        if i == 0:  # checked at the initial states only
            for cfl in dt * terms.max_speed * basis.k_max:
                if cfl > 0.5:
                    warnings.warn(
                        f"dt*max|u|*k_max = {cfl:.3g} > 0.5: explicit convection may be unstable",
                        stacklevel=2,
                    )
        for name, column in record.items():
            column[rows, i] = getattr(terms, name)
        tripped = np.zeros(len(rows), dtype=bool)
        if grad_threshold > 0:
            tripped = np.sqrt(basis.field_norms_sq(c)[1]) >= grad_threshold
        for row, trip in zip(rows, tripped):
            if trip or i == n_steps:
                out[row] = Trajectory(
                    **{name: column[row, : i + 1] for name, column in record.items()},
                    times=times[: i + 1], coeffs=coeffs[row, : i + 1], increments=incs[row, :i],
                    system=system, tripped_at=float(times[i]) if trip else None,
                )
        going = ~tripped
        rows = rows[going]
        if i == n_steps or not rows.size:
            break
        rhs = terms.b[going] * dt
        if noise.active:
            rhs = rhs + terms.s[going] * row_dot(incs[rows, i], scales)[:, None]
        c = c[going] + rhs / mass
        finite = np.all(np.isfinite(c), axis=-1)
        for row in rows[~finite]:
            out[row] = DivergenceError(i, lineages[row][1])
        rows = rows[finite]
        coeffs[rows, i + 1] = c[finite]
        if not rows.size:
            break
    return out


def trajectory_csv(path, traj: Trajectory, ledger) -> None:
    """Per-state CSV: t, l2, grad_l2, lp_gradp, lq_q, energy, dissipation_acc,
    noise_trace_acc, tripped, read from the kernel record and from ``ledger``,
    the energy ledger of ``traj``.  Floats carry 17 significant digits."""
    l2, g2 = traj.system.basis.field_norms_sq(traj.coeffs)
    columns = (
        traj.times, np.sqrt(l2), np.sqrt(g2), traj.grad_p, traj.damping_q,
        l2 + traj.system.params.kappa * g2,
        np.concatenate([[0.0], np.cumsum(ledger.dissipation)]),
        np.concatenate([[0.0], np.cumsum(ledger.ito_trace)]),
    )
    with open(path, "w", newline="") as fh:
        fh.write("t,l2,grad_l2,lp_gradp,lq_q,energy,dissipation_acc,noise_trace_acc,tripped\n")
        for i, t in enumerate(traj.times):
            tripped = int(traj.tripped_at is not None and t >= traj.tripped_at)
            fh.write(",".join(f"{col[i]:.17g}" for col in columns) + f",{tripped}\n")
