"""Pressure recovery and decomposition on the torus, plus a Bogovskii-type
divergence solver on the unit square.

On the torus every lift is an explicit Fourier multiplier: the drift pressure
solves ``laplace(pi) = div div H`` slice by slice, the stochastic part is the
inverse-Laplacian divergence of the accumulated noise, and the harmonic part
is identically zero once means are removed, which the decomposition asserts
rather than assumes.  The square-domain solver exercises the bounded-domain
right inverse of the divergence that the torus cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from .errors import ValidationError
from .fields import SymTensorField, quad_weight, scalar_from_grid, scalar_to_grid
from .galerkin import PointwiseTerms, Trajectory, forcing_at


def _inv_laplace_divdiv(cxx, cxy, cyy, k_max: int) -> np.ndarray:
    """Coefficients of the mean-zero solution of laplace(pi) = div div T
    for a symmetric tensor with centered coefficient tables."""
    kx, ky = fields.wavenumbers(k_max)
    k2 = kx * kx + ky * ky
    quad = kx * kx * cxx + 2.0 * kx * ky * cxy + ky * ky * cyy
    out = np.where(k2 > 0, quad / np.where(k2 > 0, k2, 1.0), 0.0)
    return out


def recover_pressure(H: SymTensorField) -> np.ndarray:
    """Mean-zero grid pressure with laplace(pi) = div div H."""
    n = H.grid_size
    k_max = (n - 2) // 2
    cxx = scalar_from_grid(H.xx, k_max)
    cxy = scalar_from_grid(H.xy, k_max)
    cyy = scalar_from_grid(H.yy, k_max)
    return scalar_to_grid(_inv_laplace_divdiv(cxx, cxy, cyy, k_max), n)


def _inv_laplace_div(cv: np.ndarray, k_max: int) -> np.ndarray:
    """Coefficients of the mean-zero solution of laplace(pi) = div v."""
    kx, ky = fields.wavenumbers(k_max)
    k2 = kx * kx + ky * ky
    div = 1j * (kx * cv[0] + ky * cv[1])
    return np.where(k2 > 0, -div / np.where(k2 > 0, k2, 1.0), 0.0)


@dataclass
class PressureParts:
    """Slice-by-slice decomposition of the recovered pressure.

    ``pi1``/``pi2`` are the stress and convective drift-pressure rates, their
    time integral plus the stochastic part ``pi_phi`` recombines to the total;
    ``pi_h`` is the leftover harmonic part, identically zero on the torus.
    Every slice is mean-zero.
    """

    times: np.ndarray
    pi1: np.ndarray        # (S+1, N, N) rate from the power-law stress
    pi2: np.ndarray        # (S+1, N, N) rate from convection, damping, forcing
    pi_phi: np.ndarray     # (S+1, N, N) stochastic part
    pi_h: np.ndarray       # (S+1, N, N) harmonic remainder
    pi_total: np.ndarray   # (S+1, N, N) independently accumulated pressure
    recombination_residual: np.ndarray  # (S+1,) L2 defect per slice

    def max_residual(self) -> float:
        return float(np.max(self.recombination_residual))


def _slice_ingredients(traj: Trajectory, i: int, k_max: int):
    """Coefficient tables of the slice-i pressure sources.

    Returns (stress tensor tables scaled by nu, convection tensor tables,
    vector table of f - alpha a(u), noise shape-field tables).  ``pi1`` lifts
    the first, ``pi2`` lifts the rest; convection enters the flux with the
    opposite sign of the stress.  The grid fields come from the drift
    kernel's pointwise stage, evaluated at ``traj.coeffs[i]`` under
    ``traj.params`` rather than read from the kernel record, so the
    decomposition follows whatever parameters the trajectory carries.
    """
    params = traj.params
    pw = PointwiseTerms.at(traj.field_at(i), params, traj.noise, traj.convection)
    block = (2 * k_max + 1, 2 * k_max + 1)
    stress = tuple(
        params.nu * scalar_from_grid(comp, k_max)
        for comp in (pw.stress.xx, pw.stress.xy, pw.stress.yy)
    )
    if pw.conv is not None:
        conv = tuple(
            scalar_from_grid(comp, k_max) for comp in (pw.conv.xx, pw.conv.xy, pw.conv.yy)
        )
    else:
        conv = tuple(np.zeros(block, dtype=complex) for _ in range(3))
    vec = np.zeros((2,) + block, dtype=complex)
    fc = forcing_at(traj.forcing, i)
    if np.any(fc):
        f_spec = traj.basis.scatter(fc)
        off = f_spec.k_max
        sl = slice(k_max - off, k_max + off + 1)
        vec[:, sl, sl] += f_spec.coeffs
    if pw.damping is not None:
        vec[0] -= scalar_from_grid(pw.damping[0], k_max)
        vec[1] -= scalar_from_grid(pw.damping[1], k_max)
    if pw.noise_shape is not None:
        noise_tab = np.stack([scalar_from_grid(comp, k_max) for comp in pw.noise_shape])
    else:
        noise_tab = np.zeros_like(vec)
    return stress, conv, vec, noise_tab


def decompose_pressure(traj: Trajectory) -> PressureParts:
    """Split the trajectory's pressure into stress, convective, stochastic and
    harmonic parts and verify the recombination slice by slice.

    Two independent routes are compared: the per-slice parts are lifted first
    and then time-integrated, while the total pressure integrates the raw
    sources first and lifts once per slice.  Their agreement (linearity of the
    lifts) is the recombination residual.
    """
    basis = traj.basis
    n = basis.grid_size
    k_max = n // 3
    s_steps = traj.n_steps
    scales = traj.noise.mode_scales()
    w = quad_weight(n)

    shape = (s_steps + 1, n, n)
    pi1 = np.zeros(shape)
    pi2 = np.zeros(shape)
    pi_phi = np.zeros(shape)
    pi_h = np.zeros(shape)
    pi_total = np.zeros(shape)
    residual = np.zeros(s_steps + 1)

    block = (2 * k_max + 1, 2 * k_max + 1)
    tens_acc = [np.zeros(block, dtype=complex) for _ in range(3)]  # nu A - u x u, integrated
    vec_acc = np.zeros((2,) + block, dtype=complex)                # f - alpha a, integrated
    noise_acc = np.zeros((2,) + block, dtype=complex)              # accumulated noise field
    drift_int = np.zeros((n, n))                                   # int (pi1 + pi2) ds

    for i in range(s_steps + 1):
        stress, conv, vec, noise_tab = _slice_ingredients(traj, i, k_max)
        c1 = _inv_laplace_divdiv(*stress, k_max)
        c2 = -_inv_laplace_divdiv(*conv, k_max) + _inv_laplace_div(vec, k_max)
        pi1[i] = scalar_to_grid(c1, n)
        pi2[i] = scalar_to_grid(c2, n)
        pi_phi[i] = scalar_to_grid(_inv_laplace_div(noise_acc, k_max), n)

        total_c = _inv_laplace_divdiv(
            tens_acc[0], tens_acc[1], tens_acc[2], k_max
        ) + _inv_laplace_div(vec_acc + noise_acc, k_max)
        pi_total[i] = scalar_to_grid(total_c, n)
        recombined = pi_phi[i] + drift_int
        pi_h[i] = pi_total[i] - recombined
        residual[i] = float(np.sqrt(np.sum(pi_h[i] ** 2) * w))

        if i < s_steps:
            for comp in range(3):
                tens_acc[comp] += (stress[comp] - conv[comp]) * traj.dt
            vec_acc += vec * traj.dt
            if traj.noise.active:
                eta = float(np.dot(scales, traj.increments[i]))
                noise_acc += eta * noise_tab
            drift_int = drift_int + (pi1[i] + pi2[i]) * traj.dt

    return PressureParts(
        times=traj.times,
        pi1=pi1,
        pi2=pi2,
        pi_phi=pi_phi,
        pi_h=pi_h,
        pi_total=pi_total,
        recombination_residual=residual,
    )


def momentum_gradient_residual(traj: Trajectory, parts: PressureParts) -> float:
    """Defect of the tested momentum identity against gradient test modes.

    For every retained wavevector and every slice, compares the accumulated
    flux divergence against the Laplacian of the recovered total pressure
    (the mass and solenoidal terms drop out against gradient modes).  The
    accumulation here is recomputed from the trajectory, independently of the
    bookkeeping inside :func:`decompose_pressure`.
    """
    n = traj.basis.grid_size
    k_max = n // 3
    kx, ky = fields.wavenumbers(k_max)
    k2 = kx * kx + ky * ky
    scales = traj.noise.mode_scales()

    tens = [np.zeros((2 * k_max + 1, 2 * k_max + 1), dtype=complex) for _ in range(3)]
    vec = np.zeros((2, 2 * k_max + 1, 2 * k_max + 1), dtype=complex)
    worst = 0.0
    for i in range(traj.n_steps + 1):
        # div F + v at the accumulated level; identity: |k|^2 pi_hat = -i k . F_hat
        fx = 1j * (kx * tens[0] + ky * tens[1]) + vec[0]
        fy = 1j * (kx * tens[1] + ky * tens[2]) + vec[1]
        pi_hat = scalar_from_grid(parts.pi_total[i], k_max)
        defect = 1j * (kx * fx + ky * fy) + k2 * pi_hat
        scale = max(float(np.max(np.abs(np.stack([fx, fy])))), 1e-300)
        worst = max(worst, float(np.max(np.abs(defect))) / scale)
        if i < traj.n_steps:
            stress, conv, v, noise_tab = _slice_ingredients(traj, i, k_max)
            for comp in range(3):
                tens[comp] += (stress[comp] - conv[comp]) * traj.dt
            vec += v * traj.dt
            if traj.noise.active:
                vec += float(np.dot(scales, traj.increments[i])) * noise_tab
    return worst


def pressure_csv(path, parts: PressureParts, p: float, q: float) -> None:
    """Per-slice CSV: t, ||pi||_2, ||pi1||_p', ||pi2||_q0, ||pi_phi||_2, residual."""
    n = parts.pi1.shape[1]
    w = quad_weight(n)
    p_conj = p / (p - 1.0)
    q_conj = q / (q - 1.0)
    q0 = min(p_conj, q_conj)
    with open(path, "w", newline="") as fh:
        fh.write("t,pi_l2,pi1_pprime,pi2_q0,pi_phi_l2,recombination_residual\n")
        for i, t in enumerate(parts.times):
            row = (
                t,
                float(np.sqrt(np.sum(parts.pi_total[i] ** 2) * w)),
                float((np.sum(np.abs(parts.pi1[i]) ** p_conj) * w) ** (1.0 / p_conj)),
                float((np.sum(np.abs(parts.pi2[i]) ** q0) * w) ** (1.0 / q0)),
                float(np.sqrt(np.sum(parts.pi_phi[i] ** 2) * w)),
                float(parts.recombination_residual[i]),
            )
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# Bogovskii solver on the unit square

BUMP_CENTER = np.array([0.5, 0.5])
BUMP_RADIUS = 0.25


def _bump_normalization(nodes: int = 400) -> float:
    """Unit-integral constant of the radial C-infinity bump, by polar quadrature."""
    s, w = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * (s + 1.0)
    wr = 0.5 * w
    vals = np.exp(-1.0 / (1.0 - r**2)) * r
    return float(1.0 / (2.0 * np.pi * BUMP_RADIUS**2 * np.sum(vals * wr)))


_BUMP_CONST = _bump_normalization()


def bump(points: np.ndarray) -> np.ndarray:
    """The smooth bump of unit integral supported in the inscribed ball."""
    d2 = np.sum((points - BUMP_CENTER) ** 2, axis=-1) / BUMP_RADIUS**2
    out = np.zeros(d2.shape)
    inside = d2 < 1.0
    out[inside] = _BUMP_CONST * np.exp(-1.0 / (1.0 - d2[inside]))
    return out


@dataclass
class BogovskiiProblem:
    """Zero-mean source on the unit square with its quadrature resolution."""

    xi: np.ndarray       # (n, n) midpoint samples
    resolution: int

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        n = self.resolution
        if self.xi.shape != (n, n):
            raise ValidationError(f"xi must be sampled on the {n}x{n} midpoint grid")
        h2 = 1.0 / (n * n)
        mean = abs(float(np.sum(self.xi) * h2))
        l1 = float(np.sum(np.abs(self.xi)) * h2)
        if mean > 1e-10 * max(l1, 1e-300):
            raise ValidationError(f"xi must have zero mean: |mean| = {mean:.3g}")


def midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def bogovskii_solve_batch(xis: np.ndarray, resolution: int, ray_nodes: int = 12) -> np.ndarray:
    """Solve div w = xi for a batch of sources sharing one kernel evaluation.

    Evaluates the explicit integral w(x) = int xi(y) (x - y) g(x, y) dy with
    g(x, y) = int_1^inf bump(y + s (x - y)) s ds by midpoint quadrature in y
    and Gauss quadrature along the ray segment beyond x that meets the bump's
    support.  That segment is empty unless the ray points toward the ball and
    the line actually crosses it, so pairs are compacted twice before the only
    transcendental work.  Input shape (L, n, n), output (L, 2, n, n).
    """
    n = resolution
    xis = np.asarray(xis, dtype=float).reshape(-1, n * n)
    m = midpoints(n)
    xx, yy = np.meshgrid(m, m, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)   # (n^2, 2)
    n_pts = n * n
    src_w = 1.0 / n_pts
    gauss_s, gauss_w = np.polynomial.legendre.leggauss(ray_nodes)

    d0 = pts[:, 0] - BUMP_CENTER[0]
    d1 = pts[:, 1] - BUMP_CENTER[1]
    cc = d0 * d0 + d1 * d1 - BUMP_RADIUS**2            # (m,) > 0 off the ball

    w_out = np.zeros((xis.shape[0], 2, n_pts))
    chunk = max(1, (1 << 23) // n_pts)
    for start in range(0, n_pts, chunk):
        x = pts[start : start + chunk]                 # (c, 2)
        e0 = x[:, 0:1] - pts[None, :, 0]               # (c, m)
        e1 = x[:, 1:2] - pts[None, :, 1]
        b = e0 * d0[None, :]
        b += e1 * d1[None, :]                          # e . d = -(e . (center - y))
        # First compaction: the far-side segment needs e pointing at the ball
        # (b < 0) unless y itself sits inside it (cc < 0).
        cand = np.flatnonzero((b < 0.0) | (cc[None, :] < 0.0))
        g = np.zeros(e0.shape)
        if cand.size:
            ev0 = e0.ravel()[cand]
            ev1 = e1.ravel()[cand]
            bv = 2.0 * b.ravel()[cand]
            av = ev0 * ev0 + ev1 * ev1
            cv = cc[cand % n_pts]
            disc = bv * bv - 4.0 * av * cv
            ok = (disc > 0.0) & (av > 1e-28)
            sq = np.sqrt(disc, where=ok, out=np.zeros_like(disc))
            inv2a = np.divide(0.5, av, where=ok, out=np.zeros_like(av))
            s_hi = (sq - bv) * inv2a
            s_lo = np.maximum((-sq - bv) * inv2a, 1.0)
            ok &= s_hi > s_lo
            # Second compaction: only rays whose clipped segment is nonempty.
            sub = np.flatnonzero(ok)
            if sub.size:
                flat = cand[sub]
                ev0, ev1 = ev0[sub], ev1[sub]
                src = flat % n_pts
                y0 = pts[src, 0]
                y1 = pts[src, 1]
                half = 0.5 * (s_hi[sub] - s_lo[sub])
                mid = s_lo[sub] + half
                acc = np.zeros(sub.size)
                for node, wt in zip(gauss_s, gauss_w):
                    s = mid + half * node
                    z0 = y0 + s * ev0 - BUMP_CENTER[0]
                    z1 = y1 + s * ev1 - BUMP_CENTER[1]
                    r2 = (z0 * z0 + z1 * z1) / BUMP_RADIUS**2
                    np.clip(r2, None, 1.0 - 1e-14, out=r2)
                    r2 -= 1.0
                    np.reciprocal(r2, out=r2)
                    np.exp(r2, out=r2)
                    acc += (wt * s) * r2
                g.ravel()[flat] = _BUMP_CONST * acc * half
        np.multiply(e0, g, out=e0)
        np.multiply(e1, g, out=e1)
        w_out[:, 0, start : start + chunk] = (xis @ e0.T) * src_w
        w_out[:, 1, start : start + chunk] = (xis @ e1.T) * src_w
    return w_out.reshape(-1, 2, n, n)


def bogovskii_solve(prob: BogovskiiProblem, ray_nodes: int = 16) -> np.ndarray:
    """Right inverse of the divergence with zero boundary trace, shape (2, n, n)."""
    return bogovskii_solve_batch(prob.xi[None], prob.resolution, ray_nodes)[0]


def divergence_residual(prob: BogovskiiProblem, w: np.ndarray) -> float:
    """||div w - xi||_2 on interior nodes, divergence by central differences."""
    n = prob.resolution
    h = 1.0 / n
    div = np.zeros((n, n))
    div[1:-1, :] += (w[0, 2:, :] - w[0, :-2, :]) / (2 * h)
    div[:, 1:-1] += (w[1, :, 2:] - w[1, :, :-2]) / (2 * h)
    interior = np.zeros((n, n), dtype=bool)
    interior[1:-1, 1:-1] = True
    err2 = np.sum((div[interior] - prob.xi[interior]) ** 2) / (n * n)
    return float(np.sqrt(err2))


def gradient_ratio(prob: BogovskiiProblem, w: np.ndarray) -> float:
    """||grad w||_2 / ||xi||_2 with one-sided/central differences on the grid."""
    n = prob.resolution
    h = 1.0 / n
    grads = []
    for comp in range(2):
        gx, gy = np.gradient(w[comp], h, edge_order=1)
        grads.append(gx)
        grads.append(gy)
    grad_sq = sum(np.sum(g**2) for g in grads) / (n * n)
    xi_sq = np.sum(prob.xi**2) / (n * n)
    return float(np.sqrt(grad_sq / xi_sq))
