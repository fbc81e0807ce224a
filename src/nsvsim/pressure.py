"""Pressure recovery and decomposition on the torus, plus a Bogovskii-type
divergence solver on the unit square.

On the torus every lift is one Fourier multiplier: the mean-zero solution of
``laplace(pi) = div v`` for a vector coefficient table v.  The drift pressure
lifts, slice by slice, the drift kernel's drift source plus f, split into
div(nu A) and the rest; the stochastic part lifts the accumulated noise; the
harmonic part is identically zero once means are removed, which the
decomposition asserts rather than assumes.  :func:`decompose_pressure` is one
streamed pass: it evaluates each slice's sources once and yields the slice as
a :class:`PressureSlice`, and :func:`check_pressure` reduces every slice as it
comes (the momentum check and the doubling check, each from its own integral
of the slices' tables, and the per-slice CSV row).  Only the running sums, a
few (2, 2K+1, K+1) tables and one (N, N) drift integral, live across slices,
so the working set is O(N^2) whatever the number of steps.  The square-domain
solver exercises the bounded-domain right inverse of the divergence that the
torus cannot.  Its C-infinity bump, exp(-1/(1 - |x-c|^2/r^2)) on the ball of
radius r, has the closed-form unit-integral constant 1 / (pi r^2 (e^-1 - E_1(1))),
by int_0^1 exp(-1/(1 - s^2)) s ds = (e^-1 - E_1(1)) / 2 with E_1 the
exponential integral, so importing the module computes no quadrature.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import fields
from .errors import ValidationError
from .fields import from_grid, quad_weight, to_grid
from .galerkin import PointwiseTerms, Trajectory, band_limit, forcing_at


def _lift(v: np.ndarray, grid_size: int) -> np.ndarray:
    """Mean-zero grid solutions (..., N, N) of laplace(pi) = div v, for vector
    coefficient tables v (..., 2, 2K+1, K+1)."""
    kx, ky = fields.wavenumbers(v.shape[-1] - 1)
    k2 = kx * kx + ky * ky
    div = 1j * (kx * v[..., 0, :, :] + ky * v[..., 1, :, :])
    return to_grid(np.where(k2 > 0, -div / np.where(k2 > 0, k2, 1.0), 0.0), grid_size)


def recover_pressure(H: np.ndarray) -> np.ndarray:
    """Mean-zero grid pressures (..., N, N) with laplace(pi) = div div H, for
    symmetric tensor fields H of shape (..., 3, N, N)."""
    n = H.shape[-1]
    k_max = (n - 2) // 2
    return _lift(fields.tensor_divergence(from_grid(H, k_max)), n)


@dataclass
class PressureSlice:
    """One time slice of the decomposition of the recovered pressure, with the
    state-only source tables it was built from.

    ``pi1``/``pi2`` are the stress and convective drift-pressure rates, their
    time integral up to this slice plus the stochastic part ``pi_phi``
    recombines to the total; the leftover harmonic part is identically zero
    on the torus, and only its max ``harmonic_max`` is kept.  Every grid is
    mean-zero.  ``drift_div`` and ``noise_shape`` are the coefficient tables
    of the drift flux divergence div(nu A - u x u) + f - alpha a(u) and of
    shape(u) at this slice; they do not involve the increments.  Every array
    is the slice's own: the pass has added the tables to its running sums
    before it yields them, so a reader that changes them reaches no other
    slice.
    """

    pi1: np.ndarray        # (N, N) rate from the power-law stress
    pi2: np.ndarray        # (N, N) rate from convection, damping, forcing
    pi_phi: np.ndarray     # (N, N) stochastic part
    pi_total: np.ndarray   # (N, N) independently accumulated pressure
    recombination_residual: float  # L2 defect of the recombination
    harmonic_max: float    # max |pi_h| of the harmonic remainder
    drift_div: np.ndarray    # (2, 2K+1, K+1) drift flux divergence
    noise_shape: np.ndarray  # (2, 2K+1, K+1) shape(u); zero with the noise off


def _slice_sources(traj: Trajectory, i: int, k_max: int):
    """Coefficient tables of the slice-i pressure sources.

    Returns (div(nu A), drift + f, shape(u) or None with the noise off), with
    the drift kernel's own tables (:meth:`PointwiseTerms.drift_tables`);
    ``pi1`` lifts the first, ``pi2`` the second minus the first.  They are
    evaluated by the pointwise stage of ``traj.system`` at ``traj.coeffs[i]``
    rather than read from the kernel record, so the decomposition follows
    whatever system the trajectory carries.
    """
    system = traj.system
    basis = system.basis
    pw = PointwiseTerms.at(system, traj.coeffs[i])
    drift, shape = pw.drift_tables(k_max)
    stress = system.params.nu * fields.tensor_divergence(from_grid(pw.stress, k_max))
    fc = forcing_at(system.forcing, i)
    if np.any(fc):
        off = basis.k_max
        drift[..., k_max - off:k_max + off + 1, :off + 1] += basis.scatter(fc)
    return stress, drift, shape


def decompose_pressure(traj: Trajectory) -> Iterator[PressureSlice]:
    """Split the trajectory's pressure into stress, convective, stochastic and
    harmonic parts and verify the recombination, yielding one
    :class:`PressureSlice` per stored state.

    Each slice's sources are evaluated once.  Two independent routes are then
    compared: the per-slice parts are lifted first and then time-integrated,
    while the total pressure integrates the raw sources first and lifts once
    per slice.  Their agreement (linearity of the lift) is the recombination
    residual.  The stochastic part lifts the noise integrated up to the
    slice, sum_{j<i} eta_j shape(u_j), in the same call as the other parts.
    """
    n = traj.system.basis.grid_size
    k_max = band_limit(n)
    dt = traj.system.dt
    etas = traj.etas()
    w = quad_weight(n)

    # integrated drift and noise sources, and integrated noise alone
    acc = np.zeros((2, 2, 2 * k_max + 1, k_max + 1), dtype=complex)
    drift_int = np.zeros((n, n))  # int (pi1 + pi2) ds
    for i in range(traj.n_steps + 1):
        stress, drift, noise = _slice_sources(traj, i, k_max)
        if noise is None:
            noise = np.zeros_like(drift)
        pi1, pi2, pi_total, phi = _lift(np.stack([stress, drift - stress, *acc]), n)
        pi_h = pi_total - (phi + drift_int)
        if i < traj.n_steps:
            kick = etas[i] * noise
            acc[0] += drift * dt + kick
            acc[1] += kick
        drift_int = drift_int + (pi1 + pi2) * dt
        yield PressureSlice(
            pi1=pi1,
            pi2=pi2,
            pi_phi=phi,
            pi_total=pi_total,
            recombination_residual=float(np.sqrt(np.sum(pi_h ** 2) * w)),
            harmonic_max=float(np.max(np.abs(pi_h))),
            drift_div=drift,
            noise_shape=noise,
        )


@dataclass
class PressureCheck:
    """Maxima over the slices of :func:`check_pressure`'s pass."""

    recombination_residual: float  # max L2 recombination defect
    harmonic_max: float            # max |pi_h|
    momentum_residual: float       # max relative defect of the momentum identity
    doubling_exact: bool           # doubled increments doubled pi_phi bitwise at every slice


def check_pressure(traj: Trajectory, csv_path) -> PressureCheck:
    """Decompose the trajectory's pressure in one streamed pass, check every
    slice as it is yielded and write its row of the per-slice CSV: t,
    ||pi||_2, ||pi1||_p', ||pi2||_q0, ||pi_phi||_2, residual.

    The momentum identity is tested against gradient modes: for every
    retained wavevector, the divergence of the accumulated sources against
    the Laplacian of the recovered total pressure (the mass and solenoidal
    terms drop out).  The sources' time integral is accumulated here from the
    slices' tables, ``traj.system.dt`` and ``traj.increments``, independently
    of the bookkeeping inside :func:`decompose_pressure`, so a corrupted
    ``pi_total`` slice shows.  Beside it the slices' shape tables are
    integrated under doubled increments, and the lift of that integral is
    compared bitwise with twice ``pi_phi``: a stochastic part that is not
    linear in the increments fails.
    """
    system = traj.system
    n = system.basis.grid_size
    k_max = band_limit(n)
    kx, ky = fields.wavenumbers(k_max)
    k2 = kx * kx + ky * ky
    w = quad_weight(n)
    p_conj = system.params.p_conj
    q0 = min(p_conj, system.params.q / (system.params.q - 1.0))
    etas = traj.etas()
    doubled_etas = replace(traj, increments=2.0 * traj.increments).etas()

    acc = np.zeros((2, 2 * k_max + 1, k_max + 1), dtype=complex)
    doubled = np.zeros_like(acc)  # the noise integrated under doubled increments
    recon = harmonic = worst = 0.0
    exact = True
    with open(csv_path, "w", newline="") as fh:
        fh.write("t,pi_l2,pi1_pprime,pi2_q0,pi_phi_l2,recombination_residual\n")
        for i, (t, s) in enumerate(zip(traj.times, decompose_pressure(traj))):
            recon = np.maximum(recon, s.recombination_residual)  # a NaN slice stays NaN
            harmonic = np.maximum(harmonic, s.harmonic_max)
            # identity: |k|^2 pi_hat = -i k . F_hat for the accumulated sources F
            defect = 1j * (kx * acc[0] + ky * acc[1]) + k2 * from_grid(s.pi_total, k_max)
            scale = max(float(np.max(np.abs(acc))), 1e-300)
            worst = np.maximum(worst, float(np.max(np.abs(defect))) / scale)
            exact = np.array_equal(_lift(doubled, n), 2.0 * s.pi_phi) and exact
            if i < traj.n_steps:
                acc += s.drift_div * system.dt + etas[i] * s.noise_shape
                doubled += doubled_etas[i] * s.noise_shape
            row = (
                t,
                float(np.sqrt(np.sum(s.pi_total ** 2) * w)),
                float((np.sum(np.abs(s.pi1) ** p_conj) * w) ** (1.0 / p_conj)),
                float((np.sum(np.abs(s.pi2) ** q0) * w) ** (1.0 / q0)),
                float(np.sqrt(np.sum(s.pi_phi ** 2) * w)),
                s.recombination_residual,
            )
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return PressureCheck(float(recon), float(harmonic), float(worst), bool(exact))


# ---------------------------------------------------------------------------
# Bogovskii solver on the unit square

BUMP_CENTER = np.array([0.5, 0.5])
BUMP_RADIUS = 0.25


# Unit-integral constant of the radial C-infinity bump exp(-1/(1 - |x-c|^2/r^2)).
# In polar coordinates its integral is 2 pi r^2 int_0^1 exp(-1/(1 - s^2)) s ds,
# and with u = 1/(1 - s^2) that is pi r^2 int_1^inf e^-u u^-2 du
# = pi r^2 E_2(1) = pi r^2 (e^-1 - E_1(1)), E_1 the exponential integral
# (Abramowitz & Stegun 5.1.1, 5.1.14).
_E1_AT_1 = 0.21938393439552027368  # E_1(1), A&S Table 5.1
_BUMP_CONST = 1.0 / (np.pi * BUMP_RADIUS**2 * (np.exp(-1.0) - _E1_AT_1))


@dataclass
class BogovskiiProblem:
    """Zero-mean source on the unit square with its quadrature resolution."""

    xi: np.ndarray       # (n, n) midpoint samples
    resolution: int

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        _check_sources(self.xi[None], self.resolution)


def _check_sources(xis: np.ndarray, n: int) -> None:
    """Sources must be (L, n, n) finite midpoint samples, each with zero mean."""
    if xis.ndim != 3 or xis.shape[1:] != (n, n):
        raise ValidationError(f"xi must be sampled on the {n}x{n} midpoint grid, as ({n}, {n}) per source")
    finite = np.isfinite(xis).all(axis=(1, 2))
    if not finite.all():
        raise ValidationError(f"xi must be finite: source {int(np.argmin(finite))} is not")
    h2 = 1.0 / (n * n)
    mean = np.abs(np.sum(xis, axis=(1, 2)) * h2)
    l1 = np.sum(np.abs(xis), axis=(1, 2)) * h2
    if np.any(mean > 1e-10 * np.maximum(l1, 1e-300)):
        raise ValidationError(f"xi must have zero mean: |mean| = {float(np.max(mean)):.3g}")


def midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


RAY_NODES = 12  # Gauss-Legendre nodes on each ray segment
# (t, w, 1 - t) per node of the rule on [-1, 1]
_RAY_RULE = tuple((t, w, 1.0 - t) for t, w in zip(*np.polynomial.legendre.leggauss(RAY_NODES)))


def _grid_image(i: np.ndarray, j: np.ndarray, n: int, sym) -> np.ndarray:
    """Flat midpoint-grid index of R(i, j) for the square symmetry
    ``sym = (swap, flip_x, flip_y)``: swap the axes, then reflect x -> 1 - x
    and y -> 1 - y on the midpoint grid as flagged."""
    swap, flip_x, flip_y = sym
    a, b = (j, i) if swap else (i, j)
    if flip_x:
        a = n - 1 - a
    if flip_y:
        b = n - 1 - b
    return a * n + b


# The ray pass runs over tiles of about _TILE_PAIRS (target, source) pairs,
# so its temporaries (256 KB per array) stay in L2; each tile writes e g into
# a block of about _BLOCK_PAIRS pairs (16 MB for both components), which
# feeds one matmul by the 8L permuted sources.  The matmul stays per block:
# with 64K-pair blocks a 20-source solve at n = 128 re-reads the 21 MB
# source stack 520 times and took 6.6 s against 3.2-3.8 s.  One 4M-pair
# chunk for both held criterion 09 at about 920 MB of peak RSS.
_TILE_PAIRS = 1 << 15
_BLOCK_PAIRS = 1 << 20


def bogovskii_solve_batch(xis: np.ndarray, resolution: int) -> np.ndarray:
    """Solve div w = xi for a batch of sources sharing one kernel evaluation.

    Evaluates the explicit integral w(x) = int xi(y) (x - y) g(x, y) dy with
    g(x, y) = int_1^inf bump(y + s (x - y)) s ds by midpoint quadrature in y
    and Gauss quadrature along the ray segment beyond x that meets the bump's
    support (the ball B of radius r about c).

    With e = x - y and dx = x - c, the segment is nonempty iff the line
    y + s e meets B twice and its far root s_hi exceeds 1.  The roots solve
    |e|^2 s^2 + b s + cc = 0 with b = 2 e.(y - c) and cc = |y - c|^2 - r^2,
    and by Lagrange's identity the discriminant is
    4 (r^2 |e|^2 - (e x (y - c))^2), where e x (y - c) = e x dx.  So the
    line meets B iff (e x dx)^2 < r^2 |e|^2, and then s_hi > 1 iff x lies
    in B or the ray leaves x toward c (e.dx < 0).  This tangent test
    selects the pairs; the roots and the 12-node rule are computed only on
    the selected ones, with the guard s_hi > max(s_lo, 1) that also decides
    the selection when every pair is solved.  A pair on which the two
    selections differ in floating point is within roundoff of tangency or
    of x on the sphere, so its nodes lie where the bump is exactly 0.0 and
    it adds nothing either way.

    On a selected pair the roots s1 < s_hi are at hand, so the nodes need
    no coordinates: 1 - |y + s e - c|^2 / r^2 = |e|^2 (s - s1)(s_hi - s) / r^2.
    At the node s = s_lo + h (1 + t), with h = (s_hi - s_lo) / 2 and t a
    Gauss node on [-1, 1], the factors are s_hi - s = h (1 - t) and
    s - s1 = a + h t with a = (s_lo - s1) + h, so the bump there is
    exp(P / ((a + h t)(1 - t))) with the per-pair constant
    P = -r^2 / (|e|^2 h): about 9 array operations per node.  No clamp is
    needed: 1 - t > 0 at every node and a + h t = (s_lo - s1) + h (1 + t) > 0,
    since s_lo >= s1 and the guard keeps only pairs with h > 0, so the
    exponent is finite and negative (or -inf, where exp gives 0.0).  The
    sum of w s E accumulates s itself, not s - s1 plus s1 times the sum of
    w E, so no term of size |s1| (up to about n/2 for neighbouring pairs)
    cancels.

    The bump is radial about BUMP_CENTER, the centre of the unit square, so
    for each of the square's 8 symmetries R (swap x and y, reflect x -> 1 - x,
    y -> 1 - y), which map the midpoint grid onto itself and have linear part
    L_R, g(Rx, Ry) = g(x, y) and hence w[xi](Rx) = L_R w[xi o R](x).  The ray
    integral is therefore evaluated only for targets x in one fundamental
    domain (i <= j in the lower-left quadrant, about n^2/8 rows), applied to
    the 8 permuted copies xi o R of every source, and each result is rotated
    by L_R into the targets R x.  Targets on the diagonals (and, for odd n, on
    the midlines) are written once per symmetry that fixes them, with values
    equal up to roundoff.  This relies on BUMP_CENTER being the square's
    centre.

    The targets run in blocks of about _BLOCK_PAIRS pairs, each the
    operand of one matmul, and each block in tiles of about _TILE_PAIRS
    pairs for the ray pass.  Besides the (8L, n^2) permuted sources and the
    (L, 2, n^2) output, the working set is the block's 2 x _BLOCK_PAIRS
    doubles plus a few tile arrays, whatever n.  Input shape (L, n, n), each
    source finite with zero mean (else ValidationError), output (L, 2, n, n).
    """
    n = resolution
    xis = np.asarray(xis, dtype=float)
    _check_sources(xis, n)
    xis = xis.reshape(-1, n * n)
    n_src = xis.shape[0]
    n_pts = n * n
    gi, gj = np.divmod(np.arange(n_pts), n)            # flat index = i * n + j
    m = midpoints(n)
    pts = np.stack([m[gi], m[gj]], axis=1)             # (n^2, 2)
    src_w = 1.0 / n_pts
    r_sq = BUMP_RADIUS**2

    d0 = pts[:, 0] - BUMP_CENTER[0]
    d1 = pts[:, 1] - BUMP_CENTER[1]
    cc = d0 * d0 + d1 * d1 - r_sq                      # (m,) > 0 off the ball

    syms = list(itertools.product((False, True), repeat=3))
    # Row r * L + l holds xi_l o R_r.
    xs_sym = np.concatenate([xis[:, _grid_image(gi, gj, n, sym)] for sym in syms])
    fi, fj = np.triu_indices((n + 1) // 2)             # fundamental domain
    w_out = np.zeros((n_src, 2, n_pts))
    tile = max(1, _TILE_PAIRS // n_pts)
    block = min(max(tile, _BLOCK_PAIRS // n_pts), fi.size)
    k_buf = np.empty(2 * block * n_pts)
    for start in range(0, fi.size, block):
        ti, tj = fi[start : start + block], fj[start : start + block]
        c = ti.size
        k = k_buf[: 2 * c * n_pts].reshape(2, c, n_pts)   # e g, by component
        k.fill(0.0)
        x_flat = ti * n + tj
        for t0 in range(0, c, tile):
            row = x_flat[t0 : t0 + tile]
            e0 = np.subtract(pts[row, 0:1], pts[None, :, 0])  # (t, n^2)
            e1 = np.subtract(pts[row, 1:2], pts[None, :, 1])
            av = e0 * e0 + e1 * e1
            cross = e0 * d1[row, None]
            cross -= e1 * d0[row, None]                # e x dx = e x (y - c)
            cross *= cross
            keep = cross < r_sq * av
            keep &= av > 1e-28
            toward = e0 * d0[row, None]
            toward += e1 * d1[row, None]               # e . dx
            keep &= (toward < 0.0) | (cc[row, None] < 0.0)
            flat = np.flatnonzero(keep)
            src = flat % n_pts
            ev0 = e0.ravel()[flat]
            ev1 = e1.ravel()[flat]
            ea = av.ravel()[flat]
            bv = ev0 * d0[src]
            bv += ev1 * d1[src]                        # e . d = -(e . (center - y))
            bv *= 2.0
            disc = bv * bv - 4.0 * ea * cc[src]
            sq = np.sqrt(np.maximum(disc, 0.0))
            inv2a = 0.5 / ea
            s_hi = (sq - bv) * inv2a
            s1 = (-sq - bv) * inv2a
            s_lo = np.maximum(s1, 1.0)
            ok = s_hi > s_lo
            if not ok.all():
                flat, ev0, ev1, ea, s1, s_lo, s_hi = (
                    a[ok] for a in (flat, ev0, ev1, ea, s1, s_lo, s_hi))
            half = 0.5 * (s_hi - s_lo)
            mid = s_lo + half
            off = s_lo - s1
            off += half                                # s - s1 = off + half t
            ea *= half
            p = np.divide(-r_sq, ea, out=ea)           # bump exponent numerator
            acc = np.zeros(flat.size)
            ht = np.empty(flat.size)
            q = np.empty(flat.size)
            for node, wt, one_minus in _RAY_RULE:
                np.multiply(half, node, out=ht)
                np.add(off, ht, out=q)
                q *= one_minus                         # (s - s1)(s_hi - s) / half
                np.divide(p, q, out=q)
                np.exp(q, out=q)
                ht += mid                              # s
                ht *= q
                ht *= wt
                acc += ht
            g = _BUMP_CONST * acc * half
            flat += t0 * n_pts
            k[0].ravel()[flat] = ev0 * g
            k[1].ravel()[flat] = ev1 * g
        v = (xs_sym @ k.reshape(2 * c, n_pts).T) * src_w   # (8L, 2c)
        for r, (swap, flip_x, flip_y) in enumerate(syms):
            rows = v[r * n_src : (r + 1) * n_src]
            v0, v1 = rows[:, :c], rows[:, c:]
            if swap:
                v0, v1 = v1, v0
            tgt = _grid_image(ti, tj, n, (swap, flip_x, flip_y))
            w_out[:, 0, tgt] = -v0 if flip_x else v0
            w_out[:, 1, tgt] = -v1 if flip_y else v1
    return w_out.reshape(-1, 2, n, n)


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
