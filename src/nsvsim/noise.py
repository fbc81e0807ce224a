"""Truncated cylindrical Wiener process and the multiplicative noise coefficients.

The coefficient family is separable: ``phi_k(xi) = (c / k^2) * shape(xi)`` with
``shape`` the identity (linear family) or ``xi / (1 + |xi|)`` (saturating
family).  The 1/k^2 envelope makes the growth/Lipschitz sums convergent with
closed-form constants K = L = c pi^2 / 6 and the decay constant C = c^2, so the
empirical validators have exact targets.

The Wiener process enters as plain arrays of increments: each step's (n_w,)
draws are a pure function of the (seed, path, step) lineage, so every path is
the same whatever order the paths run in.  A draw is
``np.random.default_rng([seed, path, step]).standard_normal(n_w)`` bit for
bit; :func:`keyed_normals` makes many of them in one call by hashing every
key with NumPy's SeedSequence mixing at once, then seeding one reused PCG64
per key as NumPy seeds it, with no Generator built per draw.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fields import modulus

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

    def mode_scales(self) -> np.ndarray:
        if self.family == "off" or self.n_w == 0:
            return np.zeros(self.n_w)
        k = np.arange(1, self.n_w + 1, dtype=float)
        return self.amplitude / (k * k)

    def shape(self, u: np.ndarray, speed: np.ndarray) -> np.ndarray:
        """The amplitude-one pointwise profile shared by every mode, on grid
        samples (..., 2, N, N) of modulus ``speed`` (..., N, N)."""
        u = np.asarray(u, dtype=float)
        if self.family == "linear":
            return u
        if self.family == "saturating":
            return u / (1.0 + speed[..., None, :, :])
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


def verify_noise_conditions(model: NoiseModel, samples: int, seed: int = 0) -> NoiseConditionReport:
    """Empirically tighten the growth/Lipschitz/decay constants over random points
    and compare against the analytic ones, each allowed a slack of 1e-9."""
    if samples < 1:
        raise ValidationError("need at least one sample")
    if not model.active:
        return NoiseConditionReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, True)
    rng = np.random.default_rng(seed)
    # Mixed scales so both the small-|xi| and saturated regimes are exercised;
    # each point is a one-sample grid field (2, 1, 1), the layout shape() takes.
    scales = 10.0 ** rng.uniform(-2, 3, size=samples)
    xi = (rng.standard_normal((samples, 2)) * scales[:, None])[..., None, None]
    zeta = (rng.standard_normal((samples, 2)) * scales[::-1, None])[..., None, None]
    s2 = float(np.sum(model.mode_scales()))  # partial sum of the envelope
    norm_xi = modulus(xi)
    pxi = model.shape(xi, norm_xi)
    mag_xi = modulus(pxi)
    K_emp = float(np.max(s2 * mag_xi / (1.0 + norm_xi)))
    diff = modulus(pxi - model.shape(zeta, modulus(zeta)))
    gap = modulus(xi - zeta)
    ok = gap > 0
    L_emp = float(np.max(s2 * diff[ok] / gap[ok]))
    # sup_k k^2 |phi_k|^2 = amplitude^2 |shape|^2 attained at k = 1; amplitude^2
    # scales a ratio below 1, so C_emp stays at most the finite decay constant
    C_emp = model.amplitude**2 * float(np.max(mag_xi**2 / (1.0 + norm_xi**2)))
    passed = (
        K_emp <= model.growth_const + 1e-9
        and L_emp <= model.lipschitz_const + 1e-9
        and C_emp <= model.decay_const + 1e-9
    )
    return NoiseConditionReport(
        K_emp, L_emp, C_emp,
        model.growth_const, model.lipschitz_const, model.decay_const, passed,
    )


# NumPy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_BLOCK = 64  # seeds turned into Python ints at a time, to hold few of them at once


@functools.cache
def _generator():
    """One PCG64 and its Generator, reseeded per key; built on first use, so
    importing nsvsim does not import ``numpy.random``."""
    bits = np.random.PCG64(0)
    return bits, np.random.Generator(bits)


def _seed_words(words: list) -> np.ndarray:
    """PCG64's seed words (m, 4) uint64 of the entropy words ``words``, L arrays
    (m,) of uint32, by SeedSequence's mixing and ``generate_state(4, uint64)``."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = (h * _MULT_A) & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(words[0])) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = np.empty((len(words[0]), 2 * _POOL), dtype="<u4")
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        value = value * np.uint32(h)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8")


def _key_array(values) -> np.ndarray:
    """``values`` as a uint64 array; an integer outside [0, 2**64) is a ValidationError."""
    try:
        return np.array(values, dtype=np.uint64)
    except OverflowError:
        raise ValidationError("noise keys must be integers in [0, 2**64)") from None


def keyed_normals(keys, n: int) -> np.ndarray:
    """Row r of the (m, n) result is ``np.random.default_rng(keys[r]).standard_normal(n)``
    bit for bit, for keys (m, L) of integers in [0, 2**64).  The SeedSequence
    hash runs over all m keys at once; each row then sets the state of one
    reused PCG64, seeded as NumPy seeds it, and draws."""
    keys = _key_array(keys)
    if keys.ndim != 2 or not keys.shape[1]:
        raise ValidationError(f"noise keys need the shape (m, L), L >= 1, got {keys.shape}")
    out = np.empty((len(keys), n))
    if not len(keys):
        return out
    wide = keys > _MASK32  # an entry past 32 bits is two entropy words, low first
    layouts = wide @ (1 << np.arange(keys.shape[1]))
    bits, gen = _generator()
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for code in dict.fromkeys(layouts.tolist()):  # rows of one layout hash together
        rows = np.flatnonzero(layouts == code)
        layout, words = wide[rows[0]], []
        for j, two in enumerate(layout):
            words.append((keys[rows, j] & _MASK32).astype(np.uint32))
            if two:
                words.append((keys[rows, j] >> np.uint64(32)).astype(np.uint32))
        seeds = _seed_words(words)
        for row, (s_hi, s_lo, i_hi, i_lo) in zip(rows, itertools.chain.from_iterable(
                seeds[i:i + _BLOCK].tolist() for i in range(0, len(seeds), _BLOCK))):
            # PCG64's seeding: inc = 2 initseq + 1, state = (inc + initstate) MULT + inc
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            start = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            state["state"] = {"state": start, "inc": inc}
            bits.state = state
            gen.standard_normal(out=out[row])
    return out


def sample_increment(lineages, n_steps: int, dt: float, n_w: int) -> np.ndarray:
    """The Brownian increments of a stack of paths, (paths, n_steps, n_w) of
    N(0, dt) draws: path r's (n_w,) draws at step i are a pure function of
    its lineage ``lineages[r]`` = (seed, path) and i, keyed as
    ``default_rng([seed, path, i])``."""
    if dt <= 0:
        raise ValidationError(f"dt={dt} must be positive")
    pairs = _key_array(lineages)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValidationError(f"lineages need the shape (paths, 2) of (seed, path), got {pairs.shape}")
    pairs = pairs.reshape(-1, 2)
    keys = np.empty((len(pairs), n_steps, 3), dtype=np.uint64)
    keys[..., :2], keys[..., 2] = pairs[:, None, :], np.arange(n_steps)
    out = keyed_normals(keys.reshape(-1, 3), n_w)
    out *= np.sqrt(dt)
    return out.reshape(len(pairs), n_steps, n_w)
