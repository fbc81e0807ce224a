"""Configuration, experiment orchestration, and output emission.

Config files are flat ``key = value`` text with dotted sections.  Every
experiment writes a deterministic ``report.json`` (strict JSON, sorted keys,
no volatile fields) plus its CSV/snapshot artifacts; the exit code is 0 iff every
criterion in the report passed.  Wall-clock timing goes to stdout only, so
equal config and seed reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import sys
import time
import typing
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, analysis, fields, pressure, solvability
from .errors import ConfigurationError, DivergenceError, ValidationError
from .galerkin import DivFreeBasis, System, basis_capacity, run, states_per_call, trajectory_csv
from .noise import FAMILIES as NOISE_FAMILIES, NoiseModel, keyed_normals, verify_noise_conditions
from .rheology import RheologyParams, monotonicity_sweep

IC_KINDS = ("zero", "shear", "taylor_green", "random")
FORCING_KINDS = ("zero", "file", "files")
# alpha-sweep's legs: the alpha = 0 reference, then alpha = 1/n toward it
SWEEP_ALPHAS = (0.0, 0.25, 0.125, 0.0625, 0.03125)


@dataclass
class SimConfig:
    p: float = 2.0
    q: float = 3.0
    nu: float = 0.5
    kappa: float = 0.5
    alpha: float = 0.0
    n_modes: int = 32
    grid_n: int = 32
    steps: int = 200
    dt: float = 0.0025
    T: float = 0.5
    seed: int = 12345
    paths: int = 1
    gamma: float = 2.0
    noise_family: str = "off"
    noise_amplitude: float = 0.0
    noise_modes: int = 8
    ic_kind: str = "shear"
    ic_energy: float = 1.0
    forcing_kind: str = "zero"
    forcing_path: str = ""
    experiment: str = "simulate"
    pin_mean: bool = False
    convection: bool = True
    monitor_threshold: float = 0.0

    def validate(self) -> None:
        # RheologyParams carries the constitutive invariants and their messages.
        self.rheology()
        if self.experiment == "alpha-sweep":  # its damped legs, checked before the alpha = 0 leg runs
            replace(self, alpha=max(SWEEP_ALPHAS)).rheology()
        if not 0 <= self.steps <= 2**53:
            raise ConfigurationError(f"steps={self.steps} must lie in [0, 2**53]")
        # on no step, the stepping experiments' criteria would pass vacuously
        if self.steps < 1 and self.experiment in ("energy-audit", "moments", "uniqueness", "alpha-sweep"):
            raise ConfigurationError(f"steps={self.steps} must be >= 1 for experiment={self.experiment}")
        if self.gamma < 2.0:
            raise ConfigurationError(f"gamma={self.gamma} must be >= 2 in 2D")
        if not self.dt > 0:
            raise ConfigurationError(f"dt={self.dt} must be positive")
        if abs(self.steps * self.dt - self.T) > 1e-12 * max(1.0, abs(self.T)):
            raise ConfigurationError(
                f"steps*dt = {self.steps * self.dt!r} must equal T = {self.T!r} to 1e-12"
            )
        for key, value, choices in (("experiment", self.experiment, EXPERIMENTS),
                                    ("ic.kind", self.ic_kind, IC_KINDS),
                                    ("forcing.kind", self.forcing_kind, FORCING_KINDS),
                                    ("noise.family", self.noise_family, NOISE_FAMILIES)):
            if value not in choices:
                raise ConfigurationError(f"unknown {key} {value!r}; choose from {choices}")
        if self.paths < 1:
            raise ConfigurationError("paths must be >= 1")
        for key, value in (("ic.energy", self.ic_energy), ("monitor.threshold", self.monitor_threshold),
                           ("noise.amplitude", self.noise_amplitude), ("noise.modes", self.noise_modes)):
            if value < 0:
                raise ConfigurationError(f"{key}={value} must be >= 0 (0 switches it off)")
        if not math.isfinite(self.noise_amplitude * self.noise_amplitude):
            raise ConfigurationError(f"noise.amplitude={self.noise_amplitude} must be at most "
                                     f"sqrt(float max): the decay constant c^2 overflows")
        with np.errstate(over="ignore"):  # reported as the key's error, not as a warning
            trace = self.noise_model().trace_const
        if not math.isfinite(trace):
            raise ConfigurationError(f"noise.amplitude={self.noise_amplitude} is too large: "
                                     f"the trace constant sum_k (c/k^2)^2 overflows")
        # the grid and the span are checked here, before any table is built
        if self.grid_n < 4 or self.grid_n & (self.grid_n - 1):
            raise ConfigurationError(f"grid_n={self.grid_n} must be a power of two >= 4")
        if self.n_modes < 1:
            raise ConfigurationError(f"n_modes={self.n_modes} must be >= 1")
        # uniqueness perturbs the first wave mode, which follows the two means when they are kept
        if self.experiment == "uniqueness" and self.n_modes < (1 if self.pin_mean else 3):
            raise ConfigurationError(f"n_modes={self.n_modes} leaves experiment=uniqueness no wave mode to perturb")
        # moments also runs a leg at twice n_modes
        need = 2 * self.n_modes if self.experiment == "moments" else self.n_modes
        capacity = basis_capacity(self.grid_n, include_mean=not self.pin_mean)
        if need > capacity:
            raise ConfigurationError(
                f"n_modes={self.n_modes} needs {need} basis modes for {self.experiment}, "
                f"but grid_n={self.grid_n} supports only {capacity}")
        if self.seed < 0 or self.seed >= 2**64:
            raise ConfigurationError("seed must fit in u64")
        if self.noise_model().active and self.experiment == "energy-audit" and self.paths < 2:
            raise ConfigurationError(
                f"paths={self.paths} must be >= 2 for experiment=energy-audit with active noise: "
                "one path has no standard error")
        if self.experiment == "pressure" and self.paths > 1:
            raise ConfigurationError(f"paths={self.paths} must be 1 for experiment=pressure: "
                                     "it decomposes one path")
        if self.experiment == "moments" and self.paths < 2:
            raise ConfigurationError(
                f"paths={self.paths} must be >= 2 for experiment=moments: "
                "one path has no standard error")

    def rheology(self) -> RheologyParams:
        return RheologyParams(p=self.p, q=self.q, nu=self.nu, kappa=self.kappa, alpha=self.alpha)

    def noise_model(self) -> NoiseModel:
        return NoiseModel(self.noise_family, self.noise_amplitude, self.noise_modes)

    def basis(self) -> DivFreeBasis:
        return DivFreeBasis(self.n_modes, self.grid_n, include_mean=not self.pin_mean)

    def system(self) -> System:
        """The Galerkin system of this config; its forcing is read here, once per leg."""
        basis = self.basis()
        return System(basis, self.rheology(), self.noise_model(), self.dt, forcing_coefficients(self, basis),
                      self.convection)


# Each field is one config key of its annotated type: the field name, with the
# first "_" a "." in the dotted sections.
_SECTIONS = ("noise", "ic", "forcing", "monitor")
_KEY_MAP = {
    (attr.replace("_", ".", 1) if attr.split("_")[0] in _SECTIONS else attr): (attr, typ)
    for attr, typ in typing.get_type_hints(SimConfig).items()
}


def _coerce(key: str, raw: str, typ):
    raw = raw.strip()
    if typ is bool:
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected {typ.__name__}, got {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigurationError(f"{key}: must be finite, got {raw!r}")
    return value


def parse_config(path: str | None = None, overrides: list[str] | None = None) -> SimConfig:
    """Build a validated SimConfig from a key=value file plus override pairs."""
    cfg = SimConfig()
    pairs: list[tuple[str, str]] = []
    if path is not None:
        if not os.path.exists(path):
            raise ConfigurationError(f"config file not found: {path}")
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigurationError(f"{path}:{lineno}: expected key = value")
                key, val = stripped.split("=", 1)
                pairs.append((key.strip(), val))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} must be key=value")
        key, val = item.split("=", 1)
        pairs.append((key.strip(), val))
    for key, val in pairs:
        if key not in _KEY_MAP:
            raise ConfigurationError(f"unknown config key {key!r}")
        attr, typ = _KEY_MAP[key]
        setattr(cfg, attr, _coerce(key, val, typ))
    cfg.validate()
    return cfg


def config_echo(cfg: SimConfig) -> dict:
    return {key: getattr(cfg, attr) for key, (attr, _) in _KEY_MAP.items()}


# ---------------------------------------------------------------------------
# Initial conditions and forcing

def initial_coefficients(cfg: SimConfig, basis: DivFreeBasis, path: int = 0) -> np.ndarray:
    kind = cfg.ic_kind
    if kind == "zero":
        return np.zeros(basis.n)
    n = basis.grid_size
    x = np.arange(n) * 2.0 * np.pi / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    if kind == "shear":
        c = basis.gather_grid(np.stack([np.sin(yy), np.zeros_like(yy)]))
    elif kind == "taylor_green":
        c = basis.gather_grid(np.stack([np.sin(xx) * np.cos(yy), -np.cos(xx) * np.sin(yy)]))
    else:
        # random: one draw per mode, keyed by the mode identity rather than its
        # position, so enlarging the span extends the same underlying field
        # instead of redrawing it (resolution studies rely on this)
        keys = np.empty((basis.n, 5), dtype=np.uint64)
        keys[:, 0], keys[:, 1] = cfg.seed, path
        keys[:, 2], keys[:, 3], keys[:, 4] = basis.kx + 2**20, basis.ky + 2**20, basis.phase
        c = keyed_normals(keys, 1)[:, 0]
        c *= (1.0 + basis.k2) ** -2.0
        c[basis.k2 == 0] = 0.0
    if cfg.ic_energy > 0:
        e = basis.energy(c, cfg.kappa)
        if e > 0:
            c = c * np.sqrt(cfg.ic_energy / e)
    return c


def _forcing_snapshot(basis: DivFreeBasis, path: str) -> np.ndarray:
    try:
        snap = fields.load_field(path)
    except OSError as exc:
        raise ConfigurationError(f"forcing.path: cannot read snapshot {path!r}: {exc.strerror or exc}") from None
    except ValidationError as exc:
        raise ConfigurationError(f"forcing.path: {path!r} is not a field snapshot: {exc}") from None
    if snap.k_max < basis.k_max:
        raise ConfigurationError(
            f"forcing.path: snapshot {path!r} is truncated at K = {snap.k_max}, "
            f"below k_max = {basis.k_max} of a {basis.n}-mode basis")
    return basis.gather(snap.coeffs)


def forcing_coefficients(cfg: SimConfig, basis: DivFreeBasis) -> np.ndarray:
    if cfg.forcing_kind == "zero":
        return np.zeros(basis.n)
    if cfg.forcing_kind == "file":
        return _forcing_snapshot(basis, cfg.forcing_path)
    paths = sorted(glob.glob(cfg.forcing_path))
    if len(paths) < cfg.steps:
        raise ConfigurationError(
            f"forcing.path: {cfg.forcing_path!r} matches {len(paths)} snapshots, need {cfg.steps}"
        )
    return np.stack([_forcing_snapshot(basis, p) for p in paths[: cfg.steps]])


def _halved(system: System) -> System:
    """The dt/2 leg of ``system``: each per-step forcing row is held for two
    fine steps, so both legs see the same forcing."""
    f = system.forcing
    return replace(system, dt=system.dt / 2.0, forcing=f if f.ndim == 1 else np.repeat(f, 2, axis=0))


def path_starts(cfg: SimConfig, basis: DivFreeBasis, paths) -> tuple:
    """The initial coefficients (len(paths), n) of ``paths`` and their
    (seed, path) noise lineages."""
    c0 = np.array([initial_coefficients(cfg, basis, path) for path in paths])
    return c0, [(cfg.seed, path) for path in paths]


def _path_results(system: System, c0: np.ndarray, lineages: list, T: float, **kwargs):
    """Each path's result, a Trajectory or its DivergenceError, in order.
    The paths run to ``T`` as stacks of one kernel chunk, so memory holds
    one chunk's trajectories at a time."""
    per_call = states_per_call(system.basis.grid_size)
    for start in range(0, len(c0), per_call):
        yield from run(system, c0[start:start + per_call], lineages[start:start + per_call], T, **kwargs)


def _trajectory(result):
    """A path's result when it is a Trajectory; its DivergenceError is raised.
    Mapped over results in path order, it raises the lowest-index diverged
    path's error, and holds no result once it has handed it on."""
    if isinstance(result, DivergenceError):
        raise result
    return result


# ---------------------------------------------------------------------------
# Experiments

@dataclass
class Criterion:
    name: str
    passed: bool
    details: str


@dataclass
class RunReport:
    config: dict
    criteria: list[Criterion]
    metrics: dict
    artifacts: list[str]
    versions: dict
    wall_clock: float = 0.0  # printed, never serialized

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "criteria": [asdict(c) for c in self.criteria],
            "metrics": self.metrics,
            "artifacts": self.artifacts,
            "versions": self.versions,
            "passed": self.passed,
        }
        # strict JSON: a non-finite float is written as null, and one missed raises
        return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False)


def _plain(obj):
    """``obj`` with NumPy values as Python ones and non-finite floats as None."""
    obj = obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _versions() -> dict:
    return {"nsvsim": __version__, "numpy": np.__version__}


def _experiment_simulate(cfg: SimConfig, out_dir: str):
    system = cfg.system()

    # path 0 feeds every output; each other path is checked for finite states and dropped
    c0, lineages = path_starts(cfg, system.basis, range(cfg.paths))
    trajs = map(_trajectory, _path_results(system, c0, lineages, cfg.T, grad_threshold=cfg.monitor_threshold))
    traj = next(trajs)
    finite = [np.all(np.isfinite(traj.coeffs))]
    finite += map(lambda other: np.all(np.isfinite(other.coeffs)), trajs)
    criteria = []
    artifacts = []
    final = traj.field_at(traj.n_steps)
    criteria.append(Criterion("states finite", bool(all(finite)), "no nonfinite coefficient"))
    criteria.append(Criterion(
        "reconstruction divergence-free", fields.divergence_error(final) < 1e-12,
        f"max |k.u(k)| relative = {fields.divergence_error(final):.3e}"))
    criteria.append(Criterion(
        "reconstruction real-valued", fields.hermitian_error(final) < 1e-12,
        f"hermitian defect = {fields.hermitian_error(final):.3e}"))
    ledger = analysis.ledger_from_trajectory(traj)
    defect = ledger.bookkeeping_error()
    criteria.append(Criterion(
        "ledger bookkeeping exact", defect == 0.0, f"recomputation defect = {defect:.3e}"))
    deterministic_decay = (
        not cfg.noise_model().active and cfg.forcing_kind == "zero" and cfg.nu > 0
    )
    if deterministic_decay:
        criteria.append(Criterion(
            "energy nonincreasing", ledger.energy_nonincreasing(),
            "noise off, f = 0, nu > 0"))
    os.makedirs(os.path.join(out_dir, "fields"), exist_ok=True)
    csv_path = os.path.join(out_dir, "trajectory.csv")
    trajectory_csv(csv_path, traj, ledger)
    artifacts.append(csv_path)
    snap = os.path.join(out_dir, "fields", "final_path0.bin")
    fields.save_field(snap, final)
    artifacts.append(snap)
    metrics = {
        "final_energy": float(traj.energies()[-1]),
        "max_abs_residual": float(np.max(np.abs(ledger.residual), initial=0.0)),
        "tripped_at": traj.tripped_at,
    }
    return criteria, metrics, artifacts


def _experiment_audit(cfg: SimConfig, out_dir: str):
    system = cfg.system()
    criteria = []
    metrics = {}
    artifacts = []
    if cfg.noise_model().active:
        c0, lineages = path_starts(cfg, system.basis, range(cfg.paths))
        cum = np.stack([np.cumsum(analysis.ledger_from_trajectory(traj).residual)
                        for traj in map(_trajectory, _path_results(system, c0, lineages, cfg.T))])
        mean = cum.mean(axis=0)
        se = cum.std(axis=0, ddof=1) / np.sqrt(cfg.paths)
        z = np.abs(mean) / np.maximum(se, 1e-300)
        criteria.append(Criterion(
            "mean ledger residual within 3 SE of 0 at every output time",
            bool(np.all(z <= 3.0)), f"max |mean|/SE = {float(np.max(z)):.3f} over {cum.shape[1]} times"))
        metrics.update({"max_z": float(np.max(z)), "final_mean_residual": float(mean[-1]), "final_se": float(se[-1])})
    else:
        c0, lineages = path_starts(cfg, system.basis, [0])

        def ledger(leg: System) -> analysis.EnergyLedger:
            return analysis.ledger_from_trajectory(_trajectory(run(leg, c0, lineages, cfg.T)[0]))

        fine, coarse = ledger(_halved(system)), ledger(system)
        accumulated = float(np.sum(coarse.residual))
        ratio = float(abs(np.sum(fine.residual)) / max(abs(accumulated), 1e-300))
        criteria.append(Criterion(
            "residual halves under dt-halving", 0.4 <= ratio <= 0.6, f"ratio = {ratio:.4f} in [0.4, 0.6]"))
        if cfg.nu > 0 and cfg.forcing_kind == "zero":
            legs = [coarse.energy_nonincreasing(), fine.energy_nonincreasing()]
            criteria.append(Criterion(
                "energy nonincreasing", all(legs), f"noise off, f = 0; at dt and dt/2: {legs}"))
        metrics.update({"residual_ratio": ratio, "accumulated_residual": accumulated})
    return criteria, metrics, artifacts


def _experiment_moments(cfg: SimConfig, out_dir: str):
    criteria = []

    def estimate(local_cfg: SimConfig) -> analysis.MomentReport:
        system = local_cfg.system()
        c0, lineages = path_starts(local_cfg, system.basis, range(local_cfg.paths))
        return analysis.moment_estimate(_path_results(system, c0, lineages, local_cfg.T), local_cfg.gamma)

    base = estimate(cfg)
    double_n = estimate(replace(cfg, n_modes=cfg.n_modes * 2))
    if cfg.alpha > 0:
        alpha_leg = estimate(replace(cfg, alpha=cfg.alpha / 2.0))
    else:
        alpha_leg = None

    def within(a: analysis.MomentReport, b: analysis.MomentReport, tag: str):
        pairs = [
            ("sup energy", a.sup_energy, a.sup_energy_se, b.sup_energy, b.sup_energy_se),
            ("gradient p-integral", a.grad_p_integral, a.grad_p_integral_se,
             b.grad_p_integral, b.grad_p_integral_se),
        ]
        for name, va, sa, vb, sb in pairs:
            se = max(np.hypot(sa, sb), 1e-300)
            criteria.append(Criterion(
                f"{name} stable under {tag}", abs(va - vb) < 2.0 * se,
                f"|delta|/SE = {abs(va - vb) / se:.3f}"))

    within(base, double_n, "mode doubling")
    if alpha_leg is not None:
        within(base, alpha_leg, "alpha halving")
    legs = [("base", base), ("mode doubling", double_n), ("alpha halving", alpha_leg)]
    legs = [(tag, leg) for tag, leg in legs if leg is not None]
    if any(leg.excluded_paths for _, leg in legs):
        criteria.append(Criterion(
            "no divergent path excluded", False,
            ", ".join(f"{tag}: {leg.excluded_paths} of {leg.paths}" for tag, leg in legs)))
    criteria.append(Criterion(
        "sup-energy moment within explicit bound", base.passed,
        f"estimate = {base.sup_energy:.6g}, bound = {base.bound:.6g} "
        f"({'rigorous' if base.bound_rigorous else 'extended'})"))
    metrics = {
        "base": asdict(base),
        "double_n": asdict(double_n),
        "half_alpha": asdict(alpha_leg) if alpha_leg is not None else None,
        "excluded_paths": base.excluded_paths,
    }
    return criteria, metrics, []


def _experiment_uniqueness(cfg: SimConfig, out_dir: str):
    system = cfg.system()
    basis = system.basis
    weight_c = analysis.calibrate_ladyzhenskaya(basis)
    delta = 1e-3

    first_wave = np.flatnonzero(basis.k2 > 0)[0]
    c0, lineages = path_starts(cfg, basis, range(cfg.paths))

    def twins(leg: System, paths: int, perturb: float):
        # each path's start, then its twin's, which differs by perturb in the
        # first wave mode; a twin in another stack draws the same lineage
        pair_c0 = np.repeat(c0[:paths], 2, axis=0)
        pair_c0[1::2, first_wave] += perturb
        pair_lineages = [lineage for lineage in lineages[:paths] for _ in range(2)]
        trajs = map(_trajectory, _path_results(leg, pair_c0, pair_lineages, cfg.T))
        return zip(trajs, trajs)

    identical = analysis.twin_uniqueness(twins(system, min(cfg.paths, 8), 0.0), weight_c)
    perturbed = analysis.twin_uniqueness(twins(system, cfg.paths, delta), weight_c)
    perturbed_half = analysis.twin_uniqueness(twins(_halved(system), cfg.paths, delta), weight_c)

    stability = perturbed_half.gronwall_constant / max(perturbed.gronwall_constant, 1e-300)
    criteria = [
        Criterion("identical data stays bitwise equal", identical.bitwise_identical,
                  "shared increments, equal initial coefficients"),
        Criterion("weighted Gronwall constant stable under dt-halving", 0.5 <= stability <= 2.0,
                  f"C = {perturbed.gronwall_constant:.4f} at dt, {perturbed_half.gronwall_constant:.4f} "
                  f"at dt/2: ratio = {stability:.4f}"),
    ]
    metrics = {
        "weight_constant": weight_c,
        "gronwall_constant": perturbed.gronwall_constant,
        "gronwall_constant_half_dt": perturbed_half.gronwall_constant,
        "delta0": perturbed.delta0,
        "per_path_max_ratio": float(np.max(perturbed.per_path_ratios)),
    }
    return criteria, metrics, []


def _experiment_alpha_sweep(cfg: SimConfig, out_dir: str):
    system = cfg.system()
    c0, lineages = path_starts(cfg, system.basis, [0])

    # the first run is the alpha = 0 reference
    legs = (replace(system, params=replace(system.params, alpha=alpha)) for alpha in SWEEP_ALPHAS)
    trajs = (_trajectory(run(leg, c0, lineages, cfg.T)[0]) for leg in legs)
    rows = analysis.alpha_sweep(next(trajs), trajs)
    damping = [r.damping_integral for r in rows]
    dists = [r.distance_to_reference for r in rows]
    criteria = [
        Criterion("damping contribution strictly decreasing along alpha = 1/n",
                  all(b < a for a, b in zip(damping, damping[1:])),
                  f"2 alpha int ||u||_q^q dt = {damping}"),
        Criterion("distance to alpha = 0 reference decreasing",
                  all(b < a for a, b in zip(dists, dists[1:])),
                  f"final-time distances = {dists}"),
    ]
    metrics = {"rows": [asdict(r) for r in rows]}
    return criteria, metrics, []


def _experiment_pressure(cfg: SimConfig, out_dir: str):
    n = max(cfg.grid_n, 64)
    x = np.arange(n) * 2.0 * np.pi / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    u = np.stack([np.sin(xx) * np.cos(yy), -np.cos(xx) * np.sin(yy)])
    h = np.stack([u[0] * u[0], u[0] * u[1], u[1] * u[1]])
    pi = pressure.recover_pressure(h)
    tg_err = float(np.max(np.abs(pi + 0.25 * (np.cos(2 * xx) + np.cos(2 * yy)))))

    system = cfg.system()
    c0, lineages = path_starts(cfg, system.basis, [0])
    traj = _trajectory(run(system, c0, lineages, cfg.T)[0])
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "pressure.csv")
    check = pressure.check_pressure(traj, csv_path)
    recon, mom, pi_h_max = check.recombination_residual, check.momentum_residual, check.harmonic_max

    criteria = [
        Criterion("vortex-array pressure matches closed form", tg_err < 1e-10, f"max error = {tg_err:.3e}"),
        Criterion("recombination residual < 1e-8 per slice", recon < 1e-8, f"max = {recon:.3e}"),
        Criterion("stochastic part doubles exactly with increments", check.doubling_exact, "bitwise"),
        Criterion("momentum identity vs gradient modes < 1e-7", mom < 1e-7, f"max = {mom:.3e}"),
        Criterion("harmonic part vanishes on the torus", pi_h_max < 1e-10, f"max |pi_h| = {pi_h_max:.3e}"),
    ]
    metrics = {"tg_error": tg_err, "recombination_residual": recon, "momentum_residual": mom}
    return criteria, metrics, [csv_path]


def _experiment_propcheck(cfg: SimConfig, out_dir: str):
    system = cfg.system()  # reads the forcing, so a bad forcing.path ends the run before any work
    criteria = []
    total_violations = 0
    for p in (1.2, 1.5, 2.0, 3.0, 4.0):
        violations, worst = monotonicity_sweep(p, samples=10_000, seed=cfg.seed)
        total_violations += violations
        criteria.append(Criterion(
            f"shear-rate inequalities hold at p = {p}", violations == 0,
            f"violations = {violations}, worst margin = {worst:.3e}"))
    if system.noise.active:
        rep = verify_noise_conditions(system.noise, samples=10_000, seed=cfg.seed)
        criteria.append(Criterion(
            "noise growth/Lipschitz/decay envelopes hold", rep.passed,
            f"K_emp = {rep.K_emp:.6g} <= {rep.K:.6g}, L_emp = {rep.L_emp:.6g} <= {rep.L:.6g}, "
            f"C_emp = {rep.C_emp:.6g} <= {rep.C:.6g}"))
    korn_worst = 0.0
    for s in range(100):
        rng = np.random.default_rng([cfg.seed, s])
        v = fields.leray_project(rng.standard_normal((2, cfg.grid_n, cfg.grid_n)), (cfg.grid_n - 2) // 3)
        d = fields.sym_gradient(fields.gradient(v))
        lhs = float(np.sum(fields.sym_modulus(d) ** 2) * fields.quad_weight(cfg.grid_n))
        rhs = 0.5 * fields.grad_l2_norm(v) ** 2
        korn_worst = np.maximum(korn_worst, abs(lhs - rhs) / max(rhs, 1e-300))  # a NaN error stays NaN
    criteria.append(Criterion(
        "symmetric-gradient identity on 100 random solenoidal fields",
        korn_worst < 1e-10, f"worst relative error = {korn_worst:.3e}"))
    mono = solvability.check_weak_monotonicity(system, radius=5.0, samples=1000, seed=cfg.seed)
    coer = solvability.check_coercivity(system, samples=1000, seed=cfg.seed)
    criteria.append(Criterion(
        "weak monotonicity margin nonnegative", mono.passed,
        f"worst margin = {mono.worst_margin:.3e}, fitted C = {mono.fitted_constant:.6g}"))
    criteria.append(Criterion(
        "weak coercivity margin nonnegative", coer.passed,
        f"worst margin = {coer.worst_margin:.3e}, fitted C = {coer.fitted_constant:.6g}"))
    metrics = {
        "monotonicity_violations": total_violations,
        "korn_worst": float(korn_worst),
        "monotonicity_fitted": mono.fitted_constant,
        "coercivity_fitted": coer.fitted_constant,
    }
    return criteria, metrics, []


# Bound on ||grad w||_2 / ||xi||_2; acceptance criterion 09 reads its verdict
# from this experiment's report.
BOGOVSKII_RATIO_BOUND = 10.0


def _experiment_bogovskii(cfg: SimConfig, out_dir: str):
    resolutions = (32, 64, 128)
    n_sources = 20
    residuals = np.zeros((len(resolutions), n_sources))
    ratios = np.zeros_like(residuals)
    for ri, n in enumerate(resolutions):
        m = pressure.midpoints(n)
        xx, yy = np.meshgrid(m, m, indexing="ij")
        xis = []
        for l in range(n_sources):
            rng = np.random.default_rng([cfg.seed, l])
            xi = np.zeros((n, n))
            for j in range(1, 4):
                for k in range(1, 4):
                    xi += rng.standard_normal() * np.sin(j * np.pi * xx) * np.sin(k * np.pi * yy)
            xis.append(xi - xi.mean())
        ws = pressure.bogovskii_solve_batch(np.array(xis), n)
        for l in range(n_sources):
            prob = pressure.BogovskiiProblem(xis[l], n)
            residuals[ri, l] = pressure.divergence_residual(prob, ws[l])
            ratios[ri, l] = pressure.gradient_ratio(prob, ws[l])
    decreasing = bool(np.all(residuals[1:] < residuals[:-1]))
    ratio_bound = float(np.max(ratios))
    criteria = [
        Criterion("divergence residual decreases across resolutions",
                  decreasing, f"max ratio to the next coarser residual = "
                  f"{float(np.max(residuals[1:] / residuals[:-1])):.3e} < 1"),
        Criterion("gradient/source ratio bounded across the batch",
                  ratio_bound < BOGOVSKII_RATIO_BOUND,
                  f"max ratio = {ratio_bound:.4f} < {BOGOVSKII_RATIO_BOUND}"),
    ]
    metrics = {
        "resolutions": list(resolutions),
        "residuals": residuals.tolist(),
        "gradient_ratios": ratios.tolist(),
        "ratio_bound": ratio_bound,
    }
    return criteria, metrics, []


_DISPATCH = {
    "simulate": _experiment_simulate,
    "energy-audit": _experiment_audit,
    "moments": _experiment_moments,
    "uniqueness": _experiment_uniqueness,
    "alpha-sweep": _experiment_alpha_sweep,
    "pressure": _experiment_pressure,
    "propcheck": _experiment_propcheck,
    "bogovskii": _experiment_bogovskii,
}
EXPERIMENTS = tuple(_DISPATCH)


def run_experiment(cfg: SimConfig, out_dir: str) -> RunReport:
    cfg.validate()
    t0 = time.perf_counter()
    try:
        criteria, metrics, artifacts = _DISPATCH[cfg.experiment](cfg, out_dir)
    except DivergenceError as exc:
        criteria = [Criterion("states stay finite", False, str(exc))]
        metrics, artifacts = {"divergence_step": exc.step, "divergence_path": exc.path}, []
    wall = time.perf_counter() - t0
    report = RunReport(
        config=config_echo(cfg),
        criteria=criteria,
        metrics=metrics,
        artifacts=[os.path.relpath(a, out_dir) for a in artifacts],
        versions=_versions(),
        wall_clock=wall,
    )
    # the directory is made on the first write, so a config error found in the
    # experiment body (an unreadable forcing.path) leaves none behind
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nsvsim",
        description="Spectral Galerkin simulator and verification harness for "
        "stochastic power-law Navier-Stokes-Voigt flow on the 2D torus.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="config override, repeatable")
    args = parser.parse_args(argv)

    overrides = list(args.override)
    overrides.append(f"experiment={args.experiment}")
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.paths is not None:
        overrides.append(f"paths={args.paths}")
    try:
        cfg = parse_config(args.config, overrides)
        report = run_experiment(cfg, args.out)
    except (ConfigurationError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for crit in report.criteria:
        print(f"[{'PASS' if crit.passed else 'FAIL'}] {crit.name}: {crit.details}")
    print(f"report: {os.path.join(args.out, 'report.json')}  wall-clock: {report.wall_clock:.2f}s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
