"""Tracing from outside the program, for the traced benchmark run.

The tracer wraps the public functions of every ``nsvsim`` module from the
outside; nothing inside ``src/`` knows it exists.  Modules bind helpers such
as ``to_grid`` or ``assemble_drift_terms`` with ``from``-imports, so each
wrapper is rebound under every module attribute that held the original.
``numpy.fft`` entry points are patched to count transforms and the bytes
they read and write (computed from array sizes, not measured), because
``fields`` looks them up as ``np.fft.*`` at each call.

Spans (name, start, end, parent) stay in memory; per-layer self times are
computed from them after the workload ends.  The program is run with one
thread (``NSV_THREADS`` unset), so a single span stack is enough.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("fields", "rheology", "noise", "galerkin", "pressure", "analysis", "solvability", "cli")
BASIS_METHODS = ("scatter", "gather", "gather_grid")
FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# Per-layer self-time metrics: each sums the self time of the named spans.
# ``cli.self_s`` takes every ``cli.*`` span (run_experiment, experiment
# bodies' public helpers: ICs, forcing, config echo) instead of a fixed list.
SELF_TIME_LAYERS = {
    "fields.transform_s": ("fields.to_grid", "fields.from_grid", "fields.scalar_to_grid",
                           "fields.scalar_from_grid", "fields.gradient", "fields.sym_gradient"),
    "rheology.stress_s": ("rheology.power_law_stress", "rheology.stabilizer"),
    "rheology.sweep_s": ("rheology.monotonicity_sweep", "rheology.monotonicity_gap"),
    "noise.increment_s": ("noise.sample_increment",),
    "galerkin.drift_s": ("galerkin.assemble_drift_terms", "galerkin.assemble_drift",
                         "galerkin.noise_projection"),
    "galerkin.run_s": ("galerkin.run",),
    "galerkin.basis_s": tuple(f"galerkin.DivFreeBasis.{m}" for m in BASIS_METHODS),
    "galerkin.csv_s": ("galerkin.trajectory_csv",),
    "analysis.ledger_s": ("analysis.ledger_from_trajectory", "analysis.energy_audit"),
    "pressure.decompose_s": ("pressure.decompose_pressure", "pressure.recover_pressure"),
    "pressure.momentum_s": ("pressure.momentum_gradient_residual",),
    "pressure.csv_s": ("pressure.pressure_csv",),
    "pressure.bogovskii_s": ("pressure.bogovskii_solve_batch", "pressure.bogovskii_solve",
                             "pressure.divergence_residual", "pressure.gradient_ratio"),
    "solvability.monotonicity_s": ("solvability.check_weak_monotonicity",),
    "solvability.coercivity_s": ("solvability.check_coercivity",),
}

# Count metrics that must repeat exactly between two traced runs.
EXACT_COUNTS = ("galerkin.drift_calls_per_step", "fields.fft_calls_per_step",
                "analysis.ledger_calls", "noise.increment_calls")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.steps = 0
        self.fft_calls = 0
        self.fft_bytes = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.calls[name] += 1
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer.starts[idx] = t0
                tracer._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the benchmark's root span)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            tracer.fft_calls += 1
            tracer.fft_bytes += getattr(a, "nbytes", 0) + out.nbytes
            return out

        return counted

    def _count_steps(self, traj) -> None:
        self.steps += traj.n_steps

    def install(self) -> None:
        """Wrap every public nsvsim function and rebind it wherever it was imported."""
        import numpy as np

        mods = {m: sys.modules[f"nsvsim.{m}"] for m in MODULES}
        everywhere = [mod for key, mod in sys.modules.items()
                      if key == "nsvsim" or key.startswith("nsvsim.")]
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                hook = self._count_steps if (short, attr) == ("galerkin", "run") else None
                wrapper = self._wrap(f"{short}.{attr}", fn, hook)
                for other in everywhere:
                    for name, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, name, wrapper)
        basis_cls = mods["galerkin"].DivFreeBasis
        for meth in BASIS_METHODS:
            self._set(basis_cls, meth,
                      self._wrap(f"galerkin.DivFreeBasis.{meth}", getattr(basis_cls, meth)))
        for fname in FFT_FUNCS:
            if hasattr(np.fft, fname):
                self._set(np.fft, fname, self._count_fft(getattr(np.fft, fname)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[i]
        totals: dict[str, float] = {}
        for name, t in zip(self.names, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        out = {metric: sum(own.get(n, 0.0) for n in names)
               for metric, names in SELF_TIME_LAYERS.items()}
        out["cli.self_s"] = sum(t for n, t in own.items() if n.startswith("cli."))
        steps = self.steps
        drift_calls = self.calls["galerkin.assemble_drift_terms"]
        # Per-step ratios are 0 on workloads that take no Euler-Maruyama step;
        # the totals beside them carry the work done there.
        out["galerkin.drift_calls"] = drift_calls
        out["galerkin.drift_calls_per_step"] = drift_calls / steps if steps else 0.0
        out["fields.fft_calls"] = self.fft_calls
        out["fields.fft_calls_per_step"] = self.fft_calls / steps if steps else 0.0
        out["fields.fft_mb_per_step"] = self.fft_bytes / 1e6 / steps if steps else 0.0
        out["analysis.ledger_calls"] = self.calls["analysis.ledger_from_trajectory"]
        out["noise.increment_calls"] = self.calls["noise.sample_increment"]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "start": self.starts, "end": self.ends,
                       "parent": self.parents}, fh)
