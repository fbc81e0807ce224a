"""Spectral Galerkin simulator and verification harness for stochastic
power-law Navier-Stokes-Voigt flow on the 2D torus."""

__version__ = "0.1.0"

import numpy as _np

from .errors import ConfigurationError, DivergenceError, ValidationError
from .fields import SpectralField
from .galerkin import DivFreeBasis, System, Trajectory
from .noise import NoiseModel
from .rheology import RheologyParams

# Freeing one mmapped 1.28 MB block raises glibc's dynamic mmap threshold to
# that size, so the kernel's and the pressure pass's 128 KB-1.28 MB
# temporaries are reused from the heap instead of faulting in as fresh mmaps
# on every call.  The hot paths were measured under this threshold (CHANGES.md
# entries on `leggauss(400)` and `monotonicity_sweep`; BENCH_setup.json).
_np.empty((400, 400))

__all__ = [
    "ConfigurationError",
    "DivergenceError",
    "DivFreeBasis",
    "NoiseModel",
    "RheologyParams",
    "SpectralField",
    "System",
    "Trajectory",
    "ValidationError",
    "__version__",
]
