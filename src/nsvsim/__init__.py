"""Spectral Galerkin simulator and verification harness for stochastic
power-law Navier-Stokes-Voigt flow on the 2D torus."""

__version__ = "0.1.0"

from .errors import ConfigurationError, DivergenceError, ValidationError
from .fields import SpectralField
from .galerkin import DivFreeBasis, System, Trajectory
from .noise import NoiseModel
from .rheology import RheologyParams

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
