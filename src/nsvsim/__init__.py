"""Spectral Galerkin simulator and verification harness for stochastic
power-law Navier-Stokes-Voigt flow on the 2D torus."""

__version__ = "0.1.0"

from .errors import ConfigurationError, DivergenceError, ValidationError
from .fields import SpectralField, SymTensorField
from .galerkin import DivFreeBasis, GalerkinState, StoppingMonitor, Trajectory
from .noise import NoiseModel, WienerIncrement
from .rheology import RheologyParams

__all__ = [
    "ConfigurationError",
    "DivergenceError",
    "DivFreeBasis",
    "GalerkinState",
    "NoiseModel",
    "RheologyParams",
    "SpectralField",
    "StoppingMonitor",
    "SymTensorField",
    "Trajectory",
    "ValidationError",
    "WienerIncrement",
    "__version__",
]
