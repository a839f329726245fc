"""Fourier-featured learning models: quantum statevector simulation,
frequency-spectrum analysis, classical Fourier-feature baselines, training,
and resource/trainability analysis."""

__version__ = "0.1.0"

from .errors import CapacityError, ConfigError, TrainingError
from .rng import make_rng

__all__ = [
    "CapacityError",
    "ConfigError",
    "TrainingError",
    "make_rng",
    "__version__",
]
