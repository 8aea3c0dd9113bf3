"""Scenario cores and PAC stability certificates for uncertain coalitional games."""

from .errors import (
    CoalisureError,
    ConfigError,
    DistributionError,
    EmptyCoreError,
    GameSpecError,
    GuardError,
    LpError,
    LpNumericalError,
    NoRootError,
    UnknownCoalitionError,
)
from .game import (
    Coalition,
    GameSpec,
    ValueModel,
    subcoalition_budget,
)
from .sampling import DistributionSpec, PrivateSamples, draw_fresh, draw_private

__version__ = "0.1.0"

__all__ = [
    "Coalition",
    "GameSpec",
    "ValueModel",
    "DistributionSpec",
    "PrivateSamples",
    "subcoalition_budget",
    "draw_private",
    "draw_fresh",
    "CoalisureError",
    "ConfigError",
    "DistributionError",
    "EmptyCoreError",
    "GameSpecError",
    "GuardError",
    "LpError",
    "LpNumericalError",
    "NoRootError",
    "UnknownCoalitionError",
    "__version__",
]
