"""Scenario cores and PAC stability certificates for uncertain coalitional games."""

import os

# BLAS on one thread unless the caller says otherwise: numpy's and scipy's
# OpenBLAS builds each start a thread pool on import, which slows the CLI's
# start-up on a few-CPU machine.  Set before anything here imports numpy;
# a variable already set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

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
