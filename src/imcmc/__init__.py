"""Interacting MCMC on finite spaces: simulator, exact oracle, verification."""

from .measures import (
    DEFAULT_ATOL,
    MAX_STATES,
    FiniteSpace,
    IntegralOperator,
    Measure,
    SpaceMismatchError,
    TestFunction,
    integrate,
)

__version__ = "0.1.0"
