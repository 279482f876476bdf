"""Interacting MCMC on finite spaces: simulator, exact oracle, verification."""

from .measures import (
    DEFAULT_ATOL,
    MAX_STATES,
    FiniteSpace,
    IntegralOperator,
    Measure,
    SpaceMismatchError,
    TestFunction,
    act_measure,
    allclose,
    apply_operator,
    compose,
    dobrushin,
    integrate,
    operator_norm,
    oscillation,
)

__version__ = "0.1.0"
