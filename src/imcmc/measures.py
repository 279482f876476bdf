"""Probability laws and Markov kernels on finite state spaces.

This module is the numerical foundation for everything else: enumerated
state spaces, probability laws as weight vectors (:class:`Measure`),
Markov kernels as dense matrices (:class:`IntegralOperator`) or kept in
class factors (:class:`FactoredKernel`), first-order operators kept as a
transport and the action of a Markov step (:class:`FirstOrderOperator`),
and the Dobrushin contraction coefficient.  A :class:`Measure` is always
a law and an :class:`IntegralOperator` always a Markov kernel: both are
validated at construction.  Signed objects, such as the difference of
two laws or a first-order operator ``D``, are plain arrays or
:class:`FirstOrderOperator` values.

Conventions
-----------
* The total variation distance between two laws is the *sum* of the
  absolute differences of their weights, the supremum of ``|mu(f) -
  nu(f)|`` over test functions with values in ``[-1, 1]``.  Two distinct
  point masses are therefore at distance 2, not 1; keep the factor in
  mind when comparing against texts that use the probabilists' half
  convention.
* Path spaces are indexed mixed-radix with the LEFT factor as the
  high digit: ``index(x_0, ..., x_l) = (...((x_0*s_1 + x_1)*s_2 + x_2)...)``.
  This order is fixed so golden files stay stable.
* Spaces are capped at ``MAX_STATES`` states.  The oracle keeps every
  level kernel in factors and never forms an ``S x S`` matrix for a
  Feynman-Kac level past level 0; kernels without that structure (level
  0, annealing levels) are factored trivially and stay dense.
* All values are immutable after construction (weight arrays are marked
  read-only) and safe to share across threads.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

#: Hard cap on the size of any enumerated space (12 binary coordinates).
#: The oracle's factored Feynman-Kac levels cost ``O(S b)`` for ``b``
#: terminal classes; level 0 and annealing levels stay dense (``S^2``
#: memory, ``S^3`` time), and the engine keeps at most two bytes per
#: history entry.
MAX_STATES = 4096

#: Default absolute tolerance for the oracle algebra.
DEFAULT_ATOL = 1e-12


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes objects living on different spaces."""

    def __init__(self, expected: "FiniteSpace", got: "FiniteSpace", context: str):
        self.expected = expected
        self.got = got
        super().__init__(
            f"{context}: expected space {expected.id!r} (size {expected.size}), "
            f"got {got.id!r} (size {got.size})"
        )


def _check_space(expected: "FiniteSpace", got: "FiniteSpace", context: str) -> None:
    if expected != got:
        raise SpaceMismatchError(expected, got, context)


@dataclass(frozen=True)
class FiniteSpace:
    """An enumerated state space with human-readable labels.

    Parameters
    ----------
    id : str
        Opaque identifier, used in error messages and reports.
    size : int
        Number of states, ``1 <= size <= MAX_STATES``.
    labels : tuple of str, optional
        One label per state; generated as ``s0, s1, ...`` when omitted.
    """

    id: str
    size: int
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"space {self.id!r}: size must be >= 1, got {self.size}")
        if self.size > MAX_STATES:
            raise ValueError(
                f"space {self.id!r}: size {self.size} exceeds the hard cap of "
                f"{MAX_STATES} states"
            )
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"s{i}" for i in range(self.size)))
        if len(self.labels) != self.size:
            raise ValueError(
                f"space {self.id!r}: {len(self.labels)} labels for {self.size} states"
            )
        if len(set(self.labels)) != self.size:
            raise ValueError(f"space {self.id!r}: labels are not unique")


@dataclass(frozen=True, eq=False)
class Measure:
    """A probability law over a :class:`FiniteSpace`, as a weight vector.

    The weights are nonnegative and sum to one within ``DEFAULT_ATOL``.
    """

    space: FiniteSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.space.size,):
            raise ValueError(
                f"measure on {self.space.id!r}: weight vector has shape {w.shape}, "
                f"expected ({self.space.size},)"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError(f"measure on {self.space.id!r}: non-finite weights")
        if w.min() < 0.0:
            raise ValueError(
                f"probability measure on {self.space.id!r} has negative weight "
                f"{w.min():.3e}"
            )
        if abs(w.sum() - 1.0) > DEFAULT_ATOL:
            raise ValueError(f"probability measure on {self.space.id!r} sums to {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def uniform(space: FiniteSpace) -> "Measure":
        return Measure(space, np.full(space.size, 1.0 / space.size))


@dataclass(frozen=True, eq=False)
class TestFunction:
    """A bounded function on a :class:`FiniteSpace`, stored as a value table."""

    __test__ = False  # keep pytest from collecting the class by its name

    space: FiniteSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.space.size,):
            raise ValueError(
                f"function on {self.space.id!r}: value vector has shape {v.shape}, "
                f"expected ({self.space.size},)"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError(f"function on {self.space.id!r}: non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @staticmethod
    def indicator(space: FiniteSpace, index: int) -> "TestFunction":
        v = np.zeros(space.size)
        v[index] = 1.0
        return TestFunction(space, v)


@dataclass(frozen=True, eq=False)
class IntegralOperator:
    """A Markov kernel ``M(x, y)`` from `src` into `dst`, as a dense matrix.

    The rows are nonnegative and sum to one within ``DEFAULT_ATOL``.
    """

    src: FiniteSpace
    dst: FiniteSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (self.src.size, self.dst.size):
            raise ValueError(
                f"operator {self.src.id!r}->{self.dst.id!r}: matrix has shape "
                f"{m.shape}, expected ({self.src.size}, {self.dst.size})"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError(
                f"operator {self.src.id!r}->{self.dst.id!r}: non-finite entries"
            )
        if m.min() < 0.0:
            raise ValueError(
                f"Markov kernel {self.src.id!r}->{self.dst.id!r} has negative "
                f"entry {m.min():.3e}"
            )
        err = np.abs(m.sum(axis=1) - 1.0).max()
        if err > DEFAULT_ATOL:
            raise ValueError(
                f"Markov kernel {self.src.id!r}->{self.dst.id!r}: row sums "
                f"deviate from 1 by {err:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity(space: FiniteSpace) -> "IntegralOperator":
        return IntegralOperator(space, space, np.eye(space.size))

    @staticmethod
    def rank_one(src: FiniteSpace, mu: Measure) -> "IntegralOperator":
        """Operator with every row equal to `mu` (constant redraw from `mu`)."""
        m = np.tile(mu.weights, (src.size, 1))
        return IntegralOperator(src, mu.space, m)


@dataclass(frozen=True, eq=False)
class FactoredKernel:
    """A kernel ``M = E F + diag(r[c])`` on one space, kept in factors.

    Every state ``x`` has a class ``c(x)`` among ``b`` classes, none
    empty; ``E`` is the ``S x b`` class indicator, ``F`` (`flows`) the
    ``b x S`` flow rows and ``r`` (`reject`) the ``b`` rejection masses,
    so row ``x`` of ``M`` is ``F[c(x)]`` plus ``r[c(x)]`` on the
    diagonal.  Storing and applying it costs ``O(S b)``.  A general
    kernel is the case ``b = S``, ``c`` the identity, ``F = M``, ``r = 0``
    (:meth:`dense`).  Markov rows are up to the builder (:meth:`dense`
    and :meth:`rank_one` take a kernel or a law, ``fk.mh_factors`` sets
    ``r = 1 - sum F``); the factors are stored unchecked, since the powers
    :meth:`product` makes drift off unit row sums by rounding, and a sum
    of ``n`` powers has rows summing to ``n``.
    """

    space: FiniteSpace
    classes: np.ndarray
    flows: np.ndarray
    reject: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.classes, dtype=np.intp)
        F = np.asarray(self.flows, dtype=float)
        r = np.asarray(self.reject, dtype=float)
        b = r.shape[0] if r.ndim == 1 else -1
        if c.shape != (self.space.size,) or F.shape != (b, self.space.size):
            raise ValueError(
                f"factored kernel on {self.space.id!r}: classes {c.shape}, flows "
                f"{F.shape} and reject {r.shape} do not fit {self.space.size} states"
            )
        if c.min() < 0 or c.max() >= b or np.bincount(c, minlength=b).min() == 0:
            raise ValueError(
                f"factored kernel on {self.space.id!r}: the class map must cover "
                f"0..{b - 1}"
            )
        for name, a in (("classes", c), ("flows", F), ("reject", r)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @staticmethod
    def dense(M: IntegralOperator) -> "FactoredKernel":
        """A Markov kernel on one space as ``b = S`` singleton classes."""
        if M.src != M.dst:
            raise ValueError("a factored kernel requires a Markov kernel on one space")
        n = M.src.size
        return FactoredKernel(M.src, np.arange(n), M.matrix, np.zeros(n))

    @staticmethod
    def rank_one(mu: Measure) -> "FactoredKernel":
        """Constant redraw from the law `mu`: one class, no rejection."""
        return FactoredKernel(
            mu.space, np.zeros(mu.space.size, dtype=np.intp), mu.weights[None, :],
            np.zeros(1),
        )

    @property
    def b(self) -> int:
        return self.reject.shape[0]

    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.classes, kind="stable")
        return order, np.searchsorted(self.classes[order], np.arange(self.b))

    def class_sums(self, a: np.ndarray) -> np.ndarray:
        """``a E``: entries of `a` summed over each class, along the last axis.

        With ``b = S`` every class is one state, and ordering the entries
        by class is the whole sum.
        """
        order, starts = self._segments()
        a = np.take(a, order, axis=-1)
        return a if self.b == self.space.size else np.add.reduceat(a, starts, axis=-1)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """``M h``, as ``(F h)[c] + r[c] h``."""
        c = self.classes
        return (self.flows @ h)[c] + self.reject[c] * h

    def act(self, w: np.ndarray) -> np.ndarray:
        """``w M``, as ``(w E) F + w r[c]``."""
        return self.class_sums(w) @ self.flows + w * self.reject[self.classes]

    def product(self, other: "FactoredKernel") -> "FactoredKernel":
        """``M N`` in factors, for `other` ``N = E G + diag(g[c])`` on the same classes.

        ``F_MN = (F E) G + F diag(g[c]) + diag(r) G`` and ``r_MN = r g``:
        ``diag(r[c]) E = E diag(r)``, so the rejection part of one factor
        moves through the class indicator of the other.  Costs
        ``O(S b^2)``; ``M.product(M)`` is the square ``M^2``.
        """
        if other.space != self.space or not np.array_equal(other.classes, self.classes):
            raise ValueError("a factored product requires kernels on one class map")
        F, r, G, g = self.flows, self.reject, other.flows, other.reject
        flows = self.class_sums(F) @ G
        if r.any() or g.any():
            flows += F * g[self.classes] + r[:, None] * G
        return FactoredKernel(self.space, self.classes, flows, r * g)

    def to_operator(self) -> IntegralOperator:
        """The kernel as a dense Markov matrix: a test reference.

        Each row gathers the flow row of its class and adds the class's
        rejection mass on the diagonal.
        """
        states = np.arange(self.space.size)
        matrix = self.flows[self.classes]
        matrix[states, states] += self.reject[self.classes]
        return IntegralOperator(self.space, self.space, matrix)

    def column_min(self) -> np.ndarray:
        """``min_x M(x, y)`` for every state ``y``.

        The rows of one class differ only on the diagonal, and ``r >= 0``
        only raises it, so the minimum over a class is its flow row,
        except for a state alone in its class, whose column keeps its
        rejection mass.
        """
        low = self.flows.min(axis=0)
        c = self.classes
        alone = np.flatnonzero(np.bincount(c, minlength=self.b)[c] == 1)
        alone = alone[self.reject[c[alone]] > 0.0]
        if alone.size:
            cols = self.flows[:, alone]
            cols[c[alone], np.arange(alone.size)] += self.reject[c[alone]]
            low[alone] = cols.min(axis=0)
        return low


@dataclass(frozen=True, eq=False)
class FirstOrderOperator:
    """``D = T Q / eta(G)`` from `src` into `dst`, applied without a matrix.

    ``T(x, y) = G(x) 1{y = x} + (1 - G(x)) psi(y)`` is the transport of
    the reweighting by the `potential` ``G`` at ``eta``, with ``psi`` the
    reweighted ``eta`` (`redraw`); ``Q`` is a Markov step from `src` into
    `dst`, kept as its action `step`, which maps the values of a `dst`
    function to those of ``Q f`` on `src`.  ``T`` and ``Q`` are
    nonnegative and Markov, so the sup-norm operator norm of ``D`` is
    exactly ``scale = 1 / eta(G)``.
    """

    src: FiniteSpace
    dst: FiniteSpace
    potential: np.ndarray
    redraw: np.ndarray
    scale: float
    step: Callable[[np.ndarray], np.ndarray]

    def apply(self, f: TestFunction) -> TestFunction:
        """``D f``, a function on `src`."""
        _check_space(self.dst, f.space, "first-order operator")
        q = self.step(f.values)
        g = self.potential
        return TestFunction(self.src, self.scale * (g * q + (1.0 - g) * float(self.redraw @ q)))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def integrate(mu: Measure, f: TestFunction) -> float:
    """``mu(f) = sum_x mu(x) f(x)``."""
    _check_space(mu.space, f.space, "integrate")
    return float(mu.weights @ f.values)


# Kept only for the benchmark tracer, which names it; no command calls it.
def dobrushin(M: IntegralOperator) -> float:
    """Dobrushin contraction coefficient of a Markov kernel.

    ``beta(M) = max_{x, x'} (1/2) sum_y |M(x, y) - M(x', y)|``, the
    worst-case half total variation distance between rows; it equals the
    supremum of ``osc(M f)`` over functions with ``osc(f) <= 1``.

    Each pair is evaluated through its overlap, ``(1/2) sum_y |a - b| =
    (r_x + r_x') / 2 - sum_y min(a_y, b_y)`` with ``r`` the row sums, so
    every row takes one ``minimum`` pass against all later rows.  The
    scan stops once ``beta`` reaches 1, which no pair of rows exceeds.
    """
    m = M.matrix
    n = m.shape[0]
    r = m.sum(axis=1)
    buf = np.empty((n - 1, m.shape[1]))
    best = 0.0
    for i in range(n - 1):
        overlap = np.minimum(m[i + 1 :], m[i], out=buf[: n - 1 - i]).sum(axis=1)
        d = float((0.5 * (r[i] + r[i + 1 :]) - overlap).max())
        if d > best:
            best = d
            if best >= 1.0:
                break
    return best


# Kept only for the benchmark tracer, which names it; no command calls it.
def operator_norm(M: IntegralOperator) -> float:
    """Norm induced by the sup norm on functions: max row absolute sum."""
    return float(np.abs(M.matrix).sum(axis=1).max())
