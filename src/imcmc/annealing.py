"""Interacting annealing models on a fixed finite space.

The level-`l` target is the Gibbs measure ``exp(-beta_l V) * lam``
normalized, for an increasing inverse-temperature schedule ``beta_0 <
beta_1 < ...`` and a strictly positive reference measure ``lam``.  One
user-supplied Markov kernel ``K_l`` per level, leaving the level-`l`
Gibbs measure invariant, drives the dynamics:

* the level map reweights by ``G_l = exp(-(beta_{l+1}-beta_l) V)``,
  applies ``K_{l+1}``, then the geometrically-averaged kernel
  ``K_eps = (1-eps) * sum_k eps^k K^k``;
* the sampling kernel for level ``l`` mixes one ``K_l`` move (weight
  ``eps``) with a redraw from the reweighted measure pushed through
  ``K_l`` (weight ``1-eps``), so its contraction coefficient is at most
  ``eps``.

Potentials are handled with max-shifted exponentials throughout; the
reweighting potentials are normalized by ``exp(-(beta_{l+1}-beta_l)
min V)`` so they take values in ``(0, 1]``.  The normalization cancels
in every reweighting and only shifts first-order operators by constant
functions, which no variance in this package can see.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from .measures import (
    FiniteSpace,
    FirstOrderOperator,
    IntegralOperator,
    Measure,
    TestFunction,
    integrate,
)
from .fk import KERNEL_INVARIANCE_TOL, PathSpace, boltzmann_gibbs


def _gibbs_weights(values: np.ndarray, beta: float, reference: np.ndarray) -> np.ndarray:
    logw = -beta * values + np.log(reference)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


@dataclass(frozen=True, eq=False)
class AnnealingModel:
    """Energy table, temperature schedule, and per-level invariant kernels.

    Parameters
    ----------
    space : FiniteSpace
        Common state space of every level.
    potential : TestFunction
        Energy ``V`` (arbitrary real values).
    betas : tuple of float
        Strictly increasing positive inverse temperatures
        ``beta_0 .. beta_L``; the model has ``L = len(betas) - 1`` levels.
    epsilon : float
        Mixture weight in ``[0, 1)``.
    kernels : tuple of IntegralOperator
        Markov kernels ``K_l`` for ``l = 0 .. L``, each validated to
        leave the level-`l` Gibbs measure invariant.
    reference : Measure, optional
        Strictly positive reference measure, uniform when omitted.

    Level 0 is driven by ``K_0`` (:attr:`level0_kernel`).
    """

    space: FiniteSpace
    potential: TestFunction
    betas: tuple[float, ...]
    epsilon: float
    kernels: tuple[IntegralOperator, ...]
    reference: Measure | None = None

    def __post_init__(self):
        if self.potential.space != self.space:
            raise ValueError("potential must live on the model space")
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        if len(betas) < 1 or any(b <= 0 for b in betas):
            raise ValueError(f"betas must be positive, got {betas}")
        if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
            raise ValueError(f"betas must be strictly increasing, got {betas}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.reference is None:
            object.__setattr__(self, "reference", Measure.uniform(self.space))
        ref = self.reference
        if ref.space != self.space or ref.weights.min() <= 0.0:
            raise ValueError("reference must be strictly positive on the model space")
        L = self.levels
        if len(self.kernels) != L + 1:
            raise ValueError(f"kernels: expected {L + 1} kernels, got {len(self.kernels)}")
        for l, M in enumerate(self.kernels):
            if M.src != self.space or M.dst != self.space:
                raise ValueError(f"kernels[{l}] must be a kernel on the model space")
            pi = gibbs_measure(self, l).weights
            resid = np.abs(pi @ M.matrix - pi).max()
            if resid > KERNEL_INVARIANCE_TOL:
                raise ValueError(
                    f"kernels[{l}] does not leave the level-{l} Gibbs measure "
                    f"invariant (residual {resid:.3e})"
                )

    @property
    def levels(self) -> int:
        return len(self.betas) - 1

    @property
    def level0_kernel(self) -> IntegralOperator:
        """The homogeneous kernel driving level 0: ``K_0``."""
        return self.kernels[0]

    def level_space(self, k: int) -> PathSpace:
        """The space of level `k`: the model space, every state its own terminal."""
        if not 0 <= k <= self.levels:
            raise ValueError(f"level {k} out of range 0..{self.levels}")
        return PathSpace(self.space, np.arange(self.space.size))


def gibbs_measure(model: AnnealingModel, l: int) -> Measure:
    """Level-`l` target ``exp(-beta_l V) * reference``, normalized."""
    if not 0 <= l <= model.levels:
        raise ValueError(f"level {l} out of range 0..{model.levels}")
    w = _gibbs_weights(model.potential.values, model.betas[l], model.reference.weights)
    return Measure(model.space, w)


def potential_fn(model: AnnealingModel, l: int) -> TestFunction:
    """Reweighting potential between levels `l` and ``l+1``, scaled into (0, 1].

    ``G_l(x) = exp(-(beta_{l+1} - beta_l)(V(x) - min V))``; the shift by
    ``min V`` cancels in every normalized reweighting.
    """
    if not 0 <= l < model.levels:
        raise ValueError(f"level {l} out of range 0..{model.levels - 1}")
    delta = model.betas[l + 1] - model.betas[l]
    v = model.potential.values
    return TestFunction(model.space, np.exp(-delta * (v - v.min())))


# Kept only for the benchmark tracer, which names it; no command calls it.
def geometric_kernel(model: AnnealingModel, l: int) -> IntegralOperator:
    """Geometric average ``(1-eps) sum_k eps^k K_l^k`` in closed form.

    Materialized as ``(1-eps) (I - eps K_l)^{-1}``; Markov and invariant
    for the level-`l` Gibbs measure whenever ``K_l`` is.
    """
    if not 0 <= l <= model.levels:
        raise ValueError(f"level {l} out of range 0..{model.levels}")
    eps = model.epsilon
    K = model.kernels[l]
    if eps == 0.0:
        return IntegralOperator.identity(model.space)
    n = model.space.size
    mat = (1.0 - eps) * np.linalg.solve(np.eye(n) - eps * K.matrix, np.eye(n))
    mat = np.maximum(mat, 0.0)
    mat /= mat.sum(axis=1, keepdims=True)
    return IntegralOperator(model.space, model.space, mat)


def mixture_kernel(model: AnnealingModel, l: int, mu: Measure) -> IntegralOperator:
    """Sampling kernel for level `l`: one ``K_l`` move or a reweighted redraw.

    ``M(x, y) = eps K_l(x, y) + (1 - eps) (bg(mu) K_l)(y)``.  Its rows
    share the ``(1-eps)``-weighted part, so its contraction coefficient
    is at most ``eps``; its invariant measure is ``bg(mu) K_l`` moved by
    the level-`l` geometric kernel.
    """
    if l < 1:
        raise ValueError("the level-0 kernel is homogeneous; use model.level0_kernel")
    if l > model.levels:
        raise ValueError(f"level {l} out of range 1..{model.levels}")
    eps = model.epsilon
    psi = boltzmann_gibbs(mu, potential_fn(model, l - 1))
    rho = psi.weights @ model.kernels[l].matrix
    matrix = eps * model.kernels[l].matrix + (1.0 - eps) * np.tile(rho, (model.space.size, 1))
    return IntegralOperator(model.space, model.space, matrix)


def first_order_D(model: AnnealingModel, l: int, eta: Measure, bundle) -> FirstOrderOperator:
    """First-order expansion operator of the level map around `eta`.

    The transport realization of the reweighting step at `eta`, scaled by
    ``1/eta(G_l)`` and followed by the step ``Q = K_{l+1} G_{l+1}``, with
    ``G_{l+1}`` the geometric kernel.  Not Markov (constant mass
    ``1/eta(G_l)``).

    `bundle` is the level-``l+1`` :class:`~imcmc.oracle.ResolventBundle`.
    Its kernel is ``M = eps K_{l+1} + (1-eps) 1 (x) pi_{l+1}``, so the
    geometric kernel is ``(1-eps) (I - eps K_{l+1})^{-1} = (1-eps) P +
    1 (x) pi_{l+1}`` with ``P`` the bundle's resolvent, and ``Q f =
    K_{l+1}((1-eps) P f + pi_{l+1}(f))`` costs two mat-vecs: no solve and
    no operator product.  The step does not depend on `eta`.
    """
    if not 0 <= l < model.levels:
        raise ValueError(f"level {l} has no successor (model has {model.levels} levels)")
    G = potential_fn(model, l)
    denom = integrate(eta, G)
    K = model.kernels[l + 1].matrix
    pi = bundle.invariant.weights
    eps = model.epsilon
    return FirstOrderOperator(
        model.space, model.space, G.values, boltzmann_gibbs(eta, G).weights, 1.0 / denom,
        lambda v: K @ ((1.0 - eps) * bundle.apply(v) + float(pi @ v)),
    )


def metropolis_kernel(pi: Measure, proposal: IntegralOperator) -> IntegralOperator:
    """Metropolize a symmetric proposal into a `pi`-reversible kernel.

    Off-diagonal flow ``proposal(x, y) * min(1, pi(y)/pi(x))``; the
    rejected mass is folded into the diagonal with compensated sums so
    rows are exactly stochastic.  The symmetry of `proposal` is the
    caller's to check (:func:`make_metropolis_model` does, once per model).
    """
    if proposal.src != proposal.dst:
        raise ValueError("proposal must be a kernel on a single space")
    if proposal.src != pi.space:
        raise ValueError("proposal and target live on different spaces")
    if pi.weights.min() <= 0.0:
        raise ValueError("target must be strictly positive for the acceptance ratios")
    # min(1, pi(y)/pi(x)), divided only where below 1: pi(y)/pi(x)
    # overflows when pi(x) is subnormal
    w = pi.weights
    ratio = np.divide(w[None, :], w[:, None], out=np.ones((w.size, w.size)),
                      where=w[None, :] < w[:, None])
    flow = proposal.matrix * ratio
    matrix = flow.copy()
    # fsum is correctly rounded, so summing only the nonzero off-diagonal
    # flows leaves each row's sum as it is
    np.fill_diagonal(flow, 0.0)
    np.fill_diagonal(matrix, [1.0 - math.fsum(row[row != 0.0].tolist()) for row in flow])
    return IntegralOperator(pi.space, pi.space, matrix)


def make_metropolis_model(
    space: FiniteSpace,
    potential,
    betas,
    epsilon: float,
    proposal: IntegralOperator | None = None,
    reference: Measure | None = None,
) -> AnnealingModel:
    """Build a model whose kernels ``K_l`` are Metropolis kernels.

    `proposal` must be symmetric; it defaults to the uniform redraw,
    which is symmetric on any space.
    """
    potential = potential if isinstance(potential, TestFunction) else TestFunction(space, potential)
    if proposal is None:
        n = space.size
        proposal = IntegralOperator(space, space, np.full((n, n), 1.0 / n))
    elif not np.array_equal(proposal.matrix, proposal.matrix.T):
        raise ValueError("proposal matrix must be symmetric")
    betas = tuple(float(b) for b in betas)
    ref = reference if reference is not None else Measure.uniform(space)
    kernels = tuple(
        metropolis_kernel(
            Measure(space, _gibbs_weights(potential.values, b, ref.weights)),
            proposal,
        )
        for b in betas
    )
    return AnnealingModel(
        space=space,
        potential=potential,
        betas=betas,
        epsilon=epsilon,
        kernels=kernels,
        reference=reference,
    )
