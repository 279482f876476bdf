"""Feynman-Kac models on growing path spaces.

A model is a base Markov chain ``X'_0, X'_1, ...`` on per-level spaces
``S'_0, ..., S'_L`` together with potential functions ``G'_l`` taking
values in ``(0, 1]``.  Level ``l`` of the stack lives on the path space
``S'_0 x ... x S'_l``; its limiting law weights each path by the product
of the potentials evaluated along the way:

    pi_l(x'_0, ..., x'_l)  propto  init(x'_0) * prod_k L'_k(x'_{k-1}, x'_k)
                                   * prod_{k<l} G'_k(x'_k)

The level-to-level map extends a path law by one coordinate after
reweighting by the terminal potential; its fixed points are exactly the
``pi_l`` above.  The sampling kernel for level ``l`` is an independence
Metropolis-Hastings move whose proposal draws a whole level-(l-1) path
from a supplied measure and appends one base transition.

Path potentials depend on the terminal coordinate only; that keeps every
operator here in closed form.

A model enumerates each level's path space once, on first use
(:func:`path_space`), and every builder here, the engine and the
configuration read the terminal coordinates of its paths from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    FactoredKernel,
    FiniteSpace,
    FirstOrderOperator,
    IntegralOperator,
    Measure,
    TestFunction,
    integrate,
)

#: Invariance tolerance used when validating user-supplied kernels.
KERNEL_INVARIANCE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class FKModel:
    """Base chain, potentials, and optional level-0 kernel.

    Parameters
    ----------
    base_spaces : tuple of FiniteSpace
        The per-coordinate spaces ``S'_0 ... S'_L``; the model has
        ``L = len(base_spaces) - 1`` levels.
    initial : Measure
        Probability measure on ``S'_0`` (the level-0 limit law).
    transitions : tuple of IntegralOperator
        ``transitions[l-1]`` is the Markov kernel ``L'_l`` from
        ``S'_{l-1}`` into ``S'_l``, for ``l = 1 .. L``.
    potentials : tuple of TestFunction
        ``potentials[l]`` is ``G'_l`` on ``S'_l`` with values in
        ``(0, 1]``, for ``l = 0 .. L-1``.
    level0_kernel : IntegralOperator, optional
        Markov kernel on ``S'_0`` with invariant measure `initial`;
        defaults to the constant redraw from `initial`.
    kernel_type : str
        ``"mh"`` for the Metropolis-Hastings level kernels, or
        ``"rank_one"`` for exact redraws from the local invariant
        measure (the memoryless special case).
    """

    base_spaces: tuple[FiniteSpace, ...]
    initial: Measure
    transitions: tuple[IntegralOperator, ...]
    potentials: tuple[TestFunction, ...]
    level0_kernel: IntegralOperator | None = None
    kernel_type: str = "mh"
    _paths: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        L = self.levels
        if L < 0:
            raise ValueError("FKModel needs at least one base space")
        if self.initial.space != self.base_spaces[0]:
            raise ValueError("initial must be a law on the first base space")
        if len(self.transitions) != L:
            raise ValueError(f"expected {L} transitions, got {len(self.transitions)}")
        if len(self.potentials) != L:
            raise ValueError(f"expected {L} potentials, got {len(self.potentials)}")
        for l, T in enumerate(self.transitions, start=1):
            if T.src != self.base_spaces[l - 1] or T.dst != self.base_spaces[l]:
                raise ValueError(f"transition {l} does not map level {l-1} into level {l}")
        for l, G in enumerate(self.potentials):
            if G.space != self.base_spaces[l]:
                raise ValueError(f"potential {l} lives on the wrong space")
            if G.values.min() <= 0.0 or G.values.max() > 1.0:
                raise ValueError(
                    f"potential {l} must take values in (0, 1]; range is "
                    f"[{G.values.min():.3e}, {G.values.max():.3e}]"
                )
        if self.kernel_type not in ("mh", "rank_one"):
            raise ValueError(f"unknown kernel_type {self.kernel_type!r}")
        if self.level0_kernel is None:
            object.__setattr__(
                self, "level0_kernel",
                IntegralOperator.rank_one(self.base_spaces[0], self.initial),
            )
        k0 = self.level0_kernel
        if k0.src != self.base_spaces[0] or k0.dst != self.base_spaces[0]:
            raise ValueError("level0_kernel must be a kernel on the first base space")
        resid = np.abs(self.initial.weights @ k0.matrix - self.initial.weights).max()
        if resid > KERNEL_INVARIANCE_TOL:
            raise ValueError(
                f"level0_kernel does not leave the initial measure invariant "
                f"(residual {resid:.3e})"
            )

    @property
    def levels(self) -> int:
        return len(self.base_spaces) - 1

    def level_space(self, k: int) -> "PathSpace":
        """The level-`k` path space (:func:`path_space`)."""
        return path_space(self, k)


@dataclass(frozen=True, eq=False)
class PathSpace:
    """The states of one level and the terminal coordinate of each.

    On a Feynman-Kac level the states are the paths of base coordinates
    ``0 .. level`` and `terminal` maps each to its last coordinate, the
    low mixed-radix digit.  An annealing level is the model space, every
    state its own terminal.  `terminal` is read-only.
    """

    space: FiniteSpace
    terminal: np.ndarray

    def __post_init__(self):
        self.terminal.setflags(write=False)


def path_space(model: FKModel, l: int) -> PathSpace:
    """Path space for level `l`, mixed-radix with coordinate 0 as high digit.

    Enumerated once per model and level, on first use: the levels above
    those a run stacks are never built, and may exceed ``MAX_STATES``.
    """
    ps = model._paths.get(l)
    if ps is not None:
        return ps
    if not 0 <= l <= model.levels:
        raise ValueError(f"level {l} out of range 0..{model.levels}")
    spaces = model.base_spaces[: l + 1]
    space = spaces[0]
    if l > 0:
        labels = spaces[0].labels
        for sp in spaces[1:]:
            labels = tuple(f"{a}.{b}" for a in labels for b in sp.labels)
        size = math.prod(sp.size for sp in spaces)
        space = FiniteSpace(id=f"{spaces[0].id}^(0:{l})", size=size, labels=labels)
    ps = PathSpace(space, np.arange(space.size) % spaces[-1].size)
    return model._paths.setdefault(l, ps)


def exact_path_measure(model: FKModel, l: int) -> Measure:
    """The level-`l` limit law, by direct enumeration of weighted paths."""
    if not 0 <= l <= model.levels:
        raise ValueError(f"level {l} out of range 0..{model.levels}")
    w = model.initial.weights.copy()
    for k in range(1, l + 1):
        term = path_space(model, k - 1).terminal
        g = model.potentials[k - 1].values[term]
        w = ((w * g)[:, None] * model.transitions[k - 1].matrix[term, :]).ravel()
    total = w.sum()
    if total <= 0.0:
        raise ValueError(f"level {l} path weights sum to {total}; cannot normalize")
    return Measure(path_space(model, l).space, w / total)


def boltzmann_gibbs(mu: Measure, G: TestFunction) -> Measure:
    """Reweight `mu` by the positive potential `G` and renormalize."""
    denom = integrate(mu, G)
    if denom <= 0.0:
        raise ValueError(f"mu(G) = {denom}; the transform is undefined")
    return Measure(mu.space, mu.weights * G.values / denom)


def fk_map(model: FKModel, l: int, mu: Measure) -> Measure:
    """One step of the measure-valued flow: reweight at level `l`, extend.

    Maps a probability measure on the level-`l` path space to one on the
    level-``l+1`` path space.  The exact path measures are its fixed
    points: ``fk_map(model, l, pi_l) = pi_{l+1}``.
    """
    if l >= model.levels:
        raise ValueError(f"level {l} has no successor (model has {model.levels} levels)")
    ps = path_space(model, l)
    if mu.space != ps.space:
        raise ValueError(
            f"measure lives on {mu.space.id!r}, expected level-{l} path space "
            f"{ps.space.id!r}"
        )
    term = ps.terminal
    psi = boltzmann_gibbs(mu, TestFunction(ps.space, model.potentials[l].values[term]))
    w = (psi.weights[:, None] * model.transitions[l].matrix[term, :]).ravel()
    return Measure(path_space(model, l + 1).space, w)


def mh_factors(model: FKModel, l: int, mu: Measure) -> FactoredKernel:
    """Independence Metropolis-Hastings kernel for level `l`, indexed by `mu`.

    The proposal draws a level-``l-1`` path from `mu` and appends one
    base transition; the move to proposal ``y`` from state ``x`` is
    accepted with probability ``min(1, G'_{l-1}(term(y_prefix)) /
    G'_{l-1}(term(x_prefix)))`` and the rejection mass sits on the
    diagonal.  Its invariant measure is ``fk_map(model, l-1, mu)``.

    A row depends on the current state only through the terminal of its
    prefix, so the kernel is kept in factors: one class per base state of
    level ``l-1``, with one accepted-flow row and one rejection mass each.
    """
    if l < 1:
        raise ValueError("the level-0 kernel is homogeneous; use model.level0_kernel")
    if l > model.levels:
        raise ValueError(f"level {l} out of range 1..{model.levels}")
    ps_prev, ps = path_space(model, l - 1), path_space(model, l)
    if mu.space != ps_prev.space:
        raise ValueError(
            f"measure lives on {mu.space.id!r}, expected level-{l-1} path space "
            f"{ps_prev.space.id!r}"
        )
    g_prev = model.potentials[l - 1].values
    term_prev = ps_prev.terminal
    step = model.transitions[l - 1].matrix
    s_new = model.base_spaces[l].size

    ratio = np.minimum(1.0, g_prev[term_prev][None, :] / g_prev[:, None])
    flows = ((mu.weights * ratio)[:, :, None] * step[term_prev, :]).reshape(g_prev.size, -1)
    reject = np.array([1.0 - math.fsum(row) for row in flows])
    # a path's class is the terminal of its prefix
    return FactoredKernel(ps.space, np.repeat(term_prev, s_new), flows, reject)


def mh_kernel(model: FKModel, l: int, mu: Measure) -> IntegralOperator:
    """The kernel of :func:`mh_factors` as a dense matrix: a test reference."""
    return mh_factors(model, l, mu).to_operator()


def first_order_D(model: FKModel, l: int, eta: Measure) -> FirstOrderOperator:
    """First-order expansion operator of the level map around `eta`.

    For measures ``mu`` near ``eta`` the flow satisfies
    ``fk_map(mu) - fk_map(eta) = (mu - eta) D + O(||mu - eta||^2)``
    with ``D`` the transport kernel at `eta` scaled by ``1/eta(G_l)``
    and composed with the path extension.  `D` maps level-`l` paths to
    level-``l+1`` paths; it is not Markov (constant mass ``1/eta(G_l)``).
    It is kept as the transport and a step that applies the extension's
    rows to the reshaped values, so applying it costs ``O(S_{l+1})``.
    """
    if l >= model.levels:
        raise ValueError(f"level {l} has no successor (model has {model.levels} levels)")
    ps, ps_next = path_space(model, l), path_space(model, l + 1)
    term = ps.terminal
    G = TestFunction(ps.space, model.potentials[l].values[term])
    denom = integrate(eta, G)
    if denom <= 0.0:
        raise ValueError(f"eta(G_{l}) = {denom}; expansion undefined")
    rows = model.transitions[l].matrix[term]
    width = rows.shape[1]
    return FirstOrderOperator(
        ps.space, ps_next.space, G.values, boltzmann_gibbs(eta, G).weights, 1.0 / denom,
        lambda v: (rows * v.reshape(-1, width)).sum(axis=1),
    )


def rank_one_kernel(model: FKModel, l: int, mu: Measure) -> FactoredKernel:
    """Memoryless level kernel: every row redraws from ``fk_map(model, l-1, mu)``."""
    if l < 1:
        raise ValueError("the level-0 kernel is homogeneous; use model.level0_kernel")
    return FactoredKernel.rank_one(fk_map(model, l - 1, mu))


# ---------------------------------------------------------------------------
# Two-state tempered preset
# ---------------------------------------------------------------------------

def toy_model(p: float, betas, kernel_type: str = "mh") -> FKModel:
    """Two-state tempering preset.

    Base states ``{1, 2}`` with weights ``p`` and ``1-p``; the level-`l`
    marginal puts mass ``p^b_l / (p^b_l + q^b_l)`` on state 1 for the
    inverse-temperature schedule `betas`, potentials are
    ``G'_l(1) = p^(b_{l+1}-b_l)``, ``G'_l(2) = q^(b_{l+1}-b_l)``, and each
    base transition redraws from the next marginal (rank-one rows).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    betas = tuple(float(b) for b in betas)
    if len(betas) < 1:
        raise ValueError("betas must contain at least one value")
    if any(b <= 0 for b in betas) or any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError(f"betas must be strictly increasing and positive, got {betas}")
    q = 1.0 - p
    L = len(betas) - 1
    spaces = tuple(
        FiniteSpace(id=f"S'{l}", size=2, labels=("1", "2")) for l in range(L + 1)
    )

    def marginal(l: int) -> np.ndarray:
        a, b = p ** betas[l], q ** betas[l]
        return np.array([a / (a + b), b / (a + b)])

    initial = Measure(spaces[0], marginal(0))
    transitions = tuple(
        IntegralOperator(spaces[l - 1], spaces[l], np.tile(marginal(l), (2, 1)))
        for l in range(1, L + 1)
    )
    potentials = tuple(
        TestFunction(
            spaces[l],
            np.array([p ** (betas[l + 1] - betas[l]), q ** (betas[l + 1] - betas[l])]),
        )
        for l in range(L)
    )
    return FKModel(
        base_spaces=spaces,
        initial=initial,
        transitions=transitions,
        potentials=potentials,
        kernel_type=kernel_type,
    )
