"""Reference routes that the tests compare the package against.

None of these runs in the package: the two-state closed forms are an
independent second opinion on the general path-space machinery, the
remainder checks probe the first-order expansions numerically, the
stacked product model assembles the whole level stack as one joint
kernel with dense matrices, the dense action of a kernel on a law and
the annealing level map are matrix routes, and the annealing and
weight-array routes rebuild closed forms by series and by a second
construction.  The single-transition sampler draws one step of an engine
level rule against a frozen history, so that the engine's transition law
can be tested against the oracle's kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from imcmc import annealing as ann
from imcmc import engine, fk
from imcmc.harness import s_weights
from imcmc.measures import (
    FiniteSpace,
    FirstOrderOperator,
    IntegralOperator,
    Measure,
    TestFunction,
    _check_space,
)
from imcmc.oracle import CltSpec

from helpers import operator_matrix


# ---------------------------------------------------------------------------
# Total variation distance and the dense action on laws
# ---------------------------------------------------------------------------

def tv_distance(mu: Measure, nu: Measure) -> float:
    """Total variation distance: the sum of absolute weight differences.

    The unit-ball convention of :mod:`imcmc.measures`, so two distinct
    point masses are at distance 2.
    """
    _check_space(mu.space, nu.space, "tv_distance")
    return float(np.abs(mu.weights - nu.weights).sum())


def act_measure(mu: Measure, M: IntegralOperator) -> Measure:
    """Dual action ``(mu M)(y) = sum_x mu(x) M(x, y)`` on ``M.dst``."""
    _check_space(M.src, mu.space, "act_measure")
    # guard against -1e-17 style round-off on otherwise exact rows
    w = np.maximum(mu.weights @ M.matrix, 0.0)
    return Measure(M.dst, w / w.sum())


# ---------------------------------------------------------------------------
# Product spaces and tensor products
# ---------------------------------------------------------------------------

def product_space(a: FiniteSpace, b: FiniteSpace, id: str | None = None) -> FiniteSpace:
    """Product space of `a` and `b`, `a` indexing the high digit."""
    labels = tuple(f"{la}.{lb}" for la in a.labels for lb in b.labels)
    return FiniteSpace(id=id or f"{a.id}*{b.id}", size=a.size * b.size, labels=labels)


def tensor(a, b):
    """Tensor product of two measures, functions, or operators.

    The result lives on the product space with the left factor as the
    high digit, so the flat index ``i*size_b + j`` pairs state ``i`` of
    `a` with state ``j`` of `b`.
    """
    if isinstance(a, Measure) and isinstance(b, Measure):
        space = product_space(a.space, b.space)
        return Measure(space, np.outer(a.weights, b.weights).ravel())
    if isinstance(a, TestFunction) and isinstance(b, TestFunction):
        space = product_space(a.space, b.space)
        return TestFunction(space, np.outer(a.values, b.values).ravel())
    if isinstance(a, IntegralOperator) and isinstance(b, IntegralOperator):
        src = product_space(a.src, b.src)
        dst = product_space(a.dst, b.dst)
        return IntegralOperator(src, dst, np.kron(a.matrix, b.matrix))
    raise TypeError(
        f"tensor requires two measures, two functions, or two operators; "
        f"got {type(a).__name__} and {type(b).__name__}"
    )


# ---------------------------------------------------------------------------
# Dense Feynman-Kac path operators
# ---------------------------------------------------------------------------

def path_potential(model: fk.FKModel, l: int) -> TestFunction:
    """Level-`l` potential lifted to the path space (terminal coordinate only)."""
    ps = fk.path_space(model, l)
    return TestFunction(ps.space, model.potentials[l].values[ps.terminal])


def path_extension(model: fk.FKModel, l: int) -> IntegralOperator:
    """Markov extension from level-`l` paths to level-``l+1`` paths.

    The row of a path `x` puts mass ``L'_{l+1}(term(x), y)`` on the path
    ``(x, y)`` and zero elsewhere: the prefix is kept, one coordinate is
    appended.  ``fk.first_order_D`` applies the extension by reshaping.
    """
    ps, ps_next = fk.path_space(model, l), fk.path_space(model, l + 1)
    s_new = model.base_spaces[l + 1].size
    rows = model.transitions[l].matrix[ps.terminal]
    matrix = np.zeros((ps.space.size, ps_next.space.size))
    cols = np.arange(ps.space.size)[:, None] * s_new + np.arange(s_new)[None, :]
    np.put_along_axis(matrix, cols, rows, axis=1)
    return IntegralOperator(ps.space, ps_next.space, matrix)


def transport_kernel(mu: Measure, G: TestFunction) -> IntegralOperator:
    """Markov transport realization of the reweighting map.

    ``S(x, y) = G(x) 1{y=x} + (1 - G(x)) * bg(mu)(y)`` with ``bg`` the
    normalized reweighting of `mu` by `G`; it satisfies ``mu S = bg(mu)``.
    Requires `G` valued in ``(0, 1]``.  The first-order operators apply
    the transport without its matrix.
    """
    if G.values.min() <= 0.0 or G.values.max() > 1.0:
        raise ValueError(
            f"transport kernel needs potential values in (0, 1]; range is "
            f"[{G.values.min():.3e}, {G.values.max():.3e}]"
        )
    psi = fk.boltzmann_gibbs(mu, G)
    g = G.values
    matrix = np.diag(g) + np.outer(1.0 - g, psi.weights)
    return IntegralOperator(mu.space, mu.space, matrix)


# ---------------------------------------------------------------------------
# First-order remainder checks
# ---------------------------------------------------------------------------

def remainder_norm(map_fn, eta: Measure, mu: Measure, D, t: float) -> float:
    """TV norm of the expansion remainder at ``eta + t (mu - eta)``.

    ``map_fn`` sends laws to laws; the remainder is the signed weight
    vector ``map_fn(mu_t) - map_fn(eta) - (mu_t - eta) D``, with `D` a
    :class:`FirstOrderOperator` or a dense matrix.
    """
    mu_t = Measure(eta.space, eta.weights + t * (mu.weights - eta.weights))
    matrix = operator_matrix(D) if isinstance(D, FirstOrderOperator) else D
    lead = (mu_t.weights - eta.weights) @ matrix
    diff = map_fn(mu_t).weights - map_fn(eta).weights - lead
    return float(np.abs(diff).sum())


def remainder_ratios(map_fn, eta, mu, D, scales=(1e-2, 5e-3, 2.5e-3)) -> list[float]:
    """Remainder-norm ratios between successive halvings of the scale.

    Quadratic remainders give ratios near 4; pairs whose norms are both
    below 1e-14 are reported as exactly 4 (linear maps, zero remainder).
    """
    norms = [remainder_norm(map_fn, eta, mu, D, t) for t in scales]
    ratios = []
    for a, b in zip(norms, norms[1:]):
        if a < 1e-14 and b < 1e-14:
            ratios.append(4.0)
        else:
            ratios.append(a / b if b > 0 else float("inf"))
    return ratios


# ---------------------------------------------------------------------------
# Two-state closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ToyClosedForm:
    """Closed-form report for the two-state tempering preset.

    ``marginals[l]`` is the level-`l` two-point marginal, ``base_steps[l]``
    the matrix appending coordinate ``l`` (valid for ``l >= 1``), and
    ``d_ops[l]`` the first-order operator from level-`l` paths into
    level-``l+1`` paths, all evaluated directly from the closed forms.
    """

    p: float
    betas: tuple[float, ...]
    marginals: tuple[np.ndarray, ...]
    base_steps: tuple[np.ndarray | None, ...]
    path_measures: tuple[np.ndarray, ...]
    transports: tuple[np.ndarray, ...]
    d_ops: tuple[np.ndarray, ...]


def toy_closed_form(p: float, betas) -> ToyClosedForm:
    """Evaluate every two-state closed form for schedule `betas`.

    Independent of the general path-space machinery: marginals come from
    ``p^b / (p^b + q^b)``, base steps from the displayed two-by-two form,
    path weights from the explicit product, and the first-order operators
    from their displayed entries.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    betas = tuple(float(b) for b in betas)
    q = 1.0 - p
    L = len(betas) - 1

    def marginal(l):
        a, b = p ** betas[l], q ** betas[l]
        return np.array([a / (a + b), b / (a + b)])

    marginals = tuple(marginal(l) for l in range(L + 1))
    base_steps: list[np.ndarray | None] = [None]
    for l in range(1, L + 1):
        m = marginals[l]
        base_steps.append(np.array([[1.0 - m[1], m[1]], [m[0], 1.0 - m[0]]]))

    g = [
        np.array([p ** (betas[l + 1] - betas[l]), q ** (betas[l + 1] - betas[l])])
        for l in range(L)
    ]

    # explicit product weights: init * steps * potentials along the path
    path_measures = []
    for l in range(L + 1):
        size = 2 ** (l + 1)
        w = np.empty(size)
        for idx in range(size):
            digits = [(idx >> (l - k)) & 1 for k in range(l + 1)]
            val = marginals[0][digits[0]]
            for k in range(1, l + 1):
                val *= base_steps[k][digits[k - 1], digits[k]]
            for k in range(l):
                val *= g[k][digits[k]]
            w[idx] = val
        path_measures.append(w / w.sum())
    path_measures = tuple(path_measures)

    transports = []
    d_ops = []
    for l in range(L):
        size = 2 ** (l + 1)
        term = np.arange(size) % 2
        pi_l = path_measures[l]
        denom = float(marginals[l] @ g[l])
        # transport rows: keep the path with weight G, else redraw from
        # the reweighted path measure
        redraw = pi_l * g[l][term] / denom
        S = np.diag(g[l][term]) + np.outer(1.0 - g[l][term], redraw)
        transports.append(S)
        D = np.zeros((size, 2 * size))
        pi_next = path_measures[l + 1]
        for x in range(size):
            gx = g[l][term[x]]
            D[x] = (1.0 - gx) * pi_next
            D[x, 2 * x : 2 * x + 2] += gx * base_steps[l + 1][term[x]]
        d_ops.append(D / denom)

    return ToyClosedForm(
        p=p,
        betas=betas,
        marginals=marginals,
        base_steps=tuple(base_steps),
        path_measures=path_measures,
        transports=tuple(transports),
        d_ops=tuple(d_ops),
    )


# ---------------------------------------------------------------------------
# Stacked product model across levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProductModel:
    """Joint view of levels ``0 .. l``: product kernel, limit, first-order op.

    `d_op` is the dense matrix of the joint first-order operator, from
    levels ``0 .. l`` into levels ``0 .. l+1``.
    """

    level: int
    space: FiniteSpace
    kernel: IntegralOperator
    limit: Measure
    d_op: np.ndarray


def _component_map(spec: CltSpec, k: int, mu: Measure) -> Measure:
    model = spec.model
    if isinstance(model, fk.FKModel):
        return fk.fk_map(model, k, mu)
    return annealing_map(model, k, mu)


def product_limit(spec: CltSpec, l: int) -> Measure:
    out = spec.pis[0]
    for k in range(1, l + 1):
        out = tensor(out, spec.pis[k])
    return out


def product_model(spec: CltSpec, l: int) -> ProductModel:
    """Tensor the level stack ``0 .. l`` into a single joint model.

    The joint kernel moves every coordinate with its own level kernel,
    the joint limit is the product of the level limits, and the joint
    first-order operator into levels ``0 .. l+1`` is assembled from the
    per-level operators with the limit measures filling the remaining
    output coordinates.
    """
    if l + 1 > spec.level:
        raise ValueError(
            f"product model at l={l} needs the spec built through level {l + 1}"
        )
    kernel = spec.bundles[0].kernel.to_operator()
    for k in range(1, l + 1):
        kernel = tensor(kernel, spec.bundles[k].kernel.to_operator())
    limit = product_limit(spec, l)

    sizes = [sp.size for sp in spec.spaces[: l + 2]]
    src_size = math.prod(sizes[: l + 1])
    dst_size = math.prod(sizes)

    # coordinate digits of every joint source state
    digits = np.empty((src_size, l + 1), dtype=np.int64)
    rem = np.arange(src_size)
    for k in range(l, -1, -1):
        digits[:, k] = rem % sizes[k]
        rem //= sizes[k]

    matrix = np.zeros((src_size, dst_size))
    for k in range(l + 1):
        D = operator_matrix(spec.d_ops[k])  # level k -> level k+1
        low = spec.pis[0].weights
        for m in range(1, k + 1):
            low = np.outer(low, spec.pis[m].weights).ravel()
        high = np.ones(1)
        for m in range(k + 2, l + 2):
            high = np.outer(high, spec.pis[m].weights).ravel()
        block = np.einsum("a,rb,c->rabc", low, D[digits[:, k]], high)
        matrix += block.reshape(src_size, dst_size)

    return ProductModel(level=l, space=limit.space, kernel=kernel, limit=limit, d_op=matrix)


def product_map(spec: CltSpec, l: int, mu: Measure) -> Measure:
    """Joint level map: first coordinate pinned at the level-0 limit,
    every later coordinate given by the component map of the matching
    marginal of `mu`."""
    sizes = [sp.size for sp in spec.spaces[: l + 1]]
    if mu.space.size != math.prod(sizes):
        raise ValueError("measure does not live on the joint space of levels 0..l")
    cube = mu.weights.reshape(sizes)
    out = spec.pis[0]
    for k in range(l + 1):
        axes = tuple(a for a in range(l + 1) if a != k)
        marg = Measure(spec.spaces[k], cube.sum(axis=axes))
        out = tensor(out, _component_map(spec, k, marg))
    return out


# ---------------------------------------------------------------------------
# Annealing cross-checks
# ---------------------------------------------------------------------------

def geometric_kernel_series(model: ann.AnnealingModel, l: int, terms: int) -> np.ndarray:
    """Truncated series ``(1-eps) sum_{k<=terms} eps^k K_l^k`` (cross-check path)."""
    eps = model.epsilon
    K = model.kernels[l].matrix
    acc = np.eye(model.space.size)
    power = np.eye(model.space.size)
    coeff = 1.0
    for _ in range(terms):
        power = power @ K
        coeff *= eps
        acc = acc + coeff * power
    return (1.0 - eps) * acc


def annealing_map(model: ann.AnnealingModel, l: int, mu: Measure) -> Measure:
    """Level map: reweight by ``G_l``, apply ``K_{l+1}``, then the geometric kernel.

    Sends probability measures on the common space to probability
    measures; the Gibbs measures are its fixed points.
    """
    if not 0 <= l < model.levels:
        raise ValueError(f"level {l} has no successor (model has {model.levels} levels)")
    psi = ann.boltzmann_gibbs(mu, ann.potential_fn(model, l))
    w = psi.weights @ model.kernels[l + 1].matrix @ ann.geometric_kernel(model, l + 1).matrix
    w = np.maximum(w, 0.0)
    return Measure(model.space, w / w.sum())


def mixture_invariant_measure(model: ann.AnnealingModel, l: int, mu: Measure) -> Measure:
    """The measure actually fixed by ``mixture_kernel(model, l, mu)``.

    Solving ``nu = eps nu K_l + (1-eps) bg(mu) K_l`` gives
    ``nu = bg(mu) K_l K_{eps,l}``, which is exactly
    ``annealing_map(model, l-1, mu)``; the two construction routes agree.
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    return annealing_map(model, l - 1, mu)


# ---------------------------------------------------------------------------
# Weight-array overlaps
# ---------------------------------------------------------------------------

def weight_overlap_check(a: int, b: int, n: int) -> float:
    """``(1/n) sum_p s^(a)_n(p) s^(b)_n(p)`` for two different orders.

    Converges to ``(a+b-2)!/((a-1)!(b-1)!)``, the coefficient carried by
    shared fluctuation levels in cross-level covariances.
    """
    return float((s_weights(a, n) * s_weights(b, n)).sum() / n)


# ---------------------------------------------------------------------------
# Single-transition sampling against frozen histories
# ---------------------------------------------------------------------------

def transition_samples(
    config: engine.EngineConfig,
    level: int,
    history_states: np.ndarray,
    current: int,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw `size` next states for one level given a frozen lower history.

    Applies exactly the level rule of :func:`imcmc.engine.run_batch`, so
    the empirical law can be tested against the oracle kernel row for the
    occupation measure of `history_states`.  Level 0 ignores the history.
    """
    if not 0 <= level <= config.levels:
        raise ValueError(f"level must lie in 0..{config.levels}")
    history_states = np.asarray(history_states, dtype=np.int64)
    if level > 0 and history_states.size == 0:
        raise ValueError("history must contain at least one state")
    rule = engine._rules(config)[level]
    u = rng.random((size, 1, engine.DRAWS_PER_STEP)).transpose(2, 0, 1)
    cur = np.full(size, int(current), dtype=np.intp)
    lower = None
    if rule.reads == "history":
        lower = engine._History(1, history_states.size, config.level_spaces()[level - 1].size)
        lower.put(0, history_states[None, :])
    elif rule.reads == "counts":
        counts = np.bincount(history_states, minlength=config.level_spaces()[level - 1].size)
        lower = np.broadcast_to(counts[:, None, None], (counts.size, size, 1))
    n = np.array([history_states.size - 1])
    return rule.step(cur, u, n, lower)[:, 0]
