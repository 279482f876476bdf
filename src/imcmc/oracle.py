"""Exact finite-state computations behind the fluctuation theory.

Everything the statistical harness compares against is produced here in
closed form with dense linear algebra: invariant measures, resolvent
operators solving the Poisson equation, contraction indices, the local
(co)variance of time averages under a fixed kernel, the first-order
semigroups propagating errors across levels, and the resulting
asymptotic variance of the occupation-measure fluctuation fields

    U_n^(k)(f) = sqrt(n+1) * (eta_n^(k)(f) - pi_k(f)),

namely ``Var U^(k)(f) = sum_{l=0..k} ((2l)!/l!^2) *
sigma2_{k-l}(D_{(k-l)+1,k} f)`` with ``sigma2_j`` the local variance of
the level-``j`` kernel at its limit measure and ``D_{a,b}`` the product
``D_a D_{a+1} ... D_b`` of first-order operators (identity when a > b).

Every resolvent image is computed by two independent routes: one dense
linear solve per level gives the resolvent ``P``, and each centred
function ``fb`` that a (co)variance needs is also resolved by the
vector series ``sum_{n>=0} M^n fb``, summed until the contraction
certificate bounds its tail.  The two images must agree entrywise;
disagreement raises :class:`OracleError` rather than silently returning
either value.  The first-order semigroups act on vectors too, so past
the one solve and its certificates no operator product is formed.

Each level's certificate is a power ``M^n0``, ``n0 = 2^k`` reached by
repeated squaring, with the Doeblin bound ``m_n0 = 1 - sum_y min_x
M^n0(x, y)`` on its Dobrushin coefficient; the search ends at
Wielandt's bound ``(S - 1)^2 + 1``, by which every ergodic kernel on
``S`` states has a positive column.  The vector series steps by that
power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import annealing as ann
from . import fk
from .measures import (
    PROBABILITY,
    FiniteSpace,
    IntegralOperator,
    Measure,
    TestFunction,
    act_measure,
    apply_operator,
    operator_norm,
    tv_norm,
)

#: Tolerances of the oracle algebra (see the acceptance suite).
INVARIANCE_TOL = 1e-12
POISSON_TOL = 1e-10
SERIES_AGREEMENT_TOL = 1e-8

#: The vector series stops once its certified tail is below this fraction
#: of the oscillation of the function it resolves.
SERIES_TAIL_TOL = 1e-12


class OracleError(RuntimeError):
    """Internal inconsistency or a kernel outside the oracle's reach."""


# ---------------------------------------------------------------------------
# Invariant measures and resolvents
# ---------------------------------------------------------------------------

def _doeblin(power: np.ndarray) -> float:
    """Doeblin bound ``1 - sum_y min_x power(x, y)`` on ``beta(power)``, in [0, 1]."""
    return min(1.0, max(0.0, 1.0 - float(power.min(axis=0).sum())))


def contraction_index(M: IntegralOperator) -> tuple[int, float, float, np.ndarray]:
    """A power ``n0 = 2^k`` with ``beta(M^n0) <= m_n0 < 1``, with its bound.

    Returns ``(n0, m_n0, p_n0, M^n0)``.  ``m_n0`` is the Doeblin bound
    ``1 - sum_y min_x M^n0(x, y)``, which is never below the Dobrushin
    coefficient ``beta(M^n0)`` and costs one pass over the matrix;
    ``p_n0 = 2 n0 / (1 - m_n0)`` bounds the resolvent operator norm.
    The powers ``M, M^2, M^4, ...`` are found by repeated squaring of the
    raw matrix.  The first with ``m < 1`` certifies; squaring goes on
    while it lowers ``p``, which it cannot once ``m <= 1/2``.

    ``M^n0`` has a positive column, so ``m_n0 < 1``, exactly when some
    state is reached in ``n0`` steps from every state.  By Wielandt's
    bound, every kernel on ``S`` states with a single aperiodic closed
    class has one by the power ``(S - 1)^2 + 1``; a kernel with none by
    then is not uniformly ergodic, and raises :class:`OracleError`.
    """
    if not M.markov or M.src != M.dst:
        raise ValueError("contraction index requires a markov kernel on one space")
    wielandt = (M.src.size - 1) ** 2 + 1
    n, power = 1, M.matrix
    m = _doeblin(power)
    while m >= 1.0:
        if n >= wielandt:
            raise OracleError(
                f"kernel on {M.src.id!r} is not uniformly ergodic: M^{n} has no "
                f"positive column, and {n} reaches Wielandt's bound {wielandt}"
            )
        n, power = 2 * n, power @ power
        m = _doeblin(power)
    while m > 0.5:
        square = power @ power
        m_square = _doeblin(square)
        if m_square >= 2.0 * m - 1.0:  # 4n / (1 - m_square) >= 2n / (1 - m)
            break
        n, power, m = 2 * n, square, m_square
    power.setflags(write=False)
    return n, m, 2.0 * n / (1.0 - m), power


def invariant_measure(M: IntegralOperator) -> Measure:
    """Unique invariant probability of an ergodic markov kernel.

    Solved as the least-squares solution of the stationarity equations
    plus normalization; falls back to power iteration if the dense solve
    degrades.  The contraction index is established first so uniqueness
    is guaranteed before any solve.
    """
    contraction_index(M)
    return _stationary(M)


def _stationary(M: IntegralOperator) -> Measure:
    """The solve behind :func:`invariant_measure`, for a certified kernel."""
    n = M.src.size
    A = np.vstack([M.matrix.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.abs(w @ M.matrix - w).max()
    if resid > INVARIANCE_TOL or w.min() < -INVARIANCE_TOL:
        w = np.full(n, 1.0 / n)
        for it in range(10**6):
            w_next = w @ M.matrix
            if np.abs(w_next - w).max() <= 1e-13:
                w = w_next
                break
            w = w_next
        else:
            raise OracleError(
                f"power iteration did not reach 1e-13 on {M.src.id!r} "
                f"within 10^6 iterations"
            )
    w = np.maximum(w, 0.0)
    return Measure(M.src, w / w.sum(), kind=PROBABILITY)


def resolvent(M: IntegralOperator, pi: Measure) -> IntegralOperator:
    """Poisson-equation solution operator ``P = sum_n (M^n - 1 (x) pi)``.

    Computed through the fundamental matrix ``Z = (I - M + 1 (x) pi)^{-1}``
    as ``P = Z - 1 (x) pi``; satisfies ``(M - I) P = 1 (x) pi - I`` and
    ``pi P = 0``.
    """
    if M.src != M.dst or pi.space != M.src:
        raise ValueError("resolvent requires a kernel and measure on one space")
    resid = np.abs(pi.weights @ M.matrix - pi.weights).max()
    if resid > INVARIANCE_TOL:
        raise ValueError(f"measure is not invariant for the kernel (residual {resid:.3e})")
    n = M.src.size
    one_pi = np.outer(np.ones(n), pi.weights)
    Z = np.linalg.solve(np.eye(n) - M.matrix + one_pi, np.eye(n))
    return IntegralOperator(M.src, M.src, Z - one_pi, markov=False)


@dataclass(frozen=True, eq=False)
class ResolventBundle:
    """A kernel with its invariant measure, resolvent, and certificates.

    Construction validates the Poisson equation and the operator-norm
    bound ``||P|| <= p(n0)``, and keeps the attained Poisson residual for
    reporting.  ``power`` is the certified power ``M^n0`` as a raw matrix
    (the kernel's own matrix when ``n0 = 1``).  The series route is
    checked on each function resolved through the bundle (see
    :func:`local_variance`).
    """

    kernel: IntegralOperator
    invariant: Measure
    resolvent: IntegralOperator
    n0: int
    m_n0: float
    p_n0: float
    power: np.ndarray
    poisson_resid: float

    @property
    def space(self) -> FiniteSpace:
        return self.kernel.src


def resolvent_series(bundle: ResolventBundle, fb: np.ndarray) -> np.ndarray:
    """Series route to the resolvent image ``sum_{n>=0} M^n fb`` of a centred vector.

    The series is summed in blocks of ``n0`` terms,
    ``sum_{i<n0} M^i sum_{j>=0} h_j`` with ``h_j = (M^n0)^j fb``, so each
    block costs one product with the certified power.  Every later
    ``h_i`` is centred, so bounded by its oscillation, which shrinks by
    ``m_n0`` per block; past ``h_J`` the tail is below
    ``osc(h_J) n0 / (1 - m_n0)`` once ``sum_{i<n0} M^i`` (norm ``n0``) is
    applied.  Summation stops once that is below :data:`SERIES_TAIL_TOL`
    times ``osc(fb)``, and the certificate fixes how many blocks that
    takes.  The ``n0 - 1`` products with ``M`` come last, once.
    """
    M, power, n0, m_n0 = bundle.kernel.matrix, bundle.power, bundle.n0, bundle.m_n0
    tail = n0 / (1.0 - m_n0)
    target = SERIES_TAIL_TOL * float(fb.max() - fb.min())
    # blocks of n0 steps after which m_n0^blocks * tail <= SERIES_TAIL_TOL
    blocks = 1 if m_n0 <= 0.0 else math.ceil(math.log(SERIES_TAIL_TOL / tail) / math.log(m_n0))
    acc = fb.copy()
    h = fb
    for _ in range(blocks + 1):
        if float(h.max() - h.min()) * tail <= target:
            out = acc
            for _ in range(n0 - 1):
                out = acc + M @ out
            return out
        h = power @ h
        acc += h
    raise OracleError(
        f"resolvent series on {bundle.space.id!r} exceeded its certified term count"
    )


def poisson_residual(M, pi: Measure | None = None, P: IntegralOperator | None = None) -> float:
    """Max entrywise defect of the Poisson equation and of ``pi P = 0``.

    Accepts either a :class:`ResolventBundle` or the explicit
    ``(kernel, invariant, resolvent)`` triple.
    """
    if isinstance(M, ResolventBundle):
        M, pi, P = M.kernel, M.invariant, M.resolvent
    n = M.src.size
    one_pi = np.outer(np.ones(n), pi.weights)
    eq = (M.matrix - np.eye(n)) @ P.matrix - (one_pi - np.eye(n))
    ortho = pi.weights @ P.matrix
    return float(max(np.abs(eq).max(), np.abs(ortho).max()))


def resolvent_bundle(M: IntegralOperator, pi: Measure | None = None) -> ResolventBundle:
    """Assemble and certify the resolvent machinery for one kernel."""
    n0, m_n0, p_n0, power = contraction_index(M)
    if pi is None:
        pi = _stationary(M)
    else:
        resid = np.abs(pi.weights @ M.matrix - pi.weights).max()
        if resid > INVARIANCE_TOL:
            raise OracleError(
                f"supplied measure is not invariant on {M.src.id!r} "
                f"(residual {resid:.3e})"
            )
    P = resolvent(M, pi)
    p_resid = poisson_residual(M, pi, P)
    if p_resid > POISSON_TOL:
        raise OracleError(f"Poisson residual {p_resid:.3e} on {M.src.id!r}")
    norm = operator_norm(P)
    if norm > p_n0 * (1.0 + 1e-12):
        raise OracleError(
            f"resolvent norm {norm:.6g} exceeds contraction bound {p_n0:.6g}"
        )
    return ResolventBundle(
        kernel=M,
        invariant=pi,
        resolvent=P,
        n0=n0,
        m_n0=m_n0,
        p_n0=p_n0,
        power=power,
        poisson_resid=p_resid,
    )


# ---------------------------------------------------------------------------
# Local (co)variances of time averages
# ---------------------------------------------------------------------------

def _resolved(bundle: ResolventBundle, f: TestFunction) -> tuple[np.ndarray, np.ndarray]:
    """Centred `f` and its resolvent image ``P fb``, checked against the series."""
    if f.space != bundle.space:
        raise ValueError(
            f"function on {f.space.id!r} does not match bundle space {bundle.space.id!r}"
        )
    fb = f.values - float(bundle.invariant.weights @ f.values)
    Pf = bundle.resolvent.matrix @ fb
    gap = float(np.abs(Pf - resolvent_series(bundle, fb)).max())
    if gap > SERIES_AGREEMENT_TOL * max(1.0, float(np.abs(Pf).max())):
        raise OracleError(
            f"resolvent solve and series disagree by {gap:.3e} on {bundle.space.id!r}"
        )
    return fb, Pf


def local_variance(bundle: ResolventBundle, f: TestFunction) -> float:
    """Asymptotic variance of time averages of `f` under the bundle's kernel.

    Computed as ``2 pi[fb * P fb] - pi[fb^2]``, the autocovariance series
    ``pi[fb^2] + 2 sum_{n>=1} pi[fb M^n fb]`` summed in closed form, with
    ``P fb`` cross-checked against the series route.
    """
    pi = bundle.invariant.weights
    fb, Pf = _resolved(bundle, f)
    value = 2.0 * float(pi @ (fb * Pf)) - float(pi @ (fb * fb))
    if value < -1e-10:
        raise OracleError(f"local variance is negative beyond tolerance: {value!r}")
    return value


def local_covariance(bundle: ResolventBundle, f: TestFunction, g: TestFunction) -> float:
    """Limiting covariance ``pi[C(f, g)]`` of the local fluctuation field.

    ``C(f, g)(x) = M[(Pf - MPf(x)) (Pg - MPg(x))](x)``, the conditional
    covariance of the resolvent images under one kernel step; its
    diagonal coincides with :func:`local_variance`.  Both images are
    cross-checked against the series route.
    """
    M = bundle.kernel.matrix
    _, Pf = _resolved(bundle, f)
    _, Pg = _resolved(bundle, g)
    C = M @ (Pf * Pg) - (M @ Pf) * (M @ Pg)
    return float(bundle.invariant.weights @ C)


# ---------------------------------------------------------------------------
# The level stack: kernels, limits, first-order semigroups
# ---------------------------------------------------------------------------

def coefficient_sq(l: int) -> float:
    """Squared level-`l` mixing coefficient ``(2l)!/(l!)^2`` (1, 2, 6, 20, ...)."""
    return float(math.factorial(2 * l) // math.factorial(l) ** 2)


def coefficient(l: int) -> float:
    return math.sqrt(coefficient_sq(l))


def cross_coefficient(dk: int, dj: int) -> float:
    """Limiting overlap of two iterated-Cesaro weight arrays.

    ``lim (1/n) sum_p s_n^(dk+1)(p) s_n^(dj+1)(p) = (dk+dj)!/(dk! dj!)``.
    Fields at depth offsets ``dk`` and ``dj`` below two observation levels
    share the local fluctuations of one level but weight them with arrays
    of different orders; this overlap, not the product of the two
    variance coefficients, is their covariance weight.  On the diagonal
    it reduces to :func:`coefficient_sq`.
    """
    return float(
        math.factorial(dk + dj) // (math.factorial(dk) * math.factorial(dj))
    )


@dataclass(frozen=True, eq=False)
class CltSpec:
    """Everything the variance formula needs for levels ``0 .. level``.

    ``kernels[l]`` is the level-`l` sampling kernel frozen at the limit
    measures, ``pis[l]`` its invariant measure, ``bundles[l]`` the
    certified resolvent machinery, and ``d_ops[l]`` the first-order
    operator from level ``l`` into level ``l+1`` (``D_{l+1}``) evaluated
    at the limit.
    """

    model: object
    level: int
    spaces: tuple[FiniteSpace, ...]
    pis: tuple[Measure, ...]
    kernels: tuple[IntegralOperator, ...]
    bundles: tuple[ResolventBundle, ...]
    d_ops: tuple[IntegralOperator, ...]


def build_clt_spec(model, k_max: int) -> CltSpec:
    """Assemble the oracle stack for an FK or annealing model."""
    if isinstance(model, fk.FKModel):
        if k_max > model.levels:
            raise ValueError(f"k_max={k_max} exceeds model levels {model.levels}")
        spaces = tuple(fk.path_space(model, l).space for l in range(k_max + 1))
        pis = tuple(fk.exact_path_measure(model, l) for l in range(k_max + 1))
        kernels = [model.level0_kernel]
        for l in range(1, k_max + 1):
            if model.kernel_type == "rank_one":
                kernels.append(fk.rank_one_kernel(model, l, pis[l - 1]))
            else:
                kernels.append(fk.mh_kernel(model, l, pis[l - 1]))
        d_ops = tuple(fk.first_order_D(model, l, pis[l]) for l in range(k_max))
    elif isinstance(model, ann.AnnealingModel):
        if k_max > model.levels:
            raise ValueError(f"k_max={k_max} exceeds model levels {model.levels}")
        spaces = tuple(model.space for _ in range(k_max + 1))
        pis = tuple(ann.gibbs_measure(model, l) for l in range(k_max + 1))
        kernels = [model.level0_kernel]
        for l in range(1, k_max + 1):
            kernels.append(ann.mixture_kernel(model, l, pis[l - 1]))
        d_ops = tuple(ann.first_order_D(model, l, pis[l]) for l in range(k_max))
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    bundles = tuple(
        resolvent_bundle(kernels[l], pis[l]) for l in range(k_max + 1)
    )
    return CltSpec(
        model=model,
        level=k_max,
        spaces=spaces,
        pis=pis,
        kernels=tuple(kernels),
        bundles=bundles,
        d_ops=d_ops,
    )


def d_semigroup(spec: CltSpec, k: int, l: int, f: TestFunction) -> TestFunction:
    """Image ``D_k D_{k+1} ... D_l f`` of a level-`l` function; `f` itself when k > l.

    The operators act on the vector from right to left, so no operator
    product is formed.
    """
    if l > spec.level or l < 0:
        raise ValueError(f"level {l} outside the spec range 0..{spec.level}")
    if k > l:
        return f
    if k < 1:
        raise ValueError("semigroup products start at operator index 1")
    for j in range(l, k - 1, -1):
        f = apply_operator(spec.d_ops[j - 1], f)
    return f


def variance_terms(spec: CltSpec, k: int, f: TestFunction) -> list[float]:
    """Terms ``l = 0 .. k`` of the level-`k` variance formula at `f`.

    Term `l` is ``(2l)!/l!^2`` times the local variance at level ``k - l``
    of the semigroup image of `f`; term 0 is the local variance of `f`
    itself.
    """
    if not 0 <= k <= spec.level:
        raise ValueError(f"level {k} outside the spec range 0..{spec.level}")
    return [
        coefficient_sq(l)
        * local_variance(spec.bundles[k - l], d_semigroup(spec, k - l + 1, k, f))
        for l in range(k + 1)
    ]


def asymptotic_variance(spec: CltSpec, k: int, f: TestFunction) -> float:
    """Limiting variance of the level-`k` fluctuation field at `f`.

    Sums the local variances of the semigroup images of `f` down the
    stack, weighted by ``(2l)!/l!^2`` (see :func:`variance_terms`).
    """
    return sum(variance_terms(spec, k, f))


def asymptotic_cross_covariance(
    spec: CltSpec, k: int, j: int, f: TestFunction, g: TestFunction
) -> float:
    """Limiting covariance between the level-`k` and level-`j` fields.

    Both expansions accumulate the local fluctuations of every level
    ``m <= min(k, j)``; the level-`m` contribution is
    ``gamma(k-m, j-m) * pi_m[C_m(D_{m+1,k} f, D_{m+1,j} g)]`` with
    ``gamma`` the weight-array overlap of :func:`cross_coefficient`.
    For ``k = j`` this is exactly :func:`asymptotic_variance` as a
    bilinear form.
    """
    if k < j:
        return asymptotic_cross_covariance(spec, j, k, g, f)
    if not 0 <= j <= k <= spec.level:
        raise ValueError(f"levels ({k}, {j}) outside the spec range 0..{spec.level}")
    total = 0.0
    for m in range(j + 1):
        img_f = d_semigroup(spec, m + 1, k, f)
        img_g = d_semigroup(spec, m + 1, j, g)
        total += cross_coefficient(k - m, j - m) * local_covariance(
            spec.bundles[m], img_f, img_g
        )
    return total


# ---------------------------------------------------------------------------
# First-order remainder checks
# ---------------------------------------------------------------------------

def remainder_norm(map_fn, eta: Measure, mu: Measure, D: IntegralOperator, t: float) -> float:
    """TV norm of the expansion remainder at ``eta + t (mu - eta)``.

    ``map_fn`` sends probability measures to probability measures; the
    remainder is ``map_fn(mu_t) - map_fn(eta) - (mu_t - eta) D``.
    """
    mu_t = Measure(
        eta.space, eta.weights + t * (mu.weights - eta.weights), kind=PROBABILITY
    )
    lead = act_measure(mu_t - eta, D)
    diff = map_fn(mu_t) - map_fn(eta) - lead
    return tv_norm(diff)


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
    """Joint view of levels ``0 .. l``: product kernel, limit, first-order op."""

    level: int
    space: FiniteSpace
    kernel: IntegralOperator
    limit: Measure
    d_op: IntegralOperator


def _component_map(spec: CltSpec, k: int, mu: Measure) -> Measure:
    model = spec.model
    if isinstance(model, fk.FKModel):
        return fk.fk_map(model, k, mu)
    return ann.annealing_map(model, k, mu)


def product_limit(spec: CltSpec, l: int) -> Measure:
    from .measures import tensor

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
    from .measures import tensor

    if l + 1 > spec.level:
        raise ValueError(
            f"product model at l={l} needs the spec built through level {l + 1}"
        )
    kernel = spec.kernels[0]
    for k in range(1, l + 1):
        kernel = tensor(kernel, spec.kernels[k])
    limit = product_limit(spec, l)

    sizes = [sp.size for sp in spec.spaces[: l + 2]]
    src_size = math.prod(sizes[: l + 1])
    dst_size = math.prod(sizes)
    dst_space = product_limit(spec, l + 1).space

    # coordinate digits of every joint source state
    digits = np.empty((src_size, l + 1), dtype=np.int64)
    rem = np.arange(src_size)
    for k in range(l, -1, -1):
        digits[:, k] = rem % sizes[k]
        rem //= sizes[k]

    matrix = np.zeros((src_size, dst_size))
    for k in range(l + 1):
        D = spec.d_ops[k].matrix  # level k -> level k+1
        low = spec.pis[0].weights
        for m in range(1, k + 1):
            low = np.outer(low, spec.pis[m].weights).ravel()
        high = np.ones(1)
        for m in range(k + 2, l + 2):
            high = np.outer(high, spec.pis[m].weights).ravel()
        block = np.einsum("a,rb,c->rabc", low, D[digits[:, k]], high)
        matrix += block.reshape(src_size, dst_size)

    d_op = IntegralOperator(limit.space, dst_space, matrix, markov=False)
    return ProductModel(level=l, space=limit.space, kernel=kernel, limit=limit, d_op=d_op)


def product_map(spec: CltSpec, l: int, mu: Measure) -> Measure:
    """Joint level map: first coordinate pinned at the level-0 limit,
    every later coordinate given by the component map of the matching
    marginal of `mu`."""
    from .measures import tensor

    sizes = [sp.size for sp in spec.spaces[: l + 1]]
    if mu.space.size != math.prod(sizes):
        raise ValueError("measure does not live on the joint space of levels 0..l")
    cube = mu.weights.reshape(sizes)
    out = spec.pis[0]
    for k in range(l + 1):
        axes = tuple(a for a in range(l + 1) if a != k)
        marg = Measure(spec.spaces[k], cube.sum(axis=axes), kind=PROBABILITY)
        out = tensor(out, _component_map(spec, k, marg))
    return out
