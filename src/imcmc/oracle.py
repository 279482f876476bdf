"""Exact finite-state computations behind the fluctuation theory.

Everything the statistical harness compares against is produced here in
closed form: resolvent operators solving the Poisson equation,
contraction indices, the local (co)variance of time averages under a
fixed kernel, the first-order semigroups propagating errors across
levels, and the resulting asymptotic variance of the occupation-measure
fluctuation fields

    U_n^(k)(f) = sqrt(n+1) * (eta_n^(k)(f) - pi_k(f)),

namely ``Var U^(k)(f) = sum_{l=0..k} ((2l)!/l!^2) *
sigma2_{k-l}(D_{(k-l)+1,k} f)`` with ``sigma2_j`` the local variance of
the level-``j`` kernel at its limit measure and ``D_{a,b}`` the product
``D_a D_{a+1} ... D_b`` of first-order operators (identity when a > b).
The limit measures come in closed form from the model; each level's
kernel, limit measure, resolvent and certificates form one
:class:`ResolventBundle`, each computed once.

Every level kernel is a :class:`~imcmc.measures.FactoredKernel`
``M = E F + diag(r[c])`` with ``b`` classes: one per terminal of the
prefix on a Feynman-Kac Metropolis-Hastings level, one on a rank-one
level, and ``b = S`` singleton classes on level 0 and on annealing
levels.  Its resolvent is the ``b x S`` block ``V = F P`` from one
``b x b`` solve (:func:`resolvent`); within a class the rows of ``P``
differ only on the diagonal, so the Poisson defect and ``||P||`` of the
whole matrix are read off ``V``.  A Feynman-Kac level past level 0 thus
never forms an ``S x S`` matrix.

Every resolvent image is computed by two independent routes: ``P fb``
from ``V``, and the vector series ``sum_{n>=0} M^n fb``, summed until
the contraction certificate bounds its tail.  The two images must agree
entrywise; disagreement raises :class:`OracleError` rather than silently
returning either value.  The first-order semigroups act on vectors too.
On an annealing level the geometric kernel is an affine image of the
level's resolvent, ``(1 - eps) P + 1 (x) pi``, so each first-order
operator steps through the next level's bundle, and the spec solves one
resolvent per level and nothing else.

Each level's certificate is a power ``M^n0``, ``n0 = 2^k`` reached by
repeated squaring of the factors, with the Doeblin bound ``m_n0 = 1 -
sum_y min_x M^n0(x, y)`` on its Dobrushin coefficient; the search ends
at Wielandt's bound ``(S - 1)^2 + 1``, by which every ergodic kernel on
``S`` states has a positive column.  The partial sum ``sum_{i<n0} M^i``
is doubled alongside each squaring.  The vector series steps by the
power and ends with one product by that sum, so it costs ``O(S b)`` per
block however large ``n0`` is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import annealing as ann
from . import fk
from .measures import (
    FactoredKernel,
    FiniteSpace,
    FirstOrderOperator,
    Measure,
    TestFunction,
)

#: Tolerances of the oracle algebra (see the acceptance suite).
INVARIANCE_TOL = 1e-12
POISSON_TOL = 1e-10
SERIES_AGREEMENT_TOL = 1e-8

#: The vector series stops once its certified tail is below this fraction
#: of the oscillation of the function it resolves.
SERIES_TAIL_TOL = 1e-12

#: Rows of ``V`` taken at a time where a whole-matrix pass would otherwise
#: hold a second ``b x S`` array (``b = S`` on dense levels).
ROW_BLOCK = 256


class OracleError(RuntimeError):
    """Internal inconsistency or a kernel outside the oracle's reach."""


# ---------------------------------------------------------------------------
# Certificates and resolvents
# ---------------------------------------------------------------------------

def _row_blocks(n: int):
    return (slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK))


def _doeblin(power: FactoredKernel) -> float:
    """Doeblin bound ``1 - sum_y min_x power(x, y)`` on ``beta(power)``, in [0, 1]."""
    return min(1.0, max(0.0, 1.0 - float(power.column_min().sum())))


def _doubled(power: FactoredKernel, total: FactoredKernel | None) -> FactoredKernel:
    """``sum_{i<2n} M^i = (I + M^n) sum_{i<n} M^i`` from ``M^n`` and ``sum_{i<n} M^i``.

    ``I + M^n`` is ``M^n`` with one more unit of rejection mass, so the
    doubling is one :meth:`FactoredKernel.product`; `total` is None for
    the identity, the sum at ``n = 1``.
    """
    step = FactoredKernel(power.space, power.classes, power.flows, power.reject + 1.0)
    return step if total is None else step.product(total)


def contraction_index(
    kernel: FactoredKernel,
) -> tuple[int, float, float, FactoredKernel, FactoredKernel | None]:
    """A power ``n0 = 2^k`` with ``beta(M^n0) <= m_n0 < 1``, with its bound.

    Returns ``(n0, m_n0, p_n0, M^n0, sum_{i<n0} M^i)`` for the kernel
    ``M``, the power and the partial sum in factors; the sum is None
    when ``n0 = 1``, where it is the identity.  ``m_n0`` is the Doeblin
    bound ``1 - sum_y min_x M^n0(x, y)``, which is never below the Dobrushin
    coefficient ``beta(M^n0)`` and costs one pass over the factors;
    ``p_n0 = 2 n0 / (1 - m_n0)`` bounds the resolvent operator norm.
    The powers ``M, M^2, M^4, ...`` are found by repeated squaring of the
    factors (:meth:`FactoredKernel.product`).  The first with ``m < 1``
    certifies; squaring goes on while it lowers ``p``, which it cannot
    once ``m <= 1/2``.  Each accepted doubling also doubles the partial
    sum (:func:`_doubled`), one more product of the factors.

    ``M^n0`` has a positive column, so ``m_n0 < 1``, exactly when some
    state is reached in ``n0`` steps from every state.  By Wielandt's
    bound, every kernel on ``S`` states with a single aperiodic closed
    class has one by the power ``(S - 1)^2 + 1``; a kernel with none by
    then is not uniformly ergodic, and raises :class:`OracleError`.
    """
    wielandt = (kernel.space.size - 1) ** 2 + 1
    n, power, total = 1, kernel, None
    m = _doeblin(power)
    while m >= 1.0:
        if n >= wielandt:
            raise OracleError(
                f"kernel on {kernel.space.id!r} is not uniformly ergodic: M^{n} has no "
                f"positive column, and {n} reaches Wielandt's bound {wielandt}"
            )
        n, power, total = 2 * n, power.product(power), _doubled(power, total)
        m = _doeblin(power)
    while m > 0.5:
        square = power.product(power)
        m_square = _doeblin(square)
        if m_square >= 2.0 * m - 1.0:  # 4n / (1 - m_square) >= 2n / (1 - m)
            break
        n, power, total, m = 2 * n, square, _doubled(power, total), m_square
    return n, m, 2.0 * n / (1.0 - m), power, total


def resolvent(kernel: FactoredKernel, pi: Measure) -> np.ndarray:
    """``V = F P`` for the Poisson solution ``P = sum_n (M^n - 1 (x) pi)``, in factors.

    With ``d = 1 - r``, ``w = pi / d[c]`` and the class kernel
    ``K = (F diag(1/d[c])) E`` (``K d = d``), ``V = F P`` solves
    ``(I - K) V = F diag(1/d[c]) - (K 1) (x) pi`` and ``(w E) V = (sum w)
    pi - w`` (this is ``pi P = 0``).  ``I - K`` is singular with null
    vector ``d``; bordering it as ``B = I - K + d (x) (w E)``, which fixes
    ``d`` (``B d = d``), gives one ``b x b`` solve,

        ``V = Y - d (x) w + ((sum w) d - Y 1) (x) pi``,
        ``Y = B^{-1} F diag(1/d[c])``.

    The right side is ``F`` itself, the column scaling is done in place,
    and no ``S x S`` identity is formed.  `pi` must be invariant for the
    kernel; :func:`resolvent_bundle` checks that first.
    """
    d = 1.0 - kernel.reject
    if d.min() <= 0.0:
        raise OracleError(f"a class of {kernel.space.id!r} rejects every move")
    dc = d[kernel.classes]
    w = pi.weights / dc
    B = kernel.class_sums(kernel.flows) / -d  # a new array: flows are read-only
    B[np.diag_indices(kernel.b)] += 1.0
    B += np.outer(d, kernel.class_sums(w))
    V = np.linalg.solve(B, kernel.flows)
    del B
    V /= dc
    u = w.sum() * d - V.sum(axis=1)
    for rows in _row_blocks(kernel.b):
        V[rows] += np.outer(u[rows], pi.weights) - np.outer(d[rows], w)
    V.setflags(write=False)
    return V


def poisson_residual(kernel: FactoredKernel, pi: Measure, V: np.ndarray) -> float:
    """Max entrywise defect of the Poisson equation and of ``pi P = 0``.

    Row ``x``
    of ``(M - I) P - (1 (x) pi - I)`` is ``(F P)[c(x)] - V[c(x)]``: the
    ``e_x`` terms cancel.  ``F P = G - (G 1) (x) pi + (G E) V`` with
    ``G = F diag(1/d[c])``, so the whole matrix's defect is the defect of
    the ``b x S`` system for ``V``, taken a block of rows at a time.
    """
    k, pi = kernel, pi.weights
    dc = 1.0 - k.reject[k.classes]
    worst = 0.0
    for rows in _row_blocks(k.b):
        G = k.flows[rows] / dc
        FP = G - G.sum(axis=1)[:, None] * pi + k.class_sums(G) @ V
        worst = max(worst, float(np.abs(FP - V[rows]).max()))
    w = pi / dc
    ortho = w - w.sum() * pi + k.class_sums(w) @ V
    return max(worst, float(np.abs(ortho).max()))


def _resolvent_norm(kernel: FactoredKernel, pi: Measure, V: np.ndarray) -> float:
    """The exact sup-norm operator norm ``max_x sum_y |P(x, y)|``.

    Row ``x`` sums ``|V[c(x)] - pi|`` with the diagonal entry moved
    by one, over ``1 - r[c(x)]``.
    """
    k, pi = kernel, pi.weights
    sums = np.concatenate([np.abs(V[rows] - pi).sum(axis=1) for rows in _row_blocks(k.b)])
    c = k.classes
    diag = V[c, np.arange(c.size)] - pi
    norms = (sums[c] - np.abs(diag) + np.abs(diag + 1.0)) / (1.0 - k.reject[c])
    return float(norms.max())


@dataclass(frozen=True, eq=False)
class ResolventBundle:
    """One level's kernel with its invariant measure, resolvent and certificates.

    The resolvent ``P = sum_n (M^n - 1 (x) pi)`` is held as the ``b x S``
    block ``flow = V = F P``: the Poisson equation ``(I - M) P = I - 1
    (x) pi`` reads, row by row, ``(1 - r[c(x)]) P(x, .) = e_x - pi +
    V[c(x)]``, so within a class the rows differ only on the diagonal.
    ``power`` is the certified power ``M^n0`` in factors (the kernel
    itself when ``n0 = 1``) and ``power_sum`` the partial sum
    ``sum_{i<n0} M^i`` in factors, whose rows sum to ``n0`` (None when
    ``n0 = 1``, where it is the identity); ``poisson_resid`` is the
    attained Poisson defect and ``norm`` the exact ``||P||``, both
    computed once by :func:`resolvent_bundle`.  The series route is checked on each
    function resolved through the bundle (see :func:`local_variance`).
    """

    kernel: FactoredKernel
    invariant: Measure
    flow: np.ndarray
    n0: int
    m_n0: float
    p_n0: float
    power: FactoredKernel
    power_sum: FactoredKernel | None
    poisson_resid: float
    norm: float

    @property
    def space(self) -> FiniteSpace:
        return self.kernel.space

    def apply(self, h: np.ndarray) -> np.ndarray:
        """``P h = (h - pi(h) + (V h)[c]) / (1 - r[c])``."""
        c = self.kernel.classes
        return (h - float(self.invariant.weights @ h) + (self.flow @ h)[c]) / (
            1.0 - self.kernel.reject[c]
        )


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
    takes.  The product by ``sum_{i<n0} M^i`` (``power_sum``) comes
    last, once.  Every product is one ``O(S b)`` application of the
    factors.
    """
    power, total, n0, m_n0 = bundle.power, bundle.power_sum, bundle.n0, bundle.m_n0
    tail = n0 / (1.0 - m_n0)
    target = SERIES_TAIL_TOL * float(fb.max() - fb.min())
    # blocks of n0 steps after which m_n0^blocks * tail <= SERIES_TAIL_TOL
    blocks = 1 if m_n0 <= 0.0 else math.ceil(math.log(SERIES_TAIL_TOL / tail) / math.log(m_n0))
    acc = fb.copy()
    h = fb
    for _ in range(blocks + 1):
        if float(h.max() - h.min()) * tail <= target:
            return acc if total is None else total.apply(acc)
        h = power.apply(h)
        acc += h
    raise OracleError(
        f"resolvent series on {bundle.space.id!r} exceeded its certified term count"
    )


def resolvent_bundle(kernel: FactoredKernel, pi: Measure) -> ResolventBundle:
    """Certify a kernel with its invariant measure `pi`, and solve its resolvent.

    Raises :class:`OracleError` when the kernel is not uniformly ergodic
    (:func:`contraction_index`), `pi` is not invariant within
    :data:`INVARIANCE_TOL`, the Poisson defect exceeds :data:`POISSON_TOL`,
    or ``||P||`` exceeds the bound ``p_n0``.
    """
    if pi.space != kernel.space:
        raise ValueError("a resolvent bundle requires a kernel and measure on one space")
    n0, m_n0, p_n0, power, power_sum = contraction_index(kernel)
    resid = np.abs(kernel.act(pi.weights) - pi.weights).max()
    if resid > INVARIANCE_TOL:
        raise OracleError(
            f"supplied measure is not invariant on {kernel.space.id!r} "
            f"(residual {resid:.3e})"
        )
    V = resolvent(kernel, pi)
    p_resid = poisson_residual(kernel, pi, V)
    if p_resid > POISSON_TOL:
        raise OracleError(f"Poisson residual {p_resid:.3e} on {kernel.space.id!r}")
    norm = _resolvent_norm(kernel, pi, V)
    if norm > p_n0 * (1.0 + 1e-12):
        raise OracleError(
            f"resolvent norm {norm:.6g} exceeds contraction bound {p_n0:.6g}"
        )
    return ResolventBundle(
        kernel=kernel,
        invariant=pi,
        flow=V,
        n0=n0,
        m_n0=m_n0,
        p_n0=p_n0,
        power=power,
        power_sum=power_sum,
        poisson_resid=p_resid,
        norm=norm,
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
    Pf = bundle.apply(fb)
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
    M = bundle.kernel
    _, Pf = _resolved(bundle, f)
    _, Pg = _resolved(bundle, g)
    C = M.apply(Pf * Pg) - M.apply(Pf) * M.apply(Pg)
    return float(bundle.invariant.weights @ C)


# ---------------------------------------------------------------------------
# The level stack: kernels, limits, first-order semigroups
# ---------------------------------------------------------------------------

def cross_coefficient(dk: int, dj: int) -> float:
    """Limiting overlap of two iterated-Cesaro weight arrays.

    ``lim (1/n) sum_p s_n^(dk+1)(p) s_n^(dj+1)(p) = (dk+dj)!/(dk! dj!)``.
    Fields at depth offsets ``dk`` and ``dj`` below two observation levels
    share the local fluctuations of one level but weight them with arrays
    of different orders; this overlap, not the product of the two
    variance coefficients, is their covariance weight.  On the diagonal
    ``dk = dj = l`` it is the variance formula's squared level-`l` mixing
    coefficient ``(2l)!/l!^2`` (1, 2, 6, 20, ...).
    """
    return float(
        math.factorial(dk + dj) // (math.factorial(dk) * math.factorial(dj))
    )


@dataclass(frozen=True, eq=False)
class CltSpec:
    """Everything the variance formula needs for levels ``0 .. level``.

    ``bundles[l]`` is the certified level-`l` record: the sampling kernel
    frozen at the limit measures, in factors, with its invariant measure
    ``pis[l]`` and its resolvent.  ``d_ops[l]`` is the first-order
    operator from level ``l`` into level ``l+1`` (``D_{l+1}``) evaluated
    at the limit.
    """

    model: object
    level: int
    bundles: tuple[ResolventBundle, ...]
    d_ops: tuple[FirstOrderOperator, ...]

    @property
    def spaces(self) -> tuple[FiniteSpace, ...]:
        return tuple(b.space for b in self.bundles)

    @property
    def pis(self) -> tuple[Measure, ...]:
        return tuple(b.invariant for b in self.bundles)


def build_clt_spec(model, k_max: int) -> CltSpec:
    """Assemble the oracle stack for an FK or annealing model."""
    if not isinstance(model, (fk.FKModel, ann.AnnealingModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if k_max > model.levels:
        raise ValueError(f"k_max={k_max} exceeds model levels {model.levels}")
    levels = range(k_max + 1)
    kernels = [FactoredKernel.dense(model.level0_kernel)]
    if isinstance(model, fk.FKModel):
        pis = tuple(fk.exact_path_measure(model, l) for l in levels)
        level_kernel = fk.rank_one_kernel if model.kernel_type == "rank_one" else fk.mh_factors
        kernels += [level_kernel(model, l, pis[l - 1]) for l in levels[1:]]
    else:
        pis = tuple(ann.gibbs_measure(model, l) for l in levels)
        kernels += [
            FactoredKernel.dense(ann.mixture_kernel(model, l, pis[l - 1])) for l in levels[1:]
        ]
    bundles = tuple(map(resolvent_bundle, kernels, pis))
    if isinstance(model, fk.FKModel):
        d_ops = tuple(fk.first_order_D(model, l, pis[l]) for l in range(k_max))
    else:
        d_ops = tuple(ann.first_order_D(model, l, pis[l], bundles[l + 1]) for l in range(k_max))
    return CltSpec(model=model, level=k_max, bundles=bundles, d_ops=d_ops)


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
        f = spec.d_ops[j - 1].apply(f)
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
        cross_coefficient(l, l)
        * local_variance(spec.bundles[k - l], d_semigroup(spec, k - l + 1, k, f))
        for l in range(k + 1)
    ]


def sum_in_order(terms) -> float:
    """Sum of `terms`, each added to the total left to right.

    Builtin ``sum`` of floats is compensated from Python 3.12 on, which
    can move a variance in its last bit; this sum gives the same value on
    every version.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


def asymptotic_variance(spec: CltSpec, k: int, f: TestFunction) -> float:
    """Limiting variance of the level-`k` fluctuation field at `f`.

    Sums the local variances of the semigroup images of `f` down the
    stack, weighted by ``(2l)!/l!^2`` (see :func:`variance_terms`).
    """
    return sum_in_order(variance_terms(spec, k, f))


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
