"""Shared builders for randomized tests."""

import numpy as np

from imcmc.measures import FiniteSpace, IntegralOperator, Measure, TestFunction


def random_stochastic(rng, n, m=None, space_src=None, space_dst=None):
    m = n if m is None else m
    mat = rng.random((n, m)) + 0.05
    mat /= mat.sum(axis=1, keepdims=True)
    src = space_src or FiniteSpace(f"rand{n}", n)
    dst = space_dst or (src if m == n else FiniteSpace(f"rand{m}", m))
    return IntegralOperator(src, dst, mat)


def random_probability(rng, space):
    w = rng.random(space.size) + 0.05
    return Measure(space, w / w.sum())


def random_function(rng, space, scale=1.0):
    return TestFunction(space, scale * rng.standard_normal(space.size))


def two_state_chain():
    space = FiniteSpace("chain2", 2)
    M = IntegralOperator(space, space, np.array([[0.9, 0.1], [0.2, 0.8]]))
    pi = Measure(space, np.array([2.0 / 3.0, 1.0 / 3.0]))
    return space, M, pi


def dense_resolvent(M, pi):
    """Dense reference for the resolvent: ``P = Z - 1 (x) pi``, ``Z = (I - M + 1 (x) pi)^{-1}``.

    `M` is an :class:`IntegralOperator`; returns the ``S x S`` matrix.
    """
    n = M.src.size
    one_pi = np.outer(np.ones(n), pi.weights)
    return np.linalg.solve(np.eye(n) - M.matrix + one_pi, np.eye(n)) - one_pi


def dense_poisson_residual(M, pi, P):
    """Max entrywise defect of ``(M - I) P = 1 (x) pi - I`` and ``pi P = 0`` on matrices."""
    n = M.shape[0]
    eq = (M - np.eye(n)) @ P - (np.outer(np.ones(n), pi) - np.eye(n))
    return float(max(np.abs(eq).max(), np.abs(pi @ P).max()))


def stationary_measure(M):
    """Reference invariant law of an :class:`IntegralOperator`.

    Solves ``pi (I - M + J) = 1`` with ``J`` the all-ones matrix, which
    has a unique solution when `M` has a single closed class.
    """
    n = M.src.size
    w = np.linalg.solve((np.eye(n) - M.matrix + 1.0).T, np.ones(n))
    w = np.maximum(w, 0.0)
    return Measure(M.src, w / w.sum())


def resolvent_matrix(bundle):
    """The whole matrix of a bundle's resolvent, row ``x`` read off ``V[c(x)]``."""
    k = bundle.kernel
    n = k.space.size
    rows = np.eye(n) - bundle.invariant.weights + bundle.flow[k.classes]
    return rows / (1.0 - k.reject[k.classes])[:, None]


def operator_matrix(D):
    """The matrix of a first-order operator, column ``y`` its image of ``e_y``."""
    basis = np.eye(D.dst.size)
    return np.column_stack([D.apply(TestFunction(D.dst, e)).values for e in basis])


def dense_first_order_D(model, l, eta):
    """Dense reference ``T (x) Q / eta(G)`` of ``first_order_D`` for FK and annealing models."""
    from imcmc import annealing as ann
    from imcmc import fk
    from imcmc.measures import integrate
    from reference import path_extension, path_potential, transport_kernel

    if isinstance(model, fk.FKModel):
        G = path_potential(model, l)
        step = path_extension(model, l).matrix
    else:
        G = ann.potential_fn(model, l)
        step = model.kernels[l + 1].matrix @ ann.geometric_kernel(model, l + 1).matrix
    return transport_kernel(eta, G).matrix @ step / integrate(eta, G)


def series_matrix(bundle):
    """The resolvent assembled column by column from the vector series route.

    Column ``x`` is the series image of the centred basis vector
    ``e_x - pi(x)``, which equals column ``x`` of the resolvent because
    the resolvent kills constants.
    """
    from imcmc import oracle

    pi = bundle.invariant.weights
    basis = np.eye(pi.size)
    return np.column_stack(
        [oracle.resolvent_series(bundle, basis[x] - pi[x]) for x in range(pi.size)]
    )


def random_fk_model(sizes=(2, 3, 2), seed=5):
    """An arbitrary positive Feynman-Kac model with the given base sizes."""
    from imcmc import fk

    rng = np.random.default_rng(seed)
    spaces = tuple(FiniteSpace(f"S'{l}", s) for l, s in enumerate(sizes))
    init = rng.random(sizes[0]) + 0.2
    initial = Measure(spaces[0], init / init.sum())
    transitions = []
    for l in range(1, len(sizes)):
        m = rng.random((sizes[l - 1], sizes[l])) + 0.2
        m /= m.sum(axis=1, keepdims=True)
        transitions.append(IntegralOperator(spaces[l - 1], spaces[l], m))
    potentials = tuple(
        TestFunction(spaces[l], 0.2 + 0.8 * rng.random(sizes[l]))
        for l in range(len(sizes) - 1)
    )
    return fk.FKModel(
        base_spaces=spaces,
        initial=initial,
        transitions=tuple(transitions),
        potentials=potentials,
    )
