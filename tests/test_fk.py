import math

import numpy as np
import pytest

from imcmc import fk
from imcmc.measures import (
    FiniteSpace,
    IntegralOperator,
    Measure,
    TestFunction,
    dobrushin,
    integrate,
)
from reference import (
    act_measure,
    path_extension,
    path_potential,
    remainder_ratios,
    transport_kernel,
    tv_distance,
)
from helpers import operator_matrix, random_fk_model as small_model, random_probability


def uniform_potential_model(sizes=(2, 2, 2), seed=6):
    m = small_model(sizes, seed)
    ones = tuple(TestFunction(sp, np.full(sp.size, 1.0)) for sp in m.base_spaces[:-1])
    return fk.FKModel(
        base_spaces=m.base_spaces,
        initial=m.initial,
        transitions=m.transitions,
        potentials=ones,
    )


# ---------------------------------------------------------------------------
# path spaces
# ---------------------------------------------------------------------------

def test_path_space_sizes():
    m = small_model((2, 2, 2))
    assert fk.path_space(m, 2).space.size == 8
    assert fk.path_space(m, 0).space == m.base_spaces[0]
    m2 = small_model((2, 3, 2))
    assert fk.path_space(m2, 2).space.size == 12
    with pytest.raises(ValueError):
        fk.path_space(m2, 3)


def test_path_index_arithmetic():
    m = small_model((2, 3, 2))
    ps = fk.path_space(m, 2)
    # path (x0, x1, x2) = (1, 2, 0): index = (1*3 + 2)*2 + 0 = 10
    labels = [m.base_spaces[k].labels[x] for k, x in enumerate((1, 2, 0))]
    assert ps.space.labels[10].split(".") == labels
    assert np.array_equal(ps.terminal, np.arange(12) % 2)
    assert not ps.terminal.flags.writeable
    # built once per model and level
    assert fk.path_space(m, 2) is ps


# ---------------------------------------------------------------------------
# exact path measures
# ---------------------------------------------------------------------------

def brute_force_measure(model, l):
    """Enumerate, weight, and normalize every path by hand."""
    sizes = [sp.size for sp in model.base_spaces[: l + 1]]
    weights = {}
    def walk(prefix, w):
        k = len(prefix)
        if k == l + 1:
            idx = 0
            for j, x in enumerate(prefix):
                idx = idx * sizes[j] + x if j else x
            weights[idx] = w
            return
        for x in range(sizes[k]):
            step = model.initial.weights[x] if k == 0 else (
                model.potentials[k - 1].values[prefix[-1]]
                * model.transitions[k - 1].matrix[prefix[-1], x]
            )
            walk(prefix + (x,), w * step)
    walk((), 1.0)
    out = np.zeros(int(np.prod(sizes)))
    for idx, w in weights.items():
        out[idx] = w
    return out / out.sum()


def test_exact_path_measure_matches_enumeration():
    m = small_model((2, 2, 2), seed=13)
    got = fk.exact_path_measure(m, 2)
    assert np.allclose(got.weights, brute_force_measure(m, 2), atol=1e-14)


def test_exact_path_measure_uniform_potentials():
    # with unit potentials the path law is the unweighted chain law
    m = uniform_potential_model()
    got = fk.exact_path_measure(m, 2).weights
    assert np.allclose(got, brute_force_measure(m, 2), atol=1e-14)
    # ... and level l+1 is the pure Markov extension of level l
    prev = fk.exact_path_measure(m, 1)
    ext = act_measure(prev, path_extension(m, 1))
    assert np.allclose(ext.weights, fk.exact_path_measure(m, 2).weights, atol=1e-14)


def test_toy_marginal_closed_form():
    p, betas = 0.2, (0.5, 1.0, 2.0)
    m = fk.toy_model(p, betas)
    q = 1 - p
    for l in range(3):
        pi = fk.exact_path_measure(m, l)
        term = np.arange(pi.space.size) % 2
        marg1 = pi.weights[term == 0].sum()
        expect = p ** betas[l] / (p ** betas[l] + q ** betas[l])
        assert marg1 == pytest.approx(expect, abs=1e-14)


# ---------------------------------------------------------------------------
# reweighting and transport
# ---------------------------------------------------------------------------

def test_boltzmann_gibbs():
    sp = FiniteSpace("s", 2)
    mu = Measure(sp, [0.5, 0.5])
    out = fk.boltzmann_gibbs(mu, TestFunction(sp, [1.0, 0.5]))
    assert np.allclose(out.weights, [2 / 3, 1 / 3])
    const = fk.boltzmann_gibbs(mu, TestFunction(sp, np.full(sp.size, 0.7)))
    assert np.allclose(const.weights, mu.weights)
    # definition rearranged: mu(G) * bg(mu)(x) = G(x) mu(x)
    rng = np.random.default_rng(3)
    mu2 = random_probability(rng, sp)
    G = TestFunction(sp, rng.random(2) + 0.1)
    bg = fk.boltzmann_gibbs(mu2, G)
    assert np.allclose(integrate(mu2, G) * bg.weights, G.values * mu2.weights)


def test_boltzmann_gibbs_zero_mass():
    sp = FiniteSpace("s", 2)
    with pytest.raises(ValueError):
        fk.boltzmann_gibbs(Measure(sp, [1.0, 0.0]), TestFunction(sp, [0.0, 1.0]))


def test_transport_kernel():
    sp = FiniteSpace("s", 2)
    mu = Measure.uniform(sp)
    S = transport_kernel(mu, TestFunction(sp, [1.0, 0.5]))
    # bg(mu) = (2/3, 1/3); second row keeps with weight 1/2, else redraws
    assert np.allclose(S.matrix[1], [0.5 * 2 / 3, 0.5 + 0.5 * 1 / 3])
    assert np.allclose(S.matrix[0], [1.0, 0.0])
    ident = transport_kernel(mu, TestFunction(sp, np.full(sp.size, 1.0)))
    assert np.allclose(ident.matrix, np.eye(2))
    with pytest.raises(ValueError):
        transport_kernel(mu, TestFunction(sp, [1.0, 1.5]))
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        spn = FiniteSpace("x", n)
        mu_n = random_probability(rng, spn)
        G = TestFunction(spn, 0.1 + 0.9 * rng.random(n))
        S = transport_kernel(mu_n, G)
        lhs = act_measure(mu_n, S)
        rhs = fk.boltzmann_gibbs(mu_n, G)
        assert np.abs(lhs.weights - rhs.weights).max() < 1e-12


# ---------------------------------------------------------------------------
# the level map and its fixed points
# ---------------------------------------------------------------------------

def test_fk_map_fixed_point_chain():
    for seed in (1, 2):
        m = small_model((2, 3, 2), seed=seed)
        for l in range(m.levels):
            nxt = fk.fk_map(m, l, fk.exact_path_measure(m, l))
            assert tv_distance(nxt, fk.exact_path_measure(m, l + 1)) < 1e-12


def test_fk_map_prefix_marginal():
    m = small_model((2, 2, 2), seed=21)
    rng = np.random.default_rng(0)
    mu = random_probability(rng, fk.path_space(m, 1).space)
    out = fk.fk_map(m, 1, mu)
    prefix = out.weights.reshape(4, 2).sum(axis=1)
    psi = fk.boltzmann_gibbs(mu, path_potential(m, 1))
    assert np.allclose(prefix, psi.weights, atol=1e-14)


# ---------------------------------------------------------------------------
# the sampling kernel
# ---------------------------------------------------------------------------

def test_mh_kernel_rows_and_invariance():
    rng = np.random.default_rng(42)
    for m in (fk.toy_model(0.3, (0.5, 1.0, 1.5)), small_model((2, 3, 2), seed=9)):
        for l in (1, 2):
            for _ in range(50):
                mu = random_probability(rng, fk.path_space(m, l - 1).space)
                mh = fk.mh_kernel(m, l, mu)
                assert np.abs(mh.matrix.sum(axis=1) - 1.0).max() < 1e-12
                target = fk.fk_map(m, l - 1, mu)
                assert tv_distance(act_measure(target, mh), target) < 1e-10


def test_mh_kernel_matches_row_loop():
    # reference: every entry from the definition, rejection mass per row
    def row_loop(model, l, mu):
        ps = fk.path_space(model, l)
        g = model.potentials[l - 1].values
        step = model.transitions[l - 1].matrix
        s_prev, s_new = model.base_spaces[l - 1].size, model.base_spaces[l].size
        out = np.zeros((ps.space.size, ps.space.size))
        for x in range(ps.space.size):
            tx = (x // s_new) % s_prev
            for y in range(ps.space.size):
                py, ty = y // s_new, y % s_new
                ratio = min(1.0, g[py % s_prev] / g[tx])
                out[x, y] = (mu.weights[py] * ratio) * step[py % s_prev, ty]
            out[x, x] += 1.0 - math.fsum(out[x])
        return out

    rng = np.random.default_rng(13)
    for m in (fk.toy_model(0.25, (0.5, 1.0, 1.5, 2.0)), small_model((2, 3, 2))):
        for l in range(1, m.levels + 1):
            mu = random_probability(rng, fk.path_space(m, l - 1).space)
            assert np.array_equal(fk.mh_kernel(m, l, mu).matrix, row_loop(m, l, mu))


def test_mh_kernel_constant_potential_is_rank_one():
    m = uniform_potential_model((2, 2, 2), seed=30)
    rng = np.random.default_rng(5)
    mu = random_probability(rng, fk.path_space(m, 0).space)
    M = fk.mh_kernel(m, 1, mu)
    target = fk.fk_map(m, 0, mu)
    # acceptance ratio is identically 1: every row equals mu extended by one step
    assert np.allclose(M.matrix, np.tile(target.weights, (M.matrix.shape[0], 1)), atol=1e-14)
    assert dobrushin(M) < 1e-14


def test_mh_kernel_contraction_reachable():
    # some power of the kernel contracts, uniformly over sampled measures
    m = fk.toy_model(0.2, (0.5, 1.0))
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(25):
        mu = random_probability(rng, fk.path_space(m, 0).space)
        M = fk.mh_kernel(m, 1, mu)
        beta = dobrushin(M)
        n_l, mat = 1, M.matrix
        while beta >= 1.0 and n_l <= 8:
            mat = mat @ M.matrix
            beta = dobrushin(IntegralOperator(M.src, M.dst, mat))
            n_l += 1
        worst = max(worst, beta)
        assert n_l <= 8
    assert worst < 1.0


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def test_first_order_D_uniform_potential():
    m = uniform_potential_model((2, 2, 2), seed=31)
    eta = fk.exact_path_measure(m, 1)
    D = fk.first_order_D(m, 1, eta)
    assert np.allclose(operator_matrix(D), path_extension(m, 1).matrix, atol=1e-14)


def test_first_order_D_toy_closed_form():
    p, betas = 0.3, (0.5, 1.2, 2.0)
    m = fk.toy_model(p, betas)
    for l in range(2):
        pi_l = fk.exact_path_measure(m, l)
        pi_next = fk.exact_path_measure(m, l + 1)
        D = fk.first_order_D(m, l, pi_l)
        g = m.potentials[l].values
        step = m.transitions[l].matrix
        size = pi_l.space.size
        term = np.arange(size) % 2
        denom = float(pi_l.weights @ g[term])
        expect = np.zeros((size, 2 * size))
        for x in range(size):
            expect[x] = (1.0 - g[term[x]]) * pi_next.weights
            expect[x, 2 * x : 2 * x + 2] += g[term[x]] * step[term[x]]
        expect /= denom
        assert np.allclose(operator_matrix(D), expect, atol=1e-13)


def test_quadratic_remainder_scaling():
    m = small_model((2, 3, 2), seed=77)
    rng = np.random.default_rng(123)
    hits = 0
    trials = 40
    for _ in range(trials):
        l = int(rng.integers(0, m.levels))
        sp = fk.path_space(m, l).space
        eta, mu = random_probability(rng, sp), random_probability(rng, sp)
        D = fk.first_order_D(m, l, eta)
        ratios = remainder_ratios(lambda v: fk.fk_map(m, l, v), eta, mu, D)
        if all(3.5 <= r <= 4.5 for r in ratios):
            hits += 1
    assert hits >= 0.9 * trials
