import math

import numpy as np
import pytest

from imcmc import annealing as ann
from imcmc import oracle
from imcmc.measures import (
    FiniteSpace,
    IntegralOperator,
    Measure,
    TestFunction,
    dobrushin,
)
from reference import (
    act_measure,
    annealing_map,
    geometric_kernel_series,
    mixture_invariant_measure,
    remainder_ratios,
    tv_distance,
)
from helpers import random_probability


def model4(epsilon=0.3, betas=(0.3, 0.6, 0.9, 1.2)):
    sp = FiniteSpace("S", 4)
    return ann.make_metropolis_model(sp, np.array([0.0, 1.0, 2.0, 3.0]), betas, epsilon)


def test_gibbs_measure_values():
    sp = FiniteSpace("s", 2)
    m = ann.make_metropolis_model(sp, np.array([0.0, 1.0]), (1.0, 2.0), 0.0)
    pi = ann.gibbs_measure(m, 0)
    # softmax of (0, -1): (1/(1+e^-1), e^-1/(1+e^-1))
    assert pi.weights[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
    assert pi.weights[1] == pytest.approx(0.2689414213699951, abs=1e-12)


def test_gibbs_constant_potential_returns_reference():
    sp = FiniteSpace("s", 3)
    ref = Measure(sp, [0.5, 0.3, 0.2])
    m = ann.make_metropolis_model(sp, np.zeros(3), (1.0, 2.0), 0.0, reference=ref)
    assert np.allclose(ann.gibbs_measure(m, 1).weights, ref.weights, atol=1e-14)


def test_gibbs_concentrates_on_argmin():
    # two-point bound: pi(argmin) >= 1 - delta once beta >= log((n-1)/delta) / gap
    sp = FiniteSpace("s", 4)
    v = np.array([0.0, 1.0, 2.0, 3.0])
    delta, gap = 1e-3, 1.0
    beta_star = math.log((sp.size - 1) / delta) / gap
    m = ann.make_metropolis_model(sp, v, (0.5, beta_star), 0.0)
    assert ann.gibbs_measure(m, 1).weights[0] >= 1.0 - delta


def test_geometric_kernel_epsilon_zero():
    m = model4(epsilon=0.0)
    K = ann.geometric_kernel(m, 1)
    assert np.allclose(K.matrix, np.eye(4))


def test_geometric_kernel_idempotent_base():
    # rank-one K has K^2 = K, so the geometric sum collapses to (1-e)I + eK
    sp = FiniteSpace("s", 3)
    eps = 0.4
    v = np.array([0.0, 0.5, 1.5])
    ref = Measure.uniform(sp)
    pi0 = Measure(sp, ann._gibbs_weights(v, 1.0, ref.weights))
    pi1 = Measure(sp, ann._gibbs_weights(v, 2.0, ref.weights))
    K = [IntegralOperator.rank_one(sp, pi0), IntegralOperator.rank_one(sp, pi1)]
    m = ann.AnnealingModel(
        space=sp, potential=TestFunction(sp, v), betas=(1.0, 2.0), epsilon=eps,
        kernels=tuple(K),
    )
    G = ann.geometric_kernel(m, 0)
    assert np.allclose(G.matrix, (1 - eps) * np.eye(3) + eps * K[0].matrix, atol=1e-12)


def test_geometric_kernel_series_agreement():
    m = model4(epsilon=0.5)
    for l in range(2):
        closed = ann.geometric_kernel(m, l).matrix
        series = geometric_kernel_series(m, l, 40)
        assert np.abs(closed - series).max() < 1e-10


def test_geometric_kernel_invariance():
    m = model4(epsilon=0.6)
    for l in range(m.levels + 1):
        pi = ann.gibbs_measure(m, l)
        out = act_measure(pi, ann.geometric_kernel(m, l))
        assert tv_distance(out, pi) < 1e-10


def test_annealing_map_fixed_points():
    for eps in (0.0, 0.3, 0.7):
        m = model4(epsilon=eps)
        for l in range(m.levels):
            out = annealing_map(m, l, ann.gibbs_measure(m, l))
            assert tv_distance(out, ann.gibbs_measure(m, l + 1)) < 1e-10


def test_annealing_map_unit_potential():
    # constant energy makes the reweighting trivial: map = mu L K_eps
    sp = FiniteSpace("s", 3)
    m = ann.make_metropolis_model(sp, np.zeros(3), (1.0, 2.0), 0.5)
    rng = np.random.default_rng(2)
    mu = random_probability(rng, sp)
    out = annealing_map(m, 0, mu)
    manual = act_measure(act_measure(mu, m.kernels[1]), ann.geometric_kernel(m, 1))
    assert tv_distance(out, manual) < 1e-14


def test_annealing_map_stepwise_composition():
    m = model4(epsilon=0.4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        mu = random_probability(rng, m.space)
        l = int(rng.integers(0, m.levels))
        out = annealing_map(m, l, mu)
        step = ann.boltzmann_gibbs(mu, ann.potential_fn(m, l))
        step = act_measure(step, m.kernels[l + 1])
        step = act_measure(step, ann.geometric_kernel(m, l + 1))
        assert tv_distance(out, step) < 1e-13


def test_mixture_kernel_rank_one_at_zero_epsilon():
    m = model4(epsilon=0.0)
    rng = np.random.default_rng(4)
    mu = random_probability(rng, m.space)
    M = ann.mixture_kernel(m, 1, mu)
    assert dobrushin(M) < 1e-14
    rho = act_measure(ann.boltzmann_gibbs(mu, ann.potential_fn(m, 0)), m.kernels[1])
    assert np.allclose(M.matrix, np.tile(rho.weights, (4, 1)), atol=1e-14)


def test_mixture_kernel_contraction_and_invariance():
    rng = np.random.default_rng(5)
    for eps in (0.3, 0.7):
        m = model4(epsilon=eps)
        for l in range(1, m.levels + 1):
            for _ in range(50):
                mu = random_probability(rng, m.space)
                M = ann.mixture_kernel(m, l, mu)
                assert dobrushin(M) <= eps + 1e-12
                target = mixture_invariant_measure(m, l, mu)
                assert tv_distance(act_measure(target, M), target) < 1e-10


def test_mixture_lipschitz_bound():
    # ||(M_mu - M_nu) f|| <= (1-eps)/min(G) * ||mu - nu||_tv * ||f||
    rng = np.random.default_rng(6)
    m = model4(epsilon=0.3)
    for l in range(1, m.levels + 1):
        G = ann.potential_fn(m, l - 1)
        const = (1.0 - m.epsilon) / G.values.min()
        for _ in range(30):
            mu, nu = random_probability(rng, m.space), random_probability(rng, m.space)
            f = TestFunction(m.space, rng.standard_normal(4))
            diff = ann.mixture_kernel(m, l, mu).matrix - ann.mixture_kernel(m, l, nu).matrix
            lhs = np.abs(diff @ f.values).max()
            rhs = const * tv_distance(mu, nu) * np.abs(f.values).max()
            assert lhs <= rhs + 1e-12


def test_default_metropolis():
    sp = FiniteSpace("s", 2)
    swap = IntegralOperator(sp, sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    pi = Measure(sp, [0.8, 0.2])
    M = ann.metropolis_kernel(pi, swap)
    assert M.matrix[0, 1] == pytest.approx(0.25)
    assert M.matrix[1, 0] == pytest.approx(1.0)
    # uniform target accepts everything
    uni = Measure.uniform(sp)
    assert np.allclose(ann.metropolis_kernel(uni, swap).matrix, swap.matrix)
    with pytest.raises(ValueError, match="symmetric"):
        asym = IntegralOperator(sp, sp, np.array([[0.5, 0.5], [0.9, 0.1]]))
        ann.make_metropolis_model(sp, np.array([0.0, 1.0]), (1.0,), 0.3, asym)


def test_metropolis_detailed_balance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        sp = FiniteSpace("s", n)
        # mix identity, uniform redraw, and index reversal: all symmetric
        a, b = rng.random(2) * 0.4
        sym = a * np.eye(n) + b * np.eye(n)[::-1] + (1 - a - b) * np.full((n, n), 1.0 / n)
        prop = IntegralOperator(sp, sp, sym)
        pi = random_probability(rng, sp)
        M = ann.metropolis_kernel(pi, prop)
        flow = pi.weights[:, None] * M.matrix
        assert np.abs(flow - flow.T).max() < 1e-14
        assert tv_distance(act_measure(pi, M), pi) < 1e-12


def _ring_proposal(n):
    p = np.zeros((n, n))
    p[np.arange(n), (np.arange(n) + 1) % n] = p[np.arange(n), (np.arange(n) - 1) % n] = 0.5
    return p


def _sparse_symmetric_proposal(rng, n):
    """Random symmetric edges with weights up to 1/n; the rest of each row stays put."""
    w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 8.0 / n), 1) / n
    w += w.T
    return w + np.diag(1.0 - w.sum(axis=1))


def test_metropolis_rows_sum_over_nonzero_flows_bit_for_bit():
    # the diagonal from whole off-diagonal rows, as summed before only the
    # nonzero flows were: fsum is correctly rounded, so the two agree exactly
    rng = np.random.default_rng(8)
    cases = [
        (4, np.full((4, 4), 0.25)),
        (64, _ring_proposal(64)),
        (1024, _ring_proposal(1024)),
        (1024, np.full((1024, 1024), 1.0 / 1024)),
        (1024, _sparse_symmetric_proposal(rng, 1024)),
    ]
    for n, proposal in cases:
        sp = FiniteSpace(f"s{n}", n)
        pi = random_probability(rng, sp)
        M = ann.metropolis_kernel(pi, IntegralOperator(sp, sp, proposal)).matrix
        flow = proposal * np.minimum(1.0, pi.weights[None, :] / pi.weights[:, None])
        np.fill_diagonal(flow, 0.0)
        rows = [1.0 - math.fsum(row) for row in flow.tolist()]
        assert np.array_equal(np.diag(M), rows)
        assert np.array_equal(M[~np.eye(n, dtype=bool)], flow[~np.eye(n, dtype=bool)])


def test_model_rejects_bad_kernels():
    sp = FiniteSpace("s", 3)
    shift = np.roll(np.eye(3), 1, axis=1)
    bad = IntegralOperator(sp, sp, shift)
    with pytest.raises(ValueError, match="invariant"):
        ann.AnnealingModel(
            space=sp,
            potential=TestFunction(sp, [0.0, 1.0, 2.0]),
            betas=(1.0, 2.0),
            epsilon=0.2,
            kernels=(bad, bad),
        )


def test_first_order_remainder_scaling():
    m = model4(epsilon=0.4)
    bundles = oracle.build_clt_spec(m, m.levels).bundles
    rng = np.random.default_rng(8)
    hits, trials = 0, 40
    for _ in range(trials):
        l = int(rng.integers(0, m.levels))
        eta, mu = random_probability(rng, m.space), random_probability(rng, m.space)
        D = ann.first_order_D(m, l, eta, bundles[l + 1])
        ratios = remainder_ratios(lambda v: annealing_map(m, l, v), eta, mu, D)
        if all(3.5 <= r <= 4.5 for r in ratios):
            hits += 1
    assert hits >= 0.9 * trials
