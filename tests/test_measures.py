import numpy as np
import pytest

from imcmc.measures import (
    FiniteSpace,
    IntegralOperator,
    Measure,
    SpaceMismatchError,
    TestFunction,
    act_measure,
    apply_operator,
    compose,
    dobrushin,
    integrate,
    oscillation,
)
from helpers import random_function, random_probability, random_stochastic, two_state_chain
from reference import product_space, tensor, tv_distance


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteSpace("empty", 0)
    with pytest.raises(ValueError):
        FiniteSpace("dup", 2, labels=("a", "a"))
    with pytest.raises(ValueError):
        FiniteSpace("huge", 4097)
    sp = FiniteSpace("ok", 3)
    assert sp.labels == ("s0", "s1", "s2")


def test_probability_validation():
    sp = FiniteSpace("s", 2)
    with pytest.raises(ValueError):
        Measure(sp, [0.6, 0.6])
    with pytest.raises(ValueError):
        Measure(sp, [1.2, -0.2])
    Measure(sp, [0.25, 0.75])


def test_markov_validation():
    sp = FiniteSpace("s", 2)
    with pytest.raises(ValueError):
        IntegralOperator(sp, sp, [[0.9, 0.2], [0.2, 0.8]])
    with pytest.raises(ValueError):
        IntegralOperator(sp, sp, [[1.1, -0.1], [0.2, 0.8]])
    with pytest.raises(ValueError):
        IntegralOperator(sp, sp, [[1.0, 1.0], [0.0, 1.0]])


def test_apply_operator():
    space, M, _ = two_state_chain()
    f = TestFunction(space, [1.0, 0.0])
    assert np.allclose(apply_operator(M, f).values, [0.9, 0.2])
    ident = IntegralOperator.identity(space)
    assert np.array_equal(apply_operator(ident, f).values, f.values)
    mu = Measure(space, [0.3, 0.7])
    const = apply_operator(IntegralOperator.rank_one(space, mu), f)
    assert np.allclose(const.values, integrate(mu, f))


def test_apply_operator_space_mismatch():
    space, M, _ = two_state_chain()
    other = FiniteSpace("other", 2)
    with pytest.raises(SpaceMismatchError) as err:
        apply_operator(M, TestFunction(other, [1.0, 0.0]))
    assert "chain2" in str(err.value) and "other" in str(err.value)


def test_act_measure():
    space, M, pi = two_state_chain()
    # the stationary law of this chain is (2/3, 1/3)
    out = act_measure(pi, M)
    assert np.allclose(out.weights, pi.weights, atol=1e-15)
    row = act_measure(Measure.dirac(space, 1), M)
    assert np.allclose(row.weights, [0.2, 0.8])
    same = act_measure(pi, IntegralOperator.identity(space))
    assert np.allclose(same.weights, pi.weights)


def test_integrate():
    sp = FiniteSpace("s", 2)
    assert integrate(Measure(sp, [0.4, 0.6]), TestFunction.constant(sp, 1.0)) == 1.0
    assert integrate(Measure(sp, [0.5, 0.5]), TestFunction(sp, [1.0, -1.0])) == 0.0
    assert integrate(Measure(sp, [2 / 3, 1 / 3]), TestFunction(sp, [1.0, 0.0])) == pytest.approx(2 / 3)


def test_tv_norm():
    # the total variation distance of two laws, in the unit-ball convention
    sp = FiniteSpace("s", 2)
    assert tv_distance(Measure(sp, [0.4, 0.6]), Measure(sp, [0.4, 0.6])) == 0.0
    assert tv_distance(Measure.dirac(sp, 0), Measure.dirac(sp, 1)) == 2.0
    assert tv_distance(Measure(sp, [0.3, 0.7]), Measure(sp, [0.5, 0.5])) == pytest.approx(0.4)
    with pytest.raises(SpaceMismatchError):
        tv_distance(Measure.uniform(sp), Measure.uniform(FiniteSpace("t", 2)))


def test_oscillation():
    sp = FiniteSpace("s", 3)
    assert oscillation(TestFunction.constant(sp, 2.5)) == 0.0
    assert oscillation(TestFunction(FiniteSpace("t", 2), [1.0, 0.0])) == 1.0
    assert oscillation(TestFunction(sp, [3.0, -2.0, 0.5])) == 5.0


def test_dobrushin():
    space, M, pi = two_state_chain()
    assert dobrushin(M) == pytest.approx(0.7)
    assert dobrushin(IntegralOperator.identity(space)) == 1.0
    assert dobrushin(IntegralOperator.rank_one(space, pi)) == 0.0


def test_dobrushin_matches_pairwise_max():
    # the overlap form against the literal pairwise maximum, on kernels
    # with zero entries, with repeated rows, and on a permutation
    def pairwise(m):
        n = len(m)
        return max(0.5 * np.abs(m[x] - m[y]).sum() for x in range(n) for y in range(n))

    rng = np.random.default_rng(12)
    kernels = []
    for i in range(19):
        n = int(rng.integers(2, 41))
        m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 1.0))
        m[np.arange(n), rng.integers(0, n, n)] += 0.01
        m /= m.sum(axis=1, keepdims=True)
        if i % 3 == 0:
            m = m[rng.integers(0, n, n)]
        kernels.append(m)
    perm = np.eye(17)[rng.permutation(17)]
    kernels.append(perm)
    for m in kernels:
        sp = FiniteSpace("k", len(m))
        beta = dobrushin(IntegralOperator(sp, sp, m))
        assert abs(beta - pairwise(m)) <= 1e-15
    sp = FiniteSpace("perm", len(perm))
    assert dobrushin(IntegralOperator(sp, sp, perm)) == 1.0


def test_compose():
    space, M, _ = two_state_chain()
    ident = IntegralOperator.identity(space)
    assert np.array_equal(compose(M, ident).matrix, M.matrix)
    sq = compose(M, M)
    assert np.allclose(sq.matrix, [[0.83, 0.17], [0.34, 0.66]])


def test_dobrushin_submultiplicative():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        sp = FiniteSpace("s", n)
        M = random_stochastic(rng, n, space_src=sp, space_dst=sp)
        N = random_stochastic(rng, n, space_src=sp, space_dst=sp)
        bm, bn = dobrushin(M), dobrushin(N)
        assert 0.0 <= bm <= 1.0
        assert dobrushin(compose(M, N)) <= bm * bn + 1e-12


def test_oscillation_contraction():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        sp = FiniteSpace("s", n)
        M = random_stochastic(rng, n, space_src=sp, space_dst=sp)
        f = random_function(rng, sp)
        assert oscillation(apply_operator(M, f)) <= dobrushin(M) * oscillation(f) + 1e-12


def test_tv_contraction():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        sp = FiniteSpace("s", n)
        M = random_stochastic(rng, n, space_src=sp, space_dst=sp)
        mu, nu = random_probability(rng, sp), random_probability(rng, sp)
        lhs = tv_distance(act_measure(mu, M), act_measure(nu, M))
        assert lhs <= dobrushin(M) * tv_distance(mu, nu) + 1e-12


def test_duality():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        src, dst = FiniteSpace("src", n), FiniteSpace("dst", m)
        M = random_stochastic(rng, n, m, space_src=src, space_dst=dst)
        mu = random_probability(rng, src)
        f = random_function(rng, dst)
        assert integrate(act_measure(mu, M), f) == pytest.approx(
            integrate(mu, apply_operator(M, f)), abs=1e-12
        )


def test_tensor_measure_function():
    rng = np.random.default_rng(11)
    a, b = FiniteSpace("a", 3), FiniteSpace("b", 2)
    mu, nu = random_probability(rng, a), random_probability(rng, b)
    f, g = random_function(rng, a), random_function(rng, b)
    prod = tensor(mu, nu)
    assert integrate(prod, tensor(f, g)) == pytest.approx(
        integrate(mu, f) * integrate(nu, g), abs=1e-12
    )
    # left factor is the high digit: (mu (x) dirac_x)(y, x) = mu(y)
    point = tensor(mu, Measure.dirac(b, 1))
    for y in range(a.size):
        assert point.weights[y * b.size + 1] == pytest.approx(mu.weights[y])
        assert point.weights[y * b.size + 0] == 0.0


def test_tensor_operators_markov():
    rng = np.random.default_rng(12)
    a = FiniteSpace("a", 2)
    b = FiniteSpace("b", 3)
    M = random_stochastic(rng, 2, space_src=a, space_dst=a)
    N = random_stochastic(rng, 3, space_src=b, space_dst=b)
    T = tensor(M, N)
    # distributivity over product states
    mu, nu = random_probability(rng, a), random_probability(rng, b)
    f, g = random_function(rng, a), random_function(rng, b)
    lhs = integrate(tensor(mu, nu), apply_operator(T, tensor(f, g)))
    rhs = integrate(mu, apply_operator(M, f)) * integrate(nu, apply_operator(N, g))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_product_space_cap():
    big = FiniteSpace("big", 4096)
    with pytest.raises(ValueError):
        product_space(big, FiniteSpace("two", 2))


def test_allclose_configurable_tolerance():
    from imcmc.measures import allclose

    sp = FiniteSpace("s", 2)
    a = Measure(sp, [0.5, 0.5])
    b = Measure(sp, [0.5 + 1e-10, 0.5 - 1e-10])
    assert not allclose(a, b)  # default 1e-12
    assert allclose(a, b, atol=1e-9)
    with pytest.raises(TypeError):
        allclose(a, TestFunction(sp, [0.5, 0.5]))
