import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from imcmc import annealing as ann
from imcmc import cli, fk, oracle
from imcmc.measures import (
    FactoredKernel,
    FiniteSpace,
    IntegralOperator,
    Measure,
    TestFunction,
    dobrushin,
)
from imcmc.reporting import read_csv
import reference
from helpers import (
    dense_first_order_D,
    dense_poisson_residual,
    dense_resolvent,
    operator_matrix,
    random_fk_model,
    random_probability,
    resolvent_matrix,
    series_matrix,
    stationary_measure,
    two_state_chain,
)


def toy_spec(p=0.25, betas=(0.5, 1.0, 1.5, 2.0), k_max=2, kernel_type="mh"):
    return oracle.build_clt_spec(fk.toy_model(p, betas, kernel_type=kernel_type), k_max)


def annealing_spec(eps=0.3, k_max=2):
    sp = FiniteSpace("S", 4)
    m = ann.make_metropolis_model(sp, np.array([0.0, 1.0, 2.0, 3.0]), (0.3, 0.6, 0.9, 1.2), eps)
    return oracle.build_clt_spec(m, k_max)


def ring_model(n, betas=(0.3,), eps=0.3):
    """Metropolis annealing on an n-state ring with nearest-neighbour moves."""
    sp = FiniteSpace(f"ring{n}", n)
    proposal = np.zeros((n, n))
    for x in range(n):
        proposal[x, (x + 1) % n] = proposal[x, (x - 1) % n] = 0.5
    return ann.make_metropolis_model(
        sp, 1.0 - np.cos(2.0 * np.pi * np.arange(n) / n), betas, eps,
        IntegralOperator(sp, sp, proposal),
    )


# ---------------------------------------------------------------------------
# invariant measures
# ---------------------------------------------------------------------------

def _check_invariance(M, pi, atol):
    """The reference solve reproduces `pi`; the bundle keeps it and rejects a shifted one."""
    assert np.allclose(stationary_measure(M).weights, pi.weights, atol=atol)
    kernel = FactoredKernel.dense(M)
    assert oracle.resolvent_bundle(kernel, pi).invariant is pi
    shifted = pi.weights + 1e-9 * (np.arange(pi.space.size) - (pi.space.size - 1) / 2.0)
    with pytest.raises(oracle.OracleError, match="not invariant"):
        oracle.resolvent_bundle(kernel, Measure(pi.space, shifted))


def test_invariant_measure_two_state():
    _, M, pi = two_state_chain()
    _check_invariance(M, pi, atol=1e-13)


def test_invariant_measure_rank_one():
    sp = FiniteSpace("s", 5)
    rng = np.random.default_rng(1)
    mu = random_probability(rng, sp)
    _check_invariance(IntegralOperator.rank_one(sp, mu), mu, atol=1e-14)


def test_contraction_index():
    _, M, _ = two_state_chain()
    n0, m_n0, p_n0, _, _ = oracle.contraction_index(FactoredKernel.dense(M))
    assert n0 == 1 and m_n0 == pytest.approx(0.7) and p_n0 == pytest.approx(2 / 0.3)
    # a pure permutation never contracts
    sp = FiniteSpace("perm", 3)
    perm = IntegralOperator(sp, sp, np.roll(np.eye(3), 1, axis=1))
    with pytest.raises(oracle.OracleError, match="M\\^8 has no positive column"):
        oracle.contraction_index(FactoredKernel.dense(perm))


def _exact_beta_search(sp, m):
    """First exact ``beta(M^n) < 1`` over the powers ``n <= 64``, or None."""
    power = m
    for _ in range(64):
        beta = dobrushin(IntegralOperator(sp, sp, power))
        if beta < 1.0:
            return beta
        power = power @ m
    return None


def _positive_column_by_wielandt(m):
    """Exact route: some column of the boolean power ``M^(2^k)``, ``2^k >= (S-1)^2 + 1``, is all true."""
    reach, n = (m > 0).astype(np.int64), 1
    while n < (m.shape[0] - 1) ** 2 + 1:
        reach, n = (reach @ reach > 0).astype(np.int64), 2 * n
    return bool(reach.all(axis=0).any())


def test_doeblin_certificates_on_sparse_kernels():
    rng = np.random.default_rng(10)
    rejected, ergodic, beta_rejected = set(), set(), set()
    for i in range(400):
        n = int(rng.integers(2, 31))
        m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.6))
        m[np.arange(n), rng.integers(0, n, n)] += rng.random(n)  # no empty row
        m /= m.sum(axis=1, keepdims=True)
        sp = FiniteSpace(f"sparse{i}", n)
        M = IntegralOperator(sp, sp, m)
        if _positive_column_by_wielandt(m):
            ergodic.add(i)
        beta = _exact_beta_search(sp, m)
        if beta is None:
            beta_rejected.add(i)
        try:
            n0, m_n0, p_n0, power, _ = oracle.contraction_index(FactoredKernel.dense(M))
        except oracle.OracleError:
            rejected.add(i)
            # the exact-beta search accepts such a kernel only when beta rounds below 1
            assert beta is None or beta >= 1.0 - 1e-15
            continue
        assert n0 & (n0 - 1) == 0 and 0.0 <= m_n0 < 1.0
        assert p_n0 == 2.0 * n0 / (1.0 - m_n0)
        power = power.to_operator().matrix
        assert np.allclose(power, np.linalg.matrix_power(m, n0), rtol=0.0, atol=1e-13)
        assert m_n0 >= dobrushin(IntegralOperator(sp, sp, power)) - 1e-15
        b = oracle.resolvent_bundle(FactoredKernel.dense(M), stationary_measure(M))
        assert b.norm <= p_n0
    assert rejected == set(range(400)) - ergodic
    assert beta_rejected <= rejected and 0 < len(rejected) < 40


def test_wielandt_kernel_is_certified():
    # i -> i+1, and the last state -> {0, 1}: primitive with exponent (8-1)^2+1 = 50
    n = 8
    m = np.zeros((n, n))
    m[np.arange(n - 1), np.arange(1, n)] = 1.0
    m[n - 1, :2] = 0.5
    sp = FiniteSpace("wielandt8", n)
    assert (np.linalg.matrix_power(m, 49) == 0).any()
    assert (np.linalg.matrix_power(m, 50) > 0).all()
    M = IntegralOperator(sp, sp, m)
    b = oracle.resolvent_bundle(FactoredKernel.dense(M), stationary_measure(M))
    assert b.m_n0 < 1.0 and b.norm <= b.p_n0
    cycle = IntegralOperator(sp, sp, np.roll(np.eye(n), 1, axis=1))
    with pytest.raises(oracle.OracleError, match="Wielandt's bound 50"):
        oracle.contraction_index(FactoredKernel.dense(cycle))


def test_mixture_levels_certify_in_one_step():
    for eps in (0.1, 0.3, 0.7):
        for model in (
            ann.make_metropolis_model(
                FiniteSpace("S", 4), np.array([0.0, 1.0, 2.0, 3.0]), (0.3, 0.6, 0.9, 1.2), eps
            ),
            ring_model(64, betas=(0.3, 0.6, 0.9), eps=eps),
        ):
            spec = oracle.build_clt_spec(model, model.levels)
            for b in spec.bundles[1:]:
                assert b.n0 == 1 and b.m_n0 <= eps + 1e-12
                assert b.power is b.kernel


@pytest.mark.parametrize("size", [256, 512])
def test_wide_rings_are_certified(size):
    model = ring_model(size)
    b = oracle.resolvent_bundle(
        FactoredKernel.dense(model.level0_kernel), ann.gibbs_measure(model, 0)
    )
    assert b.m_n0 < 1.0 and b.norm <= b.p_n0


# ---------------------------------------------------------------------------
# resolvents and the Poisson equation
# ---------------------------------------------------------------------------

def test_resolvent_rank_one():
    sp = FiniteSpace("s", 4)
    rng = np.random.default_rng(3)
    mu = random_probability(rng, sp)
    M = IntegralOperator.rank_one(sp, mu)
    b = oracle.resolvent_bundle(FactoredKernel.dense(M), mu)
    expect = np.eye(4) - np.outer(np.ones(4), mu.weights)
    assert np.allclose(resolvent_matrix(b), expect, atol=1e-14)
    assert b.poisson_resid < 1e-14


def test_resolvent_two_state_eigenvalue():
    space, M, pi = two_state_chain()
    P = oracle.resolvent_bundle(FactoredKernel.dense(M), pi)
    # centered functions are eigenfunctions with eigenvalue 0.7, so P = 1/0.3 on them
    f = np.array([1.0, 0.0])
    fb = f - pi.weights @ f
    assert np.allclose(P.apply(fb), fb / 0.3, atol=1e-12)
    assert np.abs(P.apply(np.ones(2))).max() < 1e-12


def test_poisson_residual_detects_corruption():
    space, M, pi = two_state_chain()
    kernel = FactoredKernel.dense(M)
    bad = oracle.resolvent(kernel, pi).copy()
    bad[0, 0] += 1e-3
    resid = oracle.poisson_residual(kernel, pi, bad)
    assert resid >= 1e-4


def test_build_clt_spec_certifies_each_level_once(monkeypatch, tmp_path):
    calls = {"certify": [], "invariance": [], "norm": []}
    specs = []

    def counted(key, fn):
        def wrapper(kernel, *args):
            calls[key].append(kernel.space.id)
            return fn(kernel, *args)
        return wrapper

    act, build = FactoredKernel.act, oracle.build_clt_spec
    monkeypatch.setattr(oracle, "contraction_index", counted("certify", oracle.contraction_index))
    monkeypatch.setattr(oracle, "_resolvent_norm", counted("norm", oracle._resolvent_norm))
    # ``w M`` is formed only for the invariance residual of the limit measure
    monkeypatch.setattr(FactoredKernel, "act", counted("invariance", act))

    def recorded(*args):
        specs.append(build(*args))
        return specs[-1]

    monkeypatch.setattr(oracle, "build_clt_spec", recorded)
    config = tmp_path / "toy.ini"
    config.write_text(
        "[model]\ntype = fk\npreset = toy\np = 0.25\nbetas = 0.5 1.0 1.5 2.0\n"
        "[engine]\nlevels = 3\niterations = 100\n[functions]\nf = terminal_indicator(0)\n"
    )
    out = tmp_path / "o"
    assert cli.main(["oracle", "--config", str(config), "--out", str(out)]) == 0
    (spec,) = specs
    levels = [b.space.id for b in spec.bundles]
    assert len(levels) == 4 and calls == dict.fromkeys(calls, levels)
    with open(out / "operators.csv") as fh:
        header, rows, _ = read_csv(fh)
    column = header.index("resolvent_norm")
    assert [float(row[column]) for row in rows] == [b.norm for b in spec.bundles]


def test_resolvent_series_checks_tail_per_block():
    # the 12-state ring's level-0 chain certifies only at n0 = 16
    model = ring_model(12)
    b = oracle.resolvent_bundle(
        FactoredKernel.dense(model.level0_kernel), ann.gibbs_measure(model, 0)
    )
    assert b.n0 == 16
    n = b.space.size
    fb = np.eye(n)[0] - b.invariant.weights[0]
    got = oracle.resolvent_series(b, fb)
    dense = b.kernel.to_operator()
    assert np.abs(got - dense_resolvent(dense, b.invariant) @ fb).max() <= 1e-11

    # replay the blocks h_j = (M^n0)^j fb to find how many were summed
    tail = b.n0 / (1.0 - b.m_n0)
    power = b.power.to_operator().matrix
    target = oracle.SERIES_TAIL_TOL * (fb.max() - fb.min())
    total = b.power_sum  # singleton classes: (sum_{i<n0} M^i) acc = F acc + r acc

    def spread(acc):
        return total.flows @ acc + total.reject * acc

    acc, h, oscs = fb.copy(), fb, [fb.max() - fb.min()]
    while not np.array_equal(spread(acc), got):
        assert len(oscs) <= 1_000, "no partial sum reproduces the series"
        h = power @ h
        acc += h
        oscs.append(h.max() - h.min())
    assert oscs[-1] * tail <= target
    assert oscs[-2] * tail > target

    # at n0 = 1 the blocked series is the term-by-term sum, bit for bit
    b1 = annealing_spec().bundles[1]
    assert b1.n0 == 1
    fb = np.arange(4.0) - b1.invariant.weights @ np.arange(4.0)
    tail = 1.0 / (1.0 - b1.m_n0)
    target = oracle.SERIES_TAIL_TOL * (fb.max() - fb.min())
    acc, g = fb.copy(), fb
    while (g.max() - g.min()) * tail > target:
        g = b1.kernel.to_operator().matrix @ g
        acc += g
    assert np.array_equal(oracle.resolvent_series(b1, fb), acc)


def _factors_matrix(k):
    """The dense matrix of a factored kernel whose rows need not be markov."""
    return k.flows[k.classes] + np.diag(k.reject[k.classes])


def test_bundle_partial_sum_matches_dense_powers():
    ring12 = ring_model(12)
    ring64 = ring_model(64)
    # six states in three classes; each class moves to the next or stays
    classes = np.repeat(np.arange(3), 2)
    flows = 0.25 * (classes[None, :] == (np.arange(3)[:, None] + 1) % 3)
    cycle = FactoredKernel(FiniteSpace("cycle6", 6), classes, flows, np.full(3, 0.5))
    cases = [
        (FactoredKernel.dense(ring12.level0_kernel), ann.gibbs_measure(ring12, 0), 16),
        (FactoredKernel.dense(ring64.level0_kernel), ann.gibbs_measure(ring64, 0), 256),
        (cycle, Measure.uniform(cycle.space), 4),
    ]
    for kernel, pi, n0 in cases:
        b = oracle.resolvent_bundle(kernel, pi)
        assert b.n0 == n0
        M = _factors_matrix(kernel)
        dense = sum(np.linalg.matrix_power(M, i) for i in range(b.n0))
        assert np.abs(_factors_matrix(b.power_sum) - dense).max() <= 1e-13 * b.n0
        assert np.allclose(b.power_sum.flows.sum(axis=1) + b.power_sum.reject, b.n0)
    # a level certified at n0 = 1 keeps no array for its sum, the identity
    assert all(b.power_sum is None for b in annealing_spec().bundles[1:])


def test_resolvent_series_applies_only_power_and_sum(monkeypatch):
    model = ring_model(64, betas=(0.3, 0.6, 0.9))
    b = oracle.build_clt_spec(model, 0).bundles[0]
    assert b.n0 == 256
    calls = []
    apply = FactoredKernel.apply

    def counted(self, h):
        calls.append(self)
        return apply(self, h)

    monkeypatch.setattr(FactoredKernel, "apply", counted)
    fb = model.potential.values - b.invariant.weights @ model.potential.values
    oracle.resolvent_series(b, fb)
    tail = b.n0 / (1.0 - b.m_n0)
    blocks = math.ceil(math.log(oracle.SERIES_TAIL_TOL / tail) / math.log(b.m_n0))
    assert not any(k is b.kernel for k in calls)
    assert 0 < sum(k is b.power for k in calls) <= blocks + 1
    assert sum(k is b.power_sum for k in calls) == 1 and len(calls) <= blocks + 2


def test_resolvent_bundle_certificates():
    spec = toy_spec(k_max=3)
    for b in spec.bundles:
        assert b.poisson_resid <= 1e-10
        assert oracle.poisson_residual(b.kernel, b.invariant, b.flow) == b.poisson_resid
        assert np.abs(series_matrix(b) - resolvent_matrix(b)).max() <= 1e-8
        assert b.norm <= b.p_n0 + 1e-9
        dense = b.kernel.to_operator().matrix
        drift = np.abs(b.invariant.weights @ dense - b.invariant.weights).max()
        assert drift <= 1e-12


def _dense_level_kernel(spec, l):
    """The level-`l` kernel of `spec` from the dense reference builders."""
    model = spec.model
    if l == 0:
        return model.level0_kernel.matrix
    if isinstance(model, ann.AnnealingModel):
        return ann.mixture_kernel(model, l, spec.pis[l - 1]).matrix
    if model.kernel_type == "rank_one":
        target = fk.fk_map(model, l - 1, spec.pis[l - 1])
        return IntegralOperator.rank_one(spec.spaces[l], target).matrix
    return fk.mh_kernel(model, l, spec.pis[l - 1]).matrix


FACTORED_CASES = {
    "toy-mh": lambda: fk.toy_model(0.25, (0.5, 1.0, 1.5, 2.0)),
    "toy-rank-one": lambda: fk.toy_model(0.25, (0.5, 1.0, 1.5, 2.0), kernel_type="rank_one"),
    "fk-2-3-2": lambda: random_fk_model((2, 3, 2)),
    "fk-3-4-4-4-3": lambda: random_fk_model((3, 4, 4, 4, 3)),
    "fk-4x5": lambda: random_fk_model((4, 4, 4, 4, 4)),
    "annealing-4": lambda: ann.make_metropolis_model(
        FiniteSpace("S", 4), np.array([0.0, 1.0, 2.0, 3.0]), (0.3, 0.6, 0.9, 1.2), 0.3
    ),
    "ring-64": lambda: ring_model(64, betas=(0.3, 0.6, 0.9)),
}


@pytest.mark.parametrize("case", sorted(FACTORED_CASES))
def test_factored_levels_match_dense(case):
    model = FACTORED_CASES[case]()
    spec = oracle.build_clt_spec(model, model.levels)
    rng = np.random.default_rng(11)
    for l, b in enumerate(spec.bundles):
        M = _dense_level_kernel(spec, l)
        pi = b.invariant.weights
        h, mu = rng.standard_normal(pi.size), rng.random(pi.size)
        assert np.abs(b.kernel.apply(h) - M @ h).max() <= 1e-14 * np.abs(h).max() * pi.size
        assert np.abs(b.kernel.act(mu) - mu @ M).max() <= 1e-14 * mu.sum()
        # certificates: the factored squaring against the dense matrix
        dense = FactoredKernel.dense(IntegralOperator(b.space, b.space, M))
        n0, m_n0, _, _, _ = oracle.contraction_index(dense)
        assert b.n0 == n0 and abs(b.m_n0 - m_n0) <= 1e-14
        assert np.abs(b.power.to_operator().matrix - np.linalg.matrix_power(M, n0)).max() <= 1e-13
        # the whole resolvent against the dense solve
        P = dense_resolvent(IntegralOperator(b.space, b.space, M), b.invariant)
        norm = float(np.abs(P).sum(axis=1).max())
        assert abs(b.norm - norm) <= 1e-12 * norm
        assert np.abs(resolvent_matrix(b) - P).max() <= 1e-12 * norm
        dense_defect = dense_poisson_residual(M, pi, resolvent_matrix(b))
        assert b.poisson_resid <= 1e-10 and abs(b.poisson_resid - dense_defect) <= 1e-12
        fb = h - pi @ h
        assert np.abs(b.apply(fb) - P @ fb).max() <= 1e-12 * norm * np.abs(fb).max()
        if isinstance(model, ann.AnnealingModel) and l >= 1:
            # the geometric kernel is an affine image of the level's resolvent
            G = (1.0 - model.epsilon) * resolvent_matrix(b) + pi
            assert np.abs(G - ann.geometric_kernel(model, l).matrix).max() <= 1e-12
        if l < spec.level:
            D, Dd = spec.d_ops[l], dense_first_order_D(model, l, spec.pis[l])
            f = TestFunction(D.dst, rng.standard_normal(D.dst.size))
            assert np.abs(D.apply(f).values - Dd @ f.values).max() <= 1e-13 * np.abs(f.values).max()
            assert D.scale == pytest.approx(np.abs(Dd).sum(axis=1).max(), rel=1e-12)


def test_factored_kernel_algebra_on_random_factors():
    rng = np.random.default_rng(12)
    for i in range(60):
        n = int(rng.integers(1, 25))
        b = int(rng.integers(1, n + 1))
        classes = np.concatenate([np.arange(b), rng.integers(0, b, n - b)])
        rng.shuffle(classes)
        flows = rng.random((b, n)) * (rng.random((b, n)) < 0.6)
        reject = rng.random(b) * rng.integers(0, 2, b)
        flows *= (1.0 - reject)[:, None] / np.maximum(flows.sum(axis=1), 1e-300)[:, None]
        reject = np.where(flows.sum(axis=1) > 0, reject, 1.0)
        k = FactoredKernel(FiniteSpace(f"factors{i}", n), classes, flows, reject)
        M = flows[classes] + np.diag(reject[classes])
        assert np.array_equal(k.to_operator().matrix, M)
        h, mu = rng.standard_normal(n), rng.random(n)
        assert np.allclose(k.apply(h), M @ h, rtol=0.0, atol=1e-14 * n)
        assert np.allclose(k.act(mu), mu @ M, rtol=0.0, atol=1e-14 * n)
        power, dense = k, M
        for _ in range(3):  # a singleton class keeps its rejection mass in its column
            assert np.allclose(power.column_min(), dense.min(axis=0), rtol=0.0, atol=1e-14 * n)
            power, dense = power.product(power), dense @ dense
            assert np.allclose(power.to_operator().matrix, dense, rtol=0.0, atol=1e-14 * n)
        # a product with factors on the same classes that are not markov,
        # as in the partial sums of the certificate
        other_rng = np.random.default_rng([12, i])
        G, g = other_rng.random((b, n)), 2.0 * other_rng.random(b)
        other = FactoredKernel(k.space, classes, G, g)
        for left, right in ((k, other), (other, k), (other, other)):
            got = _factors_matrix(left.product(right))
            ref = _factors_matrix(left) @ _factors_matrix(right)
            assert np.allclose(got, ref, rtol=0.0, atol=1e-14 * n * np.abs(ref).max())
    with pytest.raises(ValueError, match="one class map"):
        k.product(FactoredKernel.dense(IntegralOperator.identity(FiniteSpace("other", 3))))


@pytest.mark.parametrize("shift", ["entry", "class-null-direction"])
@pytest.mark.parametrize("level", [0, 2])
def test_resolvent_bundle_detects_perturbed_flow(monkeypatch, level, shift):
    spec = toy_spec(k_max=2)
    kernel, pi = spec.bundles[level].kernel, spec.pis[level]
    solve = oracle.resolvent
    oracle.resolvent_bundle(kernel, pi)

    def perturbed(M, pi):
        flow = solve(M, pi).copy()
        if shift == "entry":
            flow[0, 1] += 1e-6
        else:  # moves every row of P by 1e-6 in column 1: only pi P = 0 sees it
            flow[:, 1] += 1e-6 * (1.0 - M.reject)
        return flow

    monkeypatch.setattr(oracle, "resolvent", perturbed)
    with pytest.raises(oracle.OracleError, match="Poisson residual"):
        oracle.resolvent_bundle(kernel, pi)


def test_resolvent_rejects_a_class_that_never_moves():
    # one state that rejects every proposal: certified (m = 0), but 1 - r = 0
    sp = FiniteSpace("one", 1)
    kernel = FactoredKernel(sp, [0], [[0.0]], [1.0])
    with pytest.raises(oracle.OracleError, match="rejects every move"):
        oracle.resolvent_bundle(kernel, Measure(sp, [1.0]))


def test_series_stops_at_its_certified_term_count():
    # level 0 of the 16-ring certifies n0 = 32 at m_n0 = 0.25; claiming
    # m_n0 = 1e-3 allows too few blocks for the tail to fall below tolerance
    bundle = oracle.build_clt_spec(ring_model(16), 0).bundles[0]
    fb = np.eye(16)[0] - bundle.invariant.weights[0]
    oracle.resolvent_series(bundle, fb)
    with pytest.raises(oracle.OracleError, match="exceeded its certified term count"):
        oracle.resolvent_series(dataclasses.replace(bundle, m_n0=1e-3), fb)


def test_resolvent_norm_above_its_bound_is_rejected(monkeypatch):
    # the 16-ring's attained ||P|| is 20.2; a certificate claiming 0.5 must fail
    bundle = oracle.build_clt_spec(ring_model(16), 0).bundles[0]
    certify = oracle.contraction_index

    def low_bound(kernel):
        n0, m_n0, _, power, power_sum = certify(kernel)
        return n0, m_n0, 0.5, power, power_sum

    monkeypatch.setattr(oracle, "contraction_index", low_bound)
    with pytest.raises(oracle.OracleError, match="exceeds contraction bound 0.5"):
        oracle.resolvent_bundle(bundle.kernel, bundle.invariant)


def test_factored_stack_stays_below_one_dense_matrix():
    # 4096 states at level 3: a single S x S float64 array is 128 MiB
    tracemalloc.start()
    try:
        spec = oracle.build_clt_spec(random_fk_model((8, 8, 8, 8)), 3)
        f = TestFunction(spec.spaces[3], (np.arange(4096) % 3 == 0).astype(float))
        assert oracle.asymptotic_variance(spec, 3, f) > 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * 4096 * 8


# ---------------------------------------------------------------------------
# local variance and covariance
# ---------------------------------------------------------------------------

def test_local_variance_two_state():
    space, M, pi = two_state_chain()
    bundle = oracle.resolvent_bundle(FactoredKernel.dense(M), pi)
    f = TestFunction(space, [1.0, 0.0])
    assert oracle.local_variance(bundle, f) == pytest.approx(34.0 / 27.0, abs=1e-12)
    const = TestFunction(space, np.full(space.size, 3.0))
    assert oracle.local_variance(bundle, const) == pytest.approx(0.0, abs=1e-13)


def test_local_variance_rank_one_is_static_variance():
    sp = FiniteSpace("s", 4)
    rng = np.random.default_rng(4)
    mu = random_probability(rng, sp)
    bundle = oracle.resolvent_bundle(FactoredKernel.dense(IntegralOperator.rank_one(sp, mu)), mu)
    f = TestFunction(sp, rng.standard_normal(4))
    fb = f.values - mu.weights @ f.values
    assert oracle.local_variance(bundle, f) == pytest.approx(float(mu.weights @ fb**2), abs=1e-13)


def test_local_covariance_properties():
    space, M, pi = two_state_chain()
    bundle = oracle.resolvent_bundle(FactoredKernel.dense(M), pi)
    rng = np.random.default_rng(5)
    f = TestFunction(space, rng.standard_normal(2))
    g = TestFunction(space, rng.standard_normal(2))
    h = TestFunction(space, rng.standard_normal(2))
    # diagonal agrees with the variance
    assert oracle.local_covariance(bundle, f, f) == pytest.approx(
        oracle.local_variance(bundle, f), abs=1e-10
    )
    # kills constants
    const = TestFunction(space, np.full(space.size, 2.0))
    assert oracle.local_covariance(bundle, f, const) == pytest.approx(0.0, abs=1e-13)
    # bilinear
    a = 1.7
    lhs = oracle.local_covariance(bundle, f, TestFunction(space, a * g.values + h.values))
    rhs = a * oracle.local_covariance(bundle, f, g) + oracle.local_covariance(bundle, f, h)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_series_check_detects_perturbed_resolvent():
    bundle = toy_spec(k_max=2).bundles[2]
    size = bundle.space.size
    bad = bundle.flow.copy()
    bad[bundle.kernel.classes[1], 2] += 1e-6  # entry (1, 2) of P, with its class
    broken = dataclasses.replace(bundle, flow=bad)
    f = TestFunction(bundle.space, np.eye(size)[2])  # reads the perturbed column
    const = TestFunction(bundle.space, np.full(bundle.space.size, 1.0))
    oracle.local_variance(bundle, f)
    oracle.local_covariance(bundle, const, f)
    with pytest.raises(oracle.OracleError):
        oracle.local_variance(broken, f)
    # the second argument is checked too: a constant resolves to zero
    with pytest.raises(oracle.OracleError):
        oracle.local_covariance(broken, const, f)


# ---------------------------------------------------------------------------
# semigroups and asymptotic variance
# ---------------------------------------------------------------------------

def test_d_semigroup_conventions():
    spec = toy_spec(k_max=3)

    def images(k, l):
        """Images of the level-`l` basis functions, one column each."""
        basis = np.eye(spec.spaces[l].size)
        imgs = [oracle.d_semigroup(spec, k, l, TestFunction(spec.spaces[l], e)) for e in basis]
        assert all(img.space == spec.spaces[k - 1] for img in imgs)
        return np.column_stack([img.values for img in imgs])

    f = TestFunction(spec.spaces[2], np.arange(spec.spaces[2].size, dtype=float))
    assert oracle.d_semigroup(spec, 3, 2, f) is f
    D = [dense_first_order_D(spec.model, l, spec.pis[l]) for l in range(3)]
    assert np.allclose(images(2, 2), D[1])
    right = D[0] @ (D[1] @ D[2])
    assert np.abs(images(1, 3) - right).max() < 1e-12


def test_coefficient_table():
    assert [oracle.cross_coefficient(l, l) for l in range(4)] == [1.0, 2.0, 6.0, 20.0]


def test_cross_coefficient_table():
    # the diagonal is the variance coefficient (2l)!/l!^2
    for l in range(4):
        assert oracle.cross_coefficient(l, l) == math.comb(2 * l, l)
    # off-diagonal values are the weight-array overlaps, below the
    # Cauchy-Schwarz product of the variance coefficients
    assert oracle.cross_coefficient(1, 0) == 1.0
    assert oracle.cross_coefficient(2, 0) == 1.0
    assert oracle.cross_coefficient(2, 1) == 3.0
    assert oracle.cross_coefficient(3, 2) == 10.0
    for dk, dj in ((1, 0), (2, 1), (3, 1)):
        bound = math.sqrt(oracle.cross_coefficient(dk, dk) * oracle.cross_coefficient(dj, dj))
        assert oracle.cross_coefficient(dk, dj) < bound


def test_asymptotic_variance_level0_is_local():
    spec = toy_spec(k_max=2)
    f = TestFunction(spec.spaces[0], [1.0, 0.0])
    assert oracle.asymptotic_variance(spec, 0, f) == pytest.approx(
        oracle.local_variance(spec.bundles[0], f), abs=1e-14
    )


def test_asymptotic_variance_nonnegative_quadratic_form():
    spec = toy_spec(k_max=2)
    rng = np.random.default_rng(6)
    k = 2
    size = spec.spaces[k].size
    fns = [TestFunction(spec.spaces[k], rng.standard_normal(size)) for _ in range(6)]
    gram = np.empty((6, 6))
    for i, fi in enumerate(fns):
        for j, fj in enumerate(fns):
            gram[i, j] = oracle.asymptotic_cross_covariance(spec, k, k, fi, fj)
    eig = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    assert eig.min() >= -1e-8


def test_cross_covariance_consistency():
    spec = toy_spec(k_max=2)
    rng = np.random.default_rng(7)
    for k in range(3):
        f = TestFunction(spec.spaces[k], rng.standard_normal(spec.spaces[k].size))
        assert oracle.asymptotic_cross_covariance(spec, k, k, f, f) == pytest.approx(
            oracle.asymptotic_variance(spec, k, f), abs=1e-12
        )
    f0 = TestFunction(spec.spaces[0], rng.standard_normal(2))
    const = TestFunction(spec.spaces[1], np.full(spec.spaces[1].size, 5.0))
    assert oracle.asymptotic_cross_covariance(spec, 1, 0, const, f0) == pytest.approx(0.0, abs=1e-12)


def test_rank_one_spec_reduces_to_static_variances():
    spec = toy_spec(k_max=2, kernel_type="rank_one")
    for k in range(3):
        f = TestFunction(spec.spaces[k], (np.arange(spec.spaces[k].size) % 2 == 0).astype(float))
        pi = spec.pis[k].weights
        fb = f.values - pi @ f.values
        assert oracle.local_variance(spec.bundles[k], f) == pytest.approx(
            float(pi @ fb**2), abs=1e-13
        )


# ---------------------------------------------------------------------------
# two-state closed forms
# ---------------------------------------------------------------------------

def test_toy_closed_form_symmetric():
    report = reference.toy_closed_form(0.5, (0.5, 1.0, 2.0))
    for marg in report.marginals:
        assert np.allclose(marg, [0.5, 0.5], atol=1e-15)
    for pm in report.path_measures:
        assert np.allclose(pm, np.full(pm.size, 1.0 / pm.size), atol=1e-14)


def test_toy_closed_form_values():
    report = reference.toy_closed_form(0.2, (1.0, 2.0))
    assert report.marginals[0][0] == pytest.approx(0.2)
    assert report.marginals[1][0] == pytest.approx(0.04 / 0.68)


def test_toy_closed_form_matches_general_machinery():
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = float(rng.uniform(0.1, 0.9))
        betas = np.cumsum(rng.uniform(0.2, 0.8, size=3))
        report = reference.toy_closed_form(p, betas)
        model = fk.toy_model(p, betas)
        for l in range(len(betas)):
            pi = fk.exact_path_measure(model, l)
            assert np.abs(pi.weights - report.path_measures[l]).max() < 1e-12
            term = np.arange(pi.space.size) % 2
            assert pi.weights[term == 0].sum() == pytest.approx(report.marginals[l][0], abs=1e-12)
        for l in range(len(betas) - 1):
            D = fk.first_order_D(model, l, fk.exact_path_measure(model, l))
            assert np.abs(operator_matrix(D) - report.d_ops[l]).max() < 1e-12
            S = reference.transport_kernel(
                fk.exact_path_measure(model, l), reference.path_potential(model, l)
            )
            assert np.abs(S.matrix - report.transports[l]).max() < 1e-12


# ---------------------------------------------------------------------------
# stacked product model
# ---------------------------------------------------------------------------

def test_product_model_base_case():
    spec = toy_spec(k_max=1)
    pm = reference.product_model(spec, 0)
    # with nothing below, the joint first-order operator is the level-0
    # limit measure on the first output coordinate times D_1
    D = dense_first_order_D(spec.model, 0, spec.pis[0])
    expect = np.einsum("a,rb->rab", spec.pis[0].weights, D)
    assert np.allclose(pm.d_op, expect.reshape(pm.d_op.shape), atol=1e-14)


def test_product_limit_invariant():
    for spec in (toy_spec(k_max=3), annealing_spec(k_max=3)):
        pm = reference.product_model(spec, 2)
        out = reference.act_measure(pm.limit, pm.kernel)
        assert reference.tv_distance(out, pm.limit) < 1e-10


def test_product_remainder_quadratic():
    for spec in (toy_spec(k_max=3), annealing_spec(k_max=3)):
        pm = reference.product_model(spec, 2)
        rng = np.random.default_rng(9)
        hits, trials = 0, 20
        for _ in range(trials):
            mu = random_probability(rng, pm.space)
            ratios = reference.remainder_ratios(
                lambda v: reference.product_map(spec, 2, v), pm.limit, mu, pm.d_op
            )
            if all(3.5 <= r <= 4.5 for r in ratios):
                hits += 1
        assert hits >= 0.9 * trials


def test_product_model_needs_headroom():
    spec = toy_spec(k_max=2)
    with pytest.raises(ValueError):
        reference.product_model(spec, 2)
