"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion; each test also prints its measured numbers.
"""

import time
from pathlib import Path

import numpy as np

from imcmc import annealing as ann
from imcmc import cli, engine, fk, harness, oracle
from imcmc.measures import (
    FiniteSpace,
    IntegralOperator,
    Measure,
    TestFunction,
)
import reference
from helpers import random_probability, resolvent_matrix, series_matrix

TOY_BETAS = (0.5, 1.0, 1.5, 2.0)
ANN_BETAS = (0.3, 0.6, 0.9, 1.2)
ANN_V = np.array([0.0, 1.0, 2.0, 3.0])


def annealing_model(eps):
    return ann.make_metropolis_model(FiniteSpace("S", 4), ANN_V, ANN_BETAS, eps)


def chain2_model():
    sp = FiniteSpace("chain2", 2)
    M = IntegralOperator(sp, sp, np.array([[0.9, 0.1], [0.2, 0.8]]))
    return fk.FKModel(
        base_spaces=(sp,),
        initial=Measure(sp, [2 / 3, 1 / 3]),
        transitions=(),
        potentials=(),
        level0_kernel=M,
    )


def terminal_indicators(spec):
    return [
        [(
            "fterm",
            TestFunction(
                spec.spaces[k], (np.arange(spec.spaces[k].size) % 2 == 0).astype(float)
            ),
        )]
        for k in range(spec.level + 1)
    ]


def with_first_coordinate(spec, functions):
    """Add the first-coordinate indicator beside each level's functions from level 1 on.

    The terminal indicator's interaction terms vanish on the toy model;
    this function's do not, so its rows test the first-order operators D.
    """
    for k in range(1, spec.level + 1):
        size = spec.spaces[k].size
        functions[k].append(("first", TestFunction(spec.spaces[k], np.arange(size) < size // 2)))
    return functions


def report_line(num, detail):
    print(f"[criterion {num}] PASS: {detail}")


def test_criterion_1_oracle_algebra_suite():
    start = time.time()
    specs = [oracle.build_clt_spec(fk.toy_model(p, TOY_BETAS), 3) for p in (0.2, 0.5, 0.8)]
    specs += [oracle.build_clt_spec(annealing_model(eps), 3) for eps in (0.0, 0.3, 0.7)]
    worst = {"poisson": 0.0, "series": 0.0, "invariance": 0.0}
    for spec in specs:
        for b in spec.bundles:
            dense = b.kernel.to_operator().matrix
            inv = np.abs(b.invariant.weights @ dense - b.invariant.weights).sum()
            series = float(np.abs(series_matrix(b) - resolvent_matrix(b)).max())
            assert b.poisson_resid <= 1e-10
            assert series <= 1e-8
            assert inv <= 1e-12
            assert b.norm <= b.p_n0 + 1e-9
            worst["poisson"] = max(worst["poisson"], b.poisson_resid)
            worst["series"] = max(worst["series"], series)
            worst["invariance"] = max(worst["invariance"], inv)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report_line(1, f"24 kernel bundles certified, worst residuals {worst}, {elapsed:.2f}s")


def test_criterion_2_fixed_point_chains():
    start = time.time()
    worst_fp = 0.0
    for p in (0.2, 0.5, 0.8):
        model = fk.toy_model(p, TOY_BETAS)
        closed = reference.toy_closed_form(p, TOY_BETAS)
        for l in range(model.levels):
            step = fk.fk_map(model, l, fk.exact_path_measure(model, l))
            worst_fp = max(worst_fp, reference.tv_distance(step, fk.exact_path_measure(model, l + 1)))
        for l in range(model.levels + 1):
            pi = fk.exact_path_measure(model, l)
            term = np.arange(pi.space.size) % 2
            marg = pi.weights[term == 0].sum()
            assert abs(marg - closed.marginals[l][0]) <= 1e-12
            assert np.abs(pi.weights - closed.path_measures[l]).max() <= 1e-12
    for eps in (0.0, 0.3, 0.7):
        model = annealing_model(eps)
        for l in range(model.levels):
            step = reference.annealing_map(model, l, ann.gibbs_measure(model, l))
            worst_fp = max(worst_fp, reference.tv_distance(step, ann.gibbs_measure(model, l + 1)))
    assert worst_fp <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0
    report_line(2, f"fixed-point TV error {worst_fp:.2e}, closed-form marginals to 1e-12, {elapsed:.2f}s")


def test_criterion_3_first_order_regularity():
    start = time.time()
    rng = np.random.default_rng(20240803)
    results = {}

    model = fk.toy_model(0.25, TOY_BETAS)
    hits = 0
    for _ in range(200):
        l = int(rng.integers(0, model.levels))
        sp = fk.path_space(model, l).space
        eta, mu = random_probability(rng, sp), random_probability(rng, sp)
        D = fk.first_order_D(model, l, eta)
        ratios = reference.remainder_ratios(lambda v: fk.fk_map(model, l, v), eta, mu, D)
        hits += all(3.5 <= r <= 4.5 for r in ratios)
    results["fk"] = hits / 200

    amodel = annealing_model(0.3)
    bundles = oracle.build_clt_spec(amodel, amodel.levels).bundles
    hits = 0
    for _ in range(200):
        l = int(rng.integers(0, amodel.levels))
        eta = random_probability(rng, amodel.space)
        mu = random_probability(rng, amodel.space)
        D = ann.first_order_D(amodel, l, eta, bundles[l + 1])
        ratios = reference.remainder_ratios(lambda v: reference.annealing_map(amodel, l, v), eta, mu, D)
        hits += all(3.5 <= r <= 4.5 for r in ratios)
    results["annealing"] = hits / 200

    spec = oracle.build_clt_spec(model, 3)
    pm = reference.product_model(spec, 2)
    hits = 0
    for _ in range(200):
        mu = random_probability(rng, pm.space)
        ratios = reference.remainder_ratios(
            lambda v: reference.product_map(spec, 2, v), pm.limit, mu, pm.d_op
        )
        hits += all(3.5 <= r <= 4.5 for r in ratios)
    results["product_l2"] = hits / 200

    elapsed = time.time() - start
    assert all(rate >= 0.95 for rate in results.values()), results
    assert elapsed < 30.0
    report_line(3, f"quadratic-remainder pass rates {results}, {elapsed:.2f}s")


def test_criterion_4_weight_array_limits():
    start = time.time()
    thresholds = {1: 0.02, 2: 0.03, 3: 0.05}
    rels = {}
    for k, cap in thresholds.items():
        errs = [
            abs(harness.weight_limit_check(k, n) - oracle.cross_coefficient(k, k))
            / oracle.cross_coefficient(k, k)
            for n in (10**3, 10**4, 10**5)
        ]
        assert errs[0] > errs[1] > errs[2], (k, errs)
        assert errs[2] < cap, (k, errs[2])
        rels[k] = errs[2]
    elapsed = time.time() - start
    assert elapsed < 5.0
    report_line(4, f"relative errors at n=1e5: {rels}, {elapsed:.2f}s")


def test_criterion_5_single_level_clt():
    start = time.time()
    model = chain2_model()
    cfg = engine.EngineConfig(model=model, levels=0, iterations=10_000, seed=20240805)
    spec = oracle.build_clt_spec(model, 0)
    f = TestFunction(model.base_spaces[0], [1.0, 0.0])
    theory = oracle.asymptotic_variance(spec, 0, f)
    assert abs(theory - 34.0 / 27.0) <= 1e-12
    report, _ = harness.verify_theorem(cfg, 1000, [[("f1", f)]])
    row = [r for r in report.variance_rows if r.n == 10_000][0]
    assert report.passed, row
    elapsed = time.time() - start
    assert elapsed < 120.0
    report_line(
        5,
        f"theory 34/27={theory:.6f}, empirical {row.var_empirical:.6f} "
        f"(z={row.z:+.2f}), {elapsed:.2f}s",
    )


def test_criterion_6_multivariate_clt():
    start = time.time()
    model = fk.toy_model(0.25, TOY_BETAS)
    cfg = engine.EngineConfig(model=model, levels=2, iterations=20_000, seed=20240811)
    spec = oracle.build_clt_spec(model, 2)
    functions = with_first_coordinate(spec, terminal_indicators(spec))
    report, _ = harness.verify_theorem(cfg, 400, functions, workers=4)
    gate = [r for r in report.variance_rows if r.n == 20_000]
    assert {r.level for r in gate} == {0, 1, 2}
    assert sum(r.function == "first" for r in gate) == 2
    for r in gate:
        assert r.passed, r
    cross = [
        r for r in report.covariance_rows
        if {(r.level_a), (r.level_b)} == {0, 1}
    ]
    assert cross and all(r.passed for r in cross), cross
    for r in gate:
        marker = "" if abs(r.skew) <= 0.35 and abs(r.exkurt) <= 0.35 else " [outside +-0.35]"
        print(f"  level {r.level} {r.function}: skew={r.skew:+.3f} exkurt={r.exkurt:+.3f}{marker} (informational)")
    elapsed = time.time() - start
    assert elapsed < 900.0
    report_line(
        6,
        "variance z-scores "
        + ", ".join(f"k={r.level} {r.function}:{r.z:+.2f}" for r in gate)
        + f"; cross (1,0) z={cross[0].z:+.2f}, {elapsed:.1f}s",
    )


def test_criterion_7_rank_one_degenerate_case():
    start = time.time()
    model = fk.toy_model(0.25, TOY_BETAS, kernel_type="rank_one")
    spec = oracle.build_clt_spec(model, 1)
    for k in range(2):
        f = TestFunction(spec.spaces[k], (np.arange(spec.spaces[k].size) % 2 == 0).astype(float))
        pi = spec.pis[k].weights
        fb = f.values - pi @ f.values
        static = float(pi @ fb**2)
        assert abs(oracle.local_variance(spec.bundles[k], f) - static) <= 1e-12
    cfg = engine.EngineConfig(model=model, levels=1, iterations=10_000, seed=20240807)
    functions = with_first_coordinate(spec, terminal_indicators(spec))
    report, _ = harness.verify_theorem(cfg, 400, functions)
    assert report.passed, report.variance_rows
    assert any(r.function == "first" for r in report.variance_rows)
    elapsed = time.time() - start
    assert elapsed < 120.0
    zs = [r.z for r in report.variance_rows if r.n == 10_000]
    report_line(7, f"local variances reduce to static form; empirical z={zs}, {elapsed:.1f}s")


def test_criterion_8_detector_sanity(capsys, tmp_path):
    start = time.time()
    config_path = Path(__file__).resolve().parent.parent / "configs" / "toy_verify.ini"
    code = cli.main(["verify", "--config", str(config_path), "--inject-variance-error",
                     "--out", str(tmp_path / "detector_check"), "--workers", "4"])
    out = capsys.readouterr().out
    assert code == 1, out
    assert "verdict: FAIL" in out
    elapsed = time.time() - start
    report_line(8, f"injected 2x variance rejected with exit code 1, {elapsed:.1f}s")


def test_criterion_9_lln_rate():
    start = time.time()
    model = fk.toy_model(0.25, TOY_BETAS)
    cfg = engine.EngineConfig(model=model, levels=2, iterations=100_000, seed=20240809)
    grid = [1000, 10_000, 100_000]
    res = engine.run_batch(cfg, range(100), checkpoints=grid, keep_history=False)
    slopes = {}
    for k in range(3):
        pi = fk.exact_path_measure(model, k)
        f = (np.arange(pi.space.size) % 2 == 0).astype(float)
        ref = float(pi.weights @ f)
        errs = []
        for n in grid:
            occ = res.checkpoint_counts[n][k] / (n + 1)
            errs.append(float(np.abs(occ @ f - ref).mean()))
        slope = float(np.polyfit(np.log10(grid), np.log10(errs), 1)[0])
        slopes[k] = round(slope, 3)
        assert -0.6 <= slope <= -0.4, (k, slope, errs)
    elapsed = time.time() - start
    assert elapsed < 600.0
    report_line(9, f"log-log error slopes per level {slopes}, {elapsed:.1f}s")
