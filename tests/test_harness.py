import math
import os
import signal
import time
from dataclasses import astuple

import numpy as np
import pytest

from imcmc import engine, fk, harness, oracle
from imcmc.measures import TestFunction
from helpers import assert_no_child_left
from reference import weight_overlap_check


# ---------------------------------------------------------------------------
# weight arrays
# ---------------------------------------------------------------------------

def test_s_weights_order_one_is_ones():
    assert np.array_equal(harness.s_weights(1, 10), np.ones(11))


def test_s_weights_hand_values():
    # order 2, horizon 2: tail harmonic sums (11/6, 5/6, 1/3)
    assert np.allclose(harness.s_weights(2, 2), [11 / 6, 5 / 6, 1 / 3], atol=1e-15)


def test_s_weights_monotone():
    for n in (10, 1000, 10_000):
        for k in range(1, 6):
            v = harness.s_weights(k, n)
            assert (np.diff(v) <= 1e-15).all()
            assert (v >= 0).all()


def test_weight_limit_convergence():
    # (1/n) sum s^(k+1)^2 -> (2k)!/k!^2, improving monotonically on the grid
    targets = {1: 2.0, 2: 6.0, 3: 20.0}
    for k, lim in targets.items():
        errs = [abs(harness.weight_limit_check(k, n) - lim) / lim for n in (10**3, 10**4, 10**5)]
        assert errs[0] > errs[1] > errs[2]
    assert abs(harness.weight_limit_check(1, 10**5) - 2.0) / 2.0 < 0.02
    assert abs(harness.weight_limit_check(2, 10**5) - 6.0) / 6.0 < 0.03


def test_order_one_partial_sum_exact():
    n = 1000
    assert (harness.s_weights(1, n) ** 2).sum() / n == pytest.approx((n + 1) / n)


def test_normalized_first_weight_decays():
    # decay is O(log n / sqrt(n)): slow, but strictly decreasing on the grid
    w0 = []
    for n in (10**2, 10**3, 10**4):
        v = harness.s_weights(2, n)
        w0.append(v[0] / math.sqrt((v**2).sum()))
    assert w0[0] > w0[1] > w0[2]
    assert w0[-1] < 2.0 * math.log(10**4) / math.sqrt(10**4)


def test_weight_limit_table():
    rows = harness.weight_limit_table(3, 10**4)
    assert [r[3] for r in rows] == [2.0, 6.0, 20.0]
    for k_max in (7, 0, -2):
        with pytest.raises(ValueError, match="order must be in 1..6"):
            harness.weight_limit_table(k_max, 100)
    for n in (0, -1):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            harness.weight_limit_table(3, n)


def test_weight_overlap_limits():
    # the off-diagonal analogue of the squared-sum limits
    for a, b, lim in ((2, 1, 1.0), (3, 1, 1.0), (3, 2, 3.0), (4, 3, 10.0)):
        val = weight_overlap_check(a, b, 10**5)
        assert abs(val - lim) / lim < 0.01, (a, b, val)
    # strictly below the Cauchy-Schwarz product of the diagonal limits
    n = 10**4
    overlap = weight_overlap_check(3, 2, n)
    diag = math.sqrt(harness.weight_limit_check(2, n) * harness.weight_limit_check(1, n))
    assert overlap < diag


# ---------------------------------------------------------------------------
# replicated sampling
# ---------------------------------------------------------------------------

def toy_setup(levels=1, iterations=2000, seed=5):
    model = fk.toy_model(0.25, (0.5, 1.0, 1.5, 2.0))
    cfg = engine.EngineConfig(model=model, levels=levels, iterations=iterations, seed=seed)
    spec = oracle.build_clt_spec(model, levels)
    functions = [
        [("fterm", TestFunction(spec.spaces[k], (np.arange(spec.spaces[k].size) % 2 == 0).astype(float)))]
        for k in range(levels + 1)
    ]
    return cfg, spec, functions


def test_run_replicates_deterministic(monkeypatch):
    # four usable CPUs, so workers=3 runs three processes on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    cfg, spec, functions = toy_setup()
    runs = {}
    # R=300 runs as 150 + 150 serially and on two processes, 100 * 3 on three
    for R in (7, 300):
        for workers in (1, 2, 3):
            runs[R, workers] = harness.run_replicates(
                cfg, R, functions, [1000, 2000], spec.pis, workers=workers
            )
            assert_no_child_left()
    first = runs[7, 1]
    assert first.values.shape == (7, len(first.columns))
    for (R, workers), samples in runs.items():
        assert samples.columns == first.columns
        assert samples.replicates == tuple(range(R))
        assert np.array_equal(samples.values, runs[R, 1].values), (R, workers)
        # a replicate's row does not depend on R or on its chunk
        assert np.array_equal(samples.values[:7], first.values), (R, workers)


def test_run_replicates_one_cpu_starts_no_process(monkeypatch):
    cfg, spec, functions = toy_setup(iterations=200)
    serial = harness.run_replicates(cfg, 8, functions, [200], spec.pis, workers=1)

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    samples = harness.run_replicates(cfg, 8, functions, [200], spec.pis, workers=4)
    assert np.array_equal(samples.values, serial.values)
    assert_no_child_left()


def test_run_replicates_failed_worker_ends_the_run_at_once(monkeypatch, capfd):
    cfg, spec, functions = toy_setup(iterations=10)
    parent, run_batch = os.getpid(), harness.run_batch

    def first_stalls_second_fails(config, replicates, **kwargs):
        if os.getpid() != parent:
            if replicates[0] == 0:
                time.sleep(30)
            raise RuntimeError("second worker failed")
        return run_batch(config, replicates, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harness, "run_batch", first_stalls_second_fails)
    start = time.monotonic()
    # two chunks, 0..1 on the first worker and 2..3 on the second
    with pytest.raises(ChildProcessError, match="exited with code 1"):
        harness.run_replicates(cfg, 4, functions, [10], spec.pis, workers=2)
    assert time.monotonic() - start < 15  # the stalled worker was killed
    assert "RuntimeError: second worker failed" in capfd.readouterr().err
    assert_no_child_left()


def test_run_replicates_interrupted_wait_kills_and_reaps_workers(monkeypatch):
    cfg, spec, functions = toy_setup(iterations=10)
    parent, run_batch = os.getpid(), harness.run_batch

    def stall_in_child(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(30)
        return run_batch(*args, **kwargs)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harness, "run_batch", stall_in_child)
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        # forked children do not inherit the timer
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            harness.run_replicates(cfg, 4, functions, [10], spec.pis, workers=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 15  # the stalled workers were killed
    assert_no_child_left()


def test_run_replicates_chunks_by_memory(monkeypatch):
    cfg, spec, functions = toy_setup(iterations=300)
    free = harness.run_replicates(cfg, 7, functions, [100, 300], spec.pis, workers=1)
    sizes, run_batch = [], harness.run_batch

    def recorded(config, replicates, **kwargs):
        sizes.append(len(replicates))
        return run_batch(config, replicates, **kwargs)

    # a budget of exactly one replicate's chunk: the slice's share, level
    # 0's history, the replicate's block buffers and its counts at the
    # run's two checkpoints
    need = sum(engine.replicate_bytes(cfg, 2))
    monkeypatch.setattr(harness, "_memory_limit", lambda: math.ceil(need / harness.MEMORY_FRACTION))
    monkeypatch.setattr(harness, "run_batch", recorded)
    budgeted = harness.run_replicates(cfg, 7, functions, [100, 300], spec.pis, workers=1)
    assert sizes == [1] * 7
    assert np.array_equal(budgeted.values, free.values)


def test_chunks_are_balanced():
    # one 256-replicate chunk and one of 144 set a single worker's peak,
    # and 256 + 256 + 88 left one of two workers 344 replicates
    sizes = {
        (R, workers): [len(c) for c in harness._chunks(R, workers, harness.DEFAULT_CHUNK)]
        for R, workers in ((400, 1), (600, 2), (256, 1), (7, 3), (2, 4))
    }
    assert sizes == {
        (400, 1): [200, 200],
        (600, 2): [150] * 4,
        (256, 1): [256],
        (7, 3): [2, 2, 3],
        (2, 4): [1, 1],
    }
    assert [len(c) for c in harness._chunks(7, 1, 3)] == [2, 2, 3]
    assert list(harness._chunks(600, 2, 256)[1]) == list(range(150, 300))


def test_memory_limit_reads_cgroup_v1_where_v2_is_absent(tmp_path, monkeypatch):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    unified, memory, cgroup = tmp_path / "unified", tmp_path / "memory", tmp_path / "cgroup"
    monkeypatch.setattr(harness, "_CGROUP_MEMORY_LIMITS", (
        ("", str(unified), "memory.max"),
        ("memory", str(memory), "memory.limit_in_bytes"),
    ))
    monkeypatch.setattr(harness, "_PROC_CGROUP", str(cgroup))  # absent: the roots alone
    v2, v1 = unified / "memory.max", memory / "memory.limit_in_bytes"
    unified.mkdir()
    memory.mkdir()
    assert harness._memory_limit() == physical  # neither file
    v1.write_text("1048576\n")
    assert harness._memory_limit() == 1 << 20
    v1.write_text("9223372036854771712\n")  # v1's "no limit"
    assert harness._memory_limit() == physical
    v1.write_text("1048576\n")
    v2.write_text("max\n")  # v2 present: v1 is not read
    assert harness._memory_limit() == physical
    v2.write_text("2097152\n")
    assert harness._memory_limit() == 2 << 20

    # a process in a nested cgroup: the lowest numeric limit on its path
    # and its ancestors, never a sibling's
    cgroup.write_text("9:name=systemd:/\n4:memory:/jobs/a\n1:cpu:/\n0::/jobs/a\n")
    for tree, name in ((unified, "memory.max"), (memory, "memory.limit_in_bytes")):
        for path in ("jobs/a", "jobs/b"):
            (tree / path).mkdir(parents=True)
        (tree / "jobs" / "b" / name).write_text("4096\n")
    v2.write_text("max\n")
    (unified / "jobs" / "memory.max").write_text("3145728\n")
    (unified / "jobs" / "a" / "memory.max").write_text("max\n")
    assert harness._memory_limit() == 3 << 20
    (unified / "jobs" / "a" / "memory.max").write_text("1048576\n")
    assert harness._memory_limit() == 1 << 20
    for path in (v2, unified / "jobs" / "memory.max", unified / "jobs" / "a" / "memory.max"):
        path.unlink()  # no v2 file on the path: v1's
    v1.write_text("9223372036854771712\n")
    (memory / "jobs" / "a" / "memory.limit_in_bytes").write_text("5242880\n")
    assert harness._memory_limit() == 5 << 20
    # a path the mount does not show, as in a container without its own
    # cgroup namespace, leaves the mount's own file
    cgroup.write_text("4:memory:/host/job\n")
    v1.write_text("6291456\n")
    assert harness._memory_limit() == 6 << 20


def test_run_replicates_rejects_zero_workers():
    cfg, spec, functions = toy_setup(iterations=10)
    with pytest.raises(ValueError, match="worker"):
        harness.run_replicates(cfg, 4, functions, [10], spec.pis, workers=0)


def test_run_replicates_centering():
    cfg, spec, functions = toy_setup(iterations=4000)
    samples = harness.run_replicates(cfg, 64, functions, [4000], spec.pis)
    for i in range(samples.values.shape[1]):
        col = samples.values[:, i]
        assert abs(col.mean()) <= 4.0 * col.std(ddof=1) / math.sqrt(col.size)


def test_variance_of_variance_scales():
    # sample variances over R and 2R replicates: the estimator variance halves
    rng = np.random.default_rng(0)
    draws = rng.standard_normal((4000, 40))
    v_small = draws[:, :20].reshape(4000, 20).var(axis=1, ddof=1)
    v_big = draws.var(axis=1, ddof=1)
    ratio = v_small.var() / v_big.var()
    assert 1.6 <= ratio <= 2.5


# ---------------------------------------------------------------------------
# empirical summaries
# ---------------------------------------------------------------------------

def test_normality_stats_match_scipy():
    from scipy import stats

    rng = np.random.default_rng(21)
    for z in (rng.standard_normal(3), rng.standard_normal(400), rng.exponential(size=57)):
        z = (z - z.mean()) / z.std(ddof=1)
        skew, exkurt, ks = harness.normality_stats(z)
        assert skew == pytest.approx(float(stats.skew(z)), abs=1e-12)
        assert exkurt == pytest.approx(float(stats.kurtosis(z)), abs=1e-12)
        assert ks == pytest.approx(float(stats.kstest(z, "norm").statistic), abs=1e-12)


def synthetic_samples(rng, R, cols, cov=None):
    dim = len(cols)
    cov = np.eye(dim) if cov is None else cov
    vals = rng.multivariate_normal(np.zeros(dim), cov, size=R)
    return harness.FluctuationSamples(columns=tuple(cols), values=vals, replicates=tuple(range(R)))


def test_empirical_fluctuations_self_test():
    cols = [harness.SampleColumn(0, "f", 10_000)]
    v = 1.7
    misses = 0
    trials = 200
    for t in range(trials):
        rng = np.random.default_rng(1000 + t)
        samples = synthetic_samples(rng, 200, cols, cov=np.array([[v]]))
        report = harness.empirical_fluctuations(samples, {cols[0]: v}, c_bias=0.0)
        if not report.variance_rows[0].passed:
            misses += 1
    # 3 sigma band: ~99.7% coverage, allow a little slack over 200 trials
    assert misses <= 4


def test_empirical_fluctuations_degenerate():
    cols = [harness.SampleColumn(0, "f", 100)]
    samples = harness.FluctuationSamples(
        columns=tuple(cols), values=np.ones((50, 1)), replicates=tuple(range(50))
    )
    report = harness.empirical_fluctuations(samples, {cols[0]: 1.0})
    assert report.variance_rows[0].degenerate
    assert not report.variance_rows[0].passed


def test_empirical_cross_covariance_independent_columns():
    cols = [harness.SampleColumn(0, "f", 100), harness.SampleColumn(1, "g", 100)]
    rng = np.random.default_rng(3)
    samples = synthetic_samples(rng, 400, cols)
    report = harness.empirical_fluctuations(
        samples,
        {cols[0]: 1.0, cols[1]: 1.0},
        theory_cross={(cols[0], cols[1]): 0.0},
        c_bias=0.0,
    )
    row = report.covariance_rows[0]
    assert abs(row.cov_empirical) <= 3.0 * row.se


def test_report_round_trip(tmp_path):
    # a theory-free column at the earlier checkpoint (NaN theory, SE and
    # z) and a cross pair at the horizon, read back in one call
    cols = [
        harness.SampleColumn(0, "f", 100),
        harness.SampleColumn(0, "f", 500),
        harness.SampleColumn(1, "g", 500),
    ]
    rng = np.random.default_rng(4)
    samples = synthetic_samples(rng, 64, cols, cov=np.array([[1, 0.5, 0.3], [0.5, 1, 0.4], [0.3, 0.4, 1]]))
    theory = {c: 1.0 for c in cols[1:]}
    report = harness.empirical_fluctuations(samples, theory, theory_cross={tuple(cols[1:]): 0.4})
    assert math.isnan(report.variance_rows[0].var_theory) and len(report.covariance_rows) == 1
    report.write(tmp_path, {"config_sha256": "deadbeef"})
    back = harness.FluctuationReport.read(tmp_path)
    assert (back.replicates, back.horizon) == (64, 500)
    # every field round-trips in its type, floats exactly at 17 significant
    # digits; NaN equals NaN
    same = lambda a, b: all(
        type(x) is type(y) and (x == y or x != x and y != y) for x, y in zip(astuple(a), astuple(b))
    )
    assert len(back.variance_rows) == 3 and len(back.covariance_rows) == 1
    for got, want in [*zip(back.variance_rows, report.variance_rows),
                      *zip(back.covariance_rows, report.covariance_rows)]:
        assert type(got) is type(want) and same(got, want), (got, want)


# ---------------------------------------------------------------------------
# full verification pipeline (small scale; the acceptance suite runs it big)
# ---------------------------------------------------------------------------

def test_verify_theorem_small():
    cfg, spec, functions = toy_setup(levels=1, iterations=4000, seed=11)
    report, _ = harness.verify_theorem(cfg, 120, functions)
    assert report.passed
    levels = {r.level for r in report.variance_rows if r.n == 4000}
    assert levels == {0, 1}
    assert report.covariance_rows  # the (1,0) pair at the gate checkpoint


def test_verify_theorem_injection_fails():
    cfg, spec, functions = toy_setup(levels=1, iterations=4000, seed=11)
    report, _ = harness.verify_theorem(cfg, 120, functions, inject_variance_error=True)
    assert not report.passed


def test_verify_theorem_annealing_cross():
    # three levels of the four-state annealing model: all three cross
    # pairs carry nonzero theory and must match the replicated runs
    from imcmc import annealing as ann
    from imcmc.measures import FiniteSpace

    sp = FiniteSpace("S", 4)
    model = ann.make_metropolis_model(
        sp, np.array([0.0, 1.0, 2.0, 3.0]), (0.3, 0.6, 0.9, 1.2), 0.3
    )
    cfg = engine.EngineConfig(model=model, levels=2, iterations=8000, seed=33)
    f = TestFunction(sp, [1.0, 0.0, 0.0, 0.0])
    functions = [[("ground", f)] for _ in range(3)]
    spec = oracle.build_clt_spec(model, 2)
    assert all(
        abs(oracle.asymptotic_cross_covariance(spec, a, b, f, f)) > 1e-3
        for a in range(3) for b in range(a)
    )
    report, _ = harness.verify_theorem(cfg, 200, functions)
    assert len(report.covariance_rows) == 3
    assert report.passed


def test_verify_cross_covariance_nontrivial():
    # a path-dependent function makes the (1,0) covariance genuinely nonzero
    model = fk.toy_model(0.3, (0.6, 1.1, 1.7))
    cfg = engine.EngineConfig(model=model, levels=1, iterations=5000, seed=21)
    spec = oracle.build_clt_spec(model, 1)
    f0 = TestFunction(spec.spaces[0], [1.0, 0.0])
    f1 = TestFunction(spec.spaces[1], [1.0, 0.3, -0.2, 0.0])
    functions = [[("f0", f0)], [("f1", f1)]]
    theory = oracle.asymptotic_cross_covariance(spec, 1, 0, f1, f0)
    assert abs(theory) > 1e-3  # the pair is a real check, not 0 == 0
    report, _ = harness.verify_theorem(cfg, 300, functions)
    cross = [r for r in report.covariance_rows if {r.level_a, r.level_b} == {0, 1}]
    assert cross and cross[0].passed
