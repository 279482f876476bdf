import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from imcmc import annealing as ann
from imcmc import engine, fk, oracle
from imcmc.measures import FiniteSpace, IntegralOperator, Measure, TestFunction
from reference import transition_samples


def toy_config(levels=2, iterations=2000, seed=99, **model_kw):
    model = fk.toy_model(0.25, (0.5, 1.0, 1.5, 2.0), **model_kw)
    return engine.EngineConfig(model=model, levels=levels, iterations=iterations, seed=seed)


def annealing_config(levels=2, iterations=2000, seed=99, eps=0.3):
    sp = FiniteSpace("S", 4)
    model = ann.make_metropolis_model(sp, np.array([0.0, 1.0, 2.0, 3.0]), (0.3, 0.6, 0.9, 1.2), eps)
    return engine.EngineConfig(model=model, levels=levels, iterations=iterations, seed=seed)


def chain2_config(iterations=2000, seed=7):
    """Plain two-state chain as a zero-level model with a custom kernel."""
    sp = FiniteSpace("chain2", 2)
    M = IntegralOperator(sp, sp, np.array([[0.9, 0.1], [0.2, 0.8]]))
    model = fk.FKModel(
        base_spaces=(sp,),
        initial=Measure(sp, [2 / 3, 1 / 3]),
        transitions=(),
        potentials=(),
        level0_kernel=M,
    )
    return engine.EngineConfig(model=model, levels=0, iterations=iterations, seed=seed)


# ---------------------------------------------------------------------------
# determinism and stream independence
# ---------------------------------------------------------------------------

def test_determinism_bitwise():
    cfg = toy_config()
    a = engine.run_batch(cfg, [3])
    b = engine.run_batch(cfg, [3])
    for k in range(3):
        assert np.array_equal(a.states[k], b.states[k])


def test_single_run_matches_batch_row():
    cfg = annealing_config()
    batch = engine.run_batch(cfg, [0, 1, 2, 3])
    solo = engine.run_batch(cfg, [2])
    for k in range(3):
        assert np.array_equal(batch.states[k][2], solo.states[k][0])
        assert np.array_equal(batch.final_counts[k][2], solo.final_counts[k][0])


def test_equal_replicate_ids_give_equal_rows():
    cfg = toy_config(iterations=500)
    batch = engine.run_batch(cfg, [5, 5])
    for k in range(3):
        assert np.array_equal(batch.states[k][0], batch.states[k][1])


def test_replicate_streams_uncorrelated():
    cfg = chain2_config(iterations=512)
    R = 64
    batch = engine.run_batch(cfg, range(R))
    x = batch.states[0].astype(float)
    x = x - x.mean(axis=1, keepdims=True)
    rhos = []
    for r in range(0, R, 2):
        a, b = x[r], x[r + 1]
        rhos.append(float(a @ b / math.sqrt((a @ a) * (b @ b))))
    mean_rho = float(np.mean(rhos))
    # each correlation is ~N(0, 1/T); the mean over R/2 pairs tightens it
    assert abs(mean_rho) < 4.0 / math.sqrt(512 * R / 2)


def test_different_seeds_differ():
    a = engine.run_batch(toy_config(seed=1), [0])
    b = engine.run_batch(toy_config(seed=2), [0])
    assert any(not np.array_equal(a.states[k], b.states[k]) for k in range(3))


def test_level0_stream_layout_contract():
    # a zero-level run is a plain chain; reproduce it by hand from the
    # documented stream layout: one init uniform, then three per sweep
    cfg = chain2_config(iterations=100, seed=5)
    res = engine.run_batch(cfg, [7])
    g = engine.stream(5, 7, 0)
    nu_cdf = np.array([0.5, 1.0])  # default uniform initial distribution
    m_cdf = np.array([[0.9, 1.0], [0.2, 1.0]])
    x = min(int((nu_cdf < g.random()).sum()), 1)
    states = [x]
    for _ in range(100):
        u = g.random(3)  # only the first uniform drives a level-0 move
        x = min(int((m_cdf[x] < u[0]).sum()), 1)
        states.append(x)
    assert np.array_equal(res.states[0][0], np.array(states))


MASK64 = 2**64 - 1


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, MASK64, -1])
def test_stream_keys_match_seed_sequence(seed):
    # one call mixes replicate ids of one and of two uint32 words
    replicates = [0, 1, 2**32 - 1, 2**32]
    for level in range(5):
        keys = engine._stream_keys(seed, replicates, level)
        for r, key in zip(replicates, keys):
            ss = np.random.SeedSequence(entropy=seed & MASK64, spawn_key=(r, level))
            assert np.array_equal(key, ss.generate_state(2, np.uint64)), (r, level)


def test_stream_draws_match_seed_sequence_philox():
    for seed, r, level in [(5, 7, 0), (-1, 2**32, 3), (MASK64, 2**32 - 1, 4)]:
        ss = np.random.SeedSequence(entropy=seed & MASK64, spawn_key=(r, level))
        ref = np.random.Generator(np.random.Philox(ss))
        assert np.array_equal(engine.stream(seed, r, level).random(9), ref.random(9))
    with pytest.raises(ValueError):
        engine.stream(0, -1, 0)


def _batch_digest(res):
    """SHA-256 of states, final counts and checkpoint counts, as int64."""
    h = hashlib.sha256()
    parts = list(res.states) + list(res.final_counts)
    for n in sorted(res.checkpoint_counts):
        parts += list(res.checkpoint_counts[n])
    for a in parts:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


#: Digests of stream layout version 1; a layout change bumps both together.
BATCH_DIGESTS = {
    "fk_mh": "50b55e8446ea39c13cff87f9dd88ab5bc42a672f47744b49431163a5c70e4228",
    "fk_mh_16": "a2f54c526c5dd848be203059ad0dc82e21e2569f9bea56314f53ed019608acf6",
    "fk_mh_17": "720a803d0d673c7334031091683b398803e64c900e4d729008f5cf87106a5aeb",
    "fk_mh_256": "31efb2ba5e50b69818536f955094cf06e8fc0106c79fc089960fdd901fddbf53",
    "fk_mh_257": "5b900e5a19fd901a34c72959019fe84f54569b42df8f91f944840c937fd02b53",
    "fk_rank_one": "ee0df7e6fabe51e18dc94c746b1d2d679af4104f49a3c45e513ab11b322bab1e",
    "annealing": "9a3dec68d37e8cdd16f4d09afd0bae528219f4a4ac3c7893630c49c8c91bf736",
    "fk_heterogeneous": "0c37cb850af4d26b8134f447a1389cb3639a6bff58e4888f073dad181ff8c707",
    "annealing_wide": "73557bbb8744cc9547f06386d88935a83347492eb00bdc9f1916f940884f8a79",
    "annealing_512": "0ff074b1a190363c4f5ebcfa9b183069480c88465488c7e4edc33df8eb264542",
    "fk_wide_mh": "a7597e3c9ff333a8f9b4f17e47f598d9e9d0c05f40ac5e7c45eb0fcc410545dc",
    "fk_wide_rank_one": "213c8daa2386bc06498e3ddf973cf83060606203fd740f9fa5f2ff4d65965611",
}


#: MH models whose level 1 reads a history of 16 or 17 states (the last
#: alphabet that fits in 4 bits, and the first that does not) or of 256 or
#: 257 (the last that fits in one byte, and the first that does not)
_MH_BASES = {
    "fk_mh_16": (16, 2, 2),
    "fk_mh_17": (17, 2, 2),
    "fk_mh_256": (256, 2),
    "fk_mh_257": (257, 2),
}


def _digest_config(name):
    """The models of :data:`BATCH_DIGESTS`; the wide ones have alphabets above 8."""
    from helpers import random_fk_model

    if name.startswith("fk_wide"):
        model = random_fk_model((3, 10, 9), seed=8)
        if name.endswith("rank_one"):
            model = dataclasses.replace(model, kernel_type="rank_one")
        return engine.EngineConfig(model=model, levels=2, iterations=2100, seed=11)
    if name in _MH_BASES:
        model = random_fk_model(_MH_BASES[name], seed=8)
        return engine.EngineConfig(
            model=model, levels=len(_MH_BASES[name]) - 1, iterations=2100, seed=11
        )
    if name == "annealing_wide":
        model = ann.make_metropolis_model(
            FiniteSpace("S", 12), np.linspace(0.0, 3.0, 12), (0.3, 0.6, 0.9), 0.3
        )
        return engine.EngineConfig(model=model, levels=2, iterations=2100, seed=11)
    if name == "annealing_512":
        # 512 states at 4 replicates: each counts slice holds at most 16 steps
        # of 2048 (state, replicate) rows, so it takes the per-step add
        S = 512
        model = ann.make_metropolis_model(
            FiniteSpace("S", S), 1.0 - np.cos(2 * np.pi * np.arange(S) / S), (0.3, 0.6, 0.9), 0.3
        )
        return engine.EngineConfig(model=model, levels=2, iterations=2100, seed=11)
    if name == "fk_heterogeneous":
        return engine.EngineConfig(
            model=random_fk_model((2, 3, 2), seed=8), levels=2, iterations=2100, seed=11
        )
    if name == "annealing":
        return annealing_config(iterations=2100, seed=11, eps=0.3)
    kernel_type = "rank_one" if name == "fk_rank_one" else "mh"
    return toy_config(iterations=2100, seed=11, kernel_type=kernel_type)


@pytest.mark.parametrize("name", sorted(BATCH_DIGESTS))
def test_run_batch_digest(name, monkeypatch):
    cfg = _digest_config(name)
    assert engine.STREAM_LAYOUT_VERSION == 1
    replicates, checkpoints = (0, 1, 7, 300), (0, 7, 1000, 2100)
    for block in (2048, 7):
        # at 4 replicates a block is MAX_BLOCK steps
        with monkeypatch.context() as m:
            m.setattr(engine, "MAX_BLOCK", block)
            res = engine.run_batch(cfg, replicates, checkpoints=checkpoints)
        assert _batch_digest(res) == BATCH_DIGESTS[name], block
    lean = engine.run_batch(cfg, replicates, checkpoints=checkpoints, keep_history=False)
    assert lean.states is None
    for k in range(cfg.levels + 1):
        assert np.array_equal(lean.final_counts[k], res.final_counts[k])
        for n in checkpoints:
            assert np.array_equal(lean.checkpoint_counts[n][k], res.checkpoint_counts[n][k])


# ---------------------------------------------------------------------------
# occupation bookkeeping
# ---------------------------------------------------------------------------

def test_occupation_counts_sum():
    cfg = toy_config(iterations=333)
    res = engine.run_batch(cfg, range(4), checkpoints=[100, 333])
    for k in range(3):
        assert (res.final_counts[k].sum(axis=1) == 334).all()
        assert (res.checkpoint_counts[100][k].sum(axis=1) == 101).all()


def test_occupation_matches_recount():
    cfg = annealing_config(iterations=400)
    res = engine.run_batch(cfg, [1], checkpoints=[0, 150, 400])
    for k in range(3):
        states = res.states[k][0]
        for n in (150, 400):
            recount = np.bincount(states[: n + 1], minlength=4)
            assert np.array_equal(res.checkpoint_counts[n][k][0], recount)
        assert np.array_equal(res.final_counts[k][0], np.bincount(states, minlength=4))
        assert np.array_equal(res.checkpoint_counts[0][k][0], np.eye(4)[states[0]])
    with pytest.raises(ValueError):
        engine.run_batch(cfg, [1], checkpoints=[401])


@pytest.mark.parametrize(
    "size, bits", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (16, 4), (17, 8), (256, 8), (257, 16)]
)
def test_history_packs_blocks_at_any_offset(size, bits):
    rng = np.random.default_rng(size)
    states = rng.integers(0, size, (3, 50))
    hist = engine._History(3, 50, size)
    assert hist.bits == bits and hist.words.nbytes == 3 * math.ceil(50 * bits / 8)
    # blocks of 1, 7 and 13 steps start inside a word as often as at its start
    for lo, hi in ((0, 1), (1, 8), (8, 21), (21, 34), (34, 47), (47, 50)):
        hist.put(lo, states[:, lo:hi])
    unpacked = hist.unpack()
    assert unpacked.dtype == engine._history_dtype(size)
    assert np.array_equal(unpacked, states)
    t = rng.integers(0, 50, (3, 20))
    assert np.array_equal(hist.take(t), np.take_along_axis(states, t, axis=1))


def _lean_peak(cfg, replicates, checkpoints=()):
    """tracemalloc peak of a lean run of `cfg`, whose counts it checks."""
    import tracemalloc

    engine.run_batch(cfg, range(2), keep_history=False)  # enumerates the path spaces
    tracemalloc.start()
    try:
        res = engine.run_batch(cfg, range(replicates), checkpoints=checkpoints, keep_history=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for k in range(cfg.levels + 1):
        assert (res.final_counts[k].sum(axis=1) == cfg.iterations + 1).all()
    return peak


def _config_of(kind, iterations):
    """Toy config with a `kind` kernel, the annealing config, or the model
    of the digest `kind`."""
    if kind in BATCH_DIGESTS:
        return dataclasses.replace(_digest_config(kind), iterations=iterations)
    if kind == "annealing":
        return annealing_config(iterations=iterations)
    return toy_config(iterations=iterations, kernel_type=kind)


@functools.cache
def _peak_of(kind="mh", iterations=3000, replicates=256, checkpoints=0):
    """tracemalloc peak of a lean run of :func:`_config_of`, snapshotting
    the counts at `checkpoints` evenly spaced times."""
    grid = [iterations * (i + 1) // checkpoints for i in range(checkpoints)]
    return _lean_peak(_config_of(kind, iterations), replicates, grid)


def test_run_batch_memory_bounded_by_cells():
    # 512-step blocks of 256 replicates (3 MiB of uniforms), one reused
    # state buffer per level in its history dtype, and slices of 2^15
    # cells that copy only the uniform planes their rule reads: peak
    # 5.86 MiB.  2^16-cell slices, int64 state buffers or 2048-step blocks
    # each took the peak past 12 MiB
    peak = _peak_of()
    assert peak < 9 * 2**20, peak / 2**20


def test_run_batch_state_buffers_in_history_dtype():
    # one one-byte state buffer per level, and level 0 copying one uniform
    # plane of its three, peaked near 12.7 MiB at 2^16 cells; two int64
    # state buffers that the levels take in turn, and all three planes,
    # near 16.1 MiB
    peak = _peak_of()
    assert peak < 14 * 2**20, peak / 2**20


def test_run_batch_slices_of_2_15_cells():
    # 512-step blocks of 256 replicates, 3 MiB of uniforms, peak near
    # 5.9 MiB; slices of 2^16 cells and 1024-step blocks near 12.7 MiB
    peak = _peak_of()
    assert peak < 9 * 2**20, peak / 2**20


def test_run_batch_packs_histories():
    # 256 toy replicates at n = 30,000 keep 2.9 MiB of histories, levels 0
    # and 1 at 1 and 2 bits per state, and peak near 8.3 MiB; one byte per
    # state took 15.4 MiB of histories and peaked near 20.6 MiB
    peak = _peak_of("mh", 30000)
    assert peak < 11 * 2**20, peak / 2**20


#: Digest models whose tables or slices outgrow the narrow ones': 512
#: annealing states, a 257-state level 0, and 270 path states
_WIDE = ("annealing_512", "fk_mh_257", "fk_wide_mh")

#: (model, iterations, checkpoints) of the runs the charge must cover
_BOUNDED = [
    ("mh", 3000, 0), ("mh", 30000, 0), ("rank_one", 3000, 0), ("annealing", 3000, 0),
    # lean annealing keeps no history: its peak is the same at n = 600,
    # 1200 and 3000, and n = 3000 took 50 s under tracemalloc on a 2-CPU VM
    ("annealing_512", 600, 0), ("fk_mh_257", 3000, 0), ("fk_wide_mh", 3000, 0),
    # each checkpoint keeps a (B, S) int64 snapshot per level: 30 of them
    # took the peak from 7.42 to 24.71 MiB at 256 replicates, past a
    # charge of 8.70 MiB that left them out
    ("fk_wide_mh", 3000, 30),
]


@pytest.mark.parametrize("kind, iterations, checkpoints", _BOUNDED, ids=[
    "-".join(map(str, case if case[2] else case[:2])) for case in _BOUNDED
])
def test_replicate_bytes_bounds_lean_peak(kind, iterations, checkpoints):
    # the chunk planner's charge covers the peak of a chunk of 64, 128 or
    # 256 replicates and overstates it by at most half: 1.05x to 1.23x
    # here.  Its former charge, the slice's uniforms at a whole block per
    # replicate and no fixed part, fell 30-37 % short at 64 replicates.
    # On the wide models it covers 16, 64 or 256 replicates, at 1.07x to
    # 1.77x; before it charged the levels' tables (now 6 MiB of the
    # 512-state model's 8 MiB peak), slices clamped to one step of more than
    # BLOCK_CELLS cells, and the occupation counts, it read 0.17 to 0.94
    fixed, each = engine.replicate_bytes(_config_of(kind, iterations), checkpoints)
    wide = kind in _WIDE
    for replicates in (16, 64, 256) if wide else (64, 128, 256):
        need = fixed + each * replicates
        peak = _peak_of(kind, iterations, replicates, checkpoints)
        assert peak <= need and (wide or need <= 1.5 * peak), (
            replicates, need / 2**20, peak / 2**20
        )


def test_annealing_levels_build_one_table():
    # the move and the redraw's extension read one CDF table per level:
    # two tables per level took the 512-state model to 12.00 MiB, one
    # takes it near 8.0 MiB
    peak = _peak_of("annealing_512", 600, 16, 0)
    assert peak < 10 * 2**20, peak / 2**20


def test_redraw_levels_carry_narrow_counts():
    # the annealing levels' running counts in two bytes at slices of 2^15
    # cells peak near 5.2 MiB at 200 replicates; int64 counts at 2^16
    # cells, recounted each slice, near 10.2 MiB
    peak = _lean_peak(annealing_config(iterations=3000), 200)
    assert peak < 7 * 2**20, peak / 2**20


def test_fluctuation_field_values():
    # the fields are read off the checkpoint counts of run_batch
    from imcmc import harness

    cfg = toy_config(levels=0, iterations=100)
    space = cfg.level_spaces()[0]
    pi = fk.exact_path_measure(cfg.model, 0)
    f = TestFunction(space, [1.0, 0.0])
    const = TestFunction(space, np.full(space.size, 2.0))
    fields = harness.run_replicates(cfg, 2, [[("f", f), ("c", const)]], [0, 100], [pi])
    first = engine.run_batch(cfg, range(2)).states[0][:, 0]
    # n = 0 reduces to f(X_0) - pi(f)
    expect = f.values[first] - float(pi.weights @ f.values)
    f_col = fields.columns.index(harness.SampleColumn(0, "f", 0))
    c_col = fields.columns.index(harness.SampleColumn(0, "c", 100))
    assert fields.values[:, f_col] == pytest.approx(expect)
    assert fields.values[:, c_col] == pytest.approx(np.zeros(2), abs=1e-12)


def test_running_counts_match_recount():
    # long slices of narrow spaces (among them the 2^15-cell slices of a
    # 64-replicate rank-one run and of a 200-replicate annealing chunk) and
    # one step take the cumsum; a short slice of a wide space, and one of
    # 32 rows per step, take the per-step add
    rng = np.random.default_rng(3)
    shapes = ((3, 2, 50), (2, 64, 512), (4, 64, 256), (64, 256, 4), (5, 3, 1),
              (2, 64, 256), (4, 64, 128), (4, 200, 40), (4, 256, 32), (64, 256, 2))
    for size, B, T in shapes:
        start = rng.integers(0, 5, (B, size))
        states = rng.integers(0, size, (B, T))
        got, end = engine._running_counts(start, states, size, 1000)
        assert got.dtype == np.uint16
        for t in range(T):
            want = start + engine._row_counts(states[:, :t], size)
            assert np.array_equal(got[:, :, t], want.T)
        assert np.array_equal(end, start + engine._row_counts(states, size))
    # one state at every time: the end counts reach iterations + 1, which
    # one byte holds at 254 iterations and two bytes at 255
    for iterations, dtype in ((254, np.uint8), (255, np.uint16)):
        T = 56
        start = np.array([[iterations + 1 - T]])
        got, end = engine._running_counts(start, np.zeros((1, T), dtype=np.intp), 1, iterations)
        assert got.dtype == dtype
        assert got[0, 0, -1] == iterations and end[0, 0] == iterations + 1


@pytest.mark.parametrize(
    "name, replicates, iterations",
    [("fk_wide_mh", (3, 12, 305), 120), ("fk_rank_one", (0, 9, 10, 305), 1000)],
    ids=["fk_wide_mh", "fk_rank_one"],
)
def test_export_trajectories_matches_row_loop(name, replicates, iterations):
    import io

    cfg = dataclasses.replace(_digest_config(name), iterations=iterations)
    res = engine.run_batch(cfg, replicates)
    # each digit row is as wide as the largest value's digits
    for values in [np.arange(iterations + 1)] + [np.arange(sp.size) for sp in res.spaces]:
        assert engine._digits(values).shape == (values.size, len(str(values.size - 1)))
    out = io.StringIO()
    engine.export_trajectories_csv(res, out)
    rows = ["replicate,level,iteration,state_index\n"]
    for i, r in enumerate(res.replicates):
        for k, arr in enumerate(res.states):
            rows += [f"{r},{k},{n},{int(arr[i][n])}\n" for n in range(arr.shape[1])]
    assert out.getvalue() == "".join(rows)


# ---------------------------------------------------------------------------
# single-step law against the oracle kernels
# ---------------------------------------------------------------------------

def chi_square_against_row(samples, row, min_expected=5.0):
    counts = np.bincount(samples, minlength=row.size)
    expected = row * samples.size
    assert counts[expected == 0].sum() == 0
    keep = expected > min_expected
    chi = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    dof = keep.sum() - 1
    return 1.0 - stats.chi2.cdf(chi, dof) if dof > 0 else 1.0


def test_step_law_fk_mh():
    cfg = toy_config()
    model = cfg.model
    rng = np.random.default_rng(10)
    for level, hist_len in ((1, 1), (1, 7), (2, 5)):
        space_prev = fk.path_space(model, level - 1).space
        history = rng.integers(0, space_prev.size, size=hist_len)
        cur = int(rng.integers(0, fk.path_space(model, level).space.size))
        counts = np.bincount(history, minlength=space_prev.size)
        eta = Measure(space_prev, counts / counts.sum())
        row = fk.mh_kernel(model, level, eta).matrix[cur]
        samples = transition_samples(cfg, level, history, cur, rng, 10**6)
        assert chi_square_against_row(samples, row) > 1e-3


def test_step_law_fk_heterogeneous():
    # per-level base sizes (2, 3, 2) exercise the mixed-radix path index
    # arithmetic of the sweep against the oracle kernel rows
    from helpers import random_fk_model

    model = random_fk_model((2, 3, 2), seed=8)
    cfg = engine.EngineConfig(model=model, levels=2, iterations=10, seed=1)
    rng = np.random.default_rng(19)
    for level in (1, 2):
        space_prev = fk.path_space(model, level - 1).space
        history = rng.integers(0, space_prev.size, size=9)
        cur = int(rng.integers(0, fk.path_space(model, level).space.size))
        counts = np.bincount(history, minlength=space_prev.size)
        eta = Measure(space_prev, counts / counts.sum())
        row = fk.mh_kernel(model, level, eta).matrix[cur]
        samples = transition_samples(cfg, level, history, cur, rng, 10**6)
        assert chi_square_against_row(samples, row) > 1e-3


def test_verify_theorem_heterogeneous_fk():
    from imcmc import harness, oracle
    from helpers import random_fk_model

    model = random_fk_model((2, 3, 2), seed=8)
    cfg = engine.EngineConfig(model=model, levels=2, iterations=5000, seed=91)
    spec = oracle.build_clt_spec(model, 2)
    rng = np.random.default_rng(4)
    functions = [
        [("h", TestFunction(spec.spaces[k], rng.standard_normal(spec.spaces[k].size)))]
        for k in range(3)
    ]
    report, _ = harness.verify_theorem(cfg, 200, functions)
    assert report.passed, [
        (r.level, r.var_theory, r.var_empirical, r.z) for r in report.variance_rows
    ]


def test_step_law_fk_rank_one():
    cfg = engine.EngineConfig(
        model=fk.toy_model(0.25, (0.5, 1.0, 1.5, 2.0), kernel_type="rank_one"),
        levels=2, iterations=10, seed=1,
    )
    model = cfg.model
    rng = np.random.default_rng(11)
    space_prev = fk.path_space(model, 1).space
    history = rng.integers(0, space_prev.size, size=9)
    cur = 3
    counts = np.bincount(history, minlength=space_prev.size)
    eta = Measure(space_prev, counts / counts.sum())
    row = fk.rank_one_kernel(model, 2, eta).to_operator().matrix[cur]
    samples = transition_samples(cfg, 2, history, cur, rng, 10**6)
    assert chi_square_against_row(samples, row) > 1e-3


def test_step_law_annealing():
    for eps, level in ((0.0, 1), (0.3, 1), (0.3, 2), (0.7, 2), (0.99, 1)):
        cfg = annealing_config(eps=eps)
        rng = np.random.default_rng(12)
        history = rng.integers(0, 4, size=6)
        cur = 2
        counts = np.bincount(history, minlength=4)
        eta = Measure(cfg.model.space, counts / counts.sum())
        row = ann.mixture_kernel(cfg.model, level, eta).matrix[cur]
        samples = transition_samples(cfg, level, history, cur, rng, 10**6)
        assert chi_square_against_row(samples, row) > 1e-3


def test_step_law_level0():
    cfg = chain2_config()
    rng = np.random.default_rng(13)
    nxt = transition_samples(cfg, 0, [], 0, rng, 10**6)
    assert chi_square_against_row(nxt, np.array([0.9, 0.1])) > 1e-3


def test_step_mh_rejection_keeps_whole_path():
    # a single-path history with a poor potential forces visible rejections;
    # for p < 1/2 the second base state carries the larger potential
    cfg = toy_config()
    rng = np.random.default_rng(14)
    history = np.array([0])  # path (0): low-potential terminal
    cur = 3  # path (1, 1): high-potential prefix terminal
    samples = transition_samples(cfg, 1, history, cur, rng, 20_000)
    proposals = {0, 1}  # paths extending history path 0
    stayed = samples == cur
    assert stayed.any()
    assert set(samples[~stayed].tolist()) <= proposals


def test_constant_potential_always_accepts():
    spaces = tuple(FiniteSpace(f"S'{l}", 2) for l in range(2))
    flat = IntegralOperator(spaces[0], spaces[1], np.array([[0.6, 0.4], [0.3, 0.7]]))
    model = fk.FKModel(
        base_spaces=spaces,
        initial=Measure.uniform(spaces[0]),
        transitions=(flat,),
        potentials=(TestFunction(spaces[0], np.full(spaces[0].size, 1.0)),),
    )
    cfg = engine.EngineConfig(model=model, levels=1, iterations=10, seed=3)
    rng = np.random.default_rng(15)
    history = np.array([1])
    cur = 0  # proposals all extend path 1, so acceptance must always move
    samples = transition_samples(cfg, 1, history, cur, rng, 50_000)
    assert (samples >= 2).all()  # never stays on the current path


# ---------------------------------------------------------------------------
# laws of large numbers
# ---------------------------------------------------------------------------

def test_level1_occupation_near_limit():
    cfg = toy_config(levels=1, iterations=100_000, seed=2024)
    res = engine.run_batch(cfg, [0], keep_history=False)
    model = cfg.model
    pi1 = fk.exact_path_measure(model, 1)
    space = res.spaces[1]
    f = TestFunction(space, (np.arange(space.size) % 2 == 0).astype(float))
    spec = oracle.build_clt_spec(model, 1)
    avar = oracle.asymptotic_variance(spec, 1, f)
    err = abs(res.final_counts[1][0] @ f.values / 100_001 - pi1.weights @ f.values)
    assert err <= 5.0 * math.sqrt(avar / 100_001)


def test_level0_lln_rate():
    cfg = chain2_config(iterations=100_000, seed=31)
    R = 60
    res = engine.run_batch(cfg, range(R), checkpoints=[1000, 10_000, 100_000], keep_history=False)
    pi = np.array([2 / 3, 1 / 3])
    errs = []
    for n in (1000, 10_000, 100_000):
        occ = res.checkpoint_counts[n][0] / (n + 1)
        errs.append(np.abs(occ[:, 0] - pi[0]).mean())
    slope = np.polyfit(np.log10([1000, 10_000, 100_000]), np.log10(errs), 1)[0]
    assert -0.6 <= slope <= -0.4


def test_config_validation():
    with pytest.raises(ValueError):
        toy_config(iterations=0)
    with pytest.raises(ValueError):
        toy_config(levels=4)
    cfg = toy_config(iterations=10)
    with pytest.raises(ValueError):
        engine.run_batch(cfg, [0], checkpoints=[11])
