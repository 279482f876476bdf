"""Replicated-simulation verification of the fluctuation theory.

The harness runs many independent replicates of the engine, evaluates
the fluctuation fields ``U_n^(k)(f) = sqrt(n+1) (eta_n^(k)(f) -
pi_k(f))`` at chosen checkpoints, and compares their empirical second
moments against the oracle.

Acceptance bands
----------------
The sampling error of a variance estimate over ``R`` replicates of an
(approximately Gaussian) field is ``SE = v * sqrt(2 / (R-1))``; the
estimate itself carries a finite-horizon bias whose shape is
``(log(n+1))^k / sqrt(n+1)`` at level ``k``.  A comparison passes when

    |empirical - theory| <= 3 * SE + c_bias * (log(n+1))^k / sqrt(n+1) * scale

with ``scale`` the theory value (variances) or the geometric mean of the
two theory variances (covariances) and ``c_bias = 1`` by default.  The
right response to a failure at small ``n`` is a larger ``n``, not a
larger ``c_bias``.  Normality diagnostics (skewness, excess kurtosis,
Kolmogorov-Smirnov distance after studentization) are informational.

Iterated Cesaro weights
-----------------------
The variance coefficients ``(2k)!/k!^2`` are the limits of the
normalized squares of the weight arrays built by the recursion
``s^(k+1)_n(p) = sum_{q=p..n} s^(k)_n(q) / (q+1)`` from ``s^(1) = 1``;
:func:`weight_limit_check` reproduces them numerically.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import traceback
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import oracle
from .engine import EngineConfig, replicate_bytes, run_batch
from .measures import TestFunction
from .reporting import read_rows, write_csv, write_rows

DEFAULT_C_BIAS = 1.0
DEFAULT_CHUNK = 256
#: Share of the memory the process may use that a run plans its chunks
#: for, split over the workers; the rest is the interpreter's and the
#: parent's.
MEMORY_FRACTION = 0.5


# ---------------------------------------------------------------------------
# Weight arrays
# ---------------------------------------------------------------------------

def s_weights(k: int, n: int) -> np.ndarray:
    """Order-`k` weight array over ``p = 0 .. n`` by reverse cumulative sums."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"horizon must be >= 0, got {n}")
    values = np.ones(n + 1)
    inv = 1.0 / np.arange(1, n + 2)
    for _ in range(k - 1):
        values = np.cumsum((values * inv)[::-1])[::-1]
    return values


def weight_limit_check(k: int, n: int) -> float:
    """``(1/n) sum_q s^(k+1)_n(q)^2``, which converges to ``(2k)!/k!^2``."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    return float((s_weights(k + 1, n) ** 2).sum() / n)


def weight_limit_table(k_max: int, n: int) -> list[tuple[int, int, float, float, float]]:
    """Rows ``(k, n, partial sum, limit, relative error)`` for ``k = 1 .. k_max``."""
    if not 1 <= k_max <= 6:
        raise ValueError(f"order must be in 1..6, got {k_max}")
    rows = []
    for k in range(1, k_max + 1):
        val = weight_limit_check(k, n)
        lim = oracle.cross_coefficient(k, k)
        rows.append((k, n, val, lim, abs(val - lim) / lim))
    return rows


# ---------------------------------------------------------------------------
# Replicated fluctuation samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleColumn:
    level: int
    function: str
    n: int


@dataclass(frozen=True, eq=False)
class FluctuationSamples:
    """Fluctuation-field values, one row per replicate."""

    columns: tuple[SampleColumn, ...]
    values: np.ndarray  # (R, len(columns))
    replicates: tuple[int, ...]

    def to_csv(self, fh, metadata: dict | None = None) -> None:
        header = ["replicate"] + [f"{c.level}:{c.function}:{c.n}" for c in self.columns]
        rows = (
            [r, *map(float, self.values[i])] for i, r in enumerate(self.replicates)
        )
        write_csv(fh, header, rows, metadata)


def run_replicates(
    config: EngineConfig,
    R: int,
    functions,
    checkpoints,
    pis,
    *,
    workers: int | None = None,
) -> FluctuationSamples:
    """Evaluate the fluctuation fields over `R` independent replicates.

    `functions` lists, per level, pairs ``(name, TestFunction)``; `pis`
    are the limit measures per level.  Replicates run in lockstep in
    balanced chunks (:func:`_chunks`) of at most :data:`DEFAULT_CHUNK`,
    and of no more than the largest chunk whose charge
    (:func:`~imcmc.engine.replicate_bytes`) fits in each worker's share
    of :data:`MEMORY_FRACTION` of the memory this process may use; when
    not even one replicate fits, a ``MemoryError`` that names the need
    is raised before any process starts.  With `workers` above 1 the chunks
    run on that many forked children, capped at the CPUs this process may
    use, which write their rows into one shared array at their replicates
    (:func:`_run_forked`); every child is reaped before the call returns.
    Each replicate draws from its own streams, so the result is
    bit-identical for any worker count and chunk size.
    """
    if R < 2:
        raise ValueError(f"need at least 2 replicates, got {R}")
    if workers is not None and workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")
    checkpoints = sorted(set(int(n) for n in checkpoints))
    columns = tuple(
        SampleColumn(k, name, n)
        for k in range(config.levels + 1)
        for (name, _f) in functions[k]
        for n in checkpoints
    )
    run_chunk = partial(_chunk_samples, config, functions, checkpoints, pis, len(columns))
    p = min(workers or 1, len(os.sched_getaffinity(0)))
    fixed, each = replicate_bytes(config, len(checkpoints))
    budget = int(_memory_limit() * MEMORY_FRACTION) // p
    if fixed + each > budget:
        raise MemoryError(
            f"one replicate needs {(fixed + each) / 2**20:.1f} MiB, above the "
            f"{budget / 2**20:.1f} MiB planned for each of {p} worker(s)"
        )
    chunks = _chunks(R, p, min(DEFAULT_CHUNK, (budget - fixed) // each))
    p = min(p, len(chunks))
    if p == 1:
        values = np.vstack([run_chunk(ids) for ids in chunks])
    else:
        values = _run_forked(run_chunk, chunks, p, (R, len(columns)))
    return FluctuationSamples(columns=columns, values=values, replicates=tuple(range(R)))


def _run_forked(run_chunk, chunks, p, shape) -> np.ndarray:
    """The rows of every chunk, run on `p` forked children that each write
    their share ``chunks[w::p]`` into one shared array at its replicates.

    A child leaves only through ``os._exit``, which runs none of the
    parent's cleanup: 0 once its chunks are written, 1 after printing its
    traceback to stderr.  As soon as a child ends otherwise, or when the
    wait is interrupted, every child still running is killed and reaped
    before the ``ChildProcessError``, or the interrupt, reaches the caller.
    Forking spares each child a fresh import of the package; only BLAS
    runs threads of its own here, and OpenBLAS stops them around a fork.
    """
    rows = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1]), np.float64).reshape(shape)
    pids = []
    try:
        for w in range(p):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for ids in chunks[w::p]:
                        rows[ids.start : ids.stop] = run_chunk(ids)
                    code = 0
                except BaseException:
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            pids.append(pid)
        while pids:
            # the first child to end, seen without reaping it so that one
            # the caller owns is left alone; ours are reaped as they end
            ended = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT).si_pid
            pid = ended if ended in pids else pids[0]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code:
                how = (f"exited with code {code}" if code > 0
                       else f"was killed by signal {-code} ({signal.strsignal(-code)})")
                raise ChildProcessError(f"worker {pid} {how}")
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows.copy()


def _chunks(R: int, workers: int, largest: int) -> list[range]:
    """``range(R)`` in the fewest chunks of at most `largest` whose count
    is a multiple of `workers`, but no more chunks than replicates; their
    sizes differ by at most one."""
    fewest = -(-R // largest)
    count = min(R, -(-fewest // workers) * workers)
    return [range(i * R // count, (i + 1) * R // count) for i in range(count)]


#: Where this process's cgroups are named, and the memory limit file of
#: each hierarchy under its mount: v2's unified one, then v1's memory
#: controller, which is read only where no v2 file is present.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_MEMORY_LIMITS = (
    ("", "/sys/fs/cgroup", "memory.max"),
    ("memory", "/sys/fs/cgroup/memory", "memory.limit_in_bytes"),
)


def _memory_limit() -> int:
    """Bytes this process may use: physical memory, or the lowest numeric
    memory limit on this process's cgroup and its ancestors where lower."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open(_PROC_CGROUP) as fh:
            # lines "id:controllers:path", with no controllers on v2
            paths = dict(line.rstrip("\n").split(":", 2)[1:] for line in fh)
    except OSError:
        paths = {}
    for controllers, mount, name in _CGROUP_MEMORY_LIMITS:
        parts = [part for part in paths.get(controllers, "").split("/") if part]
        caps = []
        for depth in range(len(parts), -1, -1):
            try:
                with open(os.path.join(mount, *parts[:depth], name)) as fh:
                    caps.append(fh.read().strip())
            except OSError:
                continue
        if caps:
            return min([limit] + [int(cap) for cap in caps if cap.isdigit()])
    return limit


def _chunk_samples(config, functions, checkpoints, pis, width, ids) -> np.ndarray:
    """Fluctuation-field values of the replicates `ids`, one row each."""
    res = run_batch(config, ids, checkpoints=checkpoints, keep_history=False)
    out = np.empty((len(ids), width))
    i = 0
    for k in range(config.levels + 1):
        pk = pis[k].weights
        for name, f in functions[k]:
            ref = float(pk @ f.values)
            for n in checkpoints:
                counts = res.checkpoint_counts[n][k]
                emp = (counts @ f.values) / (n + 1)
                out[:, i] = math.sqrt(n + 1) * (emp - ref)
                i += 1
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceRow:
    level: int
    function: str
    n: int
    replicates: int
    var_theory: float
    var_empirical: float
    se: float
    z: float
    skew: float
    exkurt: float
    ks_stat: float
    degenerate: bool
    passed: bool


@dataclass(frozen=True)
class CovarianceRow:
    level_a: int
    function_a: str
    level_b: int
    function_b: str
    n: int
    replicates: int
    cov_theory: float
    cov_empirical: float
    se: float
    z: float
    passed: bool


@dataclass(frozen=True, eq=False)
class FluctuationReport:
    """Theory-vs-simulation comparison for every field and field pair."""

    replicates: int
    horizon: int
    variance_rows: tuple[VarianceRow, ...]
    covariance_rows: tuple[CovarianceRow, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.variance_rows) and all(
            r.passed for r in self.covariance_rows
        )

    def write(self, directory, metadata: dict | None = None) -> None:
        """Write the variance rows to ``fluctuations.csv`` and the cross
        rows to ``cross_covariances.csv`` in the `directory` path."""
        meta = {"replicates": self.replicates, "horizon": self.horizon, **(metadata or {})}
        with open(directory / "fluctuations.csv", "w") as fh:
            write_rows(fh, VarianceRow, self.variance_rows, meta)
        with open(directory / "cross_covariances.csv", "w") as fh:
            write_rows(fh, CovarianceRow, self.covariance_rows, metadata)

    @staticmethod
    def read(directory) -> "FluctuationReport":
        """The report that :meth:`write` wrote to `directory`."""
        with open(directory / "fluctuations.csv") as fh:
            variance_rows, meta = read_rows(fh, VarianceRow)
        with open(directory / "cross_covariances.csv") as fh:
            covariance_rows, _ = read_rows(fh, CovarianceRow)
        return FluctuationReport(
            int(meta["replicates"]), int(meta["horizon"]), variance_rows, covariance_rows
        )


def normality_stats(z: np.ndarray) -> tuple[float, float, float]:
    """Skewness, excess kurtosis and Kolmogorov-Smirnov distance to N(0, 1).

    Moments are the biased (population) ones; the KS statistic is the
    largest gap between the empirical CDF of `z` and the normal CDF.
    """
    d = z - z.mean()
    m2 = float(np.mean(d**2))
    skew = float(np.mean(d**3)) / m2**1.5
    exkurt = float(np.mean(d**4)) / m2**2 - 3.0
    x = np.sort(z)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    i = np.arange(1, x.size + 1)
    ks = float(max((i / x.size - cdf).max(), (cdf - (i - 1) / x.size).max()))
    return skew, exkurt, ks


def bias_allowance(n: int, k: int, c_bias: float = DEFAULT_C_BIAS) -> float:
    """Finite-horizon allowance factor ``c * (log(n+1))^k / sqrt(n+1)``."""
    return c_bias * math.log(n + 1) ** k / math.sqrt(n + 1)


def empirical_fluctuations(
    samples: FluctuationSamples,
    theory: dict[SampleColumn, float],
    *,
    theory_cross: dict[tuple[SampleColumn, SampleColumn], float] | None = None,
    c_bias: float = DEFAULT_C_BIAS,
) -> FluctuationReport:
    """Summarize replicate samples against theoretical moments.

    A column in `theory` passes within ``3 SE`` plus the bias allowance,
    and any other carries NaN theory values and passes vacuously.  Each
    pair of `theory_cross` passes within its ``3 SE`` plus the allowance
    at the geometric mean of its two columns' `theory` variances.
    Normality statistics need around 30 replicates to mean anything;
    they are reported regardless and never gate.
    """
    R = samples.values.shape[0]
    if R < 2:
        raise ValueError("need at least 2 replicates")
    var_rows = []
    for i, col in enumerate(samples.columns):
        x = samples.values[:, i]
        emp = float(x.var(ddof=1))
        degenerate = emp == 0.0
        skew = exkurt = ks = float("nan")
        if not degenerate and R >= 3:
            z = (x - x.mean()) / x.std(ddof=1)
            skew, exkurt, ks = normality_stats(z)
        if col in theory:
            th = theory[col]
            se = abs(th) * math.sqrt(2.0 / (R - 1))
            band = 3.0 * se + bias_allowance(col.n, col.level, c_bias) * abs(th)
            zscore = (emp - th) / se if se > 0 else float("inf")
            passed = abs(emp - th) <= band and not degenerate
        else:
            th, se, zscore, passed = float("nan"), float("nan"), float("nan"), True
        var_rows.append(
            VarianceRow(
                level=col.level, function=col.function, n=col.n, replicates=R,
                var_theory=th, var_empirical=emp, se=se, z=zscore, skew=skew,
                exkurt=exkurt, ks_stat=ks, degenerate=degenerate, passed=passed,
            )
        )

    cov_rows = []
    if theory_cross:
        index = {c: i for i, c in enumerate(samples.columns)}
        for (ca, cb), th in theory_cross.items():
            xa, xb = samples.values[:, index[ca]], samples.values[:, index[cb]]
            emp = float(np.cov(xa, xb, ddof=1)[0, 1])
            va, vb = theory[ca], theory[cb]
            se = math.sqrt(max(va * vb + th * th, 0.0) / (R - 1))
            scale = math.sqrt(max(va * vb, 0.0))
            k_eff = max(ca.level, cb.level)
            band = 3.0 * se + bias_allowance(max(ca.n, cb.n), k_eff, c_bias) * scale
            zscore = (emp - th) / se if se > 0 else float("inf")
            cov_rows.append(
                CovarianceRow(
                    level_a=ca.level, function_a=ca.function, level_b=cb.level,
                    function_b=cb.function, n=max(ca.n, cb.n), replicates=R,
                    cov_theory=th, cov_empirical=emp, se=se, z=zscore,
                    passed=abs(emp - th) <= band,
                )
            )
    return FluctuationReport(
        replicates=R,
        horizon=max((c.n for c in samples.columns), default=0),
        variance_rows=tuple(var_rows),
        covariance_rows=tuple(cov_rows),
    )


def verify_theorem(
    config: EngineConfig,
    R: int,
    functions,
    *,
    checkpoints=(),
    inject_variance_error: bool = False,
    workers: int | None = None,
) -> tuple[FluctuationReport, FluctuationSamples]:
    """Full pipeline: oracle moments, replicated simulation, comparison.

    `functions` lists per level the named test functions to check.  The
    horizon ``n = config.iterations`` gates the result; earlier
    `checkpoints` are reported without theory so convergence trends are
    visible in one run.  With `inject_variance_error` the theoretical
    variances are doubled -- a self-test that the comparison has power
    to fail.
    Returns the report and the samples it summarizes.
    """
    spec = oracle.build_clt_spec(config.model, config.levels)
    n = config.iterations
    checkpoints = sorted(set(int(m) for m in checkpoints) | {n})
    samples = run_replicates(config, R, functions, checkpoints, spec.pis, workers=workers)

    theory: dict[SampleColumn, float] = {}
    fn_by_col: dict[SampleColumn, TestFunction] = {}
    for k in range(config.levels + 1):
        for name, f in functions[k]:
            v = oracle.asymptotic_variance(spec, k, f)
            if inject_variance_error:
                v *= 2.0
            col = SampleColumn(k, name, n)
            theory[col] = v
            fn_by_col[col] = f

    theory_cross: dict[tuple[SampleColumn, SampleColumn], float] = {}
    cols = [c for c in samples.columns if c.n == n]
    for i, ca in enumerate(cols):
        for cb in cols[i + 1 :]:
            cov = oracle.asymptotic_cross_covariance(
                spec, ca.level, cb.level, fn_by_col[ca], fn_by_col[cb]
            )
            if inject_variance_error:
                cov *= 2.0
            theory_cross[(ca, cb)] = cov

    return empirical_fluctuations(samples, theory, theory_cross=theory_cross), samples
