"""Workload inputs, generated from the workload seed, and output checks.

Every workload writes its configuration bytes from the seed alone, so
the benchmark never reads ``configs/``.  At :data:`DEFAULT_SEED` the
outputs are compared with ``reference.json``, pinned from the seed
commit; at any other seed only the checks that hold for every seed run
(exit codes, row counts, digests of the inputs, Poisson residuals, the
outputs that do not depend on the seed, and for ``verify`` a 5-sigma
band around the pinned theory instead of the CLI's 3-sigma verdict,
whose false-alarm rate makes it a poor check across many seeds).

``check`` gets the workload's entry of ``reference.json`` as `ref`, or
``None`` while a new reference is being pinned; it returns the problems
it found.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

#: Relative tolerance (absolute below 1) on pinned floating-point outputs.
VALUE_TOL = 1e-9
POISSON_TOL = 1e-10
#: Band width, in standard errors, of the verify check at non-default seeds.
WIDE_SIGMAS = 5.0

TOY_BETAS = "0.5 1.0 1.5 2.0"
TRAJECTORY_HEADER = "replicate,level,iteration,state_index"
RING_SIZE = 64
#: Base-space sizes of the explicit FK stack of ``oracle-stack``.
FK_SIZES = (3, 4, 4, 4, 3)


def read_csv(path: Path) -> tuple[list[str], list[list[str]], dict[str, str]]:
    header, rows, meta = None, [], {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header or [], rows, meta


def close(a: str, b) -> bool:
    if isinstance(b, str):
        return a == b
    x = float(a)
    return abs(x - b) <= VALUE_TOL * max(1.0, abs(b)) or (x != x and b != b)


def compare_table(label: str, rows: list[list[str]], ref: list[list]) -> list[str]:
    if len(rows) != len(ref):
        return [f"{label}: {len(rows)} rows, reference has {len(ref)}"]
    for i, (row, want) in enumerate(zip(rows, ref)):
        if len(row) != len(want) or not all(map(close, row, want)):
            return [f"{label}: row {i} is {row}, reference {want}"]
    return []


def parse_table(rows: list[list[str]]) -> list[list]:
    """Rows as pinned in the reference: numbers as floats, others as text."""
    def value(cell: str):
        try:
            return float(cell)
        except ValueError:
            return cell
    return [[value(c) for c in row] for row in rows]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bias_allowance(n: int, k: int) -> float:
    return math.log(n + 1) ** k / math.sqrt(n + 1)


class Workload:
    """A fixed set of CLI commands on configs generated from the seed.

    ``configs`` maps a name to config bytes, written to ``<name>.ini`` in
    the work directory; the commands write under ``out`` there.
    ``exports`` names the files whose size the traced run reports,
    ``check`` returns the problems found in the outputs and ``pin`` the
    entry for ``reference.json``.
    """

    name = ""

    def configs(self, seed: int) -> dict[str, bytes]:
        raise NotImplementedError

    def commands(self, work: Path) -> list[list[str]]:
        raise NotImplementedError

    def exports(self, work: Path) -> list[str]:
        return []

    def check(self, work, seed, digests, exits, log, ref) -> list[str]:
        raise NotImplementedError

    def pin(self, work: Path, digests: dict[str, str]) -> dict:
        raise NotImplementedError


class Verify(Workload):
    """``imcmc verify`` on one config, R=400, n=3000, levels 0..2."""

    def __init__(self, name: str, model: str, base_seed: int, workers: int):
        self.name = name
        self.model = model
        self.base_seed = base_seed
        self.workers = workers

    levels, iterations, replicates = 2, 3000, 400
    checkpoints = (1000, 2000, 3000)

    def configs(self, seed):
        text = (
            f"# Benchmark workload {self.name}, workload seed {seed}.\n"
            f"[model]\n{self.model}\n"
            f"[engine]\nlevels = {self.levels}\niterations = {self.iterations}\n"
            f"seed = {self.base_seed + seed}\nreplicates = {self.replicates}\n"
            f"checkpoints = {' '.join(map(str, self.checkpoints))}\n\n"
            "[functions]\nf = terminal_indicator(0)\n"
        )
        return {"verify": text.encode()}

    def commands(self, work):
        return [["verify", "--config", str(work / "verify.ini"),
                 "--workers", str(self.workers), "--out", str(work / "out")]]

    def check(self, work, seed, digests, exits, log, ref):
        out = work / "out"
        strict = seed == DEFAULT_SEED
        verdict = "PASS" if "verdict: PASS" in log else "FAIL" if "verdict: FAIL" in log else None
        problems = []
        if verdict is None:
            return [f"no verdict line, exit code {exits[0]}"]
        if strict and (exits[0] != 0 or verdict != "PASS"):
            problems.append(f"exit {exits[0]} with verdict {verdict}, expected 0 and PASS")
        elif (exits[0], verdict) not in ((0, "PASS"), (1, "FAIL")):
            problems.append(f"exit {exits[0]} does not match verdict {verdict}")

        header, rows, meta = read_csv(out / "raw_samples.csv")
        columns = (self.levels + 1) * len(self.checkpoints)
        if len(rows) != self.replicates or len(header) != 1 + columns:
            problems.append(f"raw_samples.csv is {len(rows)} x {len(header)}, expected "
                            f"{self.replicates} x {1 + columns}")
        if meta.get("config_sha256") != digests["verify"]:
            problems.append("raw_samples.csv does not carry the config digest")
        _, frows, _ = read_csv(out / "fluctuations.csv")
        _, crows, _ = read_csv(out / "cross_covariances.csv")
        finals = self.levels + 1
        if len(frows) != columns or len(crows) != finals * (finals - 1) // 2:
            problems.append(f"{len(frows)} variance and {len(crows)} covariance rows")
        if problems or ref is None:
            return problems
        # The theory columns depend on the model alone, so they are
        # compared at every seed.
        problems += compare_table("fluctuations.csv var_theory", theory_rows(frows, 4),
                                  ref["var_theory"])
        problems += compare_table("cross_covariances.csv cov_theory",
                                  theory_rows(crows, 6), ref["cov_theory"])
        if not strict:
            problems += self._wide_band(frows, crows)
        else:
            if ref["config_sha256"] != digests["verify"]:
                problems.append("generated config differs from the pinned one")
            problems += compare_table("raw_samples.csv", [header] + rows,
                                      [ref["header"]] + ref["raw_samples"])
        return problems

    def _wide_band(self, frows, crows) -> list[str]:
        """Gated empirical values within 5 SE plus the CLI's own bias
        allowance of the theory, which the caller has compared with the
        reference."""
        problems, theory = [], {}
        for level, fn, n, _, th, emp, se, *_ in frows:
            if th == "nan":
                continue
            k, n, th, emp, se = int(level), int(n), float(th), float(emp), float(se)
            theory[(k, fn, n)] = th
            if abs(emp - th) > WIDE_SIGMAS * se + bias_allowance(n, k) * abs(th):
                problems.append(f"variance at level {k}, n={n}: {emp} vs {th}")
        for la, fa, lb, fb, n, _, th, emp, se, *_ in crows:
            ka, kb, n = int(la), int(lb), int(n)
            scale = math.sqrt(max(theory[(ka, fa, n)] * theory[(kb, fb, n)], 0.0))
            band = WIDE_SIGMAS * float(se) + bias_allowance(n, max(ka, kb)) * scale
            if abs(float(emp) - float(th)) > band:
                problems.append(f"covariance levels {ka},{kb}: {emp} vs {th}")
        return problems

    def pin(self, work, digests):
        out = work / "out"
        header, rows, _ = read_csv(out / "raw_samples.csv")
        return {"config_sha256": digests["verify"], "header": header,
                "raw_samples": parse_table(rows),
                "var_theory": parse_table(theory_rows(read_csv(out / "fluctuations.csv")[1], 4)),
                "cov_theory": parse_table(
                    theory_rows(read_csv(out / "cross_covariances.csv")[1], 6))}


def theory_rows(rows: list[list[str]], column: int) -> list[list[str]]:
    """Gated rows up to their theory value at `column`: keys, R and theory."""
    return [row[:column + 1] for row in rows if row[column] != "nan"]


def _vec(v) -> str:
    return " ".join(repr(float(x)) for x in v)


def _matrix(m) -> str:
    return "; ".join(_vec(r) for r in m)


def fk_stack_config(seed: int) -> str:
    """Explicit FK model, base sizes 3,4,4,4,3 (576 path states at level 4).

    The level-0 kernel and the transitions have Dirichlet(4) rows and the
    potentials are uniform on [0.2, 1], all drawn from the workload seed;
    the initial law is the level-0 kernel's invariant law.
    """
    rng = np.random.default_rng([20240813, seed])
    sizes = list(FK_SIZES)
    m0 = rng.dirichlet([4.0] * sizes[0], size=sizes[0])
    s = sizes[0]
    system = np.vstack([m0.T - np.eye(s), np.ones((1, s))])
    initial = np.linalg.lstsq(system, np.eye(s + 1)[-1], rcond=None)[0]
    lines = [
        f"# Benchmark workload oracle-stack (FK stack), workload seed {seed}.",
        "[model]", "type = fk", "kernel = mh",
        f"spaces = {' '.join(map(str, sizes))}",
        f"initial = {_vec(initial / initial.sum())}",
        f"m0 = {_matrix(m0)}",
    ]
    for l in range(1, len(sizes)):
        t = rng.dirichlet([4.0] * sizes[l], size=sizes[l - 1])
        lines.append(f"transition_{l} = {_matrix(t)}")
    for l in range(len(sizes) - 1):
        lines.append(f"potential_{l} = {_vec(rng.uniform(0.2, 1.0, sizes[l]))}")
    lines += ["", "[engine]", f"levels = {len(sizes) - 1}", "iterations = 1000",
              f"seed = {seed}", "", "[functions]", "f = terminal_indicator(0)", ""]
    return "\n".join(lines)


def ring_config() -> str:
    """Ring Metropolis annealing model; the same for every seed.

    Potential ``1 - cos(2 pi x / size)``, nearest-neighbour proposal,
    betas 0.3 0.6 0.9 (levels 0..2), mixture weight 0.3.
    """
    size = RING_SIZE
    potential = [1.0 - math.cos(2.0 * math.pi * x / size) for x in range(size)]
    proposal = np.zeros((size, size))
    for x in range(size):
        proposal[x, (x + 1) % size] = proposal[x, (x - 1) % size] = 0.5
    return (
        f"# Benchmark workload oracle-stack ({size}-state ring).\n"
        "[model]\ntype = annealing\n"
        f"size = {size}\npotential = {_vec(potential)}\n"
        "betas = 0.3 0.6 0.9\nepsilon = 0.3\n"
        f"proposal = {_matrix(proposal)}\n\n"
        "[engine]\nlevels = 2\niterations = 1000\n\n"
        "[functions]\nf = indicator(0)\n"
    )


class OracleStack(Workload):
    """``imcmc oracle`` on the FK stack, then on the ring."""

    name = "oracle-stack"
    models = {"fk": (len(FK_SIZES) - 1, FK_SIZES), "ring": (2, RING_SIZE)}  # levels, base sizes

    def configs(self, seed):
        return {"fk": fk_stack_config(seed).encode(), "ring": ring_config().encode()}

    def commands(self, work):
        return [["oracle", "--config", str(work / f"{m}.ini"), "--out", str(work / "out" / m)]
                for m in self.models]

    def check(self, work, seed, digests, exits, log, ref):
        problems = [f"oracle {m} exited {code}"
                    for m, code in zip(self.models, exits) if code != 0]
        if problems:
            return problems
        for m, (levels, base) in self.models.items():
            tables = {t: read_csv(work / "out" / m / f"{t}.csv")
                      for t in ("limit_measures", "variances", "operators")}
            if m == "fk":
                states = sum(math.prod(base[:k + 1]) for k in range(levels + 1))
            else:
                states = base * (levels + 1)
            counts = {t: len(rows) for t, (_, rows, _) in tables.items()}
            if counts != {"limit_measures": states, "variances": levels + 1,
                          "operators": levels + 1}:
                problems.append(f"{m}: row counts {counts}")
                continue
            if any(meta.get("config_sha256") != digests[m] for _, _, meta in tables.values()):
                problems.append(f"{m}: outputs do not carry the config digest")
            header, rows, _ = tables["operators"]
            col = header.index("poisson_residual")
            worst = max(float(r[col]) for r in rows)
            if not worst <= POISSON_TOL:
                problems.append(f"{m}: Poisson residual {worst:.3e} > {POISSON_TOL}")
            if ref is not None and (m == "ring" or seed == DEFAULT_SEED):
                want = ref[m]
                if want["config_sha256"] != digests[m]:
                    problems.append(f"{m}: generated config differs from the pinned one")
                for t in ("limit_measures", "variances"):
                    problems += compare_table(f"{m}/{t}.csv", tables[t][1], want[t])
        return problems

    def pin(self, work, digests):
        return {
            m: {"config_sha256": digests[m],
                **{t: parse_table(read_csv(work / "out" / m / f"{t}.csv")[1])
                   for t in ("limit_measures", "variances")}}
            for m in self.models
        }


class SimulateRankOne(Workload):
    """``imcmc simulate`` on the toy preset with rank-one kernels."""

    name = "simulate-rank-one"
    levels, iterations, replicates = 2, 5000, 64

    def configs(self, seed):
        text = (
            f"# Benchmark workload {self.name}, workload seed {seed}.\n"
            f"[model]\ntype = fk\npreset = toy\np = 0.25\nbetas = {TOY_BETAS}\n"
            "kernel = rank_one\n\n"
            f"[engine]\nlevels = {self.levels}\niterations = {self.iterations}\n"
            f"seed = {20240811 + seed}\nreplicates = {self.replicates}\n\n"
            "[functions]\nf = terminal_indicator(0)\n"
        )
        return {"simulate": text.encode()}

    def commands(self, work):
        return [["simulate", "--config", str(work / "simulate.ini"),
                 "--out", str(work / "out")]]

    def exports(self, work):
        return [str(work / "out" / "trajectories.csv")]

    def _data_digest(self, work) -> tuple[str, int, bytes, bytes]:
        h = hashlib.sha256()
        lines, first, meta = 0, b"", b""
        with open(work / "out" / "trajectories.csv", "rb") as fh:
            for line in fh:
                if line.startswith(b"#"):
                    meta += line
                    continue
                if not lines:
                    first = line
                h.update(line)
                lines += 1
        return h.hexdigest(), lines, first, meta

    def check(self, work, seed, digests, exits, log, ref):
        if exits[0] != 0:
            return [f"simulate exited {exits[0]}"]
        digest, lines, first, meta = self._data_digest(work)
        problems = []
        rows = self.replicates * (self.levels + 1) * (self.iterations + 1)
        if first.decode().strip() != TRAJECTORY_HEADER or lines != rows + 1:
            problems.append(f"trajectories.csv has header {first!r} and {lines - 1} rows, "
                            f"expected {rows}")
        if f"# config_sha256: {digests['simulate']}\n".encode() not in meta:
            problems.append("trajectories.csv does not carry the config digest")
        if ref is not None and seed == DEFAULT_SEED:
            if ref["config_sha256"] != digests["simulate"]:
                problems.append("generated config differs from the pinned one")
            if digest != ref["trajectories_sha256"]:
                problems.append(f"trajectory digest {digest} differs from the pinned one")
        return problems

    def pin(self, work, digests):
        return {"config_sha256": digests["simulate"],
                "trajectories_sha256": self._data_digest(work)[0]}


WORKLOADS = {
    w.name: w
    for w in (
        Verify("verify-fk-mh",
               f"type = fk\npreset = toy\np = 0.25\nbetas = {TOY_BETAS}\n",
               20240811, workers=1),
        Verify("verify-anneal",
               "type = annealing\nsize = 4\npotential = 0.0 1.0 2.0 3.0\n"
               "betas = 0.3 0.6 0.9 1.2\nepsilon = 0.3\nproposal = uniform\n",
               20240812, workers=2),
        OracleStack(),
        SimulateRankOne(),
    )
}
