import ast
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imcmc import cli, fk, harness
from imcmc.config import ConfigError, parse_config
from imcmc.reporting import read_csv
from helpers import assert_no_child_left, random_fk_model

TOY = """
[model]
type = fk
preset = toy
p = {p}
betas = {betas}

[engine]
levels = {levels}
iterations = {iterations}
seed = {seed}
replicates = {replicates}
{checkpoint_line}

[functions]
fterm = terminal_indicator(0)

[output]
directory = {out}
"""


def toy_text(p=0.5, betas="1.0 2.0 3.0", levels=2, iterations=2000, seed=3,
             replicates=64, checkpoints=None, out="out"):
    line = f"checkpoints = {checkpoints}" if checkpoints else ""
    return TOY.format(p=p, betas=betas, levels=levels, iterations=iterations,
                      seed=seed, replicates=replicates, checkpoint_line=line, out=out)


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_round_trip_fields():
    cfg = parse_config(toy_text(checkpoints="1000 2000").encode())
    assert cfg.levels == 2 and cfg.iterations == 2000 and cfg.seed == 3
    assert cfg.checkpoints == [1000, 2000]
    assert len(cfg.functions) == 3 and cfg.functions[2][0][0] == "fterm"


def test_parse_rejects_bad_betas():
    with pytest.raises(ConfigError) as err:
        parse_config(toy_text(betas="2.0 1.0").encode())
    assert "model.betas" in str(err.value)


def test_parse_rejects_single_replicate():
    with pytest.raises(ConfigError) as err:
        parse_config(toy_text(replicates=1).encode())
    assert "replicates" in str(err.value)


def test_parse_explicit_fk_and_annealing():
    explicit = """
[model]
type = fk
spaces = 2 2
initial = 0.5 0.5
transition_1 = 0.9 0.1; 0.2 0.8
potential_0 = 1.0 0.5

[engine]
levels = 1
iterations = 100
replicates = 4

[functions]
f = terminal_indicator(0)
g@1 = 1.0 0.0 0.0 0.0
"""
    cfg = parse_config(explicit.encode())
    assert cfg.model.levels == 1
    assert [name for name, _ in cfg.functions[1]] == ["f", "g"]

    annealing = """
[model]
type = annealing
size = 3
potential = 0.0 0.5 1.5
betas = 0.5 1.0
epsilon = 0.2

[engine]
levels = 1
iterations = 100
replicates = 4

[functions]
ground = indicator(0)
"""
    acfg = parse_config(annealing.encode())
    assert acfg.model.space.size == 3


def test_parse_rejects_non_stochastic_matrix():
    bad = """
[model]
type = fk
spaces = 2 2
initial = 0.5 0.5
transition_1 = 0.9 0.3; 0.2 0.8
potential_0 = 1.0 0.5

[engine]
levels = 1
iterations = 10
replicates = 2

[functions]
f = terminal_indicator(0)
"""
    with pytest.raises(ConfigError) as err:
        parse_config(bad.encode())
    assert "transition_1" in str(err.value)


# ---------------------------------------------------------------------------
# oracle command
# ---------------------------------------------------------------------------

def read_rows(path):
    with open(path) as fh:
        return read_csv(fh)


def test_cmd_oracle_symmetric_marginals(tmp_path):
    out = tmp_path / "o"
    cfgp = write_cfg(tmp_path, toy_text(p=0.5, out=str(out)))
    assert cli.main(["oracle", "--config", cfgp]) == 0
    header, rows, meta = read_rows(out / "limit_measures.csv")
    assert header == ["level", "state", "label", "pi"]
    assert "config_sha256" in meta and "artifact_version" in meta
    # p = 1/2 makes every level's path law uniform
    for level in (0, 1, 2):
        pis = [float(r[3]) for r in rows if int(r[0]) == level]
        assert np.allclose(pis, 1.0 / len(pis), atol=1e-14)


def test_cmd_oracle_marginals_match_closed_form(tmp_path):
    out = tmp_path / "o2"
    cfgp = write_cfg(tmp_path, toy_text(p=0.2, betas="1.0 2.0 3.0", out=str(out)))
    assert cli.main(["oracle", "--config", cfgp]) == 0
    _, rows, _ = read_rows(out / "limit_measures.csv")
    p, q = 0.2, 0.8
    for level, beta in ((0, 1.0), (1, 2.0), (2, 3.0)):
        lev = [r for r in rows if int(r[0]) == level]
        marg = sum(float(r[3]) for r in lev if r[2].endswith("1") or r[2] == "1")
        # labels end in the terminal coordinate; state "1" is index 0
        expect = p**beta / (p**beta + q**beta)
        assert marg == pytest.approx(expect, abs=1e-12)


def test_cmd_oracle_operators_columns(tmp_path):
    out = tmp_path / "ops"
    config = Path(__file__).resolve().parent.parent / "configs" / "toy_oracle.ini"
    assert cli.main(["oracle", "--config", str(config), "--out", str(out)]) == 0
    header, rows, _ = read_rows(out / "operators.csv")
    assert header == [
        "level", "n0", "m_n0", "p_n0", "resolvent_norm", "poisson_residual", "d_norm",
    ]
    assert len(rows) == 3
    residuals = [float(r[header.index("poisson_residual")]) for r in rows]
    assert all(r <= 1e-10 for r in residuals), residuals


def test_variances_add_terms_left_to_right(tmp_path, monkeypatch):
    # a compensated sum, as builtin `sum` of floats is from Python 3.12
    # on, gives 1.0000000000000002; left to right gives 1.0 on every version
    from imcmc import oracle

    monkeypatch.setattr(oracle, "variance_terms", lambda spec, k, f: [1.0, 1e-16, 1e-16])
    assert oracle.asymptotic_variance(None, 0, None) == 1.0
    out = tmp_path / "sum"
    assert cli.main(["oracle", "--config", write_cfg(tmp_path, toy_text(out=str(out)))]) == 0
    header, rows, _ = read_rows(out / "variances.csv")
    assert {r[header.index("var_asymptotic")] for r in rows} == {"1"}


def _floats_text(values):
    return " ".join(repr(float(x)) for x in values)


def ring_oracle_text(n=64):
    """Metropolis annealing on an n-state ring with nearest-neighbour moves."""
    proposal = np.zeros((n, n))
    for x in range(n):
        proposal[x, (x + 1) % n] = proposal[x, (x - 1) % n] = 0.5
    return (
        "[model]\ntype = annealing\n"
        f"size = {n}\npotential = {_floats_text(1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))}\n"
        "betas = 0.3 0.6 0.9\nepsilon = 0.3\n"
        f"proposal = {'; '.join(_floats_text(r) for r in proposal)}\n"
        "[engine]\nlevels = 2\niterations = 1000\n"
        "[functions]\nf = indicator(0)\ng = indicator(16)\n"
    )


def random_fk_oracle_text(sizes=(3, 4, 4)):
    """The explicit-FK config of ``helpers.random_fk_model(sizes)``."""
    model = random_fk_model(sizes)
    lines = ["[model]", "type = fk", f"spaces = {' '.join(map(str, sizes))}",
             f"initial = {_floats_text(model.initial.weights)}"]
    for l, t in enumerate(model.transitions, start=1):
        lines.append(f"transition_{l} = " + "; ".join(_floats_text(r) for r in t.matrix))
    for l, g in enumerate(model.potentials):
        lines.append(f"potential_{l} = {_floats_text(g.values)}")
    lines += ["[engine]", f"levels = {len(sizes) - 1}", "iterations = 1000",
              "[functions]", "f = terminal_indicator(0)", "g = terminal_indicator(1)"]
    return "\n".join(lines) + "\n"


#: SHA-256 of the oracle tables, per input; a change to any oracle value,
#: column or number format shows here.
ORACLE_DIGESTS = {
    "toy-oracle": {
        "limit_measures": "c00cb309ed600a581bf307cb28af909d86e2c126451d04dcd48779209527481c",
        "variances": "cf064dfae4e74c18b9db7628b92648fa8c054285786fb36fc3bfff9ce174c223",
        "operators": "dfc19d6657c1047088f088b1309f8c6134d5a0be83e0c0c374ab135de759d1b9",
    },
    "ring-64": {
        "limit_measures": "ce7448008a314486e0414d93005e89b75606f4d07570db1bacb586bf288c3949",
        "variances": "1797582bbee2f1e8daf5ebcf8c9341b37d058fb721ba37d8250f9cd953e64100",
        "operators": "033bd09360fa3a1e22479dd6420765a75598ca6f40d4a6883a3adefe25ff52b9",
    },
    "fk-3-4-4": {
        "limit_measures": "a21e1eb7c1e6dd61fd015e1aab83af52848621635b6ad7e6f6c2e65202553e5f",
        "variances": "6535fd9d0401e409ad6f360c880ef294e54f862fd33ba8d9f1e8f3843e006036",
        "operators": "fd847bf442c92dd5e0270c0a584c675a5ce52164c1250a4ebbd2316d0977dbb5",
    },
}


@pytest.mark.parametrize("case", sorted(ORACLE_DIGESTS))
def test_cmd_oracle_tables_are_pinned(tmp_path, case):
    if case == "toy-oracle":
        config = Path(__file__).resolve().parent.parent / "configs" / "toy_oracle.ini"
    else:
        text = ring_oracle_text() if case == "ring-64" else random_fk_oracle_text()
        config = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert cli.main(["oracle", "--config", str(config), "--out", str(out)]) == 0
    digests = {
        table: hashlib.sha256((out / f"{table}.csv").read_bytes()).hexdigest()
        for table in ORACLE_DIGESTS[case]
    }
    assert digests == ORACLE_DIGESTS[case]


def test_cmd_oracle_bad_config_exit_2(tmp_path):
    cfgp = write_cfg(tmp_path, toy_text(betas="3.0 2.0 1.0"))
    assert cli.main(["oracle", "--config", cfgp]) == 2


def uniform_fk_text(sizes, levels):
    """An explicit FK model with uniform rows on the given base sizes."""
    uniform = lambda n: " ".join([repr(1.0 / n)] * n)
    lines = ["[model]", "type = fk", f"spaces = {' '.join(map(str, sizes))}",
             f"initial = {uniform(sizes[0])}"]
    for l in range(1, len(sizes)):
        lines.append(f"transition_{l} = " + "; ".join([uniform(sizes[l])] * sizes[l - 1]))
        lines.append(f"potential_{l - 1} = " + " ".join(["1.0", "0.5"] * (sizes[l - 1] // 2)))
    lines += ["[engine]", f"levels = {levels}", "iterations = 100",
              "[functions]", "f = terminal_indicator(0)"]
    return "\n".join(lines) + "\n"


FK_SPACE_0 = """
[model]
type = fk
spaces = 2 0
initial = 0.5 0.5
transition_1 = 1.0; 1.0
potential_0 = 1.0 0.5

[engine]
iterations = 100

[functions]
f = terminal_indicator(0)
"""


ANNEALING_SIZE_0 = """
[model]
type = annealing
size = 0
potential =
betas = 0.5 1.0
epsilon = 0.2

[engine]
iterations = 100

[functions]
ground = indicator(0)
"""


@pytest.mark.parametrize("text, field", [
    # 32,768 path states at level 4
    (uniform_fk_text((8, 8, 8, 8, 8), levels=4), "engine.levels"),
    (ANNEALING_SIZE_0, "model.size"),
    (FK_SPACE_0, "model.spaces"),
], ids=["fk-levels", "annealing-size", "fk-spaces"])
def test_cmd_oracle_space_over_cap_exit_2(tmp_path, capsys, text, field):
    cfgp = write_cfg(tmp_path, text + f"[output]\ndirectory = {tmp_path / 'o'}\n")
    assert cli.main(["oracle", "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert field in err and "4096" in err, err


def test_cmd_oracle_unused_level_over_cap(tmp_path):
    # the top level would have 32,768 path states, but only levels 0..3 run
    out = tmp_path / "o"
    text = uniform_fk_text((8, 8, 8, 8, 8), levels=3)
    cfgp = write_cfg(tmp_path, text + f"[output]\ndirectory = {out}\n")
    assert cli.main(["oracle", "--config", cfgp]) == 0
    _, rows, _ = read_rows(out / "limit_measures.csv")
    assert sum(1 for r in rows if r[0] == "3") == 4096


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def test_cmd_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfgp = write_cfg(tmp_path, toy_text(levels=1, iterations=200, replicates=2))
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfgp, "--out", str(out2)]) == 0
    a = (out1 / "trajectories.csv").read_bytes()
    b = (out2 / "trajectories.csv").read_bytes()
    assert a == b


def test_cmd_simulate_columns_and_counts(tmp_path):
    out = tmp_path / "t"
    cfgp = write_cfg(tmp_path, toy_text(levels=1, iterations=150, replicates=3, out=str(out)))
    assert cli.main(["simulate", "--config", cfgp]) == 0
    header, rows, meta = read_rows(out / "trajectories.csv")
    assert header == ["replicate", "level", "iteration", "state_index"]
    levels = {int(r[1]) for r in rows}
    assert levels == {0, 1}
    for rep in (0, 1, 2):
        for level in (0, 1):
            n_rows = sum(1 for r in rows if int(r[0]) == rep and int(r[1]) == level)
            assert n_rows == 151
    assert "seed" in meta


def test_seed_override_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfgp = write_cfg(tmp_path, toy_text(levels=0, iterations=100, replicates=2))
    cli.main(["simulate", "--config", cfgp, "--out", str(out1), "--seed", "1"])
    cli.main(["simulate", "--config", cfgp, "--out", str(out2), "--seed", "2"])
    a = (out1 / "trajectories.csv").read_text().splitlines()
    b = (out2 / "trajectories.csv").read_text().splitlines()
    data_a = [l for l in a if not l.startswith("#")]
    data_b = [l for l in b if not l.startswith("#")]
    assert data_a != data_b


def test_environment_is_not_an_input(tmp_path, monkeypatch):
    cfgp = write_cfg(tmp_path, toy_text(levels=1, iterations=300, replicates=8, seed=1))
    strip = lambda p: [l for l in (p / "trajectories.csv").read_text().splitlines() if not l.startswith("#")]
    runs = {}
    for env in ({}, {"IMCMC_SEED": "2", "IMCMC_WORKERS": "abc"}):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        out = tmp_path / str(len(env))
        verified = cli.main(["verify", "--config", cfgp, "--out", str(out / "v"), "--workers", "1"])
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out / "s")]) == 0
        samples = (out / "v" / "raw_samples.csv").read_bytes()
        runs[len(env)] = (verified, samples, strip(out / "s"))
    assert runs[0] == runs[2] and runs[0][0] in (0, 1)


def test_no_module_reads_the_environment():
    # os.environ, os.environb and os.getenv, as attributes or imported names
    names = {"environ", "environb", "getenv", "getenvb"}
    readers = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in names:
                readers.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                readers += [f"{path.name}:{node.lineno}" for a in node.names if a.name in names]
    assert not readers, readers


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_cmd_verify_pass_and_inject(tmp_path, capsys):
    out = tmp_path / "v"
    cfgp = write_cfg(
        tmp_path,
        toy_text(p=0.25, betas="0.5 1.0 1.5", levels=1, iterations=4000,
                 replicates=100, checkpoints="4000", seed=12, out=str(out)),
    )
    assert cli.main(["verify", "--config", cfgp]) == 0
    text = capsys.readouterr().out
    assert "verdict: PASS" in text
    header, rows, meta = read_rows(out / "fluctuations.csv")
    assert "pass" in header
    assert all(r[header.index("pass")] == "true" for r in rows if r[header.index("n")] == "4000")
    sh, srows, _ = read_rows(out / "raw_samples.csv")
    assert sh[0] == "replicate" and len(srows) == 100
    assert len(sh) == 1 + len(rows)  # one sample column per report row
    report = harness.FluctuationReport.read(out)
    assert report.passed and report.replicates == 100 and len(report.variance_rows) == len(rows)

    assert cli.main(["verify", "--config", cfgp, "--inject-variance-error"]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


ANNEALING_VERIFY = """
[model]
type = annealing
size = 4
potential = 0.0 1.0 2.0 3.0
betas = 0.3 0.6 0.9 1.2
epsilon = 0.3
proposal = uniform

[engine]
levels = 2
iterations = 600
seed = 20240812
replicates = 40
checkpoints = 100 600

[functions]
ground = indicator(0)
top@2 = 0 0 0 1
"""

#: SHA-256 of every CSV a small run writes, per command: the variance rows
#: (with theory-free rows at the earlier checkpoint), the cross rows, the
#: raw samples and the trajectories; a change to any value, column, number
#: format or metadata line shows here.
RUN_DIGESTS = {
    "verify": {
        "fluctuations": "635e27e404ed6ca7dd5888226e77c26ff76529a8b525bfc7bd544061b689764b",
        "cross_covariances": "c8d60794b0031c2283a340cd8e6f29c17f41df8600b9ebc353a303ab8bf35690",
        "raw_samples": "9e9b913ddfbd0566e6a301afb29df4e19ca6ff749a36b015963052a1aa7a256e",
    },
    "verify-inject": {
        "fluctuations": "80e78180264a800542123ace6f21f4abf4e48de36d9b9748807a4bf39ae8b205",
        "cross_covariances": "53d883d831b6ba639fc022bac2e9fdc3dc1a439fb1f02dcab483b0693124949d",
        "raw_samples": "9e9b913ddfbd0566e6a301afb29df4e19ca6ff749a36b015963052a1aa7a256e",
    },
    "simulate": {
        "trajectories": "537e7d1295d81f4db435e06e925e3fefb85b43d45b207f8cb11aeed69280d7da",
    },
    "simulate-fk-3-4": {
        "trajectories": "36bfd57ca51997081cc06a4f87ec9e38f0a50db95aa94d1f4883f80cd4ff0212",
    },
}


@pytest.mark.parametrize("case", sorted(RUN_DIGESTS))
def test_run_tables_are_pinned(tmp_path, case):
    out = tmp_path / "o"
    if case == "simulate":
        cfgp = write_cfg(tmp_path, toy_text(levels=1, iterations=50, replicates=2))
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    elif case == "simulate-fk-3-4":
        # 12 path states at level 1 and 12 replicates: labels and
        # replicate ids of one and two digits
        text = random_fk_oracle_text((3, 4)).replace(
            "iterations = 1000", "iterations = 120\nreplicates = 12"
        )
        cfgp = write_cfg(tmp_path, text)
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
    else:
        cfgp = write_cfg(tmp_path, ANNEALING_VERIFY)
        flags = ["--inject-variance-error"] if case == "verify-inject" else []
        # at R = 40 the bias allowance hides the doubled theory, so the
        # verdict is pinned through the pass column, not the exit code
        code = cli.main(["verify", "--config", cfgp, "--out", str(out), "--workers", "1", *flags])
        assert code in (0, 1)
    digests = {
        table: hashlib.sha256((out / f"{table}.csv").read_bytes()).hexdigest()
        for table in RUN_DIGESTS[case]
    }
    assert digests == RUN_DIGESTS[case]


def test_verify_enumerates_each_path_space_once(tmp_path, monkeypatch):
    # R above the harness chunk, so run_batch runs two chunks
    assert harness.DEFAULT_CHUNK < 300
    built, build = [], fk.PathSpace

    def counted(*args, **kwargs):
        ps = build(*args, **kwargs)
        built.append(ps.space.id)
        return ps

    monkeypatch.setattr(fk, "PathSpace", counted)
    text = (Path(__file__).resolve().parent.parent / "configs" / "toy_verify.ini").read_text()
    text = text.replace("iterations = 20000", "iterations = 200")
    text = text.replace("replicates = 400", "replicates = 300")
    text = text.replace("checkpoints = 1000 10000 20000", "checkpoints = 100 200")
    cfgp = write_cfg(tmp_path, text)
    code = cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--workers", "1"])
    assert code in (0, 1)
    assert sorted(built) == ["S'0", "S'0^(0:1)", "S'0^(0:2)"]


@pytest.mark.parametrize("edit, flags, field", [
    (("terminal_indicator(0)", "terminal_indicator(x)"), [], "functions.fterm"),
    (("terminal_indicator(0)", "indicator(x)"), [], "functions.fterm"),
    (("[functions]", "workers = two\n[functions]"), [], "engine.workers"),
    (("[functions]", "workers = 0\n[functions]"), [], "engine.workers"),
    (None, ["--workers", "0"], "--workers"),
    (("p = 0.5", "p = abc"), [], "model.p"),
    (("betas = 1.0 2.0 3.0", "betas = 1.0 nan 3.0"), [], "model"),
    # a name defined twice at level 1 would key two columns alike
    (("fterm = terminal_indicator(0)", "fterm = terminal_indicator(0)\nfterm@1 = 1 1 0 0"),
     [], "functions.fterm@1"),
    # a comma in a name would shift the columns of every verify table
    (("fterm = ", "f,g = "), [], "functions.f,g"),
    (("fterm = terminal_indicator(0)", "@1 = 1 1 0 0"), [], "functions.@1"),
    (("iterations = 100", "iterations = abc"), [], "engine.iterations"),
    (("iterations = 100\n", ""), [], "engine.iterations"),
    (("seed = 3", "seed = 1.5"), [], "engine.seed"),
    # G'(1) = p is subnormal, and the MH acceptance ratio 1/G' overflows
    (("p = 0.5", "p = 1e-320"), [], "potential 0"),
], ids=["terminal-indicator", "indicator", "workers-word", "workers-zero",
        "flag-workers-zero", "p-word", "betas-nan", "name-twice", "name-comma",
        "name-empty", "iterations-word", "iterations-missing", "seed-fraction",
        "p-subnormal"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_config_fault_exit_2(tmp_path, capsys, edit, flags, field):
    text = toy_text(levels=1, iterations=100, replicates=4, out=str(tmp_path / "v"))
    if edit:
        text = text.replace(*edit)
    cfgp = write_cfg(tmp_path, text)
    assert cli.main(["verify", "--config", cfgp, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err, err
    assert not (tmp_path / "v").exists()


EXPLICIT_FK = """
[model]
type = fk
spaces = 2 2
initial = 0.5 0.5
transition_1 = 0.9 0.1; 0.2 0.8
potential_0 = 1.0 0.5

[engine]
levels = 1
iterations = 100
replicates = 4

[functions]
f = terminal_indicator(0)
"""

ANNEALING = """
[model]
type = annealing
size = 3
potential = 0.0 0.5 1.5
betas = 0.5 1.0
epsilon = 0.2

[engine]
levels = 1
iterations = 100
replicates = 4

[functions]
ground = indicator(0)
"""


@pytest.mark.parametrize("text, edit, field", [
    (EXPLICIT_FK, ("potential_0 = 1.0 0.5", "potential_0 = 1.0 0.5 0.5"), "model.potential_0"),
    (EXPLICIT_FK, ("[engine]", "m0 = 1 0 0; 0 1 0; 0 0 1\n[engine]"), "model.m0"),
    (ANNEALING, ("epsilon = 0.2", "epsilon = x"), "model.epsilon"),
    (ANNEALING, ("potential = 0.0 0.5 1.5", "potential = 0.0 nan 1.5"), "model"),
    # pi(1) is subnormal at beta = 1 and underflows to 0 at beta = 2
    (ANNEALING, ("potential = 0.0 0.5 1.5\nbetas = 0.5 1.0",
                 "potential = 0.0 740 1.5\nbetas = 1.0 2.0"), "model"),
    (ANNEALING, ("[engine]", "reference = 1 2\n[engine]"), "model.reference"),
    (ANNEALING, ("[engine]", "reference =\n[engine]"), "model.reference"),
    (ANNEALING, ("ground = indicator(0)", "ground@1 = 1 0"), "functions.ground@1"),
    (ANNEALING, ("[engine]", "proposal = 0.5 0.5; 0.5 0.5\n[engine]"), "model.proposal"),
    (ANNEALING, ("[engine]", "proposal = 0.5 0.5 0; 0.25 0.5 0.25; 0 0.5 0.5\n[engine]"),
     "proposal"),
], ids=["potential-length", "m0-shape", "epsilon-word", "potential-nan", "potential-underflow",
        "reference-length", "reference-empty", "function-length", "proposal-shape",
        "proposal-asymmetric"])
def test_model_fault_exit_2(tmp_path, capsys, text, edit, field):
    out = tmp_path / "v"
    cfgp = write_cfg(tmp_path, text.replace(*edit) + f"\n[output]\ndirectory = {out}\n")
    assert cli.main(["verify", "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err, err
    assert not out.exists()


def test_subnormal_gibbs_weight_builds_without_warning(tmp_path):
    # pi(1) is subnormal at both betas, so pi(0)/pi(1) would overflow,
    # and pytest turns the warning into an error
    text = ANNEALING.replace("potential = 0.0 0.5 1.5\nbetas = 0.5 1.0",
                             "potential = 0.0 720 1.5\nbetas = 1.0 1.01")
    cfgp = write_cfg(tmp_path, text)
    assert cli.main(["oracle", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("text, edit, field", [
    (toy_text(), ("[engine]", "kernal = rank_one\n[engine]"), "model.kernal"),
    # read as the default 2 replicates, a toy verify passed even with its
    # variances doubled
    (toy_text(), ("replicates =", "replicate ="), "engine.replicate"),
    (toy_text(), ("directory =", "directroy ="), "output.directroy"),
    (toy_text(), ("[output]", "[output]\nformats = csv"), "output.formats"),
    (EXPLICIT_FK, ("[engine]", "transition_2 = 0.9 0.1; 0.2 0.8\n[engine]"), "model.transition_2"),
    (ANNEALING, ("[engine]", "kernel = mh\n[engine]"), "model.kernel"),
], ids=["model", "engine", "output", "output-formats", "fk-transition", "annealing-kernel"])
def test_unknown_key_exit_2(tmp_path, capsys, text, edit, field):
    cfgp = write_cfg(tmp_path, text.replace(*edit))
    assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{field}: unknown key" in err, err
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command", ["oracle", "simulate"])
def test_workers_only_on_verify(tmp_path, capsys, command):
    cfgp = write_cfg(tmp_path, toy_text(levels=1, iterations=50, replicates=2,
                                        out=str(tmp_path / "o")))
    with pytest.raises(SystemExit) as usage:
        cli.main([command, "--config", cfgp, "--workers", "2"])
    assert usage.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert cli.main([command, "--config", cfgp]) == 0


def short_annealing_verify(tmp_path):
    text = (Path(__file__).resolve().parent.parent / "configs" / "annealing_verify.ini").read_text()
    text = text.replace("iterations = 20000", "iterations = 600")
    text = text.replace("checkpoints = 1000 10000 20000", "checkpoints = 300 600")
    return write_cfg(tmp_path, text)


def test_verify_samples_same_for_one_and_two_workers(tmp_path, monkeypatch):
    # two usable CPUs, so --workers 2 runs two processes on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfgp = short_annealing_verify(tmp_path)
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        code = cli.main(["verify", "--config", cfgp, "--out", str(out), "--workers", workers])
        assert code in (0, 1)
        assert_no_child_left()
    a = (tmp_path / "w1" / "raw_samples.csv").read_bytes()
    assert a == (tmp_path / "w2" / "raw_samples.csv").read_bytes()
    assert a.count(b"\n") > 400


def test_verify_worker_crash_exit_3(tmp_path, monkeypatch, capsys):
    parent, run_batch = os.getpid(), harness.run_batch

    def crash_in_child(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harness, "run_batch", crash_in_child)
    cfgp = short_annealing_verify(tmp_path)
    assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "ChildProcessError: worker " in err, err
    assert f"killed by signal {signal.SIGKILL.value} ({signal.strsignal(signal.SIGKILL)})" in err, err
    assert_no_child_left()


def test_verify_worker_error_exit_3_with_its_traceback(tmp_path, monkeypatch, capfd):
    parent, run_batch = os.getpid(), harness.run_batch

    def raise_in_child(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("replicate went wrong")
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harness, "run_batch", raise_in_child)
    cfgp = short_annealing_verify(tmp_path)
    assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--workers", "2"]) == 3
    # the child writes its traceback to file descriptor 2 itself
    err = capfd.readouterr().err
    assert "Traceback (most recent call last)" in err, err
    assert "RuntimeError: replicate went wrong" in err, err
    assert "ChildProcessError: worker " in err and "exited with code 1" in err, err
    assert_no_child_left()


def test_verify_with_workers_never_loads_multiprocessing(tmp_path):
    cfgp = short_annealing_verify(tmp_path)
    src = Path(__file__).resolve().parent.parent / "src"
    report = tmp_path / "modules.json"
    # two usable CPUs, so --workers 2 runs two processes on any machine
    probe = (
        "import json, os, sys, imcmc.cli; "
        "os.sched_getaffinity = lambda pid: {0, 1}; "
        f"code = imcmc.cli.main(['verify', '--config', {cfgp!r}, '--out', {str(tmp_path / 'v')!r}, "
        "'--workers', '2']); "
        f"json.dump({{'code': code, 'modules': sorted(sys.modules)}}, open({str(report)!r}, 'w'))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                   capture_output=True, timeout=120)
    loaded = json.loads(report.read_text())
    assert loaded["code"] in (0, 1)
    for pool in ("multiprocessing", "concurrent.futures"):
        assert not [k for k in loaded["modules"] if k == pool or k.startswith(pool + ".")], pool


def test_verify_over_memory_budget_exit_3_before_fork(tmp_path, monkeypatch, capsys):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    # 64 KiB is below one replicate's block buffers alone
    monkeypatch.setattr(harness, "_memory_limit", lambda: 1 << 16)
    cfgp = short_annealing_verify(tmp_path)
    assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--workers", "2"]) == 3
    err = capsys.readouterr().err
    assert "MemoryError: one replicate needs" in err, err
    assert_no_child_left()


def test_import_loads_only_the_package():
    # perfbench's setup_s times this import with bytecode caching off
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import json, sys, imcmc.cli; "
        "json.dump({k: getattr(m, '__file__', None) for k, m in sys.modules.items()}, sys.stdout)"
    )
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    loaded = json.loads(out)
    # numpy.random is imported only when a run draws
    for heavy in ("scipy", "multiprocessing", "concurrent.futures", "numpy.random"):
        assert not [k for k in loaded if k == heavy or k.startswith(heavy + ".")], heavy
    ours = {k for k in loaded if k == "imcmc" or k.startswith("imcmc.")}
    assert ours == {"imcmc"} | {
        f"imcmc.{m}" for m in (
            "annealing", "cli", "config", "engine", "fk", "harness", "measures",
            "oracle", "reporting",
        )
    }
    tests = str(Path(__file__).resolve().parent)
    assert not [k for k, f in loaded.items() if f and f.startswith(tests)]


def test_cmd_weights(tmp_path, capsys):
    out = tmp_path / "w"
    assert cli.main(["weights", "--kmax", "3", "--n", "20000", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "rel_error" in text
    header, rows, _ = read_rows(out / "weights.csv")
    assert [float(r[3]) for r in rows] == [2.0, 6.0, 20.0]
    rels = [float(r[4]) for r in rows]
    assert rels[0] < 0.02 and rels[1] < 0.03 and rels[2] < 0.05
    capsys.readouterr()
    bad = tmp_path / "bad"
    for args in (["--kmax", "7"], ["--n", "-1"], ["--n", "0"], ["--kmax", "0"], ["--kmax", "-2"]):
        assert cli.main(["weights", *args, "--out", str(bad)]) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "", args
        assert captured.err.startswith("weights: ") and captured.err.count("\n") == 1, args
        assert "Traceback" not in captured.err
        assert not (bad / "weights.csv").exists()
