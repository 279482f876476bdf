"""Run configuration: a flat, sectioned key-value text format.

The format is INI-like with explicit array syntax chosen for
diff-friendly golden files: scalars are bare tokens, vectors are
space-separated numbers, matrices separate rows with ``;``.

Example (two-state tempering preset)::

    [model]
    type = fk
    preset = toy
    p = 0.25
    betas = 0.5 1.0 1.5 2.0

    [engine]
    levels = 2
    iterations = 20000
    seed = 20240811
    replicates = 400
    checkpoints = 1000 10000 20000

    [functions]
    fterm = terminal_indicator(0)

    [output]
    directory = out

Example (annealing)::

    [model]
    type = annealing
    size = 4
    potential = 0.0 1.0 2.0 3.0
    betas = 0.3 0.6 0.9 1.2
    epsilon = 0.3
    proposal = uniform

A general Feynman-Kac model lists per-level pieces explicitly::

    [model]
    type = fk
    spaces = 2 2 2
    initial = 0.5 0.5
    transition_1 = 0.9 0.1; 0.2 0.8
    transition_2 = 0.9 0.1; 0.2 0.8
    potential_0 = 1.0 0.5
    potential_1 = 1.0 0.5
    kernel = mh              # or rank_one
    m0 = 0.9 0.1; 0.2 0.8    # optional homogeneous level-0 kernel

Functions are either ``terminal_indicator(i)`` / ``indicator(i)``
(defined on every level) or per-level value tables keyed
``name@level = v0 v1 ...``.  Every other section takes only the keys
shown above for its model; any other key is a :class:`ConfigError`.
"""

from __future__ import annotations

import configparser
import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from . import annealing as ann
from . import fk
from .engine import EngineConfig
from .measures import MAX_STATES, FiniteSpace, IntegralOperator, Measure, TestFunction


class ConfigError(ValueError):
    """A malformed run configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _floats(path: str, text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split()])
    except ValueError:
        raise ConfigError(path, f"expected a space-separated number list, got {text!r}")


def _float(path: str, text: str) -> float:
    values = _floats(path, text)
    if values.size != 1:
        raise ConfigError(path, f"expected one number, got {text!r}")
    return float(values[0])


def _ints(path: str, text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split()]
    except ValueError:
        raise ConfigError(path, f"expected a space-separated integer list, got {text!r}")


def parse_int(path: str, text, minimum: int | None = None) -> int:
    """One integer, at least `minimum` when given; `path` names the field."""
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(path, f"expected an integer, got {text!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _matrix(path: str, text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    data = [_floats(path, r) for r in rows]
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ConfigError(path, "matrix rows have inconsistent lengths")
    return np.array(data)


def _stochastic(path: str, m: np.ndarray) -> np.ndarray:
    if m.min() < 0 or np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
        raise ConfigError(path, "matrix must be row-stochastic within 1e-9")
    return m / m.sum(axis=1, keepdims=True)


def _known_keys(section: str, sec, known) -> None:
    """A ``ConfigError`` naming the first key of `sec` outside `known`."""
    for key in sec:
        if key not in known:
            raise ConfigError(f"{section}.{key}", "unknown key")


def _checked(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ``ValueError`` reported against the field `path`."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(path, str(e))


@dataclass
class RunConfig:
    """Parsed configuration plus the raw bytes it came from."""

    model: object
    levels: int
    iterations: int
    seed: int
    replicates: int
    checkpoints: list[int]
    workers: int | None
    functions: list[list[tuple[str, TestFunction]]]
    output_dir: str
    raw: bytes = field(repr=False, default=b"")

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.raw).hexdigest()

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            model=self.model,
            levels=self.levels,
            iterations=self.iterations,
            seed=self.seed,
        )


def _build_fk_model(sec) -> fk.FKModel:
    preset = sec.get("preset")
    kernel = sec.get("kernel", "mh")
    if kernel not in ("mh", "rank_one"):
        raise ConfigError("model.kernel", f"must be 'mh' or 'rank_one', got {kernel!r}")
    if preset == "toy":
        _known_keys("model", sec, {"type", "preset", "kernel", "p", "betas"})
        if "p" not in sec or "betas" not in sec:
            raise ConfigError("model", "preset 'toy' needs fields p and betas")
        p = _float("model.p", sec["p"])
        betas = _floats("model.betas", sec["betas"])
        if not 0 < p < 1:
            raise ConfigError("model.p", f"must lie in (0, 1), got {p}")
        if len(betas) < 2 or np.any(np.diff(betas) <= 0) or betas[0] <= 0:
            raise ConfigError("model.betas", "must be strictly increasing and positive")
        return _checked("model", fk.toy_model, p, betas, kernel_type=kernel)
    if preset is not None:
        raise ConfigError("model.preset", f"unknown preset {preset!r}")
    if "spaces" not in sec:
        raise ConfigError("model.spaces", "required for an explicit fk model")
    sizes = _ints("model.spaces", sec["spaces"])
    if not sizes or not all(1 <= s <= MAX_STATES for s in sizes):
        raise ConfigError("model.spaces", f"sizes must lie in 1..{MAX_STATES}, got {sizes}")
    spaces = tuple(FiniteSpace(id=f"S'{l}", size=s) for l, s in enumerate(sizes))
    L = len(sizes) - 1
    numbered = {f"transition_{l}" for l in range(1, L + 1)} | {f"potential_{l}" for l in range(L)}
    _known_keys("model", sec, numbered | {"type", "kernel", "spaces", "initial", "m0"})
    if "initial" not in sec:
        raise ConfigError("model.initial", "required")
    w = _floats("model.initial", sec["initial"])
    initial = _checked("model.initial", Measure, spaces[0], w)
    transitions = []
    for l in range(1, L + 1):
        key = f"transition_{l}"
        if key not in sec:
            raise ConfigError(f"model.{key}", "required")
        m = _stochastic(f"model.{key}", _matrix(f"model.{key}", sec[key]))
        transitions.append(_checked(f"model.{key}", IntegralOperator, spaces[l - 1], spaces[l], m))
    potentials = []
    for l in range(L):
        key = f"potential_{l}"
        if key not in sec:
            raise ConfigError(f"model.{key}", "required")
        values = _floats(f"model.{key}", sec[key])
        potentials.append(_checked(f"model.{key}", TestFunction, spaces[l], values))
    level0 = None
    if "m0" in sec:
        m = _stochastic("model.m0", _matrix("model.m0", sec["m0"]))
        level0 = _checked("model.m0", IntegralOperator, spaces[0], spaces[0], m)
    return _checked(
        "model",
        fk.FKModel,
        base_spaces=spaces,
        initial=initial,
        transitions=tuple(transitions),
        potentials=tuple(potentials),
        level0_kernel=level0,
        kernel_type=kernel,
    )


def _build_annealing_model(sec) -> ann.AnnealingModel:
    keys = {"type", "size", "potential", "betas", "epsilon", "reference", "proposal"}
    _known_keys("model", sec, keys)
    for key in ("potential", "betas", "epsilon"):
        if key not in sec:
            raise ConfigError(f"model.{key}", "required for an annealing model")
    values = _floats("model.potential", sec["potential"])
    size = _ints("model.size", sec["size"]) if "size" in sec else [values.size]
    if len(size) != 1 or not 1 <= size[0] <= MAX_STATES:
        raise ConfigError("model.size", f"must be one integer in 1..{MAX_STATES}, got {size}")
    (size,) = size
    if size != values.size:
        raise ConfigError("model.potential", f"expected {size} entries, got {values.size}")
    space = FiniteSpace(id="S", size=size)
    betas = _floats("model.betas", sec["betas"])
    if len(betas) < 2 or np.any(np.diff(betas) <= 0) or betas[0] <= 0:
        raise ConfigError("model.betas", "must be strictly increasing and positive")
    epsilon = _float("model.epsilon", sec["epsilon"])
    if not 0 <= epsilon < 1:
        raise ConfigError("model.epsilon", f"must lie in [0, 1), got {epsilon}")
    reference = None
    if "reference" in sec and sec["reference"] != "uniform":
        w = _floats("model.reference", sec["reference"])
        if not (w > 0).all():
            raise ConfigError("model.reference", "must be strictly positive")
        reference = _checked("model.reference", Measure, space, w / w.sum())
    proposal = None
    if "proposal" in sec and sec["proposal"] != "uniform":
        m = _stochastic("model.proposal", _matrix("model.proposal", sec["proposal"]))
        proposal = _checked("model.proposal", IntegralOperator, space, space, m)
    # make_metropolis_model checks that the proposal is symmetric
    return _checked(
        "model",
        ann.make_metropolis_model,
        space,
        values,
        betas,
        epsilon,
        proposal=proposal,
        reference=reference,
    )


def _build_functions(sec, spaces: list[fk.PathSpace]) -> list[list[tuple[str, TestFunction]]]:
    out: list[list[tuple[str, TestFunction]]] = [[] for _ in spaces]
    levels = len(spaces) - 1
    for key, value in sec.items():
        path = f"functions.{key}"
        name, _, lvl = key.partition("@")
        value = value.strip()
        # a name is a CSV cell of every verify table
        if not re.fullmatch(r"\w+", name, re.ASCII):
            raise ConfigError(path, f"a name takes letters, digits and _ only, got {name!r}")
        if lvl:
            try:
                k = int(lvl)
            except ValueError:
                raise ConfigError(path, f"bad level suffix {lvl!r}")
            if not 0 <= k <= levels:
                raise ConfigError(path, f"level {k} out of range 0..{levels}")
            values = _floats(path, value)
            defined = [(k, _checked(path, TestFunction, spaces[k].space, values))]
        elif value.startswith("terminal_indicator(") and value.endswith(")"):
            idx = parse_int(path, value[len("terminal_indicator(") : -1])
            defined = []
            for k, ps in enumerate(spaces):
                vals = (ps.terminal == idx).astype(float)
                if not vals.any():
                    raise ConfigError(path, f"state {idx} out of range")
                defined.append((k, TestFunction(ps.space, vals)))
        elif value.startswith("indicator(") and value.endswith(")"):
            idx = parse_int(path, value[len("indicator(") : -1])
            defined = []
            for k, ps in enumerate(spaces):
                if not 0 <= idx < ps.space.size:
                    raise ConfigError(path, f"state {idx} out of range at level {k}")
                defined.append((k, TestFunction.indicator(ps.space, idx)))
        else:
            raise ConfigError(
                path, "expected terminal_indicator(i), indicator(i), or a name@level table"
            )
        for k, f in defined:
            if any(known == name for known, _ in out[k]):
                raise ConfigError(path, f"{name!r} is already defined at level {k}")
            out[k].append((name, f))
    for k, fs in enumerate(out):
        if not fs:
            raise ConfigError("functions", f"no function defined for level {k}")
    return out


def parse_config(raw: bytes) -> RunConfig:
    """Parse and validate configuration bytes into a :class:`RunConfig`."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(raw.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as e:
        raise ConfigError("<file>", f"unparseable config: {e}")
    for section in ("model", "engine"):
        if section not in parser:
            raise ConfigError(section, "missing section")
    msec = parser["model"]
    mtype = msec.get("type")
    if mtype == "fk":
        model = _build_fk_model(msec)
    elif mtype == "annealing":
        model = _build_annealing_model(msec)
    else:
        raise ConfigError("model.type", f"must be 'fk' or 'annealing', got {mtype!r}")

    esec = parser["engine"]
    keys = {"levels", "iterations", "seed", "replicates", "checkpoints", "workers"}
    _known_keys("engine", esec, keys)
    if "iterations" not in esec:
        raise ConfigError("engine.iterations", "required")
    levels = parse_int("engine.levels", esec.get("levels", model.levels), 0)
    if levels > model.levels:
        raise ConfigError("engine.levels", f"must lie in 0..{model.levels}, got {levels}")
    iterations = parse_int("engine.iterations", esec["iterations"], 1)
    seed = parse_int("engine.seed", esec.get("seed", 0))
    replicates = parse_int("engine.replicates", esec.get("replicates", 2), 2)
    checkpoints = (
        _ints("engine.checkpoints", esec["checkpoints"])
        if "checkpoints" in esec
        else sorted({m for m in (1000, 10000) if m < iterations} | {iterations})
    )
    if any(n < 0 or n > iterations for n in checkpoints):
        raise ConfigError("engine.checkpoints", "entries must lie in 0..iterations")
    workers = parse_int("engine.workers", esec["workers"], 1) if "workers" in esec else None

    spaces = []
    for k in range(levels + 1):
        try:
            spaces.append(model.level_space(k))
        except ValueError as e:
            raise ConfigError("engine.levels", f"level {k}: {e}")
    if "functions" in parser and len(parser["functions"]) > 0:
        functions = _build_functions(parser["functions"], spaces)
    else:
        raise ConfigError("functions", "missing section")

    osec = parser["output"] if "output" in parser else {}
    _known_keys("output", osec, {"directory"})
    output_dir = osec.get("directory", "out")

    return RunConfig(
        model=model,
        levels=levels,
        iterations=iterations,
        seed=seed,
        replicates=replicates,
        checkpoints=sorted(set(checkpoints)),
        workers=workers,
        functions=functions,
        output_dir=output_dir,
        raw=raw,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "rb") as fh:
        return parse_config(fh.read())
