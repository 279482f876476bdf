"""Batch front door: oracle tables, simulation, verification, weights.

Commands
--------
``imcmc oracle --config cfg``
    Exact limit measures, local variances, first-order operator norms,
    asymptotic variances, and resolvent certificates, as CSV files.
``imcmc simulate --config cfg``
    One seeded run per replicate, trajectories as CSV.
``imcmc verify --config cfg``
    Replicated verification of the fluctuation variances against the
    oracle; exit code 1 when any comparison fails.
``imcmc weights --kmax 3 --n 100000``
    Weight-array partial sums against their factorial limits.

Exit codes: 0 success, 1 statistical failure, 2 configuration error,
3 numeric/internal error.  ``--seed`` overrides the config file's seed;
``verify --workers`` (default: the CPUs the process may use) alone sets
the worker count.  Every output is a deterministic function of the
config bytes and the flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, oracle
from .config import ConfigError, RunConfig, load_config, parse_int
from .engine import export_trajectories_csv, run_batch
from .harness import verify_theorem, weight_limit_table
from .reporting import format_metadata, write_csv

EXIT_OK = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, engine=dataclasses.replace(cfg.engine, seed=args.seed))
    if args.command == "verify" and args.workers is not None:
        parse_int("--workers", args.workers, 1)
    if args.out:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    return cfg


def _metadata(cfg: RunConfig) -> dict:
    return {
        "config_sha256": cfg.digest,
        "artifact_version": __version__,
        "seed": cfg.engine.seed,
    }


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_oracle(cfg: RunConfig) -> int:
    spec = oracle.build_clt_spec(cfg.engine.model, cfg.engine.levels)
    out = _outdir(cfg)
    meta = _metadata(cfg)

    rows = []
    for k in range(cfg.engine.levels + 1):
        b = spec.bundles[k]
        for idx, (label, pi) in enumerate(zip(b.space.labels, b.invariant.weights.tolist())):
            rows.append([k, idx, label, pi])
    with open(out / "limit_measures.csv", "w") as fh:
        write_csv(fh, ["level", "state", "label", "pi"], rows, meta)

    rows = []
    for k in range(cfg.engine.levels + 1):
        for name, f in cfg.functions[k]:
            terms = oracle.variance_terms(spec, k, f)
            rows.append([k, name, terms[0], oracle.sum_in_order(terms), oracle.cross_coefficient(k, k)])
    with open(out / "variances.csv", "w") as fh:
        write_csv(
            fh,
            ["level", "function", "sigma2_local", "var_asymptotic", "coefficient_sq"],
            rows,
            meta,
        )

    rows = []
    for k in range(cfg.engine.levels + 1):
        b = spec.bundles[k]
        d_norm = spec.d_ops[k].scale if k < cfg.engine.levels else float("nan")
        rows.append(
            [k, b.n0, b.m_n0, b.p_n0, b.norm, b.poisson_resid, d_norm]
        )
    with open(out / "operators.csv", "w") as fh:
        write_csv(
            fh,
            [
                "level", "n0", "m_n0", "p_n0", "resolvent_norm",
                "poisson_residual", "d_norm",
            ],
            rows,
            meta,
        )
    print(f"oracle tables written to {out}")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    result = run_batch(cfg.engine, range(cfg.replicates), keep_history=True)
    path = out / "trajectories.csv"
    with open(path, "wb") as fh:
        export_trajectories_csv(result, fh)
        fh.write(format_metadata(_metadata(cfg)).encode())
    print(f"trajectories written to {path}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, args) -> int:
    out = _outdir(cfg)
    report, samples = verify_theorem(
        cfg.engine,
        cfg.replicates,
        cfg.functions,
        checkpoints=cfg.checkpoints,
        inject_variance_error=args.inject_variance_error,
        workers=args.workers or len(os.sched_getaffinity(0)),
    )
    report.write(out, _metadata(cfg))
    with open(out / "raw_samples.csv", "w") as fh:
        samples.to_csv(fh, _metadata(cfg))

    print(f"{'level':>5} {'function':>12} {'n':>8} {'theory':>12} "
          f"{'empirical':>12} {'z':>7} {'pass':>5}")
    for r in report.variance_rows:
        theory = f"{r.var_theory:.6g}" if r.var_theory == r.var_theory else "-"
        z = f"{r.z:+.2f}" if r.z == r.z else "-"
        print(f"{r.level:>5} {r.function:>12} {r.n:>8} {theory:>12} "
              f"{r.var_empirical:>12.6g} {z:>7} {str(r.passed):>5}")
    for r in report.covariance_rows:
        print(f"cross ({r.level_a},{r.function_a})x({r.level_b},{r.function_b}) "
              f"n={r.n} theory={r.cov_theory:.6g} empirical={r.cov_empirical:.6g} "
              f"z={r.z:+.2f} pass={r.passed}")
    print(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_STAT_FAIL


def cmd_weights(k_max: int, n: int, out_dir: str | None) -> int:
    try:
        rows = weight_limit_table(k_max, n)
    except ValueError as e:
        print(f"weights: {e}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{'k':>3} {'n':>9} {'partial':>14} {'limit':>10} {'rel_error':>12}")
    for k, m, val, lim, rel in rows:
        print(f"{k:>3} {m:>9} {val:>14.8f} {lim:>10.1f} {rel:>12.3e}")
    if out_dir:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "weights.csv", "w") as fh:
            write_csv(
                fh,
                ["k", "n", "partial_sum", "limit", "rel_error"],
                rows,
                {"artifact_version": __version__},
            )
        print(f"table written to {path / 'weights.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="imcmc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("oracle", "simulate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory override")
        if name == "verify":
            p.add_argument("--workers", type=int, default=None)
            p.add_argument(
                "--inject-variance-error", action="store_true",
                help="self-test: double the theoretical variances (must FAIL)",
            )
    w = sub.add_parser("weights")
    w.add_argument("--kmax", type=int, default=3)
    w.add_argument("--n", type=int, default=100_000)
    w.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "weights":
            return cmd_weights(args.kmax, args.n, args.out)
        try:
            cfg = _apply_overrides(load_config(args.config), args)
        except (ConfigError, OSError) as e:
            print(f"config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        if args.command == "oracle":
            return cmd_oracle(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_verify(cfg, args)
    except oracle.OracleError as e:
        print(f"oracle error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except np.linalg.LinAlgError as e:
        print(f"linear algebra failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ChildProcessError, MemoryError) as e:
        print(f"worker or memory failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
