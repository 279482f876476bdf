"""One benchmark process: import ``imcmc.cli``, run CLI commands, report.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the
commands (argument lists for ``imcmc.cli.main``), whether to trace, and
where to write the result JSON.  The parent measures set-up time from
the moment it starts this process to the ``ready`` stamp taken right
after ``imcmc.cli`` is imported; both are ``time.monotonic`` readings,
which every process on the machine shares.
"""

import time
import json
import os
import sys
import traceback

import imcmc.cli

READY = time.monotonic()


def philox_floor(batch_args) -> float:
    """Seconds to draw the uniforms of the given ``run_batch`` calls alone.

    Replays the engine's stream layout: one uniform per ``(replicate,
    level)`` stream to initialize, then ``DRAWS_PER_STEP`` per sweep in
    blocks of ``block`` sweeps.
    """
    from imcmc import engine

    draws = getattr(engine, "DRAWS_PER_STEP", 3)
    t = time.perf_counter()
    for seed, replicates, levels, iterations, block in batch_args:
        for r in replicates:
            for k in range(levels + 1):
                g = engine.stream(seed, r, k)
                g.random()
                for t0 in range(0, iterations, block):
                    g.random((min(block, iterations - t0), draws))
    return time.perf_counter() - t


def layer_metrics(tracer, outputs) -> dict[str, float]:
    """Per-layer metrics: the tracer's summary plus ratios measured from it."""
    from imcmc import engine

    m = tracer.summary()
    batch_s = m.get("engine.run_batch_s", 0.0)
    steps = sum(len(reps) * n * (L + 1) for _, reps, L, n, _ in tracer.batch_args)
    m["engine.level_steps"] = steps
    m["engine.level_steps_per_s"] = steps / batch_s if batch_s > 0 else 0.0
    if hasattr(engine, "stream"):
        floor = philox_floor(tracer.batch_args)
        m["engine.philox_floor_s"] = floor
        m["engine.floor_ratio"] = batch_s / floor if floor > 0 else 0.0
    m["engine.export_mb"] = sum(
        os.path.getsize(p) for p in outputs if os.path.exists(p)
    ) / 1e6
    pool_s = sum(s["end"] - s["start"] for s in tracer.spans
                 if s["name"] == "harness.run_replicates")
    in_pool_s = sum(
        s["end"] - s["start"] for s in tracer.spans
        if s["name"] == "engine.run_batch" and s["parent"] is not None
        and tracer.spans[s["parent"]]["name"] == "harness.run_replicates"
    )
    workers = max(tracer.workers, default=1)
    m["harness.worker_busy_ratio"] = in_pool_s / (workers * pool_s) if pool_s > 0 else 0.0
    if "harness.run_replicates_self_s" in m:
        # run_replicates minus the union of its run_batch spans
        m["harness.self_s"] = m.pop("harness.run_replicates_self_s")
    return m


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import numpy
    import scipy

    result = {
        "ready": READY,
        "imcmc_file": os.path.abspath(imcmc.cli.__file__),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commands": [],
    }
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for argv in spec["commands"]:
        t = time.perf_counter()
        try:
            code = imcmc.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = -1
        result["commands"].append(
            {"argv": argv, "exit": code, "wall_s": time.perf_counter() - t}
        )
    sys.stdout.flush()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, spec["exports"])
        result["absent"] = tracer.absent
        result["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
