"""End-to-end and per-layer benchmark of the ``imcmc`` command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload verify-fk-mh --seed 0 --seconds 30 --trace 0

Each repetition of a workload runs its ``imcmc`` commands in a fresh
child process (``perfbench/child.py``) with ``src`` on its path, one
child at a time, and checks the outputs it wrote.  With ``--trace 0``
the run repeats the workload while another repetition fits in
``--seconds`` and reports the medians of

* ``wall_s``: time of the workload's CLI commands, after set-up;
* ``setup_s``: from child start until ``imcmc.cli`` is imported, over
  the repetitions plus three children that only import;
* ``peak_rss_mb``: peak RSS of the child that ran the workload.

With ``--trace 1`` it runs the workload once untraced and once with the
tracer of ``perfbench/tracing.py`` installed, and reports the per-layer
metrics of the traced child plus ``trace.overhead_s``, the difference of
the two wall times.  The last line of standard output is the result
JSON; the line before it is a report with the machine facts, the config
digests and every sample, also written to ``.perfbench_work/``.

Option ``--write-reference`` pins the workload's outputs from the
current code at the default seed into ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, sha256

HERE = Path(__file__).resolve().parent
#: Most threads a workload may use, in the engine's pool or in BLAS.
MAX_THREADS = 2
#: A child still running this many seconds after the run started is killed
#: and its commands fail, so the run ends well within three minutes.
RUN_LIMIT = 160.0
#: Children that only import, besides a discarded one that warms the caches.
SETUP_PROBES = 3

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts(threads: int) -> dict:
    facts = {"nproc": nproc(), "python": platform.python_version(),
             "blas_threads": threads, "cpu": platform.processor()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    return facts


class Runner:
    """Starts children one at a time in a work directory of the checkout."""

    def __init__(self, root: Path, work: Path, threads: int):
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        for var in ("IMCMC_SEED", "IMCMC_WORKERS"):
            self.env.pop(var, None)

    def child(self, commands, trace=False, exports=()) -> dict:
        """Run one child; return its result with setup, exit status and peak RSS."""
        self.count += 1
        tag = self.work / f"child{self.count}"
        spec = {"commands": commands, "trace": trace, "exports": list(exports),
                "result": str(tag) + ".result.json"}
        Path(str(tag) + ".spec.json").write_text(json.dumps(spec))
        with open(str(tag) + ".log", "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(tag) + ".spec.json"],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            status, rusage = wait(proc, self.deadline)
        log_text = Path(str(tag) + ".log").read_text()
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            result = {"commands": []}
        result["log"] = log_text
        result["status"] = status
        result["duration_s"] = time.monotonic() - start
        result["peak_rss_mb"] = rusage.ru_maxrss * 1024 / 1e6
        if "ready" in result:
            result["setup_s"] = result["ready"] - start
        src = str((self.root / "src").resolve())
        if status != 0 or not result.get("imcmc_file", "").startswith(src):
            sys.stderr.write(f"child {tag.name} failed (status {status}):\n{log_text[-2000:]}\n")
            result["commands"] = []
        return result


def wait(proc: subprocess.Popen, deadline: float):
    """Reap `proc` with ``os.wait4``, killing it at `deadline`."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def repetition(runner, workload, seed, digests, pinned, tally, trace=False, keep=False) -> dict:
    """One run of the workload's commands in a child, with its output checks.

    The outputs are deleted afterwards unless `keep`, so no repetition
    waits on the previous one's pages being written back.
    """
    commands = workload.commands(runner.work.relative_to(runner.root))
    res = runner.child(commands, trace=trace, exports=workload.exports(runner.work))
    tally.attempted += len(commands)
    ran = res["commands"]
    if len(ran) != len(commands):
        tally.failed += len(commands)
        tally.problems.append(f"child ended with status {res['status']}")
        return res
    try:
        problems = workload.check(runner.work, seed, digests,
                                  [c["exit"] for c in ran], res["log"], pinned)
    except (OSError, ValueError, KeyError, IndexError) as e:
        problems = [f"output check raised {type(e).__name__}: {e}"]
    finally:
        if not keep:
            shutil.rmtree(runner.work / "out", ignore_errors=True)
    if problems:
        tally.failed += len(commands)
        tally.problems += problems
        sys.stderr.write("output check failed:\n  " + "\n  ".join(problems) + "\n")
    res["wall_s"] = sum(c["wall_s"] for c in ran)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="pin this workload's outputs at the default seed into reference.json")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "imcmc" / "cli.py").is_file():
        print(f"no imcmc source tree under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.write_reference else args.seed
    work = root / ".perfbench_work" / f"{workload.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = {}
    for name, data in workload.configs(seed).items():
        (work / f"{name}.ini").write_bytes(data)
        digests[name] = sha256(data)
    reference_path = HERE / "reference.json"
    reference = json.loads(reference_path.read_text()) if reference_path.exists() else {}
    pinned = None if args.write_reference else reference.get(workload.name)

    threads = min(nproc(), MAX_THREADS)
    runner = Runner(root, work, threads)
    tally = Tally()
    runner.child([])  # warms the bytecode and file caches; not measured

    if args.write_reference:
        repetition(runner, workload, seed, digests, pinned, tally, keep=True)
        if tally.failed:
            print("the pinning run failed its checks", file=sys.stderr)
            return 1
        reference[workload.name] = workload.pin(work, digests)
        reference_path.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
        print(f"pinned {workload.name} into {reference_path}")
        return 0

    if pinned is None:
        tally.problems.append(f"{reference_path} has no entry for {workload.name}")
    reps = []
    if args.trace:
        plain = repetition(runner, workload, seed, digests, pinned, tally)
        traced = repetition(runner, workload, seed, digests, pinned, tally, trace=True)
        reps = [plain, traced]
        metrics = {}
        if "layers" in traced:
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in traced["layers"].items()}
            metrics["trace.overhead_s"] = {
                "value": traced.get("wall_s", 0.0) - plain.get("wall_s", 0.0), "unit": "s"}
            (work / "spans.json").write_text(json.dumps(traced.pop("spans")))
        else:
            tally.problems.append("the traced child reported no layers")
    else:
        start = time.monotonic()
        while True:
            rep = repetition(runner, workload, seed, digests, pinned, tally)
            reps.append(rep)
            now = time.monotonic()
            if (tally.failed or now - start + rep["duration_s"] > args.seconds
                    or now + rep["duration_s"] > runner.deadline):
                break
        setups = [r["setup_s"] for r in reps if "setup_s" in r]
        for _ in range(SETUP_PROBES):
            if time.monotonic() + 10 > runner.deadline:
                break
            probe = runner.child([])
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
        values = {
            "wall_s": [r["wall_s"] for r in reps if "wall_s" in r],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps if "wall_s" in r],
        }
        metrics = {name: {"value": statistics.median(v) if v else 0.0, "unit": UNITS[name]}
                   for name, v in values.items()}

    first = next((r for r in reps if "numpy" in r), {})
    report = {
        "workload": workload.name, "seed": seed, "trace": args.trace,
        "machine": {**machine_facts(threads),
                    **{k: first.get(k) for k in ("numpy", "scipy")}},
        "config_sha256": digests,
        "repetitions": [
            {k: r.get(k) for k in ("wall_s", "setup_s", "peak_rss_mb", "status")}
            for r in reps
        ],
        "absent": next((r["absent"] for r in reps if "absent" in r), []),
        "problems": tally.problems,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
