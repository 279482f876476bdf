"""In-memory span tracer wrapped around the public functions of ``imcmc``.

Each traced function is replaced at every name under which an ``imcmc``
module looks it up (``imcmc.harness.run_batch`` and ``imcmc.cli.run_batch``
are two names for one function), so calls made through any of them are
timed.  A span records its name, parent, thread and monotonic start and
end; spans stay in memory and are written out once the run is over.  A
span opened
on a worker thread with no open span of its own gets the innermost
span open on the main thread as its parent, which during a threaded
``verify`` is the ``run_replicates`` span that started the pool.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: Traced functions, as ``layer.function``; the layer is the module name.
TRACED = (
    "cli.cmd_oracle",
    "cli.cmd_simulate",
    "cli.cmd_verify",
    "config.load_config",
    "reporting.write_csv",
    "engine.run_batch",
    "engine.export_trajectories_csv",
    "harness.verify_theorem",
    "harness.run_replicates",
    "harness.empirical_fluctuations",
    "oracle.build_clt_spec",
    "oracle.resolvent_bundle",
    "oracle.contraction_index",
    "oracle.resolvent",
    "oracle.resolvent_series",
    "oracle.poisson_residual",
    "oracle.local_variance",
    "oracle.asymptotic_variance",
    "oracle.asymptotic_cross_covariance",
    "oracle.d_semigroup",
    "measures.dobrushin",
    "measures.operator_norm",
    "fk.exact_path_measure",
    "fk.mh_kernel",
    "fk.rank_one_kernel",
    "fk.first_order_D",
    "annealing.mixture_kernel",
    "annealing.first_order_D",
    "annealing.geometric_kernel",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.batch_args: list[tuple[int, tuple[int, ...], int, int, int]] = []
        self.workers: list[int] = []
        self.installed: list[str] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` that the package still has."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "imcmc" or k.startswith("imcmc.")) and m is not None]
        for name in TRACED:
            layer, fn_name = name.split(".")
            owner = sys.modules.get(f"imcmc.{layer}")
            fn = getattr(owner, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
            self.installed.append(name)

    def _wrap(self, name: str, fn):
        record = {
            "engine.run_batch": self._record_batch,
            "harness.run_replicates": self._record_workers,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            with self._lock:
                sid = len(self.spans)
                span = {"id": sid, "name": name, "parent": parent,
                        "thread": threading.get_ident(), "start": 0.0, "end": 0.0}
                self.spans.append(span)
            if record is not None:
                record(args, kwargs)
            stack.append(sid)
            span["start"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                stack.pop()

        return traced

    def _record_batch(self, args, kwargs) -> None:
        config = args[0] if args else kwargs["config"]
        replicates = args[1] if len(args) > 1 else kwargs["replicates"]
        block = kwargs.get("block", 2048)
        with self._lock:
            self.batch_args.append((config.seed, tuple(int(r) for r in replicates),
                                    config.levels, config.iterations, block))

    def _record_workers(self, args, kwargs) -> None:
        with self._lock:
            self.workers.append(max(1, kwargs.get("workers") or 1))

    def summary(self) -> dict[str, float]:
        """Total time, self time and calls per traced function.

        A call nested in a call of the same function (a recursion) counts
        as a call but adds nothing to the function's total time.
        """
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}
        for name in self.installed:
            out[f"{name}_s"] = 0.0
            out[f"{name}_self_s"] = 0.0
            out[f"{name}_calls"] = 0
        for s in self.spans:
            total = s["end"] - s["start"]
            own = total - covered(s, children.get(s["id"], ()))
            if not self._nested_in_itself(s):
                out[f"{s['name']}_s"] += total
            out[f"{s['name']}_self_s"] += own
            out[f"{s['name']}_calls"] += 1
        return out

    def _nested_in_itself(self, span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == span["name"]:
                return True
            parent = self.spans[parent]["parent"]
        return False


def covered(span: dict, kids) -> float:
    """Length of the part of `span` that the union of `kids` covers."""
    lo, hi = span["start"], span["end"]
    intervals = sorted((max(k["start"], lo), min(k["end"], hi)) for k in kids)
    total, cur_start, cur_end = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
