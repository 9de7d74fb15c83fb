"""Wall-clock benchmark of the Kylix reproduction, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-iterate --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The line before it (``report``)
repeats them with the host facts, the op count, the tail percentile and
the metrics the result line leaves out.  The exit code is 0 when
every op's result was correct and every exact check held, 1 otherwise.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from spans import Tracer, self_time

ROOT = Path(__file__).resolve().parent.parent

#: Fewest timed ops in a loop, so the tail percentile has 10 samples beyond it.
MIN_OPS = 11

#: The end-to-end metrics of the result line (``BENCHMARK.json``).
END_TO_END = {
    "op_tail_ms": "ms",
    "reduces_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: End-to-end metrics printed in the report line only.  A gated
#: metric must exist on every workload, never read 0, and vary between
#: runs by less than its bound; see README.md for why each of these
#: fails one of the three.
REPORT_ONLY = {
    "op_p50_ms": "ms",
    "error_rate": "fraction",
    "sim_ms_per_op": "ms",
}

PER_LAYER = {
    "sparse.union_ms": "ms",
    "sparse.union_calls": "count",
    "sparse.union_keys_in": "count",
    "sparse.union_keep_ratio": "ratio",
    "sparse.split_ms": "ms",
    "sparse.hash_ms": "ms",
    "simul.events": "count",
    "simul.self_ms": "ms",
    "simul.us_per_event": "us",
    "cluster.send_ms": "ms",
    "cluster.recv_ms": "ms",
    "cluster.messages": "count",
    "cluster.bytes": "bytes",
    "cluster.bytes.L1": "bytes",
    "cluster.bytes.L2": "bytes",
    "cluster.bytes.L3": "bytes",
    "allreduce.configure_ms": "ms",
    "service.submit_ms": "ms",
    "service.result_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "net.mesh_ms": "ms",
    "net.close_ms": "ms",
    "net.protocol_ms": "ms",
    "net.collect_wait_ms": "ms",
    "net.collect_calls": "count",
    "net.post_calls": "count",
    "net.frames": "count",
    "net.frame_bytes": "bytes",
    "net.nacks": "count",
    "net.session_ms": "ms",
    "py.gc_ms": "ms",
    "py.gc_gen2": "count",
    "sim_ms_per_op": "ms",
    "trace.overhead_ms": "ms",
}

#: Counters that must repeat exactly from one cycle of the input pool to
#: the next, and from one run to the next with the same seed.
EXACT = (
    "cluster.messages",
    "cluster.bytes",
    "cluster.bytes.L1",
    "cluster.bytes.L2",
    "cluster.bytes.L3",
    "simul.events",
    "sparse.union_calls",
)


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the import path; refuse to
    run against anything else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))


def host_facts(seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def tail(durations: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it:
    ``(value, percentile, samples beyond)``."""
    ordered = sorted(durations)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def corrupt_one(result: Any) -> Any:
    """A copy of ``result`` with its first reduced value off by one."""
    if isinstance(result, list):
        return [corrupt_one(result[0])] + result[1:]
    first = min(result)
    bad = result[first].copy()
    bad[0] += 1
    return {**result, first: bad}


class Run:
    """One benchmark invocation's state: counts, failures, the tracer."""

    def __init__(self, workload, corrupt: bool = False):
        self.wl = workload
        #: Set while the wrappers are installed.
        self.tracer: Optional[Tracer] = None
        #: Corrupt the first checked result (the tests' failure injection).
        self.corrupt = corrupt
        self.first_counters: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def one_op(self, state, k, op_id) -> float:
        """Run op ``k``; return its wall time.  The check runs after the
        clock stops."""
        wl, tracer = self.wl, self.tracer
        probe = wl.probe()
        result, ok = None, True
        start = time.perf_counter()
        try:
            with tracer.op_span(op_id) if tracer else nullcontext():
                result = wl.op(state, k)
        except Exception:
            ok = False
            self.problems.append(f"op {op_id} raised:\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.absorb_workers(op_id)
        if ok and self.corrupt:
            result = corrupt_one(result)
            self.corrupt = False
        wrong = wl.check(k, result, probe) if ok else None
        if wrong is not None:
            ok = False
            self.problems.append(f"op {op_id}: {wrong}")
        self.attempted += 1
        self.failed += 0 if ok else 1
        return elapsed

    def setup(self, i: int) -> Tuple[Any, float]:
        """Build a backend and run its first op; return it and the wall
        time both took.

        Every setup starts from the same seed, so each must leave the
        program's counters (on the simulator: clock and traffic) exactly
        where the first one did.
        """
        wl = self.wl
        start = time.perf_counter()
        state = wl.build()
        self.one_op(state, 0, ("setup", i))
        took = time.perf_counter() - start
        counters = wl.counters(state)
        if i == 0:
            self.first_counters = counters
            self.problems.extend(wl.setup_problems(state))
        elif counters != self.first_counters:
            self.problems.append(
                f"setup {i} left {counters}, setup 0 left {self.first_counters}"
            )
        return state, took

    def marks(self, state, ops) -> Dict[str, float]:
        """Running totals: the program's own counters plus, when traced,
        the engine steps and union calls of ``ops``."""
        mark = dict(self.wl.counters(state))
        if self.tracer is not None:
            mark["simul.events"] = self.tracer.count(ops, "simul.events")
            mark["sparse.union_calls"] = len(self.tracer.spans_of(ops, "sparse.union"))
        return mark

    def loop(self, state, first: int, seconds: float, min_ops: int, *, whole_cycles=False):
        """Closed loop from op ``first`` for ``seconds`` and at least
        ``min_ops`` ops; with ``whole_cycles``, a whole number of passes
        over the input pool.  Returns the op wall times and the counter
        deltas of each pass."""
        pool = self.wl.pool
        durations, cycles = [], []
        mark = self.marks(state, [])
        deadline = time.perf_counter() + seconds
        k = first
        while True:
            done = k - first
            boundary = done % pool == 0
            if done and boundary:
                now = self.marks(state, range(first, k))
                cycles.append({key: now[key] - mark[key] for key in now})
                mark = now
            if (
                time.perf_counter() >= deadline
                and done >= min_ops
                and (boundary or not whole_cycles)
            ):
                return durations, cycles
            durations.append(self.one_op(state, k, k))
            k += 1


def sim_ms_per_op(workload, cycles) -> Optional[float]:
    """Simulated ms per op over the first pass of the pool after setup —
    a fixed stretch of a seeded run, so it repeats exactly."""
    if not cycles or "sim_s" not in cycles[0]:
        return None
    return 1e3 * cycles[0]["sim_s"] / workload.pool


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process, plus the largest worker's on the wire."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not workload.simulated:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def measure(workload, seconds: float, *, corrupt: bool = False) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics.

    The setups are spread over the run, each followed by an equal share
    of the timed loop on the backend it built, so the setup median and
    the ops sample the host over the whole run alike.
    """
    run = Run(workload, corrupt=corrupt)
    setup_times, durations, first_cycles = [], [], None
    for i in range(workload.setups):
        state, took = run.setup(i)
        setup_times.append(took)
        last = i == workload.setups - 1
        least = max(MIN_OPS - len(durations), workload.pool) if last else workload.pool
        ops, cycles = run.loop(state, 1, seconds / workload.setups, least)
        workload.close(state)
        durations += ops
        first_cycles = first_cycles or cycles
    value, pct, beyond = tail(durations)
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_tail_ms": 1e3 * value,
        "reduces_per_s": workload.reductions * len(durations) / sum(durations),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    metrics["error_rate"] = run.failed / run.attempted
    sim_ms = sim_ms_per_op(workload, first_cycles)
    if sim_ms is not None:
        metrics["sim_ms_per_op"] = sim_ms
    extra = {
        "ops": len(durations),
        "op_tail_percentile": pct,
        "op_tail_beyond": beyond,
    }
    return _result(run, metrics, END_TO_END, extra)


def measure_traced(workload, seconds: float) -> Dict[str, Any]:
    """The traced run: per-layer metrics.

    The setups are traced (for ``allreduce.configure_ms``); then half
    the time runs untraced and half traced on the last backend, so
    ``trace.overhead_ms`` is the difference of their median ops.  The
    spans of the first traced pass over the pool are written to
    ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
    """
    out_dir = ROOT / ".perfbench" / f"trace-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(out_dir)
    run = Run(workload)
    try:
        run.tracer = tracer.install()
        state = None
        for i in range(workload.setups):
            if state is not None:
                workload.close(state)
            state, _ = run.setup(i)
        run.tracer = None
        tracer.uninstall()
        plain, first_cycles = run.loop(state, 1, seconds / 2, MIN_OPS)
        first = 1 + len(plain)
        workload.trace_on(state)
        run.tracer = tracer.install()
        traced, cycles = run.loop(state, first, seconds / 2, MIN_OPS, whole_cycles=True)
    finally:
        tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    workload.close(state)
    spans_file = out_dir.parent / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    tracer.dump(range(first, first + workload.pool), spans_file)
    exact = [{k: c[k] for k in EXACT if k in c} for c in cycles]
    if any(c != exact[0] for c in exact):
        run.problems.append(f"exact counters differ between pool passes: {exact}")
    metrics = layer_metrics(workload, tracer, range(first, first + len(traced)), traced, cycles)
    metrics["sim_ms_per_op"] = sim_ms_per_op(workload, first_cycles) or 0.0
    metrics["trace.overhead_ms"] = 1e3 * (
        statistics.median(traced) - statistics.median(plain)
    )
    extra = {
        "spans_file": str(spans_file.relative_to(ROOT)),
        "ops_untraced": len(plain),
        "ops_traced": len(traced),
        "op_p50_ms_untraced": 1e3 * statistics.median(plain),
        "op_p50_ms_traced": 1e3 * statistics.median(traced),
    }
    return _result(run, metrics, PER_LAYER, extra)


def layer_metrics(workload, tracer, ops, durations, cycles) -> Dict[str, float]:
    """Per-op layer metrics over the traced ops ``ops``.

    Times are means per op, so a layer's share of the op adds up; spans
    in forked workers are summed over the ranks.  The ``net.*`` figures
    are per round except the three timings taken as the slowest rank.
    """
    n = len(ops)
    totals = {key: sum(c.get(key, 0) for c in cycles) for key in cycles[0]}

    def span_ms(name):
        return 1e3 * sum(s.duration for s in tracer.spans_of(ops, name)) / n

    keys_in = tracer.count(ops, "sparse.union_keys_in")
    kids = tracer.children()
    simul_self = 1e3 * sum(
        self_time(s, kids.get(s.sid, [])) for s in tracer.spans_of(ops, "simul.run")
    ) / n
    events = totals["simul.events"] / n
    configure = [
        sum(s.duration for s in tracer.spans_of([("setup", i)], "allreduce.configure"))
        for i in range(workload.setups)
    ]
    consults = totals.get("cache.hits", 0) + totals.get("cache.misses", 0)
    m: Dict[str, float] = {
        "sparse.union_ms": span_ms("sparse.union"),
        "sparse.union_calls": totals["sparse.union_calls"] / n,
        "sparse.union_keys_in": keys_in / n,
        "sparse.union_keep_ratio": (
            tracer.count(ops, "sparse.union_keys_out") / keys_in if keys_in else 0.0
        ),
        "sparse.split_ms": span_ms("sparse.split"),
        "sparse.hash_ms": span_ms("sparse.hash"),
        "simul.events": events,
        "simul.self_ms": simul_self,
        "simul.us_per_event": 1e3 * simul_self / events if events else 0.0,
        "cluster.send_ms": span_ms("cluster.send"),
        "cluster.recv_ms": span_ms("cluster.recv"),
        "allreduce.configure_ms": 1e3 * statistics.median(configure),
        "service.submit_ms": span_ms("service.submit"),
        "service.result_ms": span_ms("service.result"),
        "service.cache_hit_ratio": totals.get("cache.hits", 0) / consults if consults else 0.0,
        "py.gc_ms": 1e3 * sum(tracer.gc_seconds.get(op, 0.0) for op in ops) / n,
        "py.gc_gen2": sum(tracer.gc_gen2.get(op, 0) for op in ops) / n,
    }
    for name in EXACT:
        if name.startswith("cluster."):
            m[name] = totals.get(name, 0) / n
    m.update(net_metrics(workload, tracer, ops, durations, totals))
    return m


def net_metrics(workload, tracer, ops, durations, totals) -> Dict[str, float]:
    names = [k for k in PER_LAYER if k.startswith("net.")]
    if workload.simulated:
        return dict.fromkeys(names, 0.0)
    rounds = len(ops) * workload.reductions

    def slowest_rank(op, name):
        by_pid: Dict[int, float] = {}
        for s in tracer.spans_of([op], name):
            by_pid[s.pid] = by_pid.get(s.pid, 0.0) + s.duration
        return max(by_pid.values(), default=0.0)

    mesh = [slowest_rank(op, "net.mesh") for op in ops]
    protocol = [slowest_rank(op, "net.protocol") for op in ops]
    close = [slowest_rank(op, "net.close") for op in ops]
    session = [d - a - b - c for d, a, b, c in zip(durations, mesh, protocol, close)]
    collects = tracer.spans_of(ops, "net.collect")
    ranks = len(workload.spec.ranks)
    return {
        "net.mesh_ms": 1e3 * statistics.fmean(mesh),
        "net.close_ms": 1e3 * statistics.fmean(close),
        "net.protocol_ms": 1e3 * statistics.fmean(protocol),
        "net.collect_wait_ms": 1e3 * sum(s.duration for s in collects) / rounds / ranks,
        "net.collect_calls": len(collects) / rounds,
        "net.post_calls": tracer.count(ops, "net.post_calls") / rounds,
        "net.frames": tracer.count(ops, "net.frames") / rounds,
        "net.frame_bytes": tracer.count(ops, "net.frame_bytes") / rounds,
        "net.nacks": totals.get("net.nacks", 0) / rounds,
        "net.session_ms": 1e3 * statistics.fmean(session),
    }


def _result(run: Run, metrics, units, extra) -> Dict[str, Any]:
    """``metrics`` holds the gated names in ``units``; the report
    line also carries the report-only ones that were measured."""
    known = {**units, **REPORT_ONLY}
    return {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
        "reported": {
            k: {"value": float(v), "unit": known[k]} for k, v in metrics.items()
        },
        "extra": extra,
        "problems": run.problems,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed, reduced=False)
    if args.trace:
        result = measure_traced(workload, args.seconds)
    else:
        result = measure(workload, args.seconds)
    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_facts(args.seed),
        **result["extra"],
        "metrics": result["reported"],
    }
    print("report " + json.dumps(report, sort_keys=True))
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
