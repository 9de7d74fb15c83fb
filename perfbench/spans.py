"""Span tracing from outside the program: wrap each layer's public calls.

The tracer replaces a function at the place its caller looks it up (a
module global bound by ``from ... import`` or a class attribute) with a
wrapper that records a span — name, start, end, own id, parent id and
the benchmark's op id — and optional counts.  Nothing under ``src/``
changes; :meth:`Tracer.uninstall` puts every original back.

Forked workers inherit the wrappers installed before ``fork``.  They
leave through ``os._exit`` (no ``atexit``), so a worker appends each
record to ``<out_dir>/worker-<pid>.jsonl`` and flushes after every
call; the parent reads the files with :meth:`Tracer.absorb_workers`
once the call that forked them has returned.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Tracer", "self_time", "layer_sites"]


class Span(NamedTuple):
    """One timed call.  A tuple of plain values, so the collector stops
    tracking it and a long traced run does not slow every GC pass."""

    name: str
    start: float
    end: float
    sid: str
    parent: Optional[str]
    op: Any
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: List[Span]) -> float:
    """``span``'s duration minus the part of it its children cover."""
    covered = 0.0
    reach = span.start
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


def _union_counts(args, result) -> Dict[str, int]:
    parts = args[0]
    return {
        "sparse.union_keys_in": sum(len(p) for p in parts),
        "sparse.union_keys_out": len(result[0]),
    }


def _frame_counts(args, result) -> Dict[str, int]:
    return {"net.frame_bytes": len(result)}


def layer_sites() -> List[Tuple[Any, str, str, bool, Optional[Callable]]]:
    """Every wrapped call: ``(owner, attribute, name, span?, counts)``.

    ``owner`` is where the caller binds the name.  ``kylix.py`` and
    ``net/protocol.py`` import the sparse kernels by name, so each is
    patched in both modules.  A site without a span counts its calls
    under its name; ``counts(args, result)`` returns extra counts.
    """
    import repro.allreduce.kylix as kylix
    import repro.net.base as net_base
    import repro.net.protocol as net_protocol
    import repro.net.tcp as net_tcp
    from repro import Cluster, KylixAllreduce
    from repro.cluster.fabric import Fabric
    from repro.net.transport import BaseTransport
    from repro.service import ReduceFuture, ReduceService
    from repro.simul import Engine
    from repro.sparse import MultiplicativeHasher

    return [
        (kylix, "union_with_maps", "sparse.union", True, _union_counts),
        (net_protocol, "union_with_maps", "sparse.union", True, _union_counts),
        (kylix, "split_sorted", "sparse.split", True, None),
        (net_protocol, "split_sorted", "sparse.split", True, None),
        (MultiplicativeHasher, "hash", "sparse.hash", True, None),
        (MultiplicativeHasher, "unhash", "sparse.hash", True, None),
        (Engine, "step", "simul.events", False, None),
        (Cluster, "run", "simul.run", True, None),
        (Fabric, "send", "cluster.send", True, None),
        (Fabric, "recv", "cluster.recv", True, None),
        (KylixAllreduce, "configure", "allreduce.configure", True, None),
        (ReduceService, "submit", "service.submit", True, None),
        (ReduceFuture, "result", "service.result", True, None),
        (net_tcp.TcpTransport, "form_mesh", "net.mesh", True, None),
        (net_tcp.TcpTransport, "close", "net.close", True, None),
        (net_tcp.TcpTransport, "post", "net.post_calls", False, None),
        (net_base, "run_combined", "net.protocol", True, None),
        (net_base, "run_reduce", "net.protocol", True, None),
        (BaseTransport, "collect", "net.collect", True, None),
        (net_tcp, "encode_frame", "net.frames", False, _frame_counts),
    ]


class Tracer:
    """In-memory span and count recorder with wrappers at the layer sites."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.op: Any = None
        #: ``(op, name) -> spans``, in the order they ended.
        self.spans: Dict[Tuple[Any, str], List[Span]] = defaultdict(list)
        #: ``(op, name) -> count`` for counting sites and extra counts.
        self.counts: Dict[Tuple[Any, str], int] = defaultdict(int)
        self.gc_seconds: Dict[Any, float] = defaultdict(float)
        self.gc_gen2: Dict[Any, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._file = None
        self._file_pid = None
        self._saved: List[Tuple[Any, str, Any]] = []
        self._gc_started: Optional[float] = None

    # -- installation ------------------------------------------------------
    def install(self) -> "Tracer":
        for owner, attr, name, spanned, counts in layer_sites():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, spanned, counts))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, spanned, counts):
        tracer = self

        if not spanned:

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._emit({name: 1, **(counts(args, result) if counts else {})})
                return result

            return counting

        @functools.wraps(fn)
        def spanning(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = f"{os.getpid()}.{next(tracer._ids)}"
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._emit_span(name, start, end, sid, parent)
            if counts:
                tracer._emit(counts(args, result))
            return result

        return spanning

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ---------------------------------------------------------
    @contextmanager
    def op_span(self, op: Any):
        """The root span of one benchmark op; spans inside it join ``op``."""
        self.op = op
        sid = f"{self.pid}.{next(self._ids)}"
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._emit_span("op", start, end, sid, None)
            self.op = None

    def _emit_span(self, name, start, end, sid, parent) -> None:
        if os.getpid() == self.pid:
            self.spans[(self.op, name)].append(
                Span(name, start, end, sid, parent, self.op, self.pid)
            )
        else:
            self._write({"s": [name, start, end, sid, parent]})

    def _emit(self, counts: Dict[str, int]) -> None:
        if os.getpid() == self.pid:
            for key, n in counts.items():
                self.counts[(self.op, key)] += n
        else:
            self._write({"c": counts})

    def _write(self, record: Dict[str, Any]) -> None:
        """Worker side: append one record and flush (workers skip atexit)."""
        with self._lock:
            pid = os.getpid()
            if self._file_pid != pid:
                self._file = open(self.out_dir / f"worker-{pid}.jsonl", "a")
                self._file_pid = pid
            self._file.write(json.dumps(record) + "\n")
            self._file.flush()

    def absorb_workers(self, op: Any) -> None:
        """Read and delete the worker files; their records join ``op``.
        Call it after the op's clock has stopped."""
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            pid = int(path.stem.split("-")[1])
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if "s" in rec:
                    name, start, end, sid, parent = rec["s"]
                    self.spans[(op, name)].append(
                        Span(name, start, end, sid, parent, op, pid)
                    )
                else:
                    for key, n in rec["c"].items():
                        self.counts[(op, key)] += n
            path.unlink()

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_seconds[self.op] += time.perf_counter() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2[self.op] += 1

    # -- queries -----------------------------------------------------------
    def spans_of(self, ops, name: str) -> List[Span]:
        return [s for op in ops for s in self.spans.get((op, name), ())]

    def count(self, ops, name: str) -> int:
        return sum(self.counts.get((op, name), 0) for op in ops)

    def dump(self, ops, path: Path) -> None:
        """Write every span of ``ops`` to ``path``, one JSON object per
        line, in start order."""
        ops = set(ops)
        spans = sorted(
            (s for (op, _), group in self.spans.items() if op in ops for s in group),
            key=lambda s: s.start,
        )
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(s._asdict()) + "\n")

    def children(self) -> Dict[str, List[Span]]:
        kids: Dict[str, List[Span]] = defaultdict(list)
        for spans in self.spans.values():
            for s in spans:
                if s.parent is not None:
                    kids[s.parent].append(s)
        return kids
