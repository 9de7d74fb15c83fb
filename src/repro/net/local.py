"""Real-execution Kylix: OS processes, pipes, and sender threads.

The simulator (`repro.cluster`) is the measurement instrument; this
module is the existence proof that the protocol "can be run self-
contained" (§I-B) outside any simulation — each logical node is a real
OS process, messages travel over ``multiprocessing`` connections, and
sends run on background threads exactly like the paper's Java
implementation ("we start threads to send all messages concurrently",
§VI-B) so that simultaneous exchanges cannot deadlock on pipe buffers.

It executes the *combined* variant of the protocol (indices + values in
one downward pass, §III) and supports the same reduction operators as
the simulator.  It is built for correctness and portability, not
throughput: spawning processes costs ~100 ms each, and a single-core
host serialises them — use the simulator for performance studies.

The protocol body, the NACK/retry/dedupe reliability layer, the parent
supervision (heartbeat reaping, zero-zombie teardown), and degraded
completion all live in the shared layers this backend is assembled
from — the protocol core :mod:`repro.allreduce.kylix` run by
:mod:`repro.net.protocol`, then :mod:`repro.net.transport`, and
:mod:`repro.net.base` — and are byte-identical to the TCP backend
(:mod:`repro.net.tcp`); only the medium (pipe send/receive) is local
to this file.

Fault tolerance (this mirrors the simulator's fabric, see
:mod:`repro.faults`):

* A :class:`~repro.faults.FaultPlan` wraps the transport: sender threads
  consult ``plan.decide`` per message and drop, duplicate, or delay
  (``time.sleep``) accordingly.  Each link carries exactly one logical
  message per (kind, layer, seq), so the decision inputs — and therefore
  the fault schedule — are *identical* to a simulator run of the
  combined protocol with the same plan.
* Receivers dedupe by (peer, kind, layer, seq) and enforce per-attempt
  deadlines with exponential backoff (plus the policy's seeded jitter);
  a missing message triggers a NACK that the sender services from its
  send cache.  Exhausted retries, a peer EOF, or a reaped child raise
  :class:`~repro.faults.PeerFailedError` in bounded time — never a
  hang — and the parent terminates + joins all workers on every exit
  path (no zombie processes).  With ``degrade=True`` an unrecoverable
  peer becomes a hole instead: the run completes on the survivors and
  :attr:`~repro.net.base.ForkedKylixBase.last_report` carries the exact
  :class:`~repro.faults.CoverageReport`.
* ``kill_at_step`` crash points are honoured with ``os._exit`` right
  before the worker's first send at the targeted (phase, layer).  Only
  at-start deaths (``kill(node)``) and step-kills are supported here:
  there is no simulated clock, so time-based deaths are rejected.

Observability (see :mod:`repro.obs` and ``docs/observability.md``):
pass ``observe=Observer(...)`` and each worker process builds a private
wall-clock observer, opens the same per-layer spans the simulator's
protocol does (``config`` / ``reduce_down`` / ``gather_up``, plus the
``combined_down`` exchange), maintains the same ``net.*`` traffic
counters, and ships a snapshot back on its result queue; the parent
absorbs every snapshot into your observer with one process row per
worker.  ``CLOCK_MONOTONIC`` is system-wide on Linux, so worker
timestamps are directly comparable and the exporter's common-epoch
normalisation aligns the rows.  Wire frames carry their send timestamp,
so receivers emit the same ``message_delivered`` events (and
``net.latency`` / ``net.queue_wait`` histograms) the simulator fabric
does: send-to-dispatch is the delivery latency — fault-injected delays
included — and dispatch-to-consumption is the queue wait the trace
analyzer's straggler report reads.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

from ..obs import NULL_OBSERVER
from ..verify.watchlock import watched_lock
from .base import ForkedKylixBase
from .transport import BaseTransport

__all__ = ["LocalKylix", "LocalTransport"]


class LocalTransport(BaseTransport):
    """The reliability layer over a full mesh of duplex pipes.

    A ``multiprocessing.Connection`` is not thread-safe, so each link
    carries a send lock; sends run on one fresh thread per post (cheap
    at pipe latencies, and exactly the paper's concurrent-send shape).
    """

    def __init__(self, rank, conns, plan, retry, obs=NULL_OBSERVER):
        super().__init__(rank, plan, retry, obs)
        self.conns = conns
        self.locks = {m: watched_lock(f"net.local.LocalTransport.locks[{m}]") for m in conns}

    def _send_frame(self, member, frame) -> None:
        try:
            with self.locks[member]:
                self.conns[member].send(frame)
        except (BrokenPipeError, OSError):  # peer already gone
            self.closed.add(member)

    def post(self, member, kind, layer, part, seq=0) -> None:
        """Cache + send on a background thread (deadlock-free exchange)."""
        self.sent[(member, kind, layer, seq)] = part
        t = threading.Thread(  # lint: ok — BaseTransport.join_senders joins these with a timeout
            target=self._transmit,
            args=(member, kind, layer, part, seq, 0, time.monotonic()),
        )
        t.daemon = True
        t.start()
        self.senders.append(t)

    def _pump_once(self):
        """Drain every readable connection once; returns peers hit EOF."""
        dead = []
        for member, conn in self.conns.items():
            if member in self.closed:
                continue
            try:
                while conn.poll(0):
                    self._dispatch(member, conn.recv())  # lint: ok — poll-guarded
            except (EOFError, OSError):
                self.closed.add(member)
                dead.append(member)
        return dead

    def prune_round(self, seq: int) -> None:
        """Per-round cleanup + reap finished per-post sender threads.

        The one-thread-per-post send model accumulates dead ``Thread``
        objects across a multi-round session; dropping them here keeps a
        long-lived service run at a bounded thread list.
        """
        self.senders = [t for t in self.senders if t.is_alive()]
        super().prune_round(seq)


class LocalKylix(ForkedKylixBase):
    """Kylix over real OS processes (one per logical node).

    Usage mirrors the simulator API, minus timing::

        net = LocalKylix(degrees=[2, 2])
        result = net.allreduce(spec, values)   # spawns 4 worker processes

    Parameters
    ----------
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  Message-fault rules
        and ``kill_at_step`` / at-start deaths are honoured; time-based
        deaths and recoveries need a simulated clock and are rejected.
    retry:
        :class:`~repro.faults.RetryPolicy` for receive deadlines/NACKs.
        Defaults to ``RetryPolicy()`` with a 0.25 s wall-clock base.
    timeout:
        Total wall-clock budget (seconds) for collecting worker results.
    join_timeout:
        Budget for joining each worker during cleanup; workers still
        alive after it are terminated, then killed — no zombies on any
        exit path.
    observe:
        Optional :class:`~repro.obs.Observer` to collect spans, traffic
        counters, and fault metrics from the run.  Each worker process
        records into a private wall-clock observer and ships a snapshot
        back with its result; the parent absorbs them all here, one
        trace process row per worker.  Default off.
    degrade:
        Complete on survivors instead of raising when a peer is
        unrecoverable; the run's :class:`~repro.faults.CoverageReport`
        lands on :attr:`last_report`.  Default off (strict).
    """

    _BACKEND_NAME = "local"

    def _make_mesh(self, ctx) -> Dict[int, Dict[int, object]]:
        # full mesh of duplex pipes
        conns: Dict[int, Dict[int, object]] = {r: {} for r in range(self.size)}
        for i in range(self.size):
            for j in range(i + 1, self.size):
                a, b = ctx.Pipe(duplex=True)
                conns[i][j] = a
                conns[j][i] = b
        return conns

    def _transport_factory(self, rank, mesh):
        conns = mesh[rank]

        def factory(rank_, plan, retry, obs):
            return LocalTransport(rank_, conns, plan, retry, obs=obs)

        return factory

    def _release_mesh(self, mesh) -> None:
        # The children inherited every pipe end at fork; drop the
        # parent's copies so a dead worker's peers see EOF instead of
        # a silently-held-open descriptor.
        for ends in mesh.values():
            for conn in ends.values():
                conn.close()
