"""Shared process supervision for the real-execution backends.

:class:`ForkedKylixBase` is everything a "one OS process per logical
node" backend needs that is not the medium itself: argument validation,
worker spawning over a ``fork`` context, result collection with
heartbeat reaping (a worker that dies without posting a result is
noticed in bounded time, not at the 120 s budget), degraded-completion
accounting into a :class:`~repro.faults.CoverageReport`, and the
terminate/join/kill ladder that guarantees zero zombie processes on
every exit path.  :class:`~repro.net.local.LocalKylix` plugs in a pipe
mesh, :class:`~repro.net.tcp.TcpKylix` a loopback socket mesh; the
supervision — and therefore the failure semantics the tests pin — is
identical.
"""

from __future__ import annotations

import json
import os
import queue
import time
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from ..allreduce import ReduceSpec
from ..allreduce.kylix import check_values
from ..allreduce.topology import ButterflyTopology
from ..faults import CoverageReport, FaultPlan, LossRecord, PeerFailedError, RetryPolicy
from ..obs import NULL_OBSERVER, Observer
from ..obs.telemetry import FlightRecorder, TelemetryAgent, WallClockSampler
from ..sparse import IndexHasher, MultiplicativeHasher
from .protocol import run_combined, run_reduce
from .transport import POLL_INTERVAL

__all__ = ["ForkedKylixBase", "worker_main"]


def worker_main(
    rank: int,
    transport_factory,
    proto_args: Dict[str, Any],
    values: np.ndarray,
    result_q,
    plan: Optional[FaultPlan],
    retry: RetryPolicy,
    done_evt,
    linger_budget: float,
    observe: bool,
    degrade: bool,
    extra_rounds: Optional[Sequence[np.ndarray]] = None,
    telemetry_interval: Optional[float] = None,
) -> None:
    """One node's blocking protocol run (executed in a child process).

    ``transport_factory(rank, plan, retry, obs)`` builds the medium —
    a pipe transport or a socket mesh — and everything above it is
    byte-identical between backends.  ``proto_args`` are the keyword
    arguments of :func:`~repro.net.protocol.run_combined` naming the
    spec, topology, hasher and coverage mode.  Results ride ``result_q``
    as ``(rank, value, err, snapshot, extra)`` where ``extra`` is
    ``(lost_raw, losses)`` under degraded completion.

    ``extra_rounds`` (clean runs only) is a list of further per-round
    value arrays, each aligned with the rank's out indices: the combined
    round's :class:`~repro.allreduce.NodePlan` is kept and every extra
    round replays values-only through it (``run_reduce``), so one fork +
    one configuration serve the whole batch.  ``value`` is then the list
    of per-round results.
    """
    step_kill = plan.step_kill_for(rank) if plan is not None else None
    if plan is not None and not plan.is_alive(rank, 0.0):
        os._exit(1)  # dead from the start: no result, no goodbye

    def maybe_crash(kind: str, layer: int) -> None:
        # Crash point: die immediately before the first send at the
        # targeted (phase, layer) — same semantics as the simulator.
        if step_kill is not None and step_kill == (kind, layer):
            os._exit(1)

    # A private wall-clock observer; its snapshot rides the result queue
    # back to the parent, which absorbs it under this worker's pid row.
    obs = Observer(name=f"worker {rank}") if observe else NULL_OBSERVER
    sampler = None
    if obs.enabled and telemetry_interval is not None:
        # Live telemetry: a daemon thread samples metric deltas on the
        # interval; the samples ride obs.telemetry inside the snapshot
        # the parent absorbs (repro.obs.telemetry).
        sampler = WallClockSampler(
            TelemetryAgent(obs, node=rank, interval=telemetry_interval),
            name=f"telemetry-{rank}",
        ).start()

    def final_snapshot():
        # Stop (and final-flush) the sampler before snapshotting so the
        # shipped telemetry stream is complete and no thread keeps
        # mutating the registry while it is pickled.
        if sampler is not None:
            sampler.stop(flush=True)
        return obs.snapshot() if obs.enabled else None

    net = None
    try:
        net = transport_factory(rank, plan, retry, obs)
        node_plan, result, lost_raw, losses = run_combined(
            rank, net, values,
            obs=obs, degrade=degrade, maybe_crash=maybe_crash, **proto_args,
        )
        if extra_rounds:
            rounds = [result]
            for rnd, vals in enumerate(extra_rounds, start=1):
                rounds.append(
                    run_reduce(
                        rank, net, node_plan, vals,
                        obs=obs, seq=rnd, maybe_crash=maybe_crash, **proto_args,
                    )
                )
            result = rounds
        extra = (lost_raw, losses) if degrade else None
        result_q.put((rank, result, None, final_snapshot(), extra))
        # Slow peers may still need resends of our final up-parts: stay
        # around servicing NACKs until the parent flips the done event.
        net.linger(done_evt, linger_budget)
    except PeerFailedError as exc:
        result_q.put(
            (
                rank,
                None,
                ("peer", exc.slot, exc.phase, exc.layer, str(exc)),
                final_snapshot(),
                None,
            )
        )
    except Exception as exc:  # pragma: no cover - surfaced in the parent
        import traceback

        result_q.put(
            (
                rank,
                None,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                final_snapshot(),
                None,
            )
        )
    finally:
        if net is not None:
            net.close()


class ForkedKylixBase:
    """Common shell of the forked real-execution backends.

    Subclasses implement :meth:`_make_mesh` (pre-fork medium setup),
    :meth:`_transport_factory` (child-side medium construction), and
    :meth:`_release_mesh` (parent-side handle cleanup after fork).
    """

    def __init__(
        self,
        degrees: Sequence[int],
        *,
        hasher: Optional[IndexHasher] = None,
        strict_coverage: bool = True,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: float = 120.0,
        join_timeout: float = 10.0,
        observe: Optional[Observer] = None,
        degrade: bool = False,
        telemetry_interval: Optional[float] = None,
        flight_recorder: Optional[FlightRecorder] = None,
        postmortem_path: Optional[str] = None,
    ):
        self.degrees = [int(d) for d in degrees]
        self.size = int(np.prod(self.degrees))
        if isinstance(hasher, MultiplicativeHasher) or hasher is None:
            self._multiplier = int(
                (hasher._mult if hasher is not None else MultiplicativeHasher()._mult)
            )
        else:
            raise ValueError(f"{type(self).__name__} supports MultiplicativeHasher only")
        self.strict_coverage = strict_coverage
        if timeout <= 0 or join_timeout <= 0:
            raise ValueError("timeout and join_timeout must be positive")
        self.timeout = float(timeout)
        self.join_timeout = float(join_timeout)
        if faults is not None:
            faults.validate(self.size)
            for node, at in faults._deaths.items():
                if at > 0.0:
                    raise ValueError(
                        f"{type(self).__name__} has no simulated clock: death of "
                        f"node {node} at t={at} is not executable — use "
                        f"kill(node) (dead from start) or kill_at_step()"
                    )
            if faults._recoveries:
                raise ValueError(
                    f"{type(self).__name__} does not support recovery schedules"
                )
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy()
        self.observe = observe
        self.degrade = bool(degrade)
        if telemetry_interval is not None and telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        if telemetry_interval is not None and observe is None:
            raise ValueError("telemetry_interval requires observe=Observer(...)")
        self.telemetry_interval = telemetry_interval
        #: Optional crash flight recorder.  When set, worker events that
        #: reach the parent are recorded into its ring, and on
        #: ``PeerFailedError`` / degraded completion a postmortem is
        #: assembled (written to ``postmortem_path`` if given) — see
        #: :mod:`repro.obs.telemetry`.
        self.flight_recorder = flight_recorder
        self.postmortem_path = postmortem_path
        #: The last postmortem document produced, if any.
        self.last_postmortem: Optional[Dict[str, Any]] = None
        #: :class:`CoverageReport` of the last degraded run (None outside
        #: degraded completion) — same contract as the simulator backend.
        self.last_report: Optional[CoverageReport] = None
        self.duplicates_dropped = 0

    # -- medium hooks (subclass responsibilities) --------------------------
    def _make_mesh(self, ctx):
        """Create pre-fork medium state; returns an opaque mesh handle."""
        raise NotImplementedError

    def _transport_factory(self, rank: int, mesh):
        """Return a picklable-under-fork callable building rank's transport."""
        raise NotImplementedError

    def _release_mesh(self, mesh) -> None:
        """Drop the parent's copies of per-child medium handles."""
        raise NotImplementedError

    # -- the run -----------------------------------------------------------
    def allreduce(
        self, spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        return self._run(spec, out_values, None)

    def allreduce_rounds(
        self,
        spec: ReduceSpec,
        rounds_values: Sequence[Mapping[int, np.ndarray]],
    ) -> list:
        """Many same-pattern reductions over one fork and one config.

        Round 0 runs the combined protocol and keeps each worker's
        :class:`~repro.allreduce.NodePlan`; rounds 1.. replay values
        only through the cached maps (``run_reduce``) on the same live
        mesh — the paper's amortization without re-paying fork, connect,
        or configuration.  Returns one ``{rank: values}`` dict per round.
        Clean runs only: fault plans and degraded completion need the
        combined protocol's per-round accounting.
        """
        rounds_values = list(rounds_values)
        if not rounds_values:
            return []
        if self.faults is not None or self.degrade:
            raise ValueError(
                "allreduce_rounds caches the round-0 wire plan and cannot "
                "replay fault schedules; use allreduce per round instead"
            )
        self._check_spec(spec)
        extra = {
            rank: [check_values(spec, rank, rv[rank]) for rv in rounds_values[1:]]
            for rank in range(self.size)
        }
        raw = self._run(spec, rounds_values[0], extra)
        if len(rounds_values) == 1:
            return [raw]
        return [
            {rank: raw[rank][rnd] for rank in raw}
            for rnd in range(len(rounds_values))
        ]

    def _run(
        self,
        spec: ReduceSpec,
        out_values: Mapping[int, np.ndarray],
        extra_rounds: Optional[Dict[int, list]],
    ) -> Dict[int, Any]:
        import multiprocessing as mp

        self._check_spec(spec)
        values = {
            rank: check_values(spec, rank, out_values[rank]) for rank in range(self.size)
        }
        proto_args = dict(
            spec=spec,
            topology=ButterflyTopology(self.degrees, self.size),
            hasher=MultiplicativeHasher(self._multiplier),
            strict=self.strict_coverage,
        )
        ctx = mp.get_context("fork") if hasattr(mp, "get_context") else mp
        mesh = self._make_mesh(ctx)
        result_q = ctx.Queue()
        done_evt = ctx.Event()
        procs: Dict[int, Any] = {}
        obs = self.observe if self.observe is not None else NULL_OBSERVER
        if obs.enabled:
            obs.name_pid(0, "driver")
        run_span = obs.begin(
            f"allreduce({self._BACKEND_NAME})", degrees=str(self.degrees)
        )
        self.last_report = None
        try:
            for rank in range(self.size):
                p = ctx.Process(
                    target=worker_main,
                    args=(
                        rank,
                        self._transport_factory(rank, mesh),
                        proto_args,
                        values[rank],
                        result_q,
                        self.faults,
                        self.retry,
                        done_evt,
                        self.timeout,
                        obs.enabled,
                        self.degrade,
                        extra_rounds[rank] if extra_rounds else None,
                        self.telemetry_interval,
                    ),
                )
                p.daemon = True
                p.start()
                procs[rank] = p
            self._release_mesh(mesh)
            results = self._collect_results(result_q, procs, spec, obs)
            return results
        finally:
            done_evt.set()
            self._reap(procs)
            # Release the queue's pipe fds now rather than at GC time:
            # an exception's traceback can keep this frame (and the
            # queue) alive long after the run, which reads as a parent
            # fd leak.
            result_q.close()
            result_q.join_thread()
            obs.end(run_span)

    _BACKEND_NAME = "net"

    def _check_spec(self, spec: ReduceSpec) -> None:
        if set(spec.ranks) != set(range(self.size)):
            raise ValueError(
                f"spec must cover ranks 0..{self.size - 1} (got {spec.ranks})"
            )

    # -- parent-side supervision ------------------------------------------
    def _collect_results(
        self, result_q, procs, spec: ReduceSpec, obs=NULL_OBSERVER
    ) -> Dict[int, np.ndarray]:
        results: Dict[int, np.ndarray] = {}
        lost: Dict[int, np.ndarray] = {}
        losses: list = []
        settled: set = set()  # ranks accounted for (result or degraded death)
        deadline = time.monotonic() + self.timeout
        grace_until: Dict[int, float] = {}
        while len(settled) < self.size:
            try:
                rank, value, err, snap, extra = result_q.get(
                    timeout=POLL_INTERVAL * 50
                )
            except queue.Empty:
                rank = None
            if rank is not None:
                if snap is not None and obs.enabled:
                    # One trace process row per worker (pid 0 = driver).
                    obs.absorb(snap, pid=rank + 1, name=f"worker {rank}")
                if snap is not None and self.flight_recorder is not None:
                    self._record_snapshot(rank, snap)
                if err is not None:
                    if isinstance(err, tuple) and err[0] == "peer":
                        _, slot, phase, layer, text = err
                        exc = PeerFailedError(
                            text, slot=slot, phase=phase, layer=layer
                        )
                        self._postmortem(error=exc)
                        raise exc
                    failure = RuntimeError(f"worker {rank} failed: {err}")
                    self._postmortem(error=failure)
                    raise failure
                results[rank] = value
                if extra is not None:
                    rank_lost, rank_losses = extra
                    if rank_lost is not None and len(rank_lost):
                        lost[rank] = rank_lost
                    losses.extend(rank_losses)
                settled.add(rank)
                continue
            # Heartbeat: reap children that died without posting a result.
            # A short grace window lets an already-queued result flush.
            now = time.monotonic()
            for r, p in procs.items():
                if r in settled or p.exitcode is None:
                    continue
                grace_until.setdefault(r, now + 1.0)
                if now >= grace_until[r]:
                    if not self.degrade:
                        exc = PeerFailedError(
                            f"worker {r} exited with code {p.exitcode} before "
                            "posting a result",
                            slot=r,
                        )
                        self._postmortem(error=exc)
                        raise exc
                    # Degraded completion: the rank (and its result) is
                    # gone — its entire requested slice is lost, the run
                    # continues on the survivors.
                    lost[r] = np.asarray(spec.in_indices[r])
                    losses.append(
                        LossRecord(rank=r, member=r, phase="combined_down", layer=0)
                    )
                    settled.add(r)
            if now >= deadline:
                missing = sorted(set(procs) - settled)
                exc = PeerFailedError(
                    f"no result from workers {missing} within {self.timeout}s",
                    slot=missing[0] if missing else None,
                )
                self._postmortem(error=exc)
                raise exc
        if self.degrade:
            self.last_report = CoverageReport(
                total_ranks=self.size,
                in_sizes={r: len(spec.in_indices[r]) for r in range(self.size)},
                lost_indices=lost,
                dead_members=tuple(e.member for e in losses),
                losses=tuple(losses),
            )
            if lost or losses:
                # Degraded completion leaves evidence too: the recorder
                # doc carries the report's exact lost ranges.
                self._postmortem(report=self.last_report)
        return results

    def _record_snapshot(self, rank: int, snap: Dict[str, Any]) -> None:
        """Feed one worker snapshot's events into the flight recorder.

        Worker observers live in child processes, so the parent-side
        recorder cannot subscribe to them live; their spans, deliveries,
        and telemetry marks are replayed into the ring as their
        snapshots arrive (the ring keeps only the most recent events)."""
        rec = self.flight_recorder
        for sp in snap.get("spans", []):
            rec.record(
                "span",
                sp.end,
                name=sp.name,
                node=sp.node,
                phase=sp.phase,
                layer=sp.layer,
                start=sp.start,
                worker=rank,
            )
        for ev in snap.get("messages", []):
            rec.record(
                "message",
                ev.delivered_at if ev.delivered_at is not None else ev.sent_at,
                src=ev.src,
                dst=ev.dst,
                nbytes=ev.nbytes,
                phase=ev.phase,
                layer=ev.layer,
            )
        for s in snap.get("telemetry", []):
            rec.record("telemetry", s.t, node=s.node, seq=s.seq)

    def _postmortem(self, *, error=None, report=None) -> None:
        """Assemble (and optionally write) the crash postmortem."""
        rec = self.flight_recorder
        if rec is None:
            return
        doc = rec.postmortem(
            error=error,
            report=report,
            context={
                "backend": self._BACKEND_NAME,
                "degrees": [int(d) for d in self.degrees],
            },
        )
        self.last_postmortem = doc
        if self.postmortem_path:
            with open(self.postmortem_path, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)

    def _reap(self, procs) -> None:
        """Terminate + join every worker; zero live children afterwards."""
        for p in procs.values():
            p.join(timeout=self.join_timeout)
        for p in procs.values():
            if p.is_alive():
                p.terminate()
        for p in procs.values():
            if p.is_alive():
                p.join(timeout=1.0)
            if p.is_alive():  # pragma: no cover - terminate() ignored
                p.kill()
                p.join(timeout=1.0)
