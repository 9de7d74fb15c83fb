"""Cluster harness for the TCP backend: launcher, node server, driver.

This is the operational shell the ROADMAP's "real TCP backend + cluster
harness" item specifies, shaped after the classic three-piece harness of
distributed-systems repos:

* **Node server** (:func:`serve_node`, ``python -m repro node``) — one
  long-lived process per logical rank.  Binds a listener, announces
  ``KYLIX-NODE READY rank=.. host=.. port=.. pid=..`` on stdout, then
  serves *sessions*: the driver connects and ships a session frame with
  the peer address map, this rank's slice of the workload, the fault
  plan, and the retry policy; the node forms the socket mesh with its
  peers (:class:`~repro.net.tcp.TcpTransport`), runs the requested
  reduction rounds through the shared protocol body, and returns
  results + coverage + an observer snapshot on the control connection.
* **Launcher** (:func:`launch_cluster`, ``python -m repro run-cluster``)
  — spawns N node processes on loopback (or *attaches* to nodes you
  started yourself on other hosts, probing each with a ping frame),
  parses their READY lines, and writes the ``cluster_procs.json``
  manifest that every other tool consumes.  ``--stop`` tears a cluster
  down: shutdown frames first, SIGTERM for stragglers, manifest removed.
* **Driver** (:func:`drive_cluster`, ``python -m repro drive-cluster``)
  — consumes the manifest, runs a named workload for a round count or
  wall duration with a chosen ``--failure-mode``, checks exactness
  against the dense reference, gates degraded coverage against the
  static :func:`~repro.verify.flow.worst_case_loss` bound, and can
  export the merged Chrome trace.

Failure modes reuse :class:`~repro.faults.FaultPlan`, so the *identical*
deterministic fault schedule a mode denotes here can be replayed on the
simulator and the pipe backend — that is the whole point: one schedule,
three media.

Manifest schema (``cluster_procs.json``)::

    {
      "cluster": {"size": 4, "host": "127.0.0.1", "workdir": "..."},
      "nodes": {
        "node0": {"rank": 0, "pid": 12345, "host": "127.0.0.1",
                   "port": 40001, "log": ".kylix-cluster/node-0.log"},
        ...
      }
    }
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import (
    CoverageReport,
    FaultPlan,
    LinkFault,
    LossRecord,
    PeerFailedError,
    RetryPolicy,
)
from ..obs import NULL_OBSERVER, Observer
from ..verify.watchlock import watched_lock
from ..obs.telemetry import (
    FlightRecorder,
    TelemetryAgent,
    TimeSeriesAggregator,
    WallClockSampler,
)
from ..allreduce import ReduceSpec
from ..allreduce.topology import ButterflyTopology
from ..sparse import MultiplicativeHasher
from .framing import FrameError, FrameStream, encode_frame, recv_frame
from .protocol import run_combined, run_reduce
from .tcp import TcpTransport, loopback_listener
from .transport import POLL_INTERVAL

__all__ = [
    "DEFAULT_MANIFEST",
    "FAILURE_MODES",
    "serve_node",
    "launch_cluster",
    "attach_cluster",
    "stop_cluster",
    "load_manifest",
    "drive_cluster",
]

DEFAULT_MANIFEST = "cluster_procs.json"
DEFAULT_LOG_DIR = ".kylix-cluster"
FAILURE_MODES = ("none", "crash", "slow-node", "partition")

#: The deliberately afflicted rank in crash/slow-node/partition modes —
#: deterministic so a mode + seed fully names its fault schedule.
VICTIM_RANK = 1
#: Fixed straggler penalty for ``slow-node`` (matches the simulator's
#: ``straggler`` experiment scale: late, not lost).
SLOW_NODE_DELAY = 0.05


# ---------------------------------------------------------------------------
# Node server
# ---------------------------------------------------------------------------

def serve_node(
    rank: int,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    once: bool = False,
    ready_stream=None,
) -> int:
    """One cluster node: announce READY, then serve driver sessions.

    The single listener serves four frame kinds: peer ``hello`` frames
    that raced the session setup (stashed and handed to the transport),
    driver ``ping`` probes (answered with ``pong`` + rank/pid, used by
    :func:`attach_cluster`), driver ``session`` frames, and monitor
    ``telemetry-req`` probes (answered with the node's buffered recent
    :class:`~repro.obs.telemetry.TelemetrySample` stream — the attach
    path behind ``python -m repro monitor``).  A ``shutdown`` frame ends
    the loop.
    """
    stream = ready_stream if ready_stream is not None else sys.stdout
    listener = loopback_listener(host, port, backlog=64)
    actual = listener.getsockname()[1]
    stream.write(
        f"KYLIX-NODE READY rank={rank} host={host} port={actual} pid={os.getpid()}\n"
    )
    stream.flush()
    pending: List[Tuple[int, socket.socket]] = []
    # Recent telemetry samples from telemetry-enabled sessions, kept
    # across sessions so a monitor can attach after (or during) a run.
    # Bounded: old samples age out, monitors dedupe by (node, seq).
    recent: deque = deque(maxlen=4096)
    # Driver connections accepted by a *session's* transport while it was
    # winding down (their first frame is not a peer hello) land here and
    # are served before the next accept — nothing is dropped in the race.
    stray: List[Tuple[Any, socket.socket]] = []
    try:
        while True:
            if stray:
                frame, sock = stray.pop(0)
            else:
                try:
                    sock, _ = listener.accept()
                except socket.timeout:
                    continue
                try:
                    ok, frame = recv_frame(sock, timeout=5.0)
                except (OSError, FrameError):
                    sock.close()
                    continue
                if not ok or not isinstance(frame, tuple):
                    sock.close()
                    continue
            kind = frame[0]
            if kind == "hello":
                pending.append((int(frame[1]), sock))
            elif kind == "ping":
                try:
                    sock.sendall(encode_frame(("pong", rank, os.getpid())))
                finally:
                    sock.close()
            elif kind == "shutdown":
                try:
                    sock.sendall(encode_frame(("bye", rank)))
                finally:
                    sock.close()
                return 0
            elif kind == "telemetry-req":
                try:
                    sock.sendall(
                        encode_frame(("telemetry-rep", rank, list(recent)))
                    )
                finally:
                    sock.close()
            elif kind == "session":
                _run_session(rank, listener, sock, frame[1], pending, stray, recent)
                pending = []
                if once:
                    return 0
            else:
                sock.close()
    finally:
        listener.close()


def _run_session(
    rank: int, listener, control: socket.socket, cfg: Dict[str, Any], pending,
    stray, recent=None,
) -> None:
    """Run one driver session: mesh up, reduce ``rounds`` times, report."""
    plan: Optional[FaultPlan] = cfg.get("plan")
    retry: RetryPolicy = cfg.get("retry") or RetryPolicy()
    degrade = bool(cfg.get("degrade", False))
    observe = bool(cfg.get("observe", False))
    obs = Observer(name=f"node {rank}") if observe else NULL_OBSERVER
    telemetry_interval = cfg.get("telemetry_interval")
    # The result frame and streamed telemetry frames share the control
    # socket; the lock keeps their byte streams from interleaving.
    ctrl_lock = watched_lock("net.cluster._run_session.ctrl_lock")
    sampler = None
    recorder = None
    if observe:
        recorder = FlightRecorder(capacity=512, node=rank).attach(obs)
    if observe and telemetry_interval:
        def ship(sample) -> None:
            # Buffer for monitor telemetry-req probes, then stream the
            # control-plane TELEMETRY frame to the driver (best-effort:
            # a departed driver must not kill the sampler).
            if recent is not None:
                recent.append(sample)
            with ctrl_lock:
                try:
                    control.sendall(encode_frame(("telemetry", rank, sample)))
                except OSError:
                    pass

        sampler = WallClockSampler(
            TelemetryAgent(
                obs, node=rank, interval=float(telemetry_interval), sink=ship
            ),
            name=f"telemetry-node-{rank}",
        ).start()
    step_kill = plan.step_kill_for(rank) if plan is not None else None
    if plan is not None and not plan.is_alive(rank, 0.0):
        os._exit(1)  # dead from the start: a real process death

    def maybe_crash(kind: str, layer: int) -> None:
        if step_kill is not None and step_kill == (kind, layer):
            os._exit(1)  # the SIGKILL-equivalent: no goodbye frames

    net = TcpTransport(
        rank,
        plan,
        retry,
        obs=obs,
        hb_interval=float(cfg.get("hb_interval", 0.25)),
        hb_timeout=float(cfg.get("hb_timeout", 5.0)),
    )
    net.keep_listener = True  # the node's listener outlives the session
    net.on_stray = lambda frame, sock: stray.append((frame, sock))
    rounds_out: List[Tuple[int, Any, Any, Tuple[LossRecord, ...]]] = []
    err = None
    # Config reuse across the wave's rounds: on a clean session (no fault
    # plan, strict mode) round 0 captures its wire plan and rounds 1..
    # replay values-only through it — one configuration per wave instead
    # of one per round.  Fault sessions keep the combined protocol every
    # round: the fault oracle's decisions are keyed by (kind, seq), so a
    # cached replay would silently change the schedule being driven.
    use_cache = plan is None and not degrade
    cache_stats = {"hits": 0, "misses": 0}
    try:
        net.form_mesh(
            listener,
            cfg["addrs"],
            timeout=float(cfg.get("mesh_timeout", 10.0)),
            pending=pending,
        )
        # Node-server values come from outside the program: the protocol
        # core checks them against this single-rank spec.
        spec = ReduceSpec(
            in_indices={rank: cfg["in_idx"]},
            out_indices={rank: cfg["out_idx"]},
            value_shape=tuple(cfg.get("value_shape", ())),
            dtype=cfg["dtype_str"],
            op=cfg["op"],
        )
        proto_args = dict(
            spec=spec,
            topology=ButterflyTopology(cfg["degrees"], int(np.prod(cfg["degrees"]))),
            hasher=MultiplicativeHasher(cfg["multiplier"]),
            strict=bool(cfg.get("strict", True)),
        )
        node_plan = None
        for rnd in range(int(cfg.get("rounds", 1))):
            if node_plan is not None:
                cache_stats["hits"] += 1
                result = run_reduce(
                    rank, net, node_plan, cfg["values"],
                    obs=obs, seq=rnd, maybe_crash=maybe_crash, **proto_args,
                )
                rounds_out.append((rnd, result, None, ()))
                continue
            if use_cache:
                cache_stats["misses"] += 1
            plan_built, result, lost_raw, losses = run_combined(
                rank, net, cfg["values"],
                obs=obs, degrade=degrade, seq=rnd, maybe_crash=maybe_crash,
                **proto_args,
            )
            if use_cache:
                node_plan = plan_built
            rounds_out.append((rnd, result, lost_raw, tuple(losses)))
    except PeerFailedError as exc:
        err = ("peer", exc.slot, exc.phase, exc.layer, str(exc))
    except Exception as exc:  # pragma: no cover - surfaced at the driver
        err = f"{type(exc).__name__}: {exc}"
    try:
        # Slow peers may still want resends of our final up-parts; give
        # the NACK layer a short grace before tearing the mesh down.
        net.linger(threading.Event(), budget=min(0.5, retry.local_budget()))
        # Stop (and final-flush) the sampler before the result frame so
        # the telemetry stream is complete and ordered before it.
        if sampler is not None:
            sampler.stop(flush=True)
        _dump_node_postmortem(rank, recorder, cfg, err, rounds_out)
        with ctrl_lock:
            control.sendall(
                encode_frame(
                    (
                        "result",
                        rank,
                        err,
                        rounds_out,
                        obs.snapshot() if obs.enabled else None,
                        cache_stats,
                    )
                )
            )
    except OSError:  # pragma: no cover - driver went away
        pass
    finally:
        if sampler is not None:
            sampler.stop(flush=False)
        # Close under the control lock: the sampler thread may be inside
        # a sendall on this socket, and closing mid-write hands the fd
        # back to the OS while bytes are still leaving.
        with ctrl_lock:
            control.close()
        net.close()


def _dump_node_postmortem(rank, recorder, cfg, err, rounds_out) -> None:
    """Write this node's flight-recorder dump if the session went bad.

    Triggered by a session error or by degraded rounds that reported
    losses; the path is ``<postmortem_dir>/postmortem-node-<rank>.json``
    (the driver ships ``postmortem_dir`` in the session config)."""
    pm_dir = cfg.get("postmortem_dir")
    if recorder is None or not pm_dir:
        return
    had_loss = any(
        (losses or (lost_raw is not None and len(lost_raw)))
        for _rnd, _res, lost_raw, losses in rounds_out
    )
    if err is None and not had_loss:
        return
    try:
        os.makedirs(pm_dir, exist_ok=True)
        recorder.dump(
            os.path.join(pm_dir, f"postmortem-node-{rank}.json"),
            context={"rank": rank, "err": str(err) if err is not None else None},
        )
    except OSError:  # pragma: no cover - postmortem is best-effort
        pass


# ---------------------------------------------------------------------------
# Launcher
# ---------------------------------------------------------------------------

def launch_cluster(
    size: int,
    *,
    host: str = "127.0.0.1",
    log_dir: str = DEFAULT_LOG_DIR,
    manifest_path: str = DEFAULT_MANIFEST,
    python: Optional[str] = None,
    ready_timeout: float = 30.0,
) -> Dict[str, Any]:
    """Spawn ``size`` node processes on loopback; write the manifest.

    Each node's stdout/stderr goes to ``<log_dir>/node-<rank>.log``; the
    READY line is parsed out of the log to learn the bound port.  A node
    that never announces within ``ready_timeout`` aborts the launch (the
    already-spawned nodes are terminated — no strays).
    """
    if size < 1:
        raise ValueError("cluster size must be >= 1")
    os.makedirs(log_dir, exist_ok=True)
    python = python or sys.executable
    procs: Dict[int, subprocess.Popen] = {}
    logs: Dict[int, str] = {}
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    try:
        for r in range(size):
            log_path = os.path.join(log_dir, f"node-{r}.log")
            logs[r] = log_path
            with open(log_path, "w") as log:
                procs[r] = subprocess.Popen(
                    [python, "-m", "repro", "node",
                     "--rank", str(r), "--host", host, "--port", "0"],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=env,
                )
        nodes: Dict[str, Any] = {}
        deadline = time.monotonic() + ready_timeout
        for r in range(size):
            port = None
            while time.monotonic() < deadline:
                # Popen.poll() is non-blocking by contract (no timeout
                # parameter exists) — it reaps an exited child or
                # returns immediately.
                if procs[r].poll() is not None:  # lint: ok
                    raise RuntimeError(
                        f"node {r} exited with code {procs[r].returncode} "
                        f"before READY (see {logs[r]})"
                    )
                port = _parse_ready(logs[r])
                if port is not None:
                    break
                time.sleep(POLL_INTERVAL * 10)
            if port is None:
                raise RuntimeError(
                    f"node {r} not READY within {ready_timeout}s (see {logs[r]})"
                )
            nodes[f"node{r}"] = {
                "rank": r,
                "pid": procs[r].pid,
                "host": host,
                "port": port,
                "log": logs[r],
            }
    except Exception:
        for p in procs.values():
            if p.poll() is None:  # lint: ok — Popen.poll() never blocks
                p.terminate()
        raise
    manifest = {
        "cluster": {"size": size, "host": host, "workdir": os.getcwd()},
        "nodes": nodes,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def _parse_ready(log_path: str) -> Optional[int]:
    try:
        with open(log_path) as fh:
            for line in fh:
                if line.startswith("KYLIX-NODE READY"):
                    fields = dict(
                        kv.split("=", 1) for kv in line.split()[2:] if "=" in kv
                    )
                    return int(fields["port"])
    except (OSError, KeyError, ValueError):
        return None
    return None


def attach_cluster(
    endpoints: Sequence[str],
    *,
    manifest_path: str = DEFAULT_MANIFEST,
    probe_timeout: float = 5.0,
) -> Dict[str, Any]:
    """Build a manifest from already-running nodes (``host:port`` list).

    This is the host-list path: start ``python -m repro node`` yourself
    on each machine, then attach.  Every endpoint is probed with a ping
    frame; the node's announced rank and pid land in the manifest.
    """
    nodes: Dict[str, Any] = {}
    for ep in endpoints:
        host, _, port_s = ep.rpartition(":")
        if not host or not port_s.isdigit():
            raise ValueError(f"endpoint {ep!r} is not host:port")
        sock = socket.create_connection((host, int(port_s)), timeout=probe_timeout)
        try:
            sock.sendall(encode_frame(("ping",)))
            ok, pong = recv_frame(sock, timeout=probe_timeout)
        finally:
            sock.close()
        if not ok or pong[0] != "pong":
            raise RuntimeError(f"endpoint {ep} did not answer the ping probe")
        rank, pid = int(pong[1]), int(pong[2])
        nodes[f"node{rank}"] = {
            "rank": rank, "pid": pid, "host": host, "port": int(port_s),
            "log": None,
        }
    size = len(nodes)
    if sorted(n["rank"] for n in nodes.values()) != list(range(size)):
        raise RuntimeError(
            f"attached ranks {sorted(n['rank'] for n in nodes.values())} do not "
            f"form 0..{size - 1}"
        )
    manifest = {
        "cluster": {"size": size, "host": None, "workdir": os.getcwd()},
        "nodes": nodes,
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def load_manifest(manifest_path: str = DEFAULT_MANIFEST) -> Dict[str, Any]:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    size = manifest["cluster"]["size"]
    ranks = sorted(n["rank"] for n in manifest["nodes"].values())
    if ranks != list(range(size)):
        raise ValueError(f"manifest ranks {ranks} do not cover 0..{size - 1}")
    return manifest


def stop_cluster(
    manifest_path: str = DEFAULT_MANIFEST, *, grace: float = 5.0
) -> int:
    """Tear a launched cluster down: shutdown frames, then SIGTERM.

    Returns the number of nodes that acknowledged or died.  The manifest
    file is removed on success so stale state cannot be re-driven.
    """
    manifest = load_manifest(manifest_path)
    stopped = 0
    for node in manifest["nodes"].values():
        if _send_shutdown(node["host"], node["port"]):
            stopped += 1
            continue
        pid = node.get("pid")
        if pid:
            try:
                os.kill(pid, signal.SIGTERM)
                stopped += 1
            except (OSError, ProcessLookupError):
                pass
    deadline = time.monotonic() + grace
    for node in manifest["nodes"].values():
        pid = node.get("pid")
        while pid and _pid_alive(pid) and time.monotonic() < deadline:
            _reap_if_child(pid)
            time.sleep(POLL_INTERVAL * 10)
        if pid and _pid_alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass
            kill_deadline = time.monotonic() + 2.0
            while _pid_alive(pid) and time.monotonic() < kill_deadline:
                _reap_if_child(pid)
                time.sleep(POLL_INTERVAL)
    os.remove(manifest_path)
    return stopped


def _reap_if_child(pid: int) -> None:
    """Collect the exit status if ``pid`` is our child — an exited node
    otherwise lingers as a zombie, and ``kill(pid, 0)`` keeps reporting
    it alive (the launcher and the stopper usually share a process)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except (ChildProcessError, OSError):
        pass


def _send_shutdown(host: str, port: int) -> bool:
    try:
        sock = socket.create_connection((host, port), timeout=2.0)
    except OSError:
        return False
    try:
        sock.sendall(encode_frame(("shutdown",)))
        ok, _ = recv_frame(sock, timeout=2.0)
        return ok
    except (OSError, FrameError):
        return False
    finally:
        sock.close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # pragma: no cover - e.g. EPERM
        return True
    return True


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------

def _failure_plan(
    mode: str, base: Optional[FaultPlan], m: int, seed: int
) -> Tuple[Optional[FaultPlan], Optional[RetryPolicy], bool, Optional[FaultPlan]]:
    """(plan, retry override, degrade, bound plan) for one failure mode.

    Every mode is expressed as a :class:`FaultPlan`, so the exact same
    schedule replays on the simulator and the pipe backend.  The *bound
    plan* is the kill-equivalent schedule the static
    :func:`~repro.verify.flow.worst_case_loss` gate understands: a
    silently partitioned node and a crashed node both contribute nothing
    and return nothing, so both are bounded by "victim dead at start".
    """
    victim = VICTIM_RANK % m
    if mode == "none":
        return base, None, False, None
    plan = (base or FaultPlan()).with_seed(seed)
    if mode == "crash":
        # Die right before the first value send of layer 1 — mid-reduce,
        # after mesh formation, the worst spot for the down pass.  This
        # kills the actual node *process*: the manifest is stale for the
        # victim afterwards (relaunch, or drive crash mode last).
        plan = plan.kill_at_step(victim, "down", 1)
        bound = FaultPlan().kill(victim)
        return plan, RetryPolicy(base_timeout=0.2, max_retries=2), True, bound
    if mode == "slow-node":
        # Late, not lost: generous base deadline so delayed messages
        # arrive inside attempt 0 instead of burning the retry budget.
        plan = plan.with_rule(LinkFault(src=victim, delay=SLOW_NODE_DELAY))
        return plan, RetryPolicy(base_timeout=0.25, max_retries=4), False, None
    if mode == "partition":
        # The victim can talk to nobody and hear nobody — both directions
        # drop with certainty, connections stay up (the silent partition).
        plan = plan.with_rule(LinkFault(src=victim, drop=1.0))
        plan = plan.with_rule(LinkFault(dst=victim, drop=1.0))
        bound = FaultPlan().kill(victim)
        return plan, RetryPolicy(base_timeout=0.15, max_retries=1), True, bound
    raise ValueError(f"unknown failure mode {mode!r}; choose from {FAILURE_MODES}")


def drive_cluster(
    manifest: Dict[str, Any],
    *,
    workload: str = "quickstart",
    rounds: int = 1,
    duration: Optional[float] = None,
    concurrency: int = 1,
    failure_mode: str = "none",
    seed: int = 0,
    observe: Optional[Observer] = None,
    session_timeout: float = 120.0,
    telemetry_interval: Optional[float] = None,
    aggregator: Optional[TimeSeriesAggregator] = None,
    postmortem_dir: Optional[str] = DEFAULT_LOG_DIR,
) -> Dict[str, Any]:
    """Run a workload against a launched cluster; return the outcome.

    ``telemetry_interval`` (requires ``observe``) turns on the live
    telemetry plane: every node samples its metric registry on that
    wall-clock interval and streams ``("telemetry", rank, sample)``
    frames back on its session control connection; the driver ingests
    them into ``aggregator`` (created on demand, returned under
    ``outcome["aggregator"]``), and the nodes also buffer them for
    ``python -m repro monitor`` attach probes.  On degraded completion
    or session errors a flight-recorder postmortem cross-linked with the
    merged :class:`~repro.faults.CoverageReport` is written under
    ``postmortem_dir`` (``outcome["postmortem"]`` names the file).

    ``concurrency`` is the number of reduction rounds batched into one
    session wave: one mesh formation — and, on clean sessions, one
    *configuration* — amortizes over that many rounds (round 0 runs the
    combined protocol and caches its wire plan; the wave's later rounds
    replay values-only through it, reported as ``config_cache`` hits).
    Waves repeat until ``rounds`` rounds have run, or — with
    ``duration`` — until the wall clock says stop.

    The outcome dict carries per-wave exactness against the dense
    reference, the merged :class:`~repro.faults.CoverageReport` for
    degraded modes, and the static worst-case-loss gate verdict.
    """
    from ..allreduce import dense_reduce
    from ..obs.runner import EXPERIMENTS
    from ..verify.flow import worst_case_loss

    if workload not in EXPERIMENTS:
        raise ValueError(f"unknown workload {workload!r}")
    if rounds < 1 or concurrency < 1:
        raise ValueError("rounds and concurrency must be >= 1")
    w = EXPERIMENTS[workload](seed)
    m, degrees = w["m"], w["degrees"]
    size = manifest["cluster"]["size"]
    if m != size:
        raise ValueError(
            f"workload {workload} needs {m} nodes, manifest has {size}"
        )
    spec = ReduceSpec(in_indices=w["in_idx"], out_indices=w["out_idx"])
    plan, retry_override, degrade, bound_plan = _failure_plan(
        failure_mode, w.get("faults"), m, seed
    )
    retry = retry_override or w.get("retry") or RetryPolicy(base_timeout=0.25)
    if plan is not None:
        plan.validate(m)
    obs = observe if observe is not None else NULL_OBSERVER
    if obs.enabled:
        obs.name_pid(0, "driver")
    if telemetry_interval is not None:
        if telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive")
        if not obs.enabled:
            raise ValueError("telemetry_interval requires observe=Observer(...)")
        if aggregator is None:
            aggregator = TimeSeriesAggregator()
    recorder = FlightRecorder(capacity=512, node=-1)
    if obs.enabled:
        recorder.attach(obs)
    addrs = {
        n["rank"]: (n["host"], n["port"]) for n in manifest["nodes"].values()
    }
    multiplier = int(MultiplicativeHasher()._mult)
    # Exactness reference.  Under a degraded mode the victim contributes
    # *nothing* (it dies or all its sends drop before any value leaves),
    # so the honest reference for the survivors' kept positions is the
    # reduction over every member *except* the victim — the full dense
    # reference would charge them the victim's missing addends.
    ref_values = dict(w["values"])
    if degrade:
        from ..allreduce.base import reduction_identity

        victim = VICTIM_RANK % m
        ident = reduction_identity(spec.op, spec.dtype)
        ref_values[victim] = np.full_like(
            np.asarray(ref_values[victim], dtype=spec.dtype), ident
        )
    reference = dense_reduce(spec, ref_values)

    outcome: Dict[str, Any] = {
        "workload": workload,
        "failure_mode": failure_mode,
        "seed": seed,
        "rounds_requested": rounds,
        "rounds_run": 0,
        "waves": 0,
        "exact_rounds": 0,
        "checked_rounds": 0,
        "dead_ranks": [],
        "errors": [],
        "config_cache": {"hits": 0, "misses": 0, "hit_rate": 0.0},
    }
    all_lost: Dict[int, List[np.ndarray]] = {}
    all_losses: List[LossRecord] = []
    started = time.monotonic()
    rounds_left = rounds
    while rounds_left > 0:
        wave = min(concurrency, rounds_left)
        wave_results, wave_errs, dead, wave_cache = _run_wave(
            addrs, spec, w, plan, retry, degrade, wave,
            multiplier=multiplier, obs=obs, session_timeout=session_timeout,
            telemetry_interval=telemetry_interval, aggregator=aggregator,
            recorder=recorder, postmortem_dir=postmortem_dir,
        )
        for msg in wave_errs:
            recorder.record("error", time.monotonic() - started, detail=msg)
        for r in dead:
            recorder.record("dead", time.monotonic() - started, rank=r)
        outcome["waves"] += 1
        outcome["rounds_run"] += wave
        outcome["errors"].extend(wave_errs)
        outcome["config_cache"]["hits"] += wave_cache["hits"]
        outcome["config_cache"]["misses"] += wave_cache["misses"]
        for r in dead:
            if r not in outcome["dead_ranks"]:
                outcome["dead_ranks"].append(r)
            all_lost.setdefault(r, []).append(np.asarray(spec.in_indices[r]))
            all_losses.append(
                LossRecord(rank=r, member=r, phase="combined_down", layer=0)
            )
        for rank, per_round in wave_results.items():
            for _rnd, result, lost_raw, losses in per_round:
                all_losses.extend(losses)
                if lost_raw is not None and len(lost_raw):
                    all_lost.setdefault(rank, []).append(lost_raw)
                if result is None:
                    continue
                if degrade and rank == VICTIM_RANK % m:
                    # The victim's surviving values are reductions over
                    # whatever happened to reach it — no dense reference
                    # matches them; its coverage report is the contract.
                    continue
                ok = _round_exact(result, reference[rank], spec, rank, lost_raw)
                outcome["checked_rounds"] += 1
                if ok:
                    outcome["exact_rounds"] += 1
        rounds_left -= wave
        if duration is not None:
            if time.monotonic() - started >= duration:
                break
            if rounds_left <= 0:
                rounds_left = rounds  # keep cycling until the clock says stop
    outcome["elapsed"] = time.monotonic() - started
    consults = outcome["config_cache"]["hits"] + outcome["config_cache"]["misses"]
    outcome["config_cache"]["hit_rate"] = (
        outcome["config_cache"]["hits"] / consults if consults else 0.0
    )

    report = None
    if degrade:
        lost = {
            r: np.unique(np.concatenate(chunks))
            for r, chunks in all_lost.items()
            if chunks
        }
        report = CoverageReport(
            total_ranks=m,
            in_sizes={r: len(spec.in_indices[r]) for r in range(m)},
            lost_indices=lost,
            dead_members=tuple(e.member for e in all_losses),
            losses=tuple(all_losses),
        )
        outcome["coverage"] = report.summary()
        bound = worst_case_loss(
            ButterflyTopology(degrees, m), spec, None, bound_plan or plan
        )
        violations = []
        for r, lost_ix in report.lost_indices.items():
            extra = np.setdiff1d(lost_ix, bound.get(r, np.empty(0, dtype=np.int64)))
            if extra.size:
                violations.append(
                    f"rank {r}: {extra.size} lost indices outside the static bound"
                )
        outcome["bound_ok"] = not violations
        outcome["bound_violations"] = violations
    outcome["report"] = report
    if aggregator is not None:
        outcome["aggregator"] = aggregator
        outcome["telemetry_samples"] = aggregator.samples
    # Crash evidence: any loss, error, or dead rank leaves a postmortem
    # whose coverage section is exactly the merged report above.
    went_bad = bool(
        (report is not None and (report.lost_indices or report.losses))
        or outcome["errors"]
        or outcome["dead_ranks"]
    )
    if postmortem_dir and went_bad:
        os.makedirs(postmortem_dir, exist_ok=True)
        path = os.path.join(postmortem_dir, "postmortem-driver.json")
        recorder.dump(
            path,
            report=report,
            context={
                "workload": workload,
                "failure_mode": failure_mode,
                "seed": seed,
                "dead_ranks": [int(r) for r in outcome["dead_ranks"]],
            },
        )
        outcome["postmortem"] = path
    return outcome


def _round_exact(result, reference, spec, rank, lost_raw) -> bool:
    """Exactness for one rank-round, skipping positions reported lost."""
    if lost_raw is None or not len(lost_raw):
        return bool(np.allclose(result, reference, atol=1e-9))
    keep = ~np.isin(np.asarray(spec.in_indices[rank]), lost_raw)
    return bool(np.allclose(result[keep], reference[keep], atol=1e-9))


def _run_wave(
    addrs, spec, w, plan, retry, degrade, rounds, *, multiplier, obs,
    session_timeout, telemetry_interval=None, aggregator=None, recorder=None,
    postmortem_dir=None,
):
    """One session wave: ship configs to every node, collect results.

    With telemetry enabled, each control connection carries a stream of
    ``("telemetry", rank, sample)`` frames before its ``result`` frame;
    they are ingested into ``aggregator`` as they arrive."""
    results: Dict[int, list] = {}
    errors: List[str] = []
    dead: List[int] = []
    cache_stats = {"hits": 0, "misses": 0}
    lock = watched_lock("net.cluster._run_wave.lock")

    def one(rank: int) -> None:
        cfg = {
            "addrs": addrs,
            "degrees": w["degrees"],
            "multiplier": multiplier,
            "op": spec.op,
            "strict": not degrade,
            "value_shape": spec.value_shape,
            "dtype_str": spec.dtype.str,
            "in_idx": spec.in_indices[rank],
            "out_idx": spec.out_indices[rank],
            "values": np.asarray(w["values"][rank], dtype=spec.dtype),
            "plan": plan,
            "retry": retry,
            "degrade": degrade,
            "rounds": rounds,
            "observe": obs.enabled,
            "telemetry_interval": telemetry_interval,
            "postmortem_dir": postmortem_dir,
        }
        try:
            sock = socket.create_connection(addrs[rank], timeout=5.0)
        except OSError as exc:
            with lock:
                dead.append(rank)
                errors.append(f"rank {rank}: connect failed: {exc}")
            return
        try:
            sock.sendall(encode_frame(("session", cfg)))
            stream = FrameStream(sock)
            while True:
                ok, frame = stream.recv(timeout=session_timeout)
                if not ok or not isinstance(frame, tuple):
                    break
                if frame[0] != "telemetry":
                    break  # the result frame
                with lock:
                    if aggregator is not None:
                        aggregator.ingest(frame[2])
                    if recorder is not None:
                        recorder.record(
                            "telemetry", frame[2].t, node=frame[1],
                            seq=frame[2].seq,
                        )
        except (OSError, FrameError) as exc:
            # The node died mid-session (crash mode's os._exit lands
            # here as an EOF): a real process death, accounted as one.
            with lock:
                dead.append(rank)
                errors.append(f"rank {rank}: session lost: {exc}")
            return
        finally:
            sock.close()
        if not ok:
            with lock:
                dead.append(rank)
                errors.append(f"rank {rank}: node closed before its result")
            return
        _, r_rank, err, per_round, snap = frame[:5]
        node_cache = frame[5] if len(frame) > 5 else None
        with lock:
            if snap is not None and obs.enabled:
                obs.absorb(snap, pid=r_rank + 1, name=f"node {r_rank}")
            if err is not None:
                errors.append(f"rank {r_rank}: {err}")
            results[r_rank] = per_round
            if node_cache:
                cache_stats["hits"] += int(node_cache.get("hits", 0))
                cache_stats["misses"] += int(node_cache.get("misses", 0))

    threads = [
        threading.Thread(target=one, args=(rank,), daemon=True) for rank in addrs
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=session_timeout + 10.0)
    with lock:
        # Snapshot under the lock: a straggler that outlived the bounded
        # join may still be appending while we hand the wave back.
        return dict(results), list(errors), list(dead), dict(cache_stats)
