"""The real-sockets backend (repro.net.TcpKylix) over loopback.

Everything here crosses actual TCP connections: framing, per-peer
sender threads, heartbeats, reconnect.  The acceptance contract is the
same as LocalKylix's — typed failures in bounded time, zero zombie
processes — plus the socket-specific clause: zero leaked file
descriptors in the parent across a run, including runs that end in a
SIGKILLed worker.
"""

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.allreduce import ReduceSpec, dense_reduce
from repro.faults import FaultPlan, LinkFault, PeerFailedError, RetryPolicy
from repro.net import LocalKylix, TcpKylix


def covered_case(m, n, rng):
    in_idx = {r: rng.choice(n, size=max(2, n // 6), replace=False) for r in range(m)}
    out_idx = {
        r: np.concatenate([rng.choice(n, size=8), np.arange(r, n, m)]).astype(np.int64)
        for r in range(m)
    }
    spec = ReduceSpec(in_idx, out_idx)
    vals = {r: rng.normal(size=out_idx[r].size) for r in range(m)}
    return spec, vals


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def assert_no_children(budget=5.0):
    deadline = time.monotonic() + budget
    while mp.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert mp.active_children() == []


class TestTcpCorrectness:
    @pytest.mark.parametrize("degrees", [[2], [4], [2, 2]])
    def test_matches_dense_reference(self, degrees):
        m = int(np.prod(degrees))
        rng = np.random.default_rng(m)
        spec, vals = covered_case(m, 150, rng)
        got = TcpKylix(degrees).allreduce(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)
        assert_no_children()

    def test_agrees_with_local_backend(self):
        rng = np.random.default_rng(9)
        spec, vals = covered_case(4, 120, rng)
        tcp = TcpKylix([2, 2]).allreduce(spec, vals)
        local = LocalKylix([2, 2]).allreduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(tcp[r], local[r], atol=1e-12)

    @pytest.mark.parametrize("rounds", [1, 2])
    def test_wrong_length_values_raise_like_the_simulator(self, rounds):
        rng = np.random.default_rng(4)
        spec, vals = covered_case(4, 150, rng)
        bad = dict(vals)
        bad[0] = vals[0][:1]
        net = TcpKylix([2, 2])
        with pytest.raises(ValueError, match="out values shape"):
            if rounds == 1:
                net.allreduce(spec, bad)
            else:
                net.allreduce_rounds(spec, [vals, bad])
        assert_no_children()

    def test_no_parent_fd_leak(self):
        rng = np.random.default_rng(10)
        spec, vals = covered_case(4, 100, rng)
        net = TcpKylix([2, 2])
        net.allreduce(spec, vals)  # warm any lazily-created fds
        before = open_fds()
        net.allreduce(spec, vals)
        assert open_fds() <= before


class TestTcpFaults:
    def test_recovers_from_seeded_chaos(self):
        rng = np.random.default_rng(11)
        spec, vals = covered_case(4, 150, rng)
        plan = FaultPlan(seed=5).with_rule(LinkFault(drop=0.10, duplicate=0.05))
        net = TcpKylix([2, 2], faults=plan, retry=RetryPolicy(base_timeout=0.3))
        got = net.allreduce(spec, vals)
        ref = dense_reduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)
        assert_no_children()

    def test_crash_degrades_with_coverage_report(self):
        """A node dying before its first send: the survivors finish, the
        report accounts every lost index, and the kept indices equal the
        reduction over the other members (the victim's contributions
        reached nobody)."""
        rng = np.random.default_rng(12)
        spec, vals = covered_case(4, 150, rng)
        net = TcpKylix(
            [2, 2],
            faults=FaultPlan().kill_at_step(1, "down", 1),
            retry=RetryPolicy(base_timeout=0.2, max_retries=2),
            degrade=True,
            timeout=60.0,
        )
        got = net.allreduce(spec, vals)
        report = net.last_report
        assert report is not None
        assert 1 in report.dead_members
        ref_vals = dict(vals)
        ref_vals[1] = np.zeros_like(vals[1])
        ref = dense_reduce(spec, ref_vals)
        lost = report.lost_indices
        for r in spec.ranks:
            if got.get(r) is None:
                assert r in lost
                continue
            keep = ~np.isin(
                np.asarray(spec.in_indices[r]), np.asarray(lost.get(r, []))
            )
            np.testing.assert_allclose(got[r][keep], ref[r][keep], atol=1e-9)
        assert_no_children()

    def test_sigkill_mid_reduce_typed_error_no_zombies_no_leaked_sockets(self):
        """The ISSUE acceptance clause verbatim: SIGKILL a worker while
        the reduce is in flight; the parent must raise the typed
        PeerFailedError in bounded time, leave zero children, and leak
        zero parent file descriptors."""
        rng = np.random.default_rng(13)
        spec, vals = covered_case(4, 300, rng)
        # Warm-up run so multiprocessing/obs infrastructure fds exist.
        TcpKylix([2, 2]).allreduce(spec, vals)
        assert_no_children()
        fds_before = open_fds()

        net = TcpKylix(
            [2, 2],
            retry=RetryPolicy(base_timeout=0.3, max_retries=2),
            timeout=45.0,
            join_timeout=5.0,
        )
        caught = []

        def run():
            try:
                net.allreduce(spec, vals)
            except BaseException as exc:  # noqa: BLE001 - relayed to asserts
                caught.append(exc)

        t = threading.Thread(target=run)
        start = time.monotonic()
        t.start()
        victim = None
        while time.monotonic() - start < 10.0:
            kids = mp.active_children()
            if kids:
                victim = kids[0]
                break
            time.sleep(0.01)
        assert victim is not None, "no worker observed"
        os.kill(victim.pid, signal.SIGKILL)
        t.join(timeout=45.0)
        elapsed = time.monotonic() - start
        assert not t.is_alive(), "allreduce hung after SIGKILL"
        assert caught and isinstance(caught[0], PeerFailedError)
        assert elapsed < 40.0
        assert_no_children()
        # The exception's traceback and the Process handles held by this
        # frame (each keeps a sentinel pipe open) pin fds that are not
        # leaks; drop them so the census sees only what truly leaked.
        import gc

        caught.clear()
        del net, victim, kids
        gc.collect()
        assert open_fds() <= fds_before


class TestConcurrencyRegressions:
    """Deterministic regressions for the races ``python -m repro races``
    surfaced in this transport (and the fixes it forced).

    Each test replaces ``link.lock`` with an instrumented lock that
    *forces* the racing interleaving, so the old buggy orderings fail
    every run instead of once per thousand soak runs."""

    @staticmethod
    def _bare_transport():
        from repro.faults import RetryPolicy
        from repro.net.tcp import TcpTransport

        return TcpTransport(0, None, RetryPolicy())

    def test_write_reads_the_socket_inside_the_lock(self):
        """The _Link.sock finding: _write used to snapshot ``link.sock``
        *before* taking the lock, so a reconnect swap between the read
        and the sendall wrote to the retired socket and declared a live
        link dead.  The instrumented lock performs the swap at acquire
        time — exactly the lost race — and the fixed _write must send on
        the fresh socket."""
        from repro.net.tcp import _Link

        class DeadSock:
            def sendall(self, data):
                raise OSError("stale fd")

        class LiveSock:
            def __init__(self):
                self.sent = []

            def sendall(self, data):
                self.sent.append(data)

        class SwapOnAcquire:
            """_install's swap wins the race: by the time _write holds
            the lock, the socket has been replaced."""

            def __init__(self, link, fresh):
                self.link = link
                self.fresh = fresh
                self.inner = threading.Lock()

            def __enter__(self):
                self.inner.acquire()
                self.link.sock = self.fresh
                return self

            def __exit__(self, *exc):
                self.inner.release()

        net = self._bare_transport()
        try:
            link = _Link(1)
            live = LiveSock()
            link.sock = DeadSock()
            link.lock = SwapOnAcquire(link, live)
            reestablishes = []
            net._reestablish = lambda l: reestablishes.append(l) or False
            assert net._write(link, b"payload") is True
            assert live.sent == [b"payload"]
            assert link.failed is False
            assert reestablishes == [], "a fresh socket must not trigger reconnect"
        finally:
            net.close()

    def test_install_resets_liveness_inside_the_critical_section(self):
        """The _install finding: the down_at/failed/last_seen resets
        used to happen *after* the lock was released, so a pump running
        between the swap and the resets saw the new socket wearing the
        old link's death certificate and declared the peer dead.  The
        instrumented lock snapshots the fields at first release: the
        fixed _install must have reset them by then."""
        from repro.net.tcp import _Link

        class FakeSock:
            def settimeout(self, t):
                pass

            def recv(self, n):
                raise OSError("test socket has no bytes")

            def close(self):
                pass

        class SnapshotOnRelease:
            def __init__(self, link):
                self.link = link
                self.inner = threading.Lock()
                self.at_first_release = None

            def __enter__(self):
                self.inner.acquire()
                return self

            def __exit__(self, *exc):
                if self.at_first_release is None:
                    self.at_first_release = (
                        self.link.down_at,
                        self.link.failed,
                        self.link.last_seen,
                    )
                self.inner.release()

        net = self._bare_transport()
        try:
            net._stop.set()  # keep the spawned reader passive
            link = _Link(1)
            link.down_at = 123.0
            link.failed = True
            link.last_seen = 0.0
            link.sender = threading.Thread(target=lambda: None)
            link.sender.start()  # close() joins it; a no-op thread exits at once
            snap = SnapshotOnRelease(link)
            link.lock = snap
            net._links[1] = link  # pre-registered: no sender spawn
            net._install(1, FakeSock())
            if link.reader is not None:
                link.reader.join(timeout=2.0)
            down_at, failed, last_seen = snap.at_first_release
            assert down_at is None, "down_at reset must be inside the lock"
            assert failed is False, "failed reset must be inside the lock"
            assert last_seen > 0.0, "last_seen refresh must be inside the lock"
        finally:
            net.close()
