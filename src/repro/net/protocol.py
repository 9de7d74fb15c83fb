"""The wire driver of the Kylix protocol core, shared by the real backends.

:func:`run_combined` (§III's combined configure+reduce round) and
:func:`run_reduce` (a values-only round over a cached plan) run one
node's :func:`~repro.allreduce.kylix.kylix_node` — the same generator the
simulator drives — against any :class:`~repro.net.transport.BaseTransport`.
The pipe backend (:mod:`repro.net.local`), the socket backend
(:mod:`repro.net.tcp`) and the cluster node server execute these
functions, so the protocol, its span schema and its degraded-completion
accounting are the simulator's by construction.

The core's effects map onto the transport:

* an **exchange** posts each part to its member through background
  senders (our own part short-cuts the medium), collects one part per
  member — under degraded completion an unrecoverable member comes back
  as a hole plus a :class:`~repro.faults.LossRecord` — and joins the
  senders;
* a **compute** charge is free: the wall clock already pays it;
* an **audit** becomes an audit control frame to a live peer.  Each
  degrade-mode sender retains the out-key slice of every combined down
  part, and layer-1 parts piggyback the sender's raw unique out keys,
  which receivers retain.  That piggyback is the only way a wire peer
  learns a hole's raw keys: a node that dies before its first send
  leaves nothing to audit, and its contribution never existed on the
  wire.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..allreduce.base import PHASE_COMBINED_DOWN, PHASE_GATHER_UP, PHASE_REDUCE_DOWN
from ..allreduce.kylix import AUDIT, EXCHANGE, NodePlan, kylix_node
from ..cluster.node import payload_nbytes
from ..faults import LossRecord
from ..faults.policy import DEFAULT_LOCAL_BASE_TIMEOUT
from ..obs import NULL_OBSERVER
# Imported by name only for perfbench/spans.py, which wraps the sparse
# kernels in every module that binds them.
from ..sparse import split_sorted, union_with_maps  # noqa: F401
from .transport import BaseTransport

__all__ = ["run_combined", "run_reduce"]

#: Transport message kind per protocol phase.
_KIND = {PHASE_COMBINED_DOWN: "down", PHASE_REDUCE_DOWN: "rd", PHASE_GATHER_UP: "up"}


def _noop_crash(kind: str, layer: int) -> None:
    return None


def run_combined(
    rank: int,
    net: BaseTransport,
    values: np.ndarray,
    *,
    spec,
    topology,
    hasher,
    strict: bool,
    obs=NULL_OBSERVER,
    degrade: bool = False,
    seq: int = 0,
    maybe_crash: Callable[[str, int], None] = _noop_crash,
) -> Tuple[NodePlan, np.ndarray, Optional[np.ndarray], List[LossRecord]]:
    """One node's combined down/up round over ``net``.

    ``spec`` needs this rank's index sets only.  Returns ``(plan, result,
    lost_raw, losses)``: ``plan`` is the routing plan the round built
    (cache it for :func:`run_reduce` only after a clean round — a
    degraded round's unions hold the holes' tombstones); ``result``
    aligns with the rank's in indices; ``lost_raw`` is the sorted subset
    of them whose reduced values never arrived (``None`` outside degraded
    completion — without it an unrecoverable peer raises
    :class:`~repro.faults.PeerFailedError`); ``losses`` are the loss
    events for the coverage report.

    ``seq`` namespaces one round on a long-lived transport and is the
    per-link sequence the fault oracle sees, so round ``r`` draws the
    same fault schedule on every backend.
    """
    if degrade:
        net.audit_prune(seq)
    core = kylix_node(
        "combined", topology, hasher, rank, spec,
        values=values, degrade=degrade, strict=strict, obs=obs,
    )
    (plan, result, mask), losses = _drive(core, rank, net, seq, degrade, obs, maybe_crash)
    lost_raw = None
    if mask is not None:
        lost_raw = np.unique(np.asarray(spec.in_indices[rank], dtype=np.int64)[~mask])
    return plan, result, lost_raw, losses


def run_reduce(
    rank: int,
    net: BaseTransport,
    plan: NodePlan,
    values: np.ndarray,
    *,
    spec,
    topology,
    hasher,
    strict: bool,
    obs=NULL_OBSERVER,
    seq: int = 0,
    maybe_crash: Callable[[str, int], None] = _noop_crash,
) -> np.ndarray:
    """One values-only round over a cached :class:`NodePlan`.

    The wire-side ``configure() once, reduce() many``: indices never
    leave the node again.  ``seq`` must be unique per round on the
    shared transport.  Clean runs only — degraded completion needs the
    combined round's per-round accounting.
    """
    # Round-scoped transport state from rounds before the previous one
    # is dead weight: drop it so a long session runs in bounded memory.
    net.prune_round(seq)
    core = kylix_node(
        "reduce", topology, hasher, rank, spec,
        plan=plan, values=values, strict=strict, obs=obs,
    )
    (_, result, _), _ = _drive(core, rank, net, seq, False, obs, maybe_crash)
    return result


def _drive(core, rank, net, seq, degrade, obs, maybe_crash):
    """Run the protocol core over ``net``; returns (its result, losses)."""
    losses: List[LossRecord] = []
    reply = None
    try:
        while True:
            effect = core.send(reply)
            if effect[0] == EXCHANGE:
                reply = _exchange(
                    net, rank, *effect[1:5], seq, degrade, obs, maybe_crash, losses
                )
            elif effect[0] == AUDIT:
                _, peer, kind, layer, hole = effect
                base = net.retry.base_timeout or DEFAULT_LOCAL_BASE_TIMEOUT
                timeout = min(2.0, max(0.2, 2.0 * base))
                reply = net.audit(peer, kind, layer, seq, hole, timeout)
            else:
                reply = None
    except StopIteration as done:
        return done.value, losses


def _exchange(net, rank, phase, layer, group, parts, seq, degrade, obs, maybe_crash, losses):
    """One layer step on the transport; returns parts by group position."""
    kind = _KIND[phase]
    # Crash point: die immediately before the first send at the targeted
    # (phase, layer) — the simulator's step-kill semantics.
    maybe_crash(kind, layer)
    audited = degrade and phase == PHASE_COMBINED_DOWN
    piggyback = ()
    if audited and layer == 1:
        piggyback = (np.concatenate([part[0] for part in parts]),)
    for member, part in zip(group, parts):
        if audited:
            net.audit_sent[(seq, layer, member)] = part[0]
            part = part + piggyback
        obs.message_sent(rank, member, payload_nbytes(part), phase=phase, layer=layer)
        if member != rank:
            net.post(member, kind, layer, part, seq)
    if degrade:
        got, failed = net.collect(group, kind, layer, seq, missing_ok=True)
        losses.extend(
            LossRecord(rank=rank, member=m, phase=phase, layer=layer) for m in sorted(failed)
        )
    else:
        got = net.collect(group, kind, layer, seq)
    received = []
    for member, own in zip(group, parts):
        part = own if member == rank else got.get(member)
        if piggyback and part is not own and part is not None:
            net.audit_recv[(seq, layer, member)] = part[-1]
            part = part[:-1]
        received.append(part)
    net.join_senders()
    return received
