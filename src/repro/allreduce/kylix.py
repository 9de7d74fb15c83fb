"""Kylix: the nested heterogeneous-degree butterfly sparse allreduce (§III).

The protocol in brief (node ``k``, degree stack ``d_1 × … × d_l``):

**Configuration** (downward only).  At layer ``i`` every node splits its
current in/out key sets into ``d_i`` equal hashed sub-ranges of the range
it shares with its layer-``i`` group, sends part ``q`` to the group member
at position ``q``, unions what it receives (tree merge), and memoises the
position maps of each received part inside the union.  After ``l`` layers
node ``k`` owns the union of all contributions to its nested range.

**Reduction** (down then up, through the *same* groups — nesting).  Values
ride the memoised structure: downward, each received value part is
scatter-added into the node's partial via the stored maps; at the bottom
the partial is fully reduced over the whole cluster, and the node projects
it onto the in-keys it hosts.  Upward, each node extracts — again via the
stored maps — exactly the sub-vector each group member asked for during
configuration and sends it back; members reassemble by writing parts into
the contiguous slices the split produced.  Total reduction work is
constant time per element, as in the paper.

Degenerate stacks reproduce the baselines: ``[m]`` is the direct
all-to-all allreduce, ``[2]*log2(m)`` the binary butterfly.

The per-node protocol is written once, as the sans-I/O generator
:func:`kylix_node`: it never sends, receives or sleeps, it *yields
effects* and is resumed with their answers.  Three drivers run it —
:class:`KylixAllreduce` on the simulated cluster, :mod:`repro.net.protocol`
over pipes and sockets, and :func:`repro.verify.plan.build_plans` in
lock step without any medium — so every backend executes the same splits,
unions, memoised maps and degraded-completion accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..cluster import Cluster, SimNode
from ..faults import CoverageReport, FailureDetector, FaultPlan, LossRecord, RetryPolicy
from ..obs import NULL_OBSERVER
from ..simul import WaitTimeout, wait_with_timeout
from ..sparse import (
    IndexHasher,
    KeyRange,
    MultiplicativeHasher,
    split_sorted,
    union_with_maps,
)
from .base import (
    PHASE_COMBINED_DOWN,
    PHASE_CONFIG,
    PHASE_GATHER_UP,
    PHASE_REDUCE_DOWN,
    CoverageError,
    ReduceSpec,
    reduction_identity,
    reduction_ufunc,
)
from .topology import ButterflyTopology

__all__ = [
    "KylixAllreduce",
    "NodePlan",
    "LayerPlan",
    "PhaseTiming",
    "kylix_node",
    "check_values",
    "EXCHANGE",
    "COMPUTE",
    "AUDIT",
]

#: Effects :func:`kylix_node` yields, as tuples led by one of these tags:
#:
#: ``(EXCHANGE, phase, layer, group, parts, nbytes_hint)``
#:     send ``parts[q]`` to ``group[q]`` (our own position included) and
#:     answer with the parts received, indexed by group position — ``None``
#:     for a member declared unrecoverable (a hole).  ``nbytes_hint`` sizes
#:     receive deadlines.
#: ``(COMPUTE, nbytes)``
#:     charge local work proportional to ``nbytes``; answer ``None``.
#: ``(AUDIT, peer, kind, layer, hole)``
#:     what ``peer`` retained about ``hole``: ``kind="recv"`` the hole's
#:     raw unique out keys (layer 1), ``kind="sent"`` the out-key slice
#:     ``peer`` sent the hole at ``layer``.  Answer the keys, or ``None``.
EXCHANGE, COMPUTE, AUDIT = "exchange", "compute", "audit"

#: Protocol modes: which passes :func:`kylix_node` runs.
_BUILDS = ("configure", "combined")  # build the plan on the way down
_DESCENDS = ("configure", "combined", "reduce", "scatter")
_ASCENDS = ("combined", "reduce", "gather")


@dataclass
class LayerPlan:
    """Everything node ``k`` memoised about one communication layer."""

    group: List[int]  # member ids, position order
    pos: int  # our position (digit) in the group
    pos_of: Dict[int, int]  # member id -> position
    out_slices: List[slice]  # split of the previous out key array
    in_slices: List[slice]  # split of the previous in key array
    out_recv_maps: List[np.ndarray]  # per position: part -> out union positions
    in_recv_maps: List[np.ndarray]  # per position: part -> in union positions (f maps)
    out_union_size: int
    in_union_size: int
    in_prev_size: int  # length of the previous in key array (up-pass target)


@dataclass
class NodePlan:
    """Full per-node configuration state produced by the config pass."""

    rank: int
    out_inverse: np.ndarray  # original out positions -> unique sorted positions
    in_inverse: np.ndarray  # original in positions -> unique sorted positions
    n_out: int  # unique out keys at layer 0
    n_in: int  # unique in keys at layer 0
    layers: List[LayerPlan] = field(default_factory=list)
    bottom_pos: Optional[np.ndarray] = None  # in^l positions within out^l union
    bottom_hit: Optional[np.ndarray] = None  # coverage mask for bottom_pos
    bottom_out_keys: Optional[np.ndarray] = None  # hashed keys of out^l (sorted)


@dataclass(frozen=True)
class PhaseTiming:
    """Simulated wall time of one protocol phase."""

    start: float
    end: float

    @property
    def elapsed(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# The protocol core
# ---------------------------------------------------------------------------
def check_values(spec: ReduceSpec, rank: int, values) -> np.ndarray:
    """``values`` as ``spec.dtype``, checked against rank's out indices.

    The protocol's one shape check: :func:`kylix_node` runs it on every
    node, and the forked backends also run it in the parent before
    forking, so a bad call raises ``ValueError`` on every backend."""
    raw = np.asarray(values, dtype=spec.dtype)
    if raw.shape != (len(spec.out_indices[rank]), *spec.value_shape):
        raise ValueError(
            f"rank {rank}: out values shape {raw.shape} does not match "
            f"(n_out={len(spec.out_indices[rank])}, "
            f"value_shape={spec.value_shape})"
        )
    return raw


def kylix_node(
    mode: str,
    topology: ButterflyTopology,
    hasher: IndexHasher,
    rank: int,
    spec: ReduceSpec,
    *,
    plan: Optional[NodePlan] = None,
    values=None,
    degrade: bool = False,
    strict: bool = True,
    obs=NULL_OBSERVER,
):
    """One node's Kylix protocol as a sans-I/O generator.

    ``mode`` picks the passes:

    ``"configure"``  build the plan (indices only, downward);
    ``"combined"``   build the plan with values in the same messages, then
                     allgather up (§III's minibatch pass);
    ``"reduce"``     values down and back up through ``plan``;
    ``"scatter"``    values down only: the bottom partial (reduce-scatter);
    ``"gather"``     ``values`` is the bottom partial; allgather it up.

    ``values`` is this rank's array — aligned with its out indices, or
    with ``plan.bottom_out_keys`` in gather mode.  The generator yields
    the effects documented at :data:`EXCHANGE` and returns ``(plan,
    result, mask)``: ``result`` aligns with the in indices (the bottom
    keys in scatter mode, ``None`` in configure mode) and ``mask`` marks
    its valid entries under degraded completion (``None`` otherwise).

    Under ``degrade`` a hole is accounted, never raised: values carry
    validity masks, every position a hole's part covered loses its mask,
    and in the combined pass — where nothing yet says which keys the
    hole's partial held — the receiver reconstructs that key set by
    auditing the hole's peers and adopts the slice it was owed as
    tombstones (identity values, invalid mask) that ride the normal
    routing to each key's bottom home and on to every requester.
    """
    identity = reduction_identity(spec.op, spec.dtype)
    if mode in _DESCENDS:
        plan, v, v_mask = yield from _descend(
            mode, topology, hasher, rank, spec, plan, values, degrade, obs
        )
    elif mode == "gather":
        v = np.asarray(values, dtype=spec.dtype)
        if v.shape != (plan.bottom_out_keys.size, *spec.value_shape):
            raise ValueError(
                f"rank {rank}: bottom values shape {v.shape} does not match "
                f"the bottom range ({plan.bottom_out_keys.size} keys)"
            )
        v_mask = np.ones(v.shape[0], dtype=bool) if degrade else None
    else:
        raise ValueError(f"unknown protocol mode {mode!r}")
    if mode not in _ASCENDS:
        if v_mask is not None:
            v[~v_mask] = identity  # incomplete aggregates are lost, not served
        return plan, v, v_mask

    # Bottom projection: where each hosted in-key sits in the reduced out
    # union.  Coverage holes raise (strict) or surface as invalid entries.
    if strict and not degrade and not bool(plan.bottom_hit.all()):
        missing = int((~plan.bottom_hit).sum())
        raise CoverageError(
            f"rank {rank}: {missing} requested indices have no contributor"
        )
    r = np.full((plan.bottom_pos.size, *spec.value_shape), identity, dtype=spec.dtype)
    hit = plan.bottom_hit
    if v.size:
        if degrade:
            hit = hit & v_mask[plan.bottom_pos]
        np.copyto(r, v[plan.bottom_pos], where=_expand(hit, r.ndim))
    r_mask = hit.copy() if degrade else None

    # Upward allgather along the memoised routes.  A hole, or a carrier
    # that never integrated our config part, leaves its slice invalid.
    for layer in range(len(plan.layers), 0, -1):
        lp = plan.layers[layer - 1]
        span = obs.begin(
            f"{PHASE_GATHER_UP} L{layer}", node=rank, phase=PHASE_GATHER_UP, layer=layer
        )
        if degrade:
            parts = [(r[m], r_mask[m]) for m in lp.in_recv_maps]
        else:
            parts = [r[m] for m in lp.in_recv_maps]
        got = yield (EXCHANGE, PHASE_GATHER_UP, layer, lp.group, parts, r.nbytes)
        merge = obs.begin(
            f"merge L{layer}", node=rank, phase=PHASE_GATHER_UP, layer=layer, kind="merge"
        )
        if degrade:
            out = np.full((lp.in_prev_size, *spec.value_shape), identity, dtype=spec.dtype)
            out_mask = np.zeros(lp.in_prev_size, dtype=bool)
        else:
            out = np.zeros((lp.in_prev_size, *spec.value_shape), dtype=spec.dtype)
            out_mask = None
        recv_bytes = 0
        for q, part in enumerate(got):
            if part is None:
                continue
            if degrade:
                vals, mask = part
                recv_bytes += vals.nbytes + mask.nbytes
                sl = lp.in_slices[q]
                if len(vals) != sl.stop - sl.start:
                    continue  # the carrier never learned our keys
                out_mask[sl] = mask
            else:
                vals = part
                recv_bytes += vals.nbytes
            out[lp.in_slices[q]] = vals
        yield (COMPUTE, recv_bytes)
        obs.end(merge)
        obs.end(span)
        r, r_mask = out, out_mask
    return plan, r[plan.in_inverse], (None if r_mask is None else r_mask[plan.in_inverse])


def _descend(mode, topology, hasher, rank, spec, plan, values, degrade, obs):
    """The downward pass of :func:`kylix_node`; returns ``(plan, v, mask)``.

    In the build modes it splits the node's key sets against its nested
    range, unions the parts it receives and memoises their maps into a
    new plan; otherwise it replays ``plan``.  Values, when present, are
    scatter-added through the maps into the node's partial."""
    ufunc = reduction_ufunc(spec.op)
    identity = reduction_identity(spec.op, spec.dtype)
    build = mode in _BUILDS
    if build:
        out_keys, out_inv = np.unique(hasher.hash(spec.out_indices[rank]), return_inverse=True)
        in_keys, in_inv = np.unique(hasher.hash(spec.in_indices[rank]), return_inverse=True)
        plan = NodePlan(
            rank=rank,
            out_inverse=out_inv.astype(np.intp),
            in_inverse=in_inv.astype(np.intp),
            n_out=out_keys.size,
            n_in=in_keys.size,
        )
        rng = KeyRange.full(hasher.key_space)
    v = v_mask = None
    if mode != "configure":
        v = np.full((plan.n_out, *spec.value_shape), identity, dtype=spec.dtype)
        ufunc.at(v, plan.out_inverse, check_values(spec, rank, values))
        if degrade:
            v_mask = np.ones(v.shape[0], dtype=bool)
    phase = {"configure": PHASE_CONFIG, "combined": PHASE_COMBINED_DOWN}.get(
        mode, PHASE_REDUCE_DOWN
    )
    for layer in range(1, topology.num_layers + 1):
        span = obs.begin(f"{phase} L{layer}", node=rank, phase=phase, layer=layer)
        if build:
            d = topology.degrees[layer - 1]
            group = topology.group(rank, layer)
            pos = topology.position(rank, layer)
            out_slices = split_sorted(out_keys, rng, d)
            in_slices = split_sorted(in_keys, rng, d)
            hint = out_keys.nbytes + in_keys.nbytes
        else:
            lp = plan.layers[layer - 1]
            group, d, out_slices = lp.group, len(lp.group), lp.out_slices
            hint = v.nbytes
        # A value part is the slice, or (slice, mask) under degradation;
        # the build modes prefix it with the key parts.
        if v is None:
            parts = None
        elif degrade:
            parts = [(v[s], v_mask[s]) for s in out_slices]
        else:
            parts = [v[s] for s in out_slices]
        if build:
            keys = [(out_keys[o], in_keys[i]) for o, i in zip(out_slices, in_slices)]
            parts = keys if parts is None else [k + (p,) for k, p in zip(keys, parts)]
        got = yield (EXCHANGE, phase, layer, group, parts, hint)

        recv_bytes = 0
        if build:
            sub = rng.subrange(pos, d)
            out_parts, in_parts = [], []
            for q, part in enumerate(got):
                if part is not None:
                    out_parts.append(part[0])
                    in_parts.append(part[1])
                    recv_bytes += part[0].nbytes + part[1].nbytes
                    continue
                in_parts.append(in_keys[:0])
                if v is None or not degrade:
                    out_parts.append(out_keys[:0])
                    continue
                # The hole took a partial with it: at layer 1 its own raw
                # keys, deeper an accumulated partial carrying live
                # members' earlier contributions.  Keys of it nobody else
                # carries here would vanish and their homes would report
                # a still-valid aggregate — so adopt our slice of the
                # reconstructed dead partial as tombstones.
                dead = yield from _dead_partial_keys(topology, group[q], layer - 1)
                out_parts.append(dead[sub.contains(dead)])
        merge = obs.begin(
            f"merge L{layer}", node=rank, phase=phase, layer=layer, kind="merge"
        )
        if build:
            out_union, out_maps = union_with_maps(out_parts)
            in_union, in_maps = union_with_maps(in_parts)
            obs.histogram("config.merge_length").observe(
                out_union.size, phase=phase, layer=layer
            )
            plan.layers.append(
                LayerPlan(
                    group=group,
                    pos=pos,
                    pos_of={member: q for q, member in enumerate(group)},
                    out_slices=out_slices,
                    in_slices=in_slices,
                    out_recv_maps=out_maps,
                    in_recv_maps=in_maps,
                    out_union_size=out_union.size,
                    in_union_size=in_union.size,
                    in_prev_size=in_keys.size,
                )
            )
            out_keys, in_keys, rng = out_union, in_union, sub
        else:
            out_maps = lp.out_recv_maps
        if v is not None:
            size = plan.layers[layer - 1].out_union_size
            partial = np.full((size, *spec.value_shape), identity, dtype=spec.dtype)
            partial_mask = np.ones(size, dtype=bool) if degrade else None
            for q, part in enumerate(got):
                # Positions within one map are unique, so the combine can
                # use plain fancy indexing rather than ufunc.at.
                m = out_maps[q]
                if part is None:
                    partial_mask[m] = False  # every key the hole covered
                    continue
                if build:
                    part = part[2]
                if degrade:
                    vals, mask = part
                    partial_mask[m] &= mask
                    recv_bytes += mask.nbytes
                else:
                    vals = part
                partial[m] = ufunc(partial[m], vals)
                recv_bytes += vals.nbytes
            v, v_mask = partial, partial_mask
        # Merge cost: every element participates in ~log2(d)+1 merges.
        depth = max(1, int(np.ceil(np.log2(max(d, 2)))) + 1) if build else 1
        yield (COMPUTE, recv_bytes * depth)
        obs.end(merge)
        obs.end(span)

    if build:
        # Bottom projection map: where each hosted in-key sits in the
        # reduced out union (coverage holes surface here).
        pos_arr = np.searchsorted(out_keys, in_keys).astype(np.intp)
        clipped = np.minimum(pos_arr, max(out_keys.size - 1, 0))
        plan.bottom_pos = clipped
        plan.bottom_hit = (
            (out_keys[clipped] == in_keys)
            if out_keys.size and in_keys.size
            else np.zeros(in_keys.size, dtype=bool)
        )
        plan.bottom_out_keys = out_keys
    return plan, v, v_mask


def _dead_partial_keys(topology: ButterflyTopology, hole: int, upto: int):
    """Exact key set of ``hole``'s lost partial after ``upto`` layers.

    Audits the hole's peers and evaluates::

        state(h, 0) = h's raw unique out keys
        state(h, s) = U_p sent(p -> h, s)  U  (state(h, s-1) ^ range(h, s))

    A piece no peer retained (the peer is stuck or dead itself, or the
    hole's raw keys reached nobody) degrades the reconstruction to a
    subset — under multi-failure schedules some incomplete aggregates
    may keep a valid mask, never the reverse.
    """
    raw = None
    for p in topology.group(hole, 1):
        if p != hole:
            raw = yield (AUDIT, p, "recv", 1, hole)
            if raw is not None:
                break
    keys = np.asarray(raw if raw is not None else (), dtype=np.uint64)
    for s in range(1, upto + 1):
        pieces = [keys[topology.key_range(hole, s).contains(keys)]]
        for p in topology.group(hole, s):
            if p != hole:
                piece = yield (AUDIT, p, "sent", s, hole)
                if piece is not None:
                    pieces.append(np.asarray(piece, dtype=np.uint64))
        keys = np.unique(np.concatenate(pieces))
    return keys


# ---------------------------------------------------------------------------
# The simulator driver
# ---------------------------------------------------------------------------
#: Message tag kind per protocol phase (tags also carry name, instance, layer).
_TAG_KIND = {
    PHASE_CONFIG: "cfg",
    PHASE_COMBINED_DOWN: "cmb",
    PHASE_REDUCE_DOWN: "rd",
    PHASE_GATHER_UP: "up",
}


class KylixAllreduce:
    """Sparse allreduce over a simulated cluster with a fixed degree stack.

    Parameters
    ----------
    cluster:
        The simulated cluster to run on.
    degrees:
        Butterfly degrees, top layer first; their product must equal the
        cluster size.  ``[m]`` degenerates to direct all-to-all.
    hasher:
        Index↔key bijection; defaults to multiplicative hashing over the
        64-bit ring.  Pass :class:`IdentityHasher` in tests for readable
        key spaces.
    strict_coverage:
        When True (default) a requested in-index nobody contributes raises
        :class:`CoverageError` during reduction; when False such entries
        return zeros.
    retry:
        Optional :class:`~repro.faults.RetryPolicy` enabling bounded
        receive deadlines with NACK retransmission.  ``None`` (default)
        keeps the legacy wait-forever behaviour — unless the cluster's
        failure plan is a :class:`~repro.faults.FaultPlan`, in which case
        a default policy switches on automatically (a fault-injected run
        without deadlines would just hang).
    degrade:
        Fault-loss handling when a peer is unrecoverable (all replicas of
        a slot dead, retries exhausted).  ``False`` (strict, the default)
        raises :class:`~repro.faults.PeerFailedError` naming the dead
        slot; ``True`` completes with the surviving data — unrecoverable
        entries hold the reduction identity — and publishes an exact
        :class:`~repro.faults.CoverageReport` as :attr:`last_report`.
        Only meaningful when a retry policy is in effect.

    Usage::

        net = KylixAllreduce(cluster, degrees=[8, 4, 2])
        net.configure(spec)              # once per index-set epoch
        out = net.reduce(values)         # many times (e.g. per PageRank iter)
    """

    def __init__(
        self,
        cluster: Cluster,
        degrees: Sequence[int],
        *,
        hasher: Optional[IndexHasher] = None,
        strict_coverage: bool = True,
        retry: Optional[RetryPolicy] = None,
        degrade: bool = False,
        name: str = "kylix",
    ):
        self.cluster = cluster
        self.hasher = hasher if hasher is not None else MultiplicativeHasher()
        self.size = self._logical_size()
        self.topology = ButterflyTopology(
            degrees, self.size, key_space=self.hasher.key_space
        )
        self.strict_coverage = strict_coverage
        self.retry = retry
        self.degrade = degrade
        self.name = name
        self.spec: Optional[ReduceSpec] = None
        self.plans: Dict[int, NodePlan] = {}
        self.config_timing: Optional[PhaseTiming] = None
        self.last_reduce_timing: Optional[PhaseTiming] = None
        self.last_combined_timing: Optional[PhaseTiming] = None
        self.last_report: Optional[CoverageReport] = None
        self.duplicates_dropped = 0  # retransmit/injected copies deduped by seq
        self._loss_events: List[LossRecord] = []
        self._instance = 0
        # What the simulated medium retains for the combined pass's
        # dead-partial audit (degraded completion): per instance, each
        # node's raw unique out keys and the out-key slice of every down
        # part it sent — the in-memory equivalent of the wire transports'
        # retained stores, see :meth:`_audit`.
        self._audit_raw: Dict[tuple, np.ndarray] = {}
        self._audit_sent: Dict[tuple, np.ndarray] = {}

    @property
    def _obs(self):
        """The cluster's observer, or the no-op one when observation is
        off — instrumentation sites call unconditionally."""
        return getattr(self.cluster, "obs", None) or NULL_OBSERVER

    # ------------------------------------------------------------------
    # Logical/physical mapping hooks (overridden by ReplicatedKylix)
    # ------------------------------------------------------------------
    def _logical_size(self) -> int:
        """Width of the logical butterfly (= physical size when unreplicated)."""
        return self.cluster.num_nodes

    def _logical(self, physical_rank: int) -> int:
        """Logical slot hosted by a physical node."""
        return physical_rank

    def replicas(self, logical_rank: int) -> List[int]:
        """Physical nodes hosting ``logical_rank``."""
        return [logical_rank]

    def _request_resend(self, node: SimNode, member: int, tag, attempt: int):
        """NACK every replica of ``member`` through the fabric; answers the
        failure detector: True if any resend was scheduled, False if every
        replica is dead, else None (alive, has not reached that send)."""
        statuses = [
            node.cluster.fabric.request_resend(node.rank, src, tag, attempt)
            for src in self.replicas(member)
        ]
        if True in statuses:
            return True
        return None if None in statuses else False

    def _effective_retry(self) -> Optional[RetryPolicy]:
        """The retry policy in force: explicit, else the default under a
        :class:`~repro.faults.FaultPlan`, else ``None`` (wait forever)."""
        if self.retry is not None:
            return self.retry
        if isinstance(getattr(self.cluster, "failures", None), FaultPlan):
            return RetryPolicy()
        return None

    def _degrade_active(self) -> bool:
        return self.degrade and self._effective_retry() is not None

    def _recv_group(self, node: SimNode, tag, group, *, phase, layer, nbytes_hint, inst):
        """Receive one part per group member, in group order; a hole is
        ``None``.  The :class:`~repro.faults.FailureDetector` sets the
        deadlines, NACKs through :meth:`_request_resend` and raises or
        records each hole.  Injected copies and late retransmits (per-link
        seq) and replica copies that lost the race are dropped here."""
        det = FailureDetector(
            group, self._effective_retry(), rank=self._logical(node.rank),
            phase=phase, layer=layer, seq=inst, strict=not self.degrade,
            params=self.cluster.params, nbytes=nbytes_hint, losses=self._loss_events,
        )
        received: Dict[int, Any] = {}
        seen_seq: set = set()  # (physical src, seq) already consumed
        while not det.done:
            wait = det.deadline()
            if wait is None:
                msg = yield node.recv(tag=tag)
            else:
                try:
                    msg = yield from wait_with_timeout(node.engine, node.recv(tag=tag), wait)
                except WaitTimeout:
                    det.expired(lambda m, attempt: self._request_resend(node, m, tag, attempt))
                    continue
            key = (msg.src, msg.seq)
            if key in seen_seq:
                self.duplicates_dropped += 1
                self._obs.counter("faults.duplicates_dropped").inc(phase=phase, layer=layer)
                continue
            seen_seq.add(key)
            member = self._logical(msg.src)
            if det.arrived(member):
                received[member] = msg.payload
        return [received.get(m) for m in group]

    def run_node(self, node: SimNode, mode: str, inst: int, values=None):
        """One node's protocol process: :func:`kylix_node` in ``mode``,
        its effects mapped onto the simulated medium.

        ``values`` maps logical rank to that rank's array (out values, or
        bottom values in gather mode).  Exchanges become tagged sends to
        every replica plus :meth:`_recv_group` (deadlines, NACKs, holes),
        compute charges become node compute time, and audits read the
        in-memory retention of this protocol instance.  Returns the
        core's ``(plan, result, mask)``.
        """
        rank = self._logical(node.rank)
        degrade = self._degrade_active()
        core = kylix_node(
            mode,
            self.topology,
            self.hasher,
            rank,
            self.spec,
            plan=self.plans.get(node.rank) if mode not in _BUILDS else None,
            values=None if values is None else values[rank],
            degrade=degrade,
            strict=self.strict_coverage,
            obs=self._obs,
        )
        reply = None
        try:
            while True:
                effect = core.send(reply)
                if effect[0] == EXCHANGE:
                    _, phase, layer, group, parts, hint = effect
                    tag = (self.name, _TAG_KIND[phase], inst, layer)
                    if degrade and phase == PHASE_COMBINED_DOWN:
                        # Retained before the first send, so survivors can
                        # audit this node even if it dies right after.
                        for member, part in zip(group, parts):
                            self._audit_sent[(inst, layer, rank, member)] = part[0]
                        if layer == 1:
                            raw = np.concatenate([part[0] for part in parts])
                            self._audit_raw[(inst, rank)] = raw
                    for member, part in zip(group, parts):
                        for dst in self.replicas(member):
                            node.send(dst, part, tag=tag, phase=phase, layer=layer)
                    reply = yield from self._recv_group(
                        node, tag, group, phase=phase, layer=layer, nbytes_hint=hint, inst=inst
                    )
                elif effect[0] == COMPUTE:
                    yield node.compute_bytes(effect[1])
                    reply = None
                else:
                    reply = self._audit(inst, *effect[1:])
        except StopIteration as done:
            return done.value

    def _audit(self, inst: int, peer: int, kind: str, layer: int, hole: int):
        """Answer a dead-partial audit from the simulated medium's
        retention.  The simulator saw the hole's raw keys even if it died
        before its first send; a wire peer only learns them from the
        hole's layer-1 parts."""
        if kind == "recv":
            return self._audit_raw.get((inst, hole))
        return self._audit_sent.get((inst, layer, peer, hole))

    def _run(self, mode: str, values=None) -> Dict[int, tuple]:
        """Run ``mode`` on every node as a fresh protocol instance."""
        self._instance += 1
        self._loss_events = []
        return self.cluster.run(self.run_node, mode, self._instance, values)

    def _check_spec(self, spec: ReduceSpec) -> None:
        if set(spec.ranks) != set(range(self.size)):
            raise ValueError(
                f"spec must cover every logical rank (got {len(spec.ranks)} of "
                f"{self.size})"
            )

    def _require_config(self, what: str) -> None:
        if self.spec is None:
            raise RuntimeError(f"configure() must run before {what}()")

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, spec: ReduceSpec) -> Dict[int, NodePlan]:
        """Run the configuration pass; memoises routing for reductions."""
        self._check_spec(spec)
        self.spec = spec
        start = self.cluster.now
        with self._obs.span("configure", phase=PHASE_CONFIG):
            raw = self._run("configure")
        self.plans = {rank: out[0] for rank, out in raw.items()}
        self.config_timing = PhaseTiming(start, self.cluster.now)
        return self.plans

    def adopt_plans(self, spec: ReduceSpec, plans: Dict[int, NodePlan]) -> None:
        """Install a memoised configuration without re-running the pass.

        The service layer's cache hit path: ``plans`` must come from a
        :meth:`configure` (or combined) run of a spec with an identical
        fingerprint — same degree stack, hasher, operator, dtype, and
        per-rank index sets (:func:`repro.service.spec_fingerprint`
        guarantees this by keying on all of them).  Costs zero simulated
        time: amortization is the point.
        """
        self._check_spec(spec)
        if set(plans) != set(range(self.cluster.num_nodes)):
            raise ValueError(
                f"plans must cover every physical rank (got {sorted(plans)})"
            )
        self.spec = spec
        self.plans = plans
        now = self.cluster.now
        self.config_timing = PhaseTiming(now, now)

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def reduce(self, out_values: Mapping[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """One reduction over the configured index sets.

        ``out_values[rank]`` must align with ``spec.out_indices[rank]``;
        the result aligns with ``spec.in_indices[rank]``.
        """
        self._require_config("reduce")
        start = self.cluster.now
        with self._obs.span("reduce"):
            raw = self._run("reduce", out_values)
        self.last_reduce_timing = PhaseTiming(start, self.cluster.now)
        return self._finish_report(raw, lambda lr: self.spec.in_indices[lr])

    # ------------------------------------------------------------------
    # Degraded-completion accounting
    # ------------------------------------------------------------------
    def _collation_rank(self, logical_rank: int) -> int:
        """Physical rank whose result represents ``logical_rank``."""
        return logical_rank

    def _finish_report(
        self, raw: Dict[int, tuple], indices_of: Callable[[int], Any]
    ) -> Dict[int, Any]:
        """Strip plans and validity masks off protocol results and publish
        the :class:`CoverageReport` for this run as :attr:`last_report`.

        ``indices_of(logical_rank)`` names the raw indices a rank's result
        aligns with.  The report's per-rank lost indices are taken from
        the same replica whose values the caller returns, so report and
        results always agree.
        """
        values = {rank: out[1] for rank, out in raw.items()}
        if not self._degrade_active():
            self.last_report = None
            return values
        lost: Dict[int, np.ndarray] = {}
        sizes: Dict[int, int] = {}
        for lr in range(self.size):
            indices = np.asarray(indices_of(lr))
            sizes[lr] = len(indices)
            phys = self._collation_rank(lr)
            if phys is None or phys not in raw:
                # The rank (or every replica of it) died mid-run: there is
                # no surviving result, so its entire slice is lost.
                lost[lr] = indices
                continue
            mask = raw[phys][2]
            if not bool(mask.all()):
                lost[lr] = indices[~mask]
        self.last_report = CoverageReport(
            total_ranks=self.size,
            in_sizes=sizes,
            lost_indices=lost,
            dead_members=tuple(e.member for e in self._loss_events),
            losses=tuple(self._loss_events),
        )
        return values

    # ------------------------------------------------------------------
    def verify_plans(self) -> None:
        """Statically check every protocol invariant of the current plans.

        Must be called after :meth:`configure`; raises
        :class:`~repro.verify.errors.ProtocolInvariantError` listing every
        violated invariant (see ``docs/verify.md`` for the catalogue).
        Costs one synchronous sweep over the memoised state — no
        simulated traffic.
        """
        if not self.plans:
            raise RuntimeError("configure() must run before verify_plans()")
        from ..verify.invariants import assert_valid

        logical = {}
        for rank, plan in self.plans.items():
            lr = self._logical(rank)
            logical.setdefault(lr, plan)
        assert_valid(self.topology, logical)

    # ------------------------------------------------------------------
    def allreduce(
        self, spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """One-shot convenience: configure then reduce."""
        self.configure(spec)
        return self.reduce(out_values)

    def scatter_reduce(
        self, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, tuple]:
        """The downward half only: a sparse **reduce-scatter**.

        Each logical node ends up holding the *fully reduced* values for
        its bottom nested key range.  Returns ``{rank: (indices, values)}``
        with raw (un-hashed) indices.  Composes with
        :meth:`allgather_from_bottom` — ``reduce()`` is exactly the two in
        sequence — so callers can transform globally-reduced data in place
        (normalise, clip, apply a model update at its home) before fanning
        results back out.  Under degraded completion :attr:`last_report`
        lists, per rank, the bottom indices whose aggregates are invalid.
        """
        self._require_config("scatter_reduce")
        start = self.cluster.now
        with self._obs.span("scatter_reduce"):
            raw = self._run("scatter", out_values)
        self.last_reduce_timing = PhaseTiming(start, self.cluster.now)
        bottom = {
            lr: self.hasher.unhash(self.plans[lr].bottom_out_keys)
            for lr in range(self.size)
        }
        values = self._finish_report(raw, bottom.__getitem__)
        return {self._logical(r): (bottom[self._logical(r)], v) for r, v in values.items()}

    def allgather_from_bottom(
        self, bottom_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """The upward half only: a sparse **allgather**.

        ``bottom_values[rank]`` must align with the indices returned by
        :meth:`scatter_reduce` for that rank; every node receives the
        values for its configured in-set.
        """
        self._require_config("allgather_from_bottom")
        start = self.cluster.now
        with self._obs.span("allgather_from_bottom"):
            raw = self._run("gather", bottom_values)
        self.last_reduce_timing = PhaseTiming(start, self.cluster.now)
        values = self._finish_report(raw, lambda lr: self.spec.in_indices[lr])
        return {self._logical(r): v for r, v in values.items()}

    def allreduce_combined(
        self, spec: ReduceSpec, out_values: Mapping[int, np.ndarray]
    ) -> Dict[int, np.ndarray]:
        """Configuration and reduction with *combined* messages (§III).

        When in/out index sets change on every allreduce (minibatch
        updates), a separate config pass wastes a full network traversal;
        here index parts and value parts share the same downward messages.
        The routing plan built along the way is kept, so subsequent
        :meth:`reduce` calls (same index sets) work as usual.
        """
        self._check_spec(spec)
        self.spec = spec
        start = self.cluster.now
        self._audit_raw.clear()
        self._audit_sent.clear()
        with self._obs.span("allreduce_combined", phase=PHASE_COMBINED_DOWN):
            raw = self._run("combined", out_values)
        self.plans = {rank: out[0] for rank, out in raw.items()}
        self.last_combined_timing = PhaseTiming(start, self.cluster.now)
        results = self._finish_report(raw, lambda lr: spec.in_indices[lr])
        if self._degrade_active():
            return {
                lr: results[self._collation_rank(lr)]
                for lr in range(self.size)
                if self._collation_rank(lr) in results
            }
        return {self._logical(rank): v for rank, v in results.items()}


def _expand(mask: np.ndarray, ndim: int) -> np.ndarray:
    """Broadcast a row mask over trailing value dimensions."""
    return mask.reshape(mask.shape + (1,) * (ndim - 1))
