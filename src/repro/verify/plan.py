"""Static construction of Kylix configuration plans — no simulation.

:func:`build_plans` is the third driver of the protocol core
:func:`~repro.allreduce.kylix.kylix_node`: it runs every node's
generator in configure mode and advances all of them in lock step, each
exchange answered by routing the parts every group member yielded for
that layer.  The result is a ``{rank: NodePlan}`` mapping identical to
what ``configure()`` produces on the simulator — from the same code,
without an event engine, a fabric, or a single simulated message — which
makes it cheap enough to sweep every shipped degree stack in CI and feed
the invariant checkers in :mod:`repro.verify.invariants`.

``python -m repro verify`` is the command-line face of this module.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..allreduce.base import ReduceSpec
from ..allreduce.kylix import EXCHANGE, NodePlan, kylix_node
from ..allreduce.topology import ButterflyTopology
from ..sparse import IndexHasher, MultiplicativeHasher
from .invariants import Violation, check_replication, verify_all

__all__ = [
    "build_plans",
    "default_stacks",
    "synthetic_spec",
    "verify_stack",
    "verify_sizes",
]


def build_plans(
    topology: ButterflyTopology,
    spec: ReduceSpec,
    hasher: Optional[IndexHasher] = None,
) -> Dict[int, NodePlan]:
    """Construct every node's :class:`NodePlan` without running anything.

    All ``m`` configure-mode generators advance together: each runs to
    its next exchange (compute charges cost nothing here), then every
    node receives, per group position, the part that member cut for it.
    """
    hasher = hasher if hasher is not None else MultiplicativeHasher()
    m = topology.num_nodes
    if set(spec.ranks) != set(range(m)):
        raise ValueError(f"spec must cover ranks 0..{m - 1}")
    cores = {r: kylix_node("configure", topology, hasher, r, spec) for r in range(m)}
    replies: Dict[int, Optional[list]] = dict.fromkeys(cores)
    plans: Dict[int, NodePlan] = {}
    while cores:
        sent = {}
        for rank, core in list(cores.items()):
            try:
                effect = core.send(replies[rank])
                while effect[0] != EXCHANGE:
                    effect = core.send(None)
            except StopIteration as done:
                plans[rank] = done.value[0]
                del cores[rank]
                continue
            sent[rank] = effect
        for rank, (_, _, layer, group, _, _) in sent.items():
            pos = topology.position(rank, layer)
            replies[rank] = [sent[member][4][pos] for member in group]
    return plans


# ---------------------------------------------------------------------------
# Stack enumeration and synthetic workloads for the CLI / CI sweep
# ---------------------------------------------------------------------------


def default_stacks(m: int) -> List[List[int]]:
    """The degree stacks worth checking for a cluster of size ``m``.

    Always includes the direct all-to-all ``[m]``; adds the binary
    butterfly for powers of two and every two-layer factorisation
    ``[a, m // a]`` — the shapes §IV's design procedure actually emits.
    """
    if m < 1:
        raise ValueError("cluster size must be >= 1")
    stacks: List[List[int]] = [[m]]
    if m > 1 and m & (m - 1) == 0:
        stacks.append([2] * (m.bit_length() - 1))
    for a in range(2, m):
        if m % a == 0 and a <= m // a:
            for stack in ([a, m // a], [m // a, a]):
                if stack not in stacks:
                    stacks.append(stack)
    return stacks


def synthetic_spec(m: int, *, n: int = 512, seed: int = 0) -> ReduceSpec:
    """A small power-law-flavoured sparse workload covering ``m`` ranks.

    Every rank contributes a strided slice of the feature space (so
    coverage is total) plus a random head-heavy sample — the same shape
    the demo and the property tests use.
    """
    rng = np.random.default_rng(seed)
    in_idx, out_idx = {}, {}
    for r in range(m):
        base = np.arange(r, n, m)
        extra = rng.zipf(1.8, size=max(4, n // (4 * m))) % n
        out_idx[r] = np.unique(np.concatenate([base, extra])).astype(np.int64)
        in_idx[r] = np.unique(rng.choice(n, size=max(2, n // (2 * m)), replace=False))
    return ReduceSpec(in_indices=in_idx, out_indices=out_idx)


def verify_stack(
    m: int,
    degrees: Sequence[int],
    *,
    n: int = 512,
    seed: int = 0,
    hasher: Optional[IndexHasher] = None,
) -> List[Violation]:
    """Build plans for one (size, stack) pair and check every invariant."""
    if prod(degrees) != m:
        raise ValueError(f"degree stack {list(degrees)} does not factor {m}")
    topo = ButterflyTopology(
        degrees, m, key_space=(hasher.key_space if hasher else 1 << 64)
    )
    spec = synthetic_spec(m, n=n, seed=seed)
    plans = build_plans(topo, spec, hasher)
    return verify_all(topo, plans)


def verify_sizes(
    sizes: Sequence[int],
    *,
    n: int = 512,
    seed: int = 0,
    replication: Optional[int] = None,
) -> Dict[str, List[Violation]]:
    """Sweep :func:`default_stacks` for every cluster size; keyed report.

    Keys look like ``"m=16 degrees=4x4"``; an empty list means the stack
    passed every check.  With ``replication=s`` each size is treated as
    ``m`` *physical* machines hosting ``m/s`` logical slots (§V): the
    replica-group structure is checked, and the butterfly invariants run
    over the logical stacks — keys gain an ``s=`` field, e.g.
    ``"m=16 s=2 degrees=4x2"``.
    """
    report: Dict[str, List[Violation]] = {}
    for m in sizes:
        if replication is None:
            for degrees in default_stacks(m):
                key = f"m={m} degrees={'x'.join(map(str, degrees))}"
                report[key] = verify_stack(m, degrees, n=n, seed=seed)
            continue
        s = int(replication)
        group_violations = check_replication(m, s)
        if group_violations or m % s:
            report[f"m={m} s={s}"] = group_violations
            continue
        logical = m // s
        for degrees in default_stacks(logical):
            key = f"m={m} s={s} degrees={'x'.join(map(str, degrees))}"
            report[key] = group_violations + verify_stack(
                logical, degrees, n=n, seed=seed
            )
    return report
