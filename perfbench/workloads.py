"""The benchmark's three workloads: seeded inputs, backend, one op, checks.

Every workload is a closed loop with one op outstanding.  Inputs are
drawn from the seed before anything is timed, as a pool of ``pool``
value sets (and, on ``sim-minibatch``, patterns) that op ``k`` cycles
through as ``k % pool``.  The backends keep nothing between ops that a
repeated value set or pattern could hit, except the config cache that
``sim-iterate`` exists to exercise.  Values are integers stored as
float64, so every reduction is exact in any summation order and each
result is compared for equality with ``dense_reduce``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro import Cluster, KylixAllreduce, ReduceSpec, dense_reduce
from repro.allreduce import ButterflyTopology
from repro.net.tcp import TcpKylix
from repro.obs import Observer
from repro.service import ReduceService
from repro.verify.flow import certify, check_traffic

__all__ = ["WORKLOADS", "Workload", "make_spec"]

SIM_DEGREES = (4, 4, 4)
SIM_NODES = 64
WIRE_DEGREES = (2, 2)
WIRE_NODES = 4
WIRE_ROUNDS = 8


@dataclass(frozen=True)
class Size:
    n: int
    out_keys: int
    in_keys: int


def make_spec(rng: np.random.Generator, ranks: int, size: Size) -> ReduceSpec:
    """Random out keys plus each rank's home slice (so every key has a
    contributor), and random wanted keys."""
    n = size.n
    out = {
        r: np.unique(
            np.concatenate(
                [rng.choice(n, size.out_keys, replace=False), np.arange(r, n, ranks)]
            )
        )
        for r in range(ranks)
    }
    want = {r: np.sort(rng.choice(n, size.in_keys, replace=False)) for r in range(ranks)}
    return ReduceSpec(in_indices=want, out_indices=out)


def make_values(rng: np.random.Generator, spec: ReduceSpec) -> Dict[int, np.ndarray]:
    return {
        r: rng.integers(-1000, 1000, spec.out_indices[r].size).astype(np.float64)
        for r in spec.ranks
    }


def results_match(got: Any, expected: Dict[int, np.ndarray]) -> bool:
    if not isinstance(got, dict) or set(got) != set(expected):
        return False
    return all(np.array_equal(got[r], want) for r, want in expected.items())


def sim_counters(cluster: Cluster) -> Dict[str, float]:
    """Running totals on the simulator: messages, bytes, bytes per layer
    (exact TrafficStats figures) and the simulated clock."""
    stats = cluster.stats
    out = {
        "cluster.messages": stats.total_messages(),
        "cluster.bytes": stats.total_bytes(),
    }
    for layer in range(1, len(SIM_DEGREES) + 1):
        out[f"cluster.bytes.L{layer}"] = sum(
            stats.bytes_by_layer(phase).get(layer, 0) for phase in stats.phases
        )
    out["sim_s"] = cluster.now
    return out


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def children_left() -> bool:
    """True when a child process is still running or was left unreaped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


class Workload:
    """One workload: inputs from the seed, a backend and one op.

    ``build`` makes the backend, ``op(state, k)`` runs op ``k`` and
    returns its results, ``check(k, result, probe)`` compares them with
    ``_expected[k % pool]`` outside the timed interval and names what is
    wrong, if anything (``probe`` is what :meth:`probe` saw just before
    the op).  ``reductions`` is the number of reductions one op
    completes.
    """

    name = ""
    reductions = 1
    setups = 3
    pool = 1
    simulated = True

    def __init__(self, seed: int):
        self.seed = seed
        self._expected: List[Any] = []

    def build(self) -> Any:
        raise NotImplementedError

    def op(self, state: Any, k: int) -> Any:
        raise NotImplementedError

    def probe(self) -> Any:
        return None

    def check(self, k: int, result: Any, probe: Any) -> Optional[str]:
        if not results_match(result, self._expected[k % self.pool]):
            return "results differ from dense_reduce"
        return None

    def counters(self, state: Any) -> Dict[str, float]:
        """Running totals the program keeps itself, read between ops."""
        return {}

    def setup_problems(self, state: Any) -> List[str]:
        """Checks on the backend right after its first op."""
        return []

    def trace_on(self, state: Any) -> None:
        """Switch on what the traced run reads from the program itself."""

    def close(self, state: Any) -> None:
        pass


class SimIterate(Workload):
    """PageRank-style iteration: one fixed pattern, fresh values per op,
    every op after the first served from the service's config cache."""

    name = "sim-iterate"
    setups = 9
    pool = 8

    def __init__(self, seed: int, reduced: bool):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        size = Size(2_000, 50, 25) if reduced else Size(20_000, 500, 250)
        self.spec = make_spec(rng, SIM_NODES, size)
        self.values = [make_values(rng, self.spec) for _ in range(self.pool)]
        self._expected = [dense_reduce(self.spec, v) for v in self.values]

    def build(self):
        cluster = Cluster(SIM_NODES, seed=self.seed)
        service = ReduceService(cluster=cluster, degrees=list(SIM_DEGREES))
        stream = service.open_stream("bench", self.spec)
        return cluster, service, stream

    def op(self, state, k):
        _, service, stream = state
        return service.reduce(stream, self.values[k % self.pool])

    def counters(self, state):
        cache = state[1].cache.stats
        return {
            **sim_counters(state[0]),
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
        }

    def setup_problems(self, state):
        """Configure plus the first reduce must move exactly the traffic
        the static certificate predicts, cell for cell."""
        cert = certify(ButterflyTopology(list(SIM_DEGREES), SIM_NODES), self.spec)
        return [str(v) for v in check_traffic(cert, state[0].stats)]

    def close(self, state):
        state[1].close()


class SimMinibatch(Workload):
    """Minibatch updates: a new pattern on every op, configuration and
    reduction combined in one pass, so every op builds fresh plans."""

    name = "sim-minibatch"
    pool = 4

    def __init__(self, seed: int, reduced: bool):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        size = Size(50_000, 1_200, 600) if reduced else Size(500_000, 12_000, 6_000)
        self.specs = [make_spec(rng, SIM_NODES, size) for _ in range(self.pool)]
        self.values = [make_values(rng, s) for s in self.specs]
        self._expected = [dense_reduce(s, v) for s, v in zip(self.specs, self.values)]

    def build(self):
        cluster = Cluster(SIM_NODES, seed=self.seed)
        return cluster, KylixAllreduce(cluster, list(SIM_DEGREES))

    def op(self, state, k):
        i = k % self.pool
        return state[1].allreduce_combined(self.specs[i], self.values[i])

    def counters(self, state):
        return sim_counters(state[0])


class WireRounds(Workload):
    """Real processes over loopback TCP: each op forks the ranks, forms
    the mesh, runs the combined round 0 and seven cached rounds, then
    tears everything down."""

    name = "wire-rounds"
    reductions = WIRE_ROUNDS
    pool = 2
    simulated = False

    def __init__(self, seed: int, reduced: bool):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        size = Size(2_000, 200, 100) if reduced else Size(20_000, 2_000, 1_000)
        self.spec = make_spec(rng, WIRE_NODES, size)
        self.rounds = [
            [make_values(rng, self.spec) for _ in range(WIRE_ROUNDS)]
            for _ in range(self.pool)
        ]
        self._expected = [
            [dense_reduce(self.spec, v) for v in rounds] for rounds in self.rounds
        ]

    def build(self):
        return TcpKylix(degrees=list(WIRE_DEGREES))

    def op(self, state, k):
        return state.allreduce_rounds(self.spec, self.rounds[k % self.pool])

    def probe(self):
        return open_fds()

    def check(self, k, result, probe):
        """Every round on every rank matches, and the op left no child
        process and no extra open descriptor behind."""
        if children_left():
            return "a child process outlived the op"
        if open_fds() > probe:
            return f"{open_fds() - probe} open descriptors outlived the op"
        expected = self._expected[k % self.pool]
        if not (
            isinstance(result, list)
            and len(result) == len(expected)
            and all(results_match(g, e) for g, e in zip(result, expected))
        ):
            return "results differ from dense_reduce"
        return None

    def counters(self, state):
        if state.observe is None:
            return {}
        return {"net.nacks": state.observe.counter("faults.resent").total()}

    def trace_on(self, state):
        # Retries (NACKs) are counted by the workers' own observers,
        # whose snapshots ride home with each result.
        state.observe = Observer(name="perfbench")


WORKLOADS = {w.name: w for w in (SimIterate, SimMinibatch, WireRounds)}
