"""Rules: determinism of the simulation core.

``repro.simul.engine`` promises that identical runs produce identical
event orders ("ties in simulated time are broken by a monotonically
increasing sequence number"), and every benchmark number in
EXPERIMENTS.md leans on that promise.  Wall-clock reads and unseeded
random draws inside ``simul/`` or ``allreduce/`` would break it, so both
are banned there: simulated time comes from ``engine.now``, randomness
from an explicitly seeded ``numpy`` Generator.  The failure detector
(``faults/detector.py``) is in scope too: the simulator and the wire
share it, so it must take time only from its driver.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..lint import LintFinding, LintRule
from ._util import dotted_name

__all__ = ["NoWallClockRule", "NoUnseededRngRule"]

_SCOPES = ("simul/", "allreduce/", "faults/detector.py")

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.now",
    "datetime.utcnow",
}

# Module-level numpy RNG (global hidden state) and the stdlib's.
_GLOBAL_RNG_PREFIXES = ("np.random.", "numpy.random.", "random.")


def _in_scope(relpath: str) -> bool:
    return any(relpath.startswith(scope) for scope in _SCOPES)


class NoWallClockRule(LintRule):
    name = "no-wall-clock"
    description = (
        "simul/, allreduce/ and the failure detector must read time from "
        "their driver, never the host clock"
    )

    def applies_to(self, relpath: str) -> bool:
        return _in_scope(relpath)

    def check(self, tree: ast.Module, relpath: str) -> Iterable[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in _WALL_CLOCK:
                    yield self.finding(
                        relpath,
                        node,
                        f"wall-clock call {name}() breaks simulation "
                        "determinism; use the engine clock",
                    )


class NoUnseededRngRule(LintRule):
    name = "no-unseeded-rng"
    description = (
        "simul/ and allreduce/ may only draw randomness from an explicitly "
        "seeded Generator"
    )

    def applies_to(self, relpath: str) -> bool:
        return _in_scope(relpath)

    def check(self, tree: ast.Module, relpath: str) -> Iterable[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name.endswith("default_rng") and not node.args and not node.keywords:
                yield self.finding(
                    relpath,
                    node,
                    "default_rng() without a seed is entropy-seeded; pass an "
                    "explicit seed",
                )
            elif (
                name.startswith(_GLOBAL_RNG_PREFIXES)
                and not name.endswith("default_rng")
                # Capitalised names are constructors (Generator, PCG64,
                # SeedSequence) that take their seed explicitly.
                and not name.rsplit(".", 1)[-1][:1].isupper()
            ):
                yield self.finding(
                    relpath,
                    node,
                    f"{name}() uses global RNG state; draw from a seeded "
                    "np.random.Generator instead",
                )
