"""Tests for the real-process execution backend (repro.net.LocalKylix).

Unlike everything else in the suite, these run actual OS processes with
pipe transport and sender threads — real concurrency, real races.  Sizes
are kept small (spawning costs ~100 ms/process on this host).
"""

import numpy as np
import pytest

from repro.allreduce import ReduceSpec, dense_reduce
from repro.net import LocalKylix
from repro.sparse import IdentityHasher


def covered_case(m, n, rng, value_shape=(), op="sum"):
    in_idx = {r: rng.choice(n, size=max(2, n // 6), replace=False) for r in range(m)}
    out_idx = {
        r: np.concatenate([rng.choice(n, size=8), np.arange(r, n, m)]).astype(np.int64)
        for r in range(m)
    }
    dtype = np.uint64 if op == "or" else np.float64
    spec = ReduceSpec(in_idx, out_idx, value_shape=value_shape, dtype=dtype, op=op)
    if op == "or":
        vals = {
            r: rng.integers(0, 2**40, size=(out_idx[r].size, *value_shape), dtype=np.uint64)
            for r in range(m)
        }
    else:
        vals = {r: rng.normal(size=(out_idx[r].size, *value_shape)) for r in range(m)}
    return spec, vals


def check(net, spec, vals):
    got = net.allreduce(spec, vals)
    ref = dense_reduce(spec, vals)
    for r in spec.ranks:
        if spec.dtype.kind == "u":
            np.testing.assert_array_equal(got[r], ref[r])
        else:
            np.testing.assert_allclose(got[r], ref[r], atol=1e-9)


@pytest.mark.parametrize("degrees", [[2], [4], [2, 2]])
def test_real_processes_match_reference(degrees):
    m = int(np.prod(degrees))
    rng = np.random.default_rng(m)
    spec, vals = covered_case(m, 150, rng)
    check(LocalKylix(degrees), spec, vals)


@pytest.mark.parametrize("rounds", [1, 2])
def test_wrong_length_values_raise_like_the_simulator(rounds):
    """Values that do not match a rank's out indices are refused in the
    parent with the simulator's ValueError, never broadcast by a worker."""
    import multiprocessing as mp

    rng = np.random.default_rng(4)
    spec, vals = covered_case(4, 150, rng)
    bad = dict(vals)
    bad[0] = vals[0][:1]
    net = LocalKylix([2, 2])
    with pytest.raises(ValueError, match="out values shape"):
        if rounds == 1:
            net.allreduce(spec, bad)
        else:
            net.allreduce_rounds(spec, [vals, bad])
    assert mp.active_children() == []


def test_three_layer_stack():
    rng = np.random.default_rng(5)
    spec, vals = covered_case(8, 200, rng)
    check(LocalKylix([2, 2, 2]), spec, vals)


def test_min_reduction():
    rng = np.random.default_rng(6)
    spec, vals = covered_case(4, 100, rng, op="min")
    check(LocalKylix([2, 2]), spec, vals)


def test_multidim_values():
    rng = np.random.default_rng(7)
    spec, vals = covered_case(4, 80, rng, value_shape=(3,))
    check(LocalKylix([4]), spec, vals)


def test_repeatable_and_deterministic_results():
    rng = np.random.default_rng(8)
    spec, vals = covered_case(4, 100, rng)
    net = LocalKylix([2, 2])
    a = net.allreduce(spec, vals)
    b = net.allreduce(spec, vals)
    for r in spec.ranks:
        np.testing.assert_array_equal(a[r], b[r])


def test_coverage_error_propagates_from_worker():
    m = 2
    spec = ReduceSpec(
        in_indices={r: np.array([999]) for r in range(m)},
        out_indices={r: np.array([r]) for r in range(m)},
    )
    vals = {r: np.array([1.0]) for r in range(m)}
    with pytest.raises(RuntimeError, match="CoverageError"):
        LocalKylix([2]).allreduce(spec, vals)


def test_lenient_coverage():
    m = 2
    spec = ReduceSpec(
        in_indices={r: np.array([999]) for r in range(m)},
        out_indices={r: np.array([r]) for r in range(m)},
    )
    vals = {r: np.array([1.0]) for r in range(m)}
    got = LocalKylix([2], strict_coverage=False).allreduce(spec, vals)
    np.testing.assert_array_equal(got[0], [0.0])


def test_validation():
    with pytest.raises(ValueError):
        LocalKylix([2]).allreduce(
            ReduceSpec(in_indices={0: np.array([1])}, out_indices={0: np.array([1])}),
            {0: np.array([1.0])},
        )
    with pytest.raises(ValueError):
        LocalKylix([2], hasher=IdentityHasher(100))


def test_timeout_configuration_validated():
    with pytest.raises(ValueError):
        LocalKylix([2], timeout=0)
    with pytest.raises(ValueError):
        LocalKylix([2], timeout=-1.0)
    with pytest.raises(ValueError):
        LocalKylix([2], join_timeout=0)
    net = LocalKylix([2], timeout=45.0, join_timeout=3.0)
    assert net.timeout == 45.0 and net.join_timeout == 3.0


def test_fault_plan_validated_at_construction():
    from repro.faults import FaultPlan, RetryPolicy

    # Time-based deaths and recoveries need a simulated clock.
    with pytest.raises(ValueError, match="simulated clock"):
        LocalKylix([2], faults=FaultPlan().kill(1, at=1.0))
    with pytest.raises(ValueError, match="recovery"):
        LocalKylix([2], faults=FaultPlan().kill(1).recover(1, at=2.0))
    # Out-of-range targets are rejected up front, not at run time.
    with pytest.raises(Exception):
        LocalKylix([2], faults=FaultPlan().kill(9))
    # Executable plans and a custom retry policy are accepted.
    net = LocalKylix(
        [2],
        faults=FaultPlan().kill_at_step(1, "down", 1),
        retry=RetryPolicy(base_timeout=0.5, max_retries=1),
    )
    assert net.retry.max_retries == 1


def test_agrees_with_simulator():
    """The real-process backend and the simulator compute identical sums."""
    from repro.allreduce import KylixAllreduce
    from repro.cluster import Cluster

    rng = np.random.default_rng(9)
    spec, vals = covered_case(4, 120, rng)
    real = LocalKylix([2, 2]).allreduce(spec, vals)
    sim = KylixAllreduce(Cluster(4), [2, 2]).allreduce(spec, vals)
    for r in spec.ranks:
        np.testing.assert_allclose(real[r], sim[r], atol=1e-12)
