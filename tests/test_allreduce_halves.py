"""Tests for the composable protocol halves: scatter_reduce + allgather."""

import numpy as np
import pytest

from repro.allreduce import KylixAllreduce, ReduceSpec, dense_reduce
from repro.cluster import Cluster
from repro.faults import FaultPlan


def case(m, n, rng):
    in_idx = {r: rng.choice(n, size=n // 5, replace=False) for r in range(m)}
    out_idx = {
        r: np.concatenate([rng.choice(n, size=10), np.arange(r, n, m)]).astype(np.int64)
        for r in range(m)
    }
    spec = ReduceSpec(in_idx, out_idx)
    vals = {r: rng.normal(size=out_idx[r].size) for r in range(m)}
    return spec, vals


@pytest.fixture()
def configured():
    rng = np.random.default_rng(3)
    m = 8
    spec, vals = case(m, 200, rng)
    net = KylixAllreduce(Cluster(m), [4, 2])
    net.configure(spec)
    return net, spec, vals


class TestScatterReduce:
    def test_bottom_ranges_partition_out_union(self, configured):
        net, spec, vals = configured
        bottom = net.scatter_reduce(vals)
        all_idx = np.concatenate([idx for idx, _ in bottom.values()])
        all_out = np.unique(np.concatenate(list(spec.out_indices.values())))
        np.testing.assert_array_equal(np.sort(all_idx), all_out)
        # disjoint ranges: no index appears twice
        assert np.unique(all_idx).size == all_idx.size

    def test_bottom_values_are_global_sums(self, configured):
        net, spec, vals = configured
        bottom = net.scatter_reduce(vals)
        # dense reference over the whole index space
        top = int(max(idx.max() for idx, _ in bottom.values())) + 1
        total = np.zeros(top)
        for r in spec.ranks:
            np.add.at(total, spec.out_indices[r], vals[r])
        for rank, (idx, v) in bottom.items():
            np.testing.assert_allclose(v, total[idx], atol=1e-9)

    def test_degraded_scatter_reports_invalid_bottom_aggregates(self):
        """A mid-stack death under degraded completion: every bottom
        index whose aggregate is incomplete is reported for its rank and
        holds the reduction identity; every other bottom value is exact."""
        rng = np.random.default_rng(3)
        spec, vals = case(8, 200, rng)
        clean = KylixAllreduce(Cluster(8), [4, 2])
        clean.configure(spec)
        base = clean.scatter_reduce(vals)
        net = KylixAllreduce(
            Cluster(8, failures=FaultPlan().kill_at_step(3, "down", 2)),
            [4, 2],
            degrade=True,
        )
        net.configure(spec)
        out = net.scatter_reduce(vals)
        report = net.last_report
        assert report is not None and 3 in report.dead_members
        assert set(report.lost_indices[3]) == set(base[3][0])  # no survivor
        wrong_ranks = 0
        for r in out:
            idx, v = out[r]
            np.testing.assert_array_equal(idx, base[r][0])
            wrong = idx[v != base[r][1]]
            lost = report.lost_indices.get(r, np.empty(0, dtype=np.int64))
            assert set(lost.tolist()) == set(wrong.tolist())
            np.testing.assert_array_equal(v[np.isin(idx, lost)], 0.0)
            wrong_ranks += bool(wrong.size)
        assert wrong_ranks > 0

    def test_requires_configuration(self):
        net = KylixAllreduce(Cluster(2), [2])
        with pytest.raises(RuntimeError):
            net.scatter_reduce({0: np.array([1.0]), 1: np.array([1.0])})


class TestComposition:
    def test_halves_compose_to_reduce(self, configured):
        """scatter_reduce ∘ allgather_from_bottom == reduce, exactly."""
        net, spec, vals = configured
        direct = net.reduce(vals)
        bottom = net.scatter_reduce(vals)
        glued = net.allgather_from_bottom({r: v for r, (idx, v) in bottom.items()})
        for r in spec.ranks:
            np.testing.assert_array_equal(glued[r], direct[r])

    def test_transform_at_the_bottom(self, configured):
        """The point of the split: apply a global transformation to the
        reduced data while it is partitioned, before fanning back out."""
        net, spec, vals = configured
        bottom = net.scatter_reduce(vals)
        doubled = {r: 2.0 * v for r, (idx, v) in bottom.items()}
        got = net.allgather_from_bottom(doubled)
        ref = dense_reduce(spec, vals)
        for r in spec.ranks:
            np.testing.assert_allclose(got[r], 2.0 * ref[r], atol=1e-9)

    def test_gather_shape_validated(self, configured):
        net, spec, vals = configured
        net.scatter_reduce(vals)
        with pytest.raises(ValueError):
            net.allgather_from_bottom({r: np.zeros(1) for r in spec.ranks})

    def test_gather_requires_configuration(self):
        net = KylixAllreduce(Cluster(2), [2])
        with pytest.raises(RuntimeError):
            net.allgather_from_bottom({0: np.zeros(1), 1: np.zeros(1)})
