"""The static plan checker: clean topologies pass, seeded violations fire.

Each corruption fixture mutates one structural property of an otherwise
valid plan/topology and asserts that exactly the matching invariant
reports it — the checker's own regression suite.
"""

import dataclasses

import numpy as np
import pytest

from repro import Cluster, KylixAllreduce, ProtocolInvariantError
from repro.__main__ import main as cli_main
from repro.allreduce.topology import ButterflyTopology
from repro.verify import (
    assert_valid,
    build_plans,
    check_plans,
    check_topology,
    default_stacks,
    synthetic_spec,
    verify_all,
    verify_stack,
)


def make_case(m=8, degrees=(2, 2, 2), n=200, seed=1):
    topo = ButterflyTopology(list(degrees), m)
    spec = synthetic_spec(m, n=n, seed=seed)
    return topo, build_plans(topo, spec)


def assert_same_fields(a, b):
    """Recursive field-for-field equality of plan dataclasses."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_fields(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


def invariants_fired(violations):
    return {v.invariant for v in violations}


class TestCleanPlans:
    @pytest.mark.parametrize(
        "m,degrees",
        [(4, [4]), (4, [2, 2]), (8, [2, 2, 2]), (8, [4, 2]), (12, [3, 2, 2]), (16, [4, 4])],
    )
    def test_shipped_stacks_pass(self, m, degrees):
        assert verify_stack(m, degrees, n=256) == []

    def test_default_stacks_include_degenerates(self):
        stacks = default_stacks(16)
        assert [16] in stacks  # direct all-to-all
        assert [2, 2, 2, 2] in stacks  # binary butterfly

    def test_static_plans_match_simulated_configure(self, tmp_path, monkeypatch):
        """build_plans equals, field for field, the plans of a simulated
        configure, of a simulated combined round, and of a LocalKylix
        round (captured inside each forked worker)."""
        import pickle

        import repro.net.base as net_base
        from repro.net import LocalKylix

        m, degrees = 8, [4, 2]
        spec = synthetic_spec(m, n=150, seed=7)
        values = {r: np.ones(len(spec.out_indices[r])) for r in range(m)}
        net = KylixAllreduce(Cluster(m), degrees)
        net.configure(spec)
        combined = KylixAllreduce(Cluster(m), degrees)
        combined.allreduce_combined(spec, values)
        original = net_base.run_combined

        def capture(rank, *args, **kwargs):
            out = original(rank, *args, **kwargs)
            (tmp_path / f"plan-{rank}.pkl").write_bytes(pickle.dumps(out[0]))
            return out

        monkeypatch.setattr(net_base, "run_combined", capture)
        LocalKylix(degrees).allreduce(spec, values)
        wire = {
            r: pickle.loads((tmp_path / f"plan-{r}.pkl").read_bytes()) for r in range(m)
        }
        static = build_plans(net.topology, spec)
        for plans in (net.plans, combined.plans, wire):
            assert sorted(plans) == list(range(m))
            for r in range(m):
                assert_same_fields(plans[r], static[r])

    def test_verify_plans_method_passes_after_configure(self):
        m = 8
        net = KylixAllreduce(Cluster(m), [2, 4])
        net.configure(synthetic_spec(m, n=100))
        net.verify_plans()  # should not raise

    def test_verify_plans_requires_configure(self):
        net = KylixAllreduce(Cluster(4), [2, 2])
        with pytest.raises(RuntimeError):
            net.verify_plans()

    def test_topology_self_check_passes(self):
        ButterflyTopology([8, 4, 2], 64).self_check()


class TestSeededViolations:
    """Corrupt one property at a time; the matching invariant must fire."""

    def test_range_tiling_violation(self):
        topo = ButterflyTopology([2, 2], 4)

        class Broken(ButterflyTopology):
            def key_range(self, node, layer):
                rng = super().key_range(node, layer)
                if layer == 1 and node == 0:
                    return type(rng)(rng.lo, rng.hi - 1)  # leave a gap
                return rng

        broken = Broken([2, 2], 4)
        assert "range-tiling" in invariants_fired(check_topology(broken))
        assert check_topology(topo) == []

    def test_range_nesting_violation(self):
        class Broken(ButterflyTopology):
            def key_range(self, node, layer):
                rng = super().key_range(node, layer)
                if layer == 2 and node == 1:
                    # node 1's layer-2 range swapped for its sibling's
                    return super().key_range(0, layer)
                return rng

        fired = invariants_fired(check_topology(Broken([2, 2], 4)))
        assert "range-nesting" in fired

    def test_group_symmetry_violation(self):
        class Broken(ButterflyTopology):
            def group(self, node, layer):
                g = super().group(node, layer)
                if node == 0 and layer == 1:
                    g = list(reversed(g))  # wrong position order
                return g

        fired = invariants_fired(check_topology(Broken([2, 2], 4)))
        assert "group-symmetry" in fired

    def test_slice_cover_violation(self):
        topo, plans = make_case()
        lp = plans[3].layers[0]
        s = lp.out_slices[0]
        lp.out_slices[0] = slice(s.start, max(s.stop - 1, s.start))  # drop a key
        assert "slice-cover" in invariants_fired(check_plans(topo, plans))

    def test_map_injective_violation(self):
        topo, plans = make_case()
        lp = plans[2].layers[0]
        m = lp.in_recv_maps[0]
        assert m.size >= 2, "fixture needs a non-trivial part"
        m[1] = m[0]  # duplicate position: no longer injective
        assert "map-injective" in invariants_fired(check_plans(topo, plans))

    def test_map_out_of_bounds_violation(self):
        topo, plans = make_case()
        lp = plans[5].layers[1]
        lp.out_recv_maps[0][-1] = lp.out_union_size + 3
        assert "map-injective" in invariants_fired(check_plans(topo, plans))

    def test_map_cover_violation(self):
        topo, plans = make_case()
        lp = plans[1].layers[0]
        lp.in_union_size += 1  # one union position nobody contributes
        assert "map-cover" in invariants_fired(check_plans(topo, plans))

    def test_group_consistency_violation(self):
        topo, plans = make_case()
        lp = plans[4].layers[0]
        a, b = lp.group[0], lp.group[1]
        lp.pos_of[a], lp.pos_of[b] = lp.pos_of[b], lp.pos_of[a]
        assert "group-consistency" in invariants_fired(check_plans(topo, plans))

    def test_nesting_violation(self):
        topo, plans = make_case()
        plans[6].layers[1].in_prev_size += 2  # up pass no longer retraces down
        assert "nesting" in invariants_fired(check_plans(topo, plans))

    def test_missing_layer_is_nesting_violation(self):
        topo, plans = make_case()
        plans[0].layers.pop()
        assert "nesting" in invariants_fired(check_plans(topo, plans))

    def test_part_size_violation(self):
        topo, plans = make_case()
        lp = plans[7].layers[0]
        lp.in_recv_maps[0] = lp.in_recv_maps[0][:-1]  # expect fewer keys than sent
        fired = invariants_fired(check_plans(topo, plans))
        assert "part-size" in fired

    def test_bottom_projection_violation(self):
        topo, plans = make_case()
        plan = plans[0]
        assert plan.bottom_pos.size, "fixture needs a non-empty in set"
        plan.bottom_pos[0] = plan.bottom_out_keys.size + 10
        assert "bottom-projection" in invariants_fired(check_plans(topo, plans))

    def test_assert_valid_raises_with_report(self):
        topo, plans = make_case()
        plans[0].layers[0].in_prev_size += 1
        with pytest.raises(ProtocolInvariantError) as exc:
            assert_valid(topo, plans)
        assert "nesting" in str(exc.value)
        assert exc.value.invariant  # names the first violated invariant

    def test_verify_plans_method_detects_corruption(self):
        m = 8
        net = KylixAllreduce(Cluster(m), [2, 2, 2])
        net.configure(synthetic_spec(m, n=100))
        net.plans[0].layers[0].in_prev_size += 1
        with pytest.raises(ProtocolInvariantError):
            net.verify_plans()

    def test_self_check_raises_on_broken_topology(self):
        class Broken(ButterflyTopology):
            def group(self, node, layer):
                g = super().group(node, layer)
                return list(reversed(g)) if node == 0 else g

        with pytest.raises(ProtocolInvariantError):
            Broken([2, 2], 4).self_check()


class TestVerifyCLI:
    def test_verify_passes_on_shipped_stacks(self, capsys):
        assert cli_main(["verify", "--stacks", "4,6,8", "--n", "128"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "m=6 degrees=3x2" in out

    def test_verify_rejects_bad_stacks_argument(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["verify", "--stacks", "4,x"])

    def test_verify_fails_on_violation(self, capsys, monkeypatch):
        import repro.verify.plan as planmod
        from repro.verify.invariants import Violation

        def broken(m, degrees, **kw):
            return [Violation("nesting", "seeded failure", node=0, layer=1)]

        monkeypatch.setattr(planmod, "verify_stack", broken)
        assert cli_main(["verify", "--stacks", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "seeded failure" in out


def test_verify_all_combines_topology_and_plans():
    topo, plans = make_case(m=6, degrees=(3, 2), n=120)
    assert verify_all(topo, plans) == []
