"""Generator soundness, the oracle-equivalence suite, and statistics."""

import json
from functools import partial

import pytest

from treelts import (
    Component,
    GenConfig,
    check_ef,
    equivalence_suite,
    full_product,
    gen_random_tree,
    harness,
    infer_topology,
    reduce_net,
    reduce_net_traced,
    reduced_lts,
    stats,
    validate_live_reset,
)
from treelts.cli import save_string
from shapes import all_locked_tree, ring_chain, ring_tree


class TestGenerator:
    def test_same_seed_same_bytes(self):
        cfg = GenConfig(seed=421, max_depth=3, max_children=3, max_states=5)
        assert save_string(gen_random_tree(cfg)) == save_string(gen_random_tree(cfg))

    def test_different_seeds_differ(self):
        a = gen_random_tree(GenConfig(seed=0))
        b = gen_random_tree(GenConfig(seed=1))
        assert save_string(a) != save_string(b)

    def test_depth_one_gives_a_single_component(self):
        net = gen_random_tree(GenConfig(seed=7, max_depth=1))
        assert len(net.components) == 1

    def test_a_thousand_instances_pass_the_validators(self):
        for seed in range(1000):
            cfg = GenConfig(seed=seed, max_depth=3, max_children=3, max_states=4)
            net = gen_random_tree(cfg)
            assert validate_live_reset(net) == []
            for i in range(len(net.components)):
                assert net.upacts[i] or i == net.root_index

    def test_bounds_clamp_instead_of_failing(self):
        net = gen_random_tree(GenConfig(seed=3, max_depth=0, max_children=0,
                                        max_states=0, density=-2.0))
        assert len(net.components) == 1

    def test_polarity_guarantees(self):
        net = gen_random_tree(GenConfig(seed=11, max_depth=2))
        root = net.root
        assert "p_top" in root.label_of(root.initial)
        assert any("p_nowhere" in root.label_of(s) for s in root.states)
        lts = full_product(net, cap=100_000)
        assert check_ef(lts, "p_top").holds is True
        assert check_ef(lts, "p_nowhere").holds is False


class TestEquivalenceSuite:
    def test_gx_with_labelled_root_agrees_everywhere(self, gx):
        r, s1, s2 = gx.components
        labelled = Component(
            "R", r.states, r.initial, r.transitions,
            labels={s: frozenset({f"at_{s}"}) for s in r.states})
        net = infer_topology([labelled, s1, s2], "R")
        report = equivalence_suite(net)
        assert report.disagreements == 0
        assert len(report.propositions) == 5
        assert all(r.agree for r in report.propositions)
        assert report.divergences == []

    def test_unreachable_proposition_is_false_on_both_sides(self, gx):
        r, s1, s2 = gx.components
        labelled = Component(
            "R", r.states + ("island",), r.initial, r.transitions,
            labels={"island": frozenset({"far"})})
        net = infer_topology([labelled, s1, s2], "R")
        report = equivalence_suite(net)
        entry = next(p for p in report.propositions if p.proposition == "far")
        assert entry.full_holds is False and entry.reduced_holds is False and entry.agree

    def test_gy_flags_the_invariance_divergence_as_expected(self, gy):
        report = equivalence_suite(gy)
        entry = next(p for p in report.propositions if p.proposition == "p")
        assert entry.agree                      # reachability is preserved
        assert entry.eg_full is True            # the invariant run exists
        assert entry.eg_reduced is False        # but not in the squares
        assert entry.eg_diverged
        assert report.disagreements == 0

    def test_witnesses_are_lifted(self, gx):
        r, s1, s2 = gx.components
        labelled = Component(
            "R", r.states, r.initial, r.transitions,
            labels={s: frozenset({f"at_{s}"}) for s in r.states})
        net = infer_topology([labelled, s1, s2], "R")
        report = equivalence_suite(net)
        assert report.witnesses_checked == 5
        assert report.witnesses_lifted == 5

    def test_report_serialises(self, gy):
        report = equivalence_suite(gy)
        blob = json.dumps(report.to_dict())
        assert "eg_diverged" in blob
        assert isinstance(report.summary(), str)

    def test_size_bound_is_recorded(self, gx):
        assert equivalence_suite(gx).size_bound_ok

    def test_unpruned_squares_are_rebuilt_only_where_pruning_deleted(self, gx, monkeypatch):
        calls = []
        original = harness.build_sq_unreduced

        def counting(net, epsilon=None):
            calls.append(net.root.name)
            return original(net, epsilon)

        monkeypatch.setattr(harness, "build_sq_unreduced", counting)
        # gx prunes its 9 locked square states; both all-locked stages fall
        # back from two states to the bare glue state
        for net, deleted in ((ring_tree([None, 0, 0]), [0]), (gx, [9]),
                             (all_locked_tree(), [1, 1])):
            calls.clear()
            report = equivalence_suite(net)
            assert [stage.deleted for stage in reduce_net_traced(net)[1]] == deleted
            assert len(calls) == sum(map(bool, deleted))
            assert report.size_bound_ok and not report.divergences


#: Generator bounds of the acceptance suite (tests/test_acceptance.py).
SUITE_CFG = dict(max_depth=3, max_children=3, max_states=5,
                 max_local_actions=2, propositions=3, density=0.6)


class TestSuiteReportSizes:
    def test_reduced_sizes_come_from_the_checked_graph(self):
        # on this seed the top squares hold a transition twice, which the
        # completed component keeps once
        net = gen_random_tree(GenConfig(seed=127, **SUITE_CFG))
        component, stages = reduce_net_traced(net)
        reduced = reduced_lts(component, stages)
        assert len(reduced.src) != len(component.transitions)
        report = equivalence_suite(net)
        assert (report.reduced_states, report.reduced_transitions) == (
            reduced.n_states, len(reduced.src))

    def test_stats_counts_the_checked_graph(self):
        # the same seed: stats counts the squares check --reduced checks,
        # not the completed component, which keeps the doubled transition once
        net = gen_random_tree(GenConfig(seed=127, **SUITE_CFG))
        reduced = reduced_lts(*reduce_net_traced(net))
        report = stats(net)
        assert (report.reduced_states, report.reduced_transitions) == (
            reduced.n_states, len(reduced.src)) == (2, 5)


class TestShapeFamilies:
    @pytest.mark.parametrize("make, witnesses", [
        *((partial(ring_chain, depth), depth) for depth in range(3, 7)),
        (lambda: ring_tree([None] + [0] * 5), 6),
        (lambda: ring_tree([None, 0, 0, 1, 1, 2, 2]), 7),
        (lambda: ring_tree([None, 0, 1, 1, 0]), 5),
        (all_locked_tree, 0),
    ], ids=["chain-3", "chain-4", "chain-5", "chain-6", "wide", "balanced", "mixed",
            "all-locked"])
    def test_suite_agrees_and_lifts_every_witness(self, make, witnesses):
        # every label of a ring shape is reachable, so each gives a witness;
        # all_locked_tree carries no label
        net = make()
        report = equivalence_suite(net)
        assert report.disagreements == 0 and report.divergences == []
        assert len(net.propositions()) == witnesses
        assert report.witnesses_lifted == report.witnesses_checked == witnesses


class TestLiftTarget:
    def test_two_level_witnesses_lift_against_the_full_product(self):
        two_level = expanded = 0
        for seed in range(600):
            net = gen_random_tree(GenConfig(seed=seed, **SUITE_CFG))
            kids = net.children[net.root_index]
            if not kids or any(net.children[k] for k in kids):
                continue
            two_level += 1
            top = reduce_net_traced(net)[1][-1]
            # equivalence_suite lifts against ``full`` exactly when this holds
            assert top.originals == net.components
            expanded += any(b is not None for b in top.blocks)
            report = equivalence_suite(net, cap=300_000)
            assert report.witnesses_checked
            assert report.witnesses_lifted == report.witnesses_checked, seed
        assert two_level == 67
        assert expanded > 0

    def test_deep_witnesses_lift_against_the_original_leaves(self):
        net = ring_tree([None, 0, 1, 1, 0])
        top = reduce_net_traced(net)[1][-1]
        # n1 arrives reduced, the root and the leaf n4 as they were
        names = [c.name for c in top.originals]
        assert top.originals[names.index("n0")] is net.components[0]
        assert top.originals[names.index("n4")] is net.components[4]
        assert all(b is not None for b in top.blocks[:1] + top.blocks[2:])
        report = equivalence_suite(net)
        assert report.witnesses_checked == len(net.propositions()) == 5
        assert report.witnesses_lifted == 5


class TestStats:
    def test_gx_counts(self, gx):
        report = stats(gx)
        assert report.full_states == 15
        # the 12 pruned square states less the merged copy of home at r3
        assert report.reduced_states == 11
        assert not report.full_capped
        assert abs(report.reduction_ratio - 11 / 15) < 1e-12
        assert set(report.wall_times) == {"full_product", "reduce"}

    def test_single_component_ratio_is_one(self):
        c = Component("c", ("s0", "s1"), "s0", (("s0", "a", "s1"),))
        net = infer_topology([c], "c")
        report = stats(net)
        assert report.full_states == report.reduced_states == 2
        assert report.reduction_ratio == 1.0

    def test_cap_marks_a_lower_bound(self, gx):
        report = stats(gx, cap=5)
        assert report.full_capped
        assert report.full_states >= 5
        assert "lower bound" in report.table()

    def test_two_level_wide_instance_shrinks(self):
        # four children of five states under a five-state root: the squares
        # stay under (n-1) * m^2 + 1 while the product interleaves freely
        cfg = GenConfig(seed=2, max_depth=2, max_children=4, min_children=4,
                        max_states=5, min_states=5, density=0.8)
        net = gen_random_tree(cfg)
        assert len(net.components) == 5
        reduced = reduce_net(net)
        assert len(reduced.states) <= 4 * 25 + 1
