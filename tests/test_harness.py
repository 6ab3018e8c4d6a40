"""Generator soundness, the oracle-equivalence suite, and statistics."""

import hashlib
import json
from dataclasses import replace
from functools import partial
from itertools import compress

import pytest

from treelts import (
    Component,
    ExplicitLts,
    GenConfig,
    GlobalTuple,
    InvalidWitness,
    ReductionStage,
    StateLimitExceeded,
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
    two_level_network,
    validate_live_reset,
)
from treelts.cli import save_string
from treelts.reduction import summaries
from shapes import all_locked_tree, ring_chain, ring_tree


#: Bound sets of the generator sweep below; each runs seeds 0-149.
GEN_SWEEP = [
    dict(),
    dict(max_depth=3, max_children=3, max_states=5, max_local_actions=2, propositions=3,
         density=0.6),
    dict(max_depth=5, max_children=2, max_states=4, density=0.3, min_states=2),
    dict(max_depth=4, max_children=4, max_states=3, max_local_actions=0, propositions=1,
         density=1.0, min_children=2),
]
#: The sha256 of the sweep's ``save_string`` outputs, in sweep order, as
#: drawn by the generator that inferred its topology from shared names.
GEN_SWEEP_SHA256 = "fce7369ecf55e08844f43e4fd0ca531713a453f45384f31654f4aeb6f4b13e44"


class TestGenerator:
    def test_the_network_drawn_is_the_one_inferred(self):
        # the generator declares each component's fresh upacts itself
        for bounds in GEN_SWEEP:
            for seed in range(150):
                net = gen_random_tree(GenConfig(seed, **bounds))
                assert net == infer_topology(net.components, "n0", silent=net.silent), seed

    def test_the_sweep_draws_the_pinned_bytes(self):
        digest = hashlib.sha256()
        for bounds in GEN_SWEEP:
            for seed in range(150):
                digest.update(save_string(gen_random_tree(GenConfig(seed, **bounds))).encode())
        assert digest.hexdigest() == GEN_SWEEP_SHA256

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


def patch_stage(monkeypatch, change, at=-1):
    """Make ``harness.reduce_net_traced`` return its stage ``at`` (the top
    one by default) through ``change``."""
    original = harness.reduce_net_traced

    def patched(net):
        component, stages = original(net)
        stages = list(stages)
        stages[at] = change(stages[at])
        return component, tuple(stages)

    monkeypatch.setattr(harness, "reduce_net_traced", patched)


def built_as(stage: ReductionStage, **values) -> ReductionStage:
    """A copy of ``stage`` in which the fields built on first access (``sq``,
    ``deleted``, ``unpruned_states``, ...) read ``values``."""
    copy = replace(stage)
    vars(copy).update(values)
    return copy


class TestSuiteFailureReporting:
    """Each fault the suite reports, injected through a ``harness`` name."""

    def test_a_disagreement_is_counted_with_both_witnesses(self, gx, monkeypatch):
        blank = ExplicitLts(0, [], [], [], [], [frozenset()], [GlobalTuple(("x",))])
        monkeypatch.setattr(harness, "reduced_lts", lambda component, stages: blank)
        report = equivalence_suite(gx)
        (result,) = report.propositions
        assert report.disagreements == 1
        assert (result.full_holds, result.reduced_holds, result.agree) == (True, False, False)
        assert "(r3,s0,t0)" in result.full_witness
        assert result.reduced_witness is None  # a failed check has no witness
        assert report.witnesses_checked == 0
        assert (report.reduced_states, report.reduced_transitions) == (1, 0)

    def test_a_witness_that_does_not_lift_is_marked(self, gx, monkeypatch):
        def refuse(stage, path, proposition=None):
            raise InvalidWitness("refused")

        monkeypatch.setattr(harness, "lift_witness", refuse)
        report = equivalence_suite(gx)
        (result,) = report.propositions
        assert result.agree and result.witness_lifted is False
        assert (report.witnesses_checked, report.witnesses_lifted) == (1, 0)

    def test_an_oversized_stage_breaks_the_size_bound(self, gx, monkeypatch):
        # gx: three components of at most five states, so the bound is 51
        assert equivalence_suite(gx).size_bound_ok
        patch_stage(monkeypatch, lambda stage: built_as(stage, unpruned_states=52))
        assert not equivalence_suite(gx).size_bound_ok

    def test_an_oversized_inner_stage_breaks_the_size_bound(self, chain_net, monkeypatch):
        # the inner stage B - C: two components of two states, so the bound is 5
        assert equivalence_suite(chain_net).size_bound_ok
        patch_stage(monkeypatch, lambda stage: built_as(stage, unpruned_states=6), at=0)
        assert not equivalence_suite(chain_net).size_bound_ok

    def test_a_label_lost_by_pruning_is_a_divergence(self, monkeypatch):
        net = ring_tree([None, 0, 0])  # nothing pruned: the suite would skip the stage

        def strip_p1(stage: ReductionStage) -> ReductionStage:
            lts = stage.sq.lts
            stripped = ExplicitLts(lts.initial, lts.src, lts.act, lts.dst, lts.movers,
                                   [ps - {"p1"} for ps in lts.labels], lts.payloads)
            return built_as(stage, sq=replace(stage.sq, lts=stripped), deleted=1)

        patch_stage(monkeypatch, strip_p1)
        report = equivalence_suite(net)
        assert [(d.stage_root, d.proposition, d.pruned_holds, d.unpruned_holds)
                for d in report.divergences] == [("n0", "p1", False, True)]

    def test_a_capped_deep_lift_target_skips_the_lift(self, chain_net, monkeypatch):
        calls = []

        def capped(net, cap):
            calls.append(cap)
            if net is chain_net:  # the oracle itself is built
                return full_product(net, cap=cap)
            raise StateLimitExceeded(cap, cap)

        monkeypatch.setattr(harness, "full_product", capped)
        report = equivalence_suite(chain_net, cap=1000)
        # the oracle, then the lift target: the chain is three levels deep
        assert calls == [1000, 1000]
        assert report.disagreements == 0
        assert report.witnesses_checked == report.witnesses_lifted == 0
        assert all(r.witness_lifted is None for r in report.propositions)
        assert any(r.reduced_holds for r in report.propositions)


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


def ef_everywhere(net, prop, monkeypatch):
    """``EF prop`` on every product ``equivalence_suite`` builds (the oracle
    and, on a deep network, the lift target), on the root's summary and on
    ``reduced_lts``, with the suite's report."""
    built = []

    def spy(net, cap):
        built.append(full_product(net, cap=cap))
        return built[-1]

    monkeypatch.setattr(harness, "full_product", spy)
    report = equivalence_suite(net)
    component, stages = reduce_net_traced(net)
    return ([check_ef(lts, prop).holds for lts in built],
            prop in summaries(net)[net.root_index][0],
            check_ef(reduced_lts(component, stages), prop).holds, report)


#: Moves of the enumerated root and child over states s0 and s1.
PAIRS = [("s0", "s0"), ("s0", "s1"), ("s1", "s0"), ("s1", "s1")]
ROOT_MOVES = [("s0", "tau", "s1"), ("s1", "tau", "s0"),
              *((a, "u1", b) for a, b in PAIRS), *((a, "v", b) for a, b in PAIRS)]
CHILD_MOVES = [("s0", "tau", "s1"), ("s1", "tau", "s0"), ("s0", "u1", "s0"), ("s1", "u1", "s0")]


def declared_pair(code):
    """Root n0 over the subset ``code >> 4`` of ROOT_MOVES, and child n1
    over the subset ``code & 15`` of CHILD_MOVES, declaring u1 and v; the
    child never fires v.  Each labels s{j} with p{i}_{j}."""
    def comp(i, moves, bits):
        return Component(f"n{i}", ("s0", "s1"), "s0",
                         tuple(compress(moves, (bits >> b & 1 for b in range(len(moves))))),
                         labels={f"s{j}": {f"p{i}_{j}"} for j in range(2)})
    return two_level_network(comp(0, ROOT_MOVES, code >> 4), [comp(1, CHILD_MOVES, code & 15)],
                             [frozenset({"u1", "v"})])


class TestOneClassification:
    """The product, the summaries, the squares and the lift target read who
    synchronises on what from the network's declared edges alone."""

    def test_an_upact_the_child_cannot_fire_blocks_the_root(self, monkeypatch):
        root = Component("n0", ("s0", "s1"), "s0", (("s0", "go", "s1"),),
                         labels={"s1": {"p"}})
        net = two_level_network(root, [Component("n1", ("c0",), "c0")], [frozenset({"go"})])
        products, summary, reduced, report = ef_everywhere(net, "p", monkeypatch)
        assert products == [False]  # two levels: the oracle is the lift target
        assert summary is reduced is False
        assert report.disagreements == 0

    def test_the_deep_lift_target_blocks_an_upact_the_partner_cannot_fire(self, monkeypatch):
        # n1's t1 is unreachable, so n1 never fires u1 and its summary lists none
        n0 = Component("n0", ("s0", "s1"), "s0", (("s0", "u1", "s1"),), labels={"s1": {"p"}})
        n1 = Component("n1", ("t0", "t1"), "t0", (("t0", "u2", "t0"), ("t1", "u1", "t0")))
        n2 = Component("n2", ("c0",), "c0", (("c0", "u2", "c0"),))
        net = infer_topology([n0, n1, n2], "n0")
        assert validate_live_reset(net) == []
        products, summary, reduced, report = ef_everywhere(net, "p", monkeypatch)
        assert products == [False, False]  # the oracle, then the lift target
        assert summary is reduced is False
        assert report.disagreements == 0

    def test_every_pair_with_an_upact_the_child_never_fires(self):
        # 16,384 networks in all; every fifth runs in about 2 s
        checked = 0
        for code in range(0, 1 << 14, 5):
            net = declared_pair(code)
            report = equivalence_suite(net)
            assert report.disagreements == 0, code
            assert report.witnesses_lifted == report.witnesses_checked, code
            full, top = full_product(net), summaries(net)[0][0]
            for prop in net.propositions():
                assert (prop in top) == check_ef(full, prop).holds, (code, prop)
            checked += report.witnesses_checked
        assert checked == 10_342


class TestStats:
    def test_gx_counts(self, gx):
        report = stats(gx)
        assert report.full_states == 15
        # the 12 pruned square states less the merged copy of home at r3
        assert report.reduced_states == 11
        assert not report.full_capped
        assert abs(report.reduction_ratio - 11 / 15) < 1e-12
        assert set(report.wall_times) == {"full_product", "reduce"}
        as_json = report.to_dict()
        assert json.loads(json.dumps(as_json)) == as_json
        assert (as_json["full_states"], as_json["reduced_states"]) == (15, 11)

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
        full_line = report.table().splitlines()[0]
        assert full_line == f"full product : {report.full_states} states (lower bound, cap hit)"
        assert "transition" not in full_line

    @pytest.mark.parametrize("cap, capped", [(100, False), (5, True)], ids=["uncapped", "capped"])
    def test_each_structure_is_built_once(self, gx, monkeypatch, cap, capped):
        calls = {"full_product": 0, "reduce_net_traced": 0}

        def counted(name):
            original = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(harness, name, counted(name))
        assert stats(gx, cap=cap).full_capped == capped
        assert calls == {"full_product": 1, "reduce_net_traced": 1}

    def test_two_level_wide_instance_shrinks(self):
        # four children of five states under a five-state root: the squares
        # stay under (n-1) * m^2 + 1 while the product interleaves freely
        cfg = GenConfig(seed=2, max_depth=2, max_children=4, min_children=4,
                        max_states=5, min_states=5, density=0.8)
        net = gen_random_tree(cfg)
        assert len(net.components) == 5
        reduced = reduce_net(net)
        assert len(reduced.states) <= 4 * 25 + 1
