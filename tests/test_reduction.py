"""The square construction, locked-state pruning, completion, and the
bottom-up reduction."""

import gc
import importlib.util
import json
import random
import sys
import tracemalloc
from dataclasses import replace
from itertools import combinations
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, note, reject, settings
from hypothesis import strategies as st

from treelts import (
    Component,
    Entry,
    FreshInit,
    GenConfig,
    GlobalTuple,
    NotTwoLevel,
    OracleTooLarge,
    SquareOrigin,
    ValidationError,
    build_sq,
    build_sq_unreduced,
    check_ef,
    check_eg,
    cmpl,
    component_lts,
    compute_locked,
    equivalence_suite,
    full_product,
    gen_random_tree,
    infer_topology,
    lift_witness,
    prune_locked,
    reduce_net,
    reduce_net_traced,
    reduced_lts,
    resolve_prefix,
    subnetwork,
    two_level_network,
    validate_live_reset,
)
from treelts import reduction as reduction_module
from treelts.cli import main, save, save_string
from treelts.model import closure
from treelts.product import Path as LtsPath, flat_component, prefix_of
from treelts.reduction import _contract, _named, fresh_action, summaries
from oracles import merge_home, naive_ef, naive_product
from shapes import all_locked_tree, ring_chain, ring_tree

#: Largest product of subtree component sizes the per-stage oracle builds.
ORACLE_CAP = 20_000
#: The generator bounds of the acceptance suite (``test_acceptance.SUITE_CFG``).
ACCEPTANCE_SHAPE = dict(max_depth=3, max_children=3, max_states=5, max_local_actions=2,
                        propositions=3, density=0.6)


def payload_names(sq):
    return {str(p) for p in sq.lts.payloads}


# the nine square states the root can never escape from (child index 1 is
# S1, child index 2 is S2)
GX_LOCKED = {
    "(s0,r1)#1", "(s0,r4)#1",
    "(t0,r2)#2", "(t1,r2)#2", "(t2,r2)#2",
    "(t2,r4)#2",
    "(t0,r0)#2", "(t1,r0)#2", "(t2,r0)#2",
}


class TestUnreducedSquares:
    def test_gx_has_21_states(self, gx):
        sq = build_sq_unreduced(gx)
        assert sq.lts.n_states == 21
        # the fresh initial plus every pair of both squares is reachable
        expected = {"init"}
        expected |= {f"(s0,r{i})#1" for i in range(5)}
        expected |= {f"(t{j},r{i})#2" for j in range(3) for i in range(5)}
        assert payload_names(sq) == expected

    def test_glue_state_structure(self, gx):
        sq = build_sq_unreduced(gx)
        assert isinstance(sq.lts.payloads[sq.lts.initial], FreshInit)
        outs = sq.lts.out_edges[sq.lts.initial]
        assert [sq.lts.act[k] for k in outs] == [sq.epsilon, sq.epsilon]
        assert {str(sq.lts.payloads[sq.lts.dst[k]]) for k in outs} == {"(s0,r0)#1", "(t0,r0)#2"}
        assert sq.lts.initial not in sq.lts.dst

    def test_handoff_broadcasts_to_every_square(self, gx):
        sq = build_sq_unreduced(gx)
        src = sq.lts.id_of(SquareOrigin(2, "t1", "r4"))
        targets = {str(sq.lts.payloads[sq.lts.dst[k]])
                   for k in sq.lts.out_edges[src] if sq.lts.act[k] == "chooseL"}
        assert targets == {"(s0,r0)#1", "(t0,r0)#2"}

    def test_s0_r1_has_no_moves(self, gx):
        # r1 only offers chooseL/chooseR, which belong to the other child
        sq = build_sq_unreduced(gx)
        assert sq.lts.out_edges[sq.lts.id_of(SquareOrigin(1, "s0", "r1"))] == ()

    def test_square_labels_are_pair_unions(self, gx):
        sq = build_sq_unreduced(gx)
        assert sq.lts.labels[sq.lts.id_of(SquareOrigin(1, "s0", "r3"))] == {"r3_reached"}
        assert sq.lts.labels[sq.lts.initial] == frozenset()

    def test_degenerate_tree(self):
        # one child, no local actions anywhere: the glue state plus the
        # single square, driven only by the shared action
        root = Component("r", ("r0", "r1"), "r0", (("r0", "a", "r1"),))
        child = Component("c", ("c0",), "c0", (("c0", "a", "c0"),))
        sq = build_sq_unreduced(infer_topology([root, child], "r"))
        assert payload_names(sq) == {"init", "(c0,r0)#1", "(c0,r1)#1"}
        assert set(sq.lts.act) == {sq.epsilon, "a"}

    def test_deterministic_rebuild(self, gx):
        a, b = build_sq_unreduced(gx), build_sq_unreduced(gx)
        assert a.lts.payloads == b.lts.payloads
        assert (a.lts.src, a.lts.act, a.lts.dst, a.lts.movers) == (
            b.lts.src, b.lts.act, b.lts.dst, b.lts.movers)

    def test_no_tracked_object_per_transition(self):
        # transitions live in parallel lists; a record per edge would add at
        # least one object the cyclic collector tracks per transition
        net = ring_tree([None] + [0] * 20)
        build_sq_unreduced(net)  # fills the components' cached views
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            sq = build_sq_unreduced(net)
            gc.collect()
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert added < len(sq.lts.src)

    def test_rejects_leaf_networks(self):
        c = Component("c", ("s0",), "s0", (("s0", "a", "s0"),))
        with pytest.raises(NotTwoLevel):
            build_sq_unreduced(infer_topology([c], "c"))

    def test_rejects_three_levels(self, chain_net):
        with pytest.raises(NotTwoLevel):
            build_sq_unreduced(chain_net)

    def test_epsilon_name_must_be_fresh(self, gx):
        with pytest.raises(ValidationError,
                           match="^epsilon name 'open' collides with an existing action$"):
            build_sq_unreduced(gx, epsilon="open")

    @pytest.mark.parametrize("epsilon", [5, ["e"], b"e"], ids=["int", "list", "bytes"])
    def test_an_epsilon_that_is_no_string_is_named(self, gx, epsilon):
        # 5 would glue the squares under the integer 5
        with pytest.raises(ValidationError) as info:
            build_sq_unreduced(gx, epsilon=epsilon)
        assert str(info.value) == f"epsilon name {epsilon!r} is not a string"

    def test_the_default_glue_name_is_eps0(self, gx):
        assert build_sq_unreduced(gx).epsilon == "eps0"

    @pytest.mark.parametrize("taken, name", [
        (set(), "eps0"), ({"eps0"}, "eps0_1"), ({"eps0", "eps0_1"}, "eps0_2"),
        ({"eps0", "eps0_2"}, "eps0_1"),
    ])
    def test_fresh_names_count_up_past_every_collision(self, taken, name):
        assert fresh_action(frozenset(taken), "eps0") == name


class TestLockedStates:
    def test_gx_locked_set(self, gx):
        sq = build_sq_unreduced(gx)
        locked = compute_locked(sq)
        assert {str(sq.lts.payloads[i]) for i in locked} == GX_LOCKED

    def test_root_self_loop_everywhere_locks_nothing(self):
        root = Component("r", ("r0",), "r0",
                         (("r0", "tick", "r0"), ("r0", "go", "r0")))
        child = Component("c", ("c0", "c1"), "c0",
                          (("c0", "tau", "c1"), ("c1", "go", "c0")))
        net = infer_topology([root, child], "r")
        sq = build_sq_unreduced(net)
        assert compute_locked(sq) == frozenset()

    def test_removing_the_beep_loop_locks_the_r3_states(self, gx):
        r, s1, s2 = gx.components
        quiet = Component("R", r.states, r.initial,
                          tuple(t for t in r.transitions if t[1] != "beep"),
                          labels=r.labels)
        net = infer_topology([quiet, s1, s2], "R")
        sq = build_sq_unreduced(net)
        locked = {str(sq.lts.payloads[i]) for i in compute_locked(sq)}
        assert locked == GX_LOCKED | {
            "(s0,r3)#1", "(t0,r3)#2", "(t1,r3)#2", "(t2,r3)#2"}

    def test_a_leaf_move_on_a_root_action_name_is_not_a_root_move(self):
        # root and child both use tau; after the handoff on u the root is
        # stuck at r1 while the child keeps cycling on tau
        root = Component("r", ("r0", "r1"), "r0",
                         (("r0", "tau", "r0"), ("r0", "u", "r1")),
                         labels={"r0": frozenset({"home"})})
        child = Component("c", ("c0", "c1"), "c0",
                          (("c0", "u", "c0"), ("c0", "tau", "c1"), ("c1", "tau", "c0")))
        net = infer_topology([root, child], "r")
        unreduced = build_sq_unreduced(net)
        locked = {str(unreduced.lts.payloads[i]) for i in compute_locked(unreduced)}
        assert locked == {"(c0,r1)#1", "(c1,r1)#1"}
        pruned = build_sq(net)
        assert pruned.lts.n_states == 3
        full = full_product(net)
        for prop in net.propositions():
            assert check_ef(pruned.lts, prop).holds == check_ef(full, prop).holds


class TestPrunedSquares:
    def test_gx_has_12_states(self, gx):
        sq = build_sq(gx)
        assert sq.lts.n_states == 12
        unreduced = build_sq_unreduced(gx)
        assert payload_names(sq) == payload_names(unreduced) - GX_LOCKED

    def test_pruning_deletes_exactly_the_locked_states_on_gx(self, gx):
        # on this fixture no locked state can reach a labelling, so the
        # label-preserving refinement coincides with plain deletion
        unreduced = build_sq_unreduced(gx)
        pruned = prune_locked(unreduced)
        deleted = payload_names(unreduced) - payload_names(pruned)
        assert deleted == {str(unreduced.lts.payloads[i]) for i in compute_locked(unreduced)}

    def test_surviving_chooseL_handoff(self, gx):
        sq = build_sq(gx)
        src = sq.lts.id_of(SquareOrigin(2, "t1", "r4"))
        targets = [str(sq.lts.payloads[sq.lts.dst[k]])
                   for k in sq.lts.out_edges[src] if sq.lts.act[k] == "chooseL"]
        assert targets == ["(s0,r0)#1"]

    def test_no_locked_states_means_no_change(self):
        root = Component("r", ("r0",), "r0",
                         (("r0", "tick", "r0"), ("r0", "go", "r0")))
        child = Component("c", ("c0", "c1"), "c0",
                          (("c0", "tau", "c1"), ("c1", "go", "c0")))
        net = infer_topology([root, child], "r")
        a, b = build_sq_unreduced(net), build_sq(net)
        assert payload_names(a) == payload_names(b)
        assert len(a.lts.src) == len(b.lts.src)

    def test_label_bearing_locked_states_survive(self):
        # the child can move into a labelled state after the root deadlocks;
        # deleting that square region would lose the labelling
        root = Component("r", ("r0", "r1"), "r0", (("r0", "go", "r1"),))
        child = Component(
            "c", ("c0", "c1"), "c0",
            (("c0", "go", "c0"), ("c0", "tau", "c1"), ("c1", "tau", "c1")),
            labels={"c1": frozenset({"p"})})
        net = infer_topology([root, child], "r")
        unreduced = build_sq_unreduced(net)
        locked = compute_locked(unreduced)
        assert locked  # everything after 'go' is locked
        pruned = prune_locked(unreduced)
        assert check_ef(pruned.lts, "p").holds == check_ef(unreduced.lts, "p").holds

    def test_all_squares_locked_leaves_the_glue_state(self):
        # the child's only synchronisation source is unreachable, so no
        # square ever offers a root action
        root = Component("r", ("r0", "r1"), "r0", (("r0", "go", "r1"),))
        child = Component("c", ("c0", "c1"), "c0", (("c1", "go", "c0"),))
        net = infer_topology([root, child], "r")
        lts = build_sq(net).lts
        assert (lts.n_states, lts.initial, lts.payloads) == (1, 0, (FreshInit(),))
        assert lts.src == [] and lts.labels == (frozenset(),)

    def test_ef_verdicts_match_unreduced_on_gx(self, gx):
        # relabel every root state so each one is its own target
        r, s1, s2 = gx.components
        labelled = Component(
            "R", r.states, r.initial, r.transitions,
            labels={s: frozenset({f"at_{s}"}) for s in r.states})
        net = infer_topology([labelled, s1, s2], "R")
        pruned, unreduced = build_sq(net), build_sq_unreduced(net)
        for prop in net.propositions():
            assert check_ef(pruned.lts, prop).holds == check_ef(unreduced.lts, prop).holds


def reachable_labels(lts):
    """The union of the labels of the states reachable in ``lts``."""
    seen, stack = {lts.initial}, [lts.initial]
    while stack:
        for k in lts.out_edges[stack.pop()]:
            if lts.dst[k] not in seen:
                seen.add(lts.dst[k])
                stack.append(lts.dst[k])
    return frozenset().union(*(lts.labels[i] for i in seen))


def edges_of(lts):
    return list(zip(lts.src, lts.act, lts.dst, lts.movers))


class TestHomeMerge:
    def test_gx_merges_the_two_copies_of_home_at_r3(self, gx):
        pruned = build_sq(gx)
        merged = merge_home(pruned, gx).lts
        assert merged.n_states == 11
        assert payload_names(pruned) - {str(p) for p in merged.payloads} == {"(t0,r3)#2"}
        home = merged.id_of(SquareOrigin(1, "s0", "r3"))
        assert merged.labels[home] == {"r3_reached"}
        # S1's open from (s0,r2)#1 entered both copies; one edge is left
        before = merged.id_of(SquareOrigin(1, "s0", "r2"))
        assert [merged.dst[k] for k in merged.out_edges[before]] == [home]
        # the step out of S2's home moves from the merged state
        step = LtsPath((home, merged.id_of(SquareOrigin(2, "t1", "r3"))), ("tau",))
        assert prefix_of(merged, step).movers == (frozenset({2}),)

    def test_one_child_is_left_as_it_is(self, chain_net):
        for stage in reduce_net_traced(chain_net)[1]:
            pruned = prune_locked(build_sq_unreduced(stage.net, stage.sq.epsilon))
            assert merge_home(pruned, stage.net) is pruned

    def test_labels_of_the_copies_are_united(self):
        net = ring_tree([None, 0, 0], states=3)
        (stage,) = reduce_net_traced(net)[1]
        lts = stage.sq.lts
        assert lts.payloads == (FreshInit(), SquareOrigin(1, "q0", "q0"))
        assert lts.labels[1] == {"p0", "p1", "p2"}
        assert edges_of(lts) == [(0, "eps0", 1, frozenset()),
                                 (1, "u1", 1, {0, 1}), (1, "u2", 1, {0, 2})]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_deep_trees_keep_labels_verdicts_and_witnesses(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4))
        for stage in reduce_net_traced(net)[1]:
            unmerged = prune_locked(build_sq_unreduced(stage.net, stage.sq.epsilon)).lts
            assert reachable_labels(stage.sq.lts) == reachable_labels(unmerged)
            edges = edges_of(stage.sq.lts)
            assert len(set(edges)) == len(edges)
        try:
            report = equivalence_suite(net, cap=5_000)
        except OracleTooLarge:
            return
        assert report.disagreements == 0
        holds = sum(r.reduced_holds for r in report.propositions)
        assert report.witnesses_lifted == report.witnesses_checked == holds


class TestCompletion:
    def test_identity_without_root_upacts(self, gx):
        sq = build_sq(gx)
        comp = cmpl(sq)
        lts = component_lts(comp)
        assert lts.n_states == sq.lts.n_states
        assert set(zip(lts.src, lts.act, lts.dst)) == set(zip(sq.lts.src, sq.lts.act, sq.lts.dst))

    def test_embedded_beep_is_retargeted(self, gx):
        # treat the network as a subtree whose parent synchronises on beep
        r, s1, s2 = gx.components
        net = two_level_network(r, [s1, s2], [gx.upacts[1], gx.upacts[2]],
                                root_upacts=frozenset({"beep"}))
        sq = build_sq(net)
        comp = cmpl(sq)
        beeps = [t for t in comp.transitions if t[1] == "beep"]
        assert len(beeps) == 4
        assert all(dst == comp.initial for _, _, dst in beeps)
        sources = {
            str(sq.lts.payloads[int(src[1:])]) for src, _, _ in beeps
        }
        assert sources == {"(s0,r3)#1", "(t0,r3)#2", "(t1,r3)#2", "(t2,r3)#2"}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_completion_is_live_reset(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=3, max_states=4))
        if len(net.components) == 1:
            return
        # embed under a fictitious parent sharing one root action
        root_act = sorted(net.root.acts - net.silent - net.downacts[net.root_index])
        ups = frozenset(root_act[:1])
        kids = net.children[net.root_index]
        net = two_level_network(net.root, [net.components[k] for k in kids],
                                [net.upacts[k] for k in kids], ups, net.silent)
        comp = cmpl(build_sq(net))
        embedded = two_level_network(comp, [], [], ups, net.silent)
        assert validate_live_reset(embedded) == []


class TestReduceNet:
    def test_leaf_is_returned_unchanged(self):
        c = Component("c", ("s0", "s1"), "s0", (("s0", "a", "s1"),))
        net = infer_topology([c], "c")
        assert reduce_net(net) is c

    def test_gx_reduces_to_its_pruned_squares(self, gx):
        comp = reduce_net(gx)
        sq = build_sq(gx)
        assert sq.lts.n_states == 12
        # only at r3 do both copies of home, (s0,r3)#1 and (t0,r3)#2, survive
        # pruning (GX_LOCKED); they merge into one state
        assert len(comp.states) == 11
        assert validate_live_reset(infer_topology([comp], comp.name, silent=gx.silent)) == []

    def test_chain_matches_the_oracle_for_every_proposition(self, chain_net):
        comp, stages = reduce_net_traced(chain_net)
        assert len(stages) == 2  # two internal nodes: B then A
        lts = component_lts(comp)
        _, reach, _, labels = naive_product(chain_net.components, chain_net.silent)
        for prop in chain_net.propositions():
            assert check_ef(lts, prop).holds == naive_ef(reach, labels, prop)

    def test_only_the_top_stage_builds_its_squares(self, chain_net, monkeypatch):
        calls = []
        original = reduction_module._squares

        def counting(net, epsilon):
            calls.append(net.root.name)
            return original(net, epsilon)

        monkeypatch.setattr(reduction_module, "_squares", counting)
        for net, top in ((ring_chain(6), "n0"), (chain_net, "A"), (all_locked_tree(), "t")):
            calls.clear()
            reduce_net(net)
            assert calls == [top]
        # an inner stage builds its network on first access, and its
        # squares once, when they are first read
        calls.clear()
        _, stages = reduce_net_traced(ring_chain(6))
        inner = stages[0]
        assert inner.net.root.name == "n4" and len(inner.blocks) == 2 and calls == ["n0"]
        sq = inner.sq
        assert inner.sq is sq and inner.unpruned_states and not inner.deleted
        assert calls == ["n0", "n4"]

    def test_the_pipeline_builds_no_unmerged_squares(self, monkeypatch):
        # the reference construction puts one handoff into every square, so
        # 2,000 leaves would give 2,000 x 2,000 handoff edges
        def unused(*args):
            raise AssertionError("the pipeline builds its squares in one pass")

        for name in ("build_sq_unreduced", "build_sq", "prune_locked"):
            monkeypatch.setattr(reduction_module, name, unused)
        _, stages = reduce_net_traced(ring_tree([None] + [0] * 2000))
        for stage in stages:
            size = sum(len(c.states) + len(c.transitions) for c in stage.net.components)
            assert stage.unpruned_states == 2001
            assert stage.sq.lts.n_states == 2
            assert len(stage.sq.lts.src) <= 2 * size

    def test_stages_are_post_order_in_network_order(self):
        # n0 has children n1 and n4; n1 has n2, which has n3; n4 has n5
        net = ring_tree([None, 0, 1, 2, 0, 4])
        _, stages = reduce_net_traced(net)
        assert [stage.sq.root_name for stage in stages] == ["n2", "n1", "n4", "n0"]
        assert [stage.sq.epsilon for stage in stages] == ["eps0"] * 4

    def test_no_fresh_hidden_name_where_nothing_hides(self):
        # every square of r is locked, so its summary has no moves; neither
        # stage lists a silent name the network does not declare
        net = all_locked_tree()
        net = infer_topology(net.components, net.root.name, silent=frozenset())
        _, stages = reduce_net_traced(net)
        assert not stages[0].result.acts
        assert stages[0].net.silent == frozenset()
        assert stages[1].net.silent == frozenset()

    def test_one_epsilon_name_is_registered_for_every_level(self, chain_net):
        _, stages = reduce_net_traced(chain_net)
        assert [stage.sq.epsilon for stage in stages] == ["eps0", "eps0"]
        # the inner stage's result moves on its upact only, and the
        # network's silent tau stays silent at the outer stage
        assert stages[0].result.acts <= {"tau", "x"}
        assert "tau" in stages[-1].net.silent
        # a name the network uses is not taken
        a, b, c = chain_net.components
        a = Component(a.name, a.states, a.initial, a.transitions + (("a0", "eps0", "a0"),))
        taken = infer_topology([a, b, c], "A")
        assert {stage.sq.epsilon for stage in reduce_net_traced(taken)[1]} == {"eps0_1"}

    def test_the_glue_name_avoids_a_declared_upact_nobody_fires(self):
        # cmpl retargets every root upact to the initial state, so a glue
        # step under the root's unfired upact eps0 would loop there and cut
        # the root off from p
        root = Component("r", ("r0", "r1"), "r0", [("r0", "go", "r1")], {"r1": {"p"}})
        child = Component("c", ("c0",), "c0", [("c0", "go", "c0")])
        net = two_level_network(root, [child], [frozenset({"go"})],
                                root_upacts=frozenset({"eps0"}))
        assert validate_live_reset(net) == [] and check_ef(full_product(net), "p").holds
        component, stages = reduce_net_traced(net)
        assert stages[0].sq.epsilon == build_sq(net).epsilon == "eps0_1"
        for lts in (component_lts(component), reduced_lts(component, stages),
                    component_lts(cmpl(build_sq(net)))):
            assert check_ef(lts, "p").holds
        for name in ("eps0", "tau"):  # declared, silent
            with pytest.raises(ValidationError, match=f"^epsilon name '{name}' collides"):
                build_sq_unreduced(net, epsilon=name)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_size_bound_at_every_stage(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=3, max_states=5))
        _, stages = reduce_net_traced(net)
        for stage in stages:
            unreduced = build_sq_unreduced(stage.net, epsilon=stage.sq.epsilon)
            n = len(stage.net.components)
            m = max(len(c.states) for c in stage.net.components)
            assert unreduced.lts.n_states <= (n - 1) * m * m + 1
            assert stage.sq.lts.n_states <= unreduced.lts.n_states

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_handoffs_land_on_child_initial_states(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=3, max_states=4))
        if len(net.components) == 1:
            return
        sq = build_sq_unreduced(net)
        for d, movers in zip(sq.lts.dst, sq.lts.movers):
            if len(movers) == 2:  # a handoff moves the child and the root
                dst = sq.lts.payloads[d]
                assert dst.child_state == net.components[dst.child_index].initial


class TestQuotient:
    def test_silent_cycle_collapses_with_its_labels(self):
        c = Component(
            "c", ("s0", "s1", "s2"), "s0",
            (("s0", "t", "s1"), ("s1", "l", "s0"), ("s1", "up", "s0"), ("s0", "t", "s2")),
            labels={"s0": frozenset({"q"}), "s1": frozenset({"p"}), "s2": frozenset({"r"})},
        )
        view, block = _contract(c, frozenset({"up"}))
        got = _named(view)
        assert block == (0, 0, 1)
        assert got.states == ("q0", "q1")
        assert got.transitions == (("q0", "t", "q1"), ("q0", "up", "q0"))
        assert got.labels == {"q0": frozenset({"p", "q"}), "q1": frozenset({"r"})}

    def test_blocks_follow_state_positions(self):
        # the initial state is declared last; Tarjan's pass finishes the
        # silent sink s0 first, yet the cycle holding position 0 is q0
        c = Component("c", ("s2", "s1", "s0"), "s0",
                      (("s2", "a", "s1"), ("s1", "b", "s2"), ("s1", "c", "s0"),
                       ("s0", "up", "s2")))
        view, block = _contract(c, frozenset({"up"}))
        got = _named(view)
        assert block == (0, 0, 1)
        assert got.initial == "q1"
        assert got.transitions == (("q0", "c", "q1"), ("q1", "up", "q0"))

    def test_block_map_is_taken_after_scc_contraction(self):
        # s1 and s2 form a silent cycle; s3 behaves like their block but
        # is not on the cycle, so it stays a block of its own
        c = Component(
            "c", ("s0", "s1", "s2", "s3"), "s0",
            (("s0", "go", "s1"), ("s0", "go", "s3"), ("s1", "t", "s2"), ("s2", "t", "s1"),
             ("s1", "up", "s0"), ("s3", "up", "s0")))
        view, block = _contract(c, frozenset({"go", "up"}))
        got = _named(view)
        assert block == (0, 1, 1, 2)
        assert got.transitions == (("q0", "go", "q1"), ("q0", "go", "q2"),
                                   ("q1", "up", "q0"), ("q2", "up", "q0"))

    def test_a_component_without_silent_cycles_is_returned_as_it_is(self):
        # s1 and s2 move alike, but no silent cycle merges anything
        c = Component(
            "c", ("s0", "s1", "s2"), "s0",
            (("s0", "t", "s1"), ("s0", "t", "s2"), ("s1", "up", "s0"), ("s2", "up", "s0"),
             ("s1", "t", "s1")))
        assert _contract(c, frozenset({"up"})) is None

    @pytest.mark.parametrize("c", [
        Component("c", ("s0",), "s0", (("s0", "t", "s0"),)),
        # states that move alike, but every action is visible
        Component("c", ("s0", "s1"), "s0", (("s0", "up", "s1"), ("s1", "up", "s0"))),
    ], ids=["one-state", "all-visible"])
    def test_a_single_state_or_all_visible_component_is_returned_as_it_is(self, c):
        assert _contract(c, frozenset({"up"})) is None

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(1, 6),
           st.sampled_from([0.3, 0.6, 1.0]), st.integers(0, 6))
    def test_blocks_are_silent_sccs(self, seed, states, density, ring):
        # a tau ring through the first ``ring`` states of every component:
        # through all of them, it makes the component one silent SCC
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=2,
                                        max_states=states, density=density))
        note(save_string(net))
        assert "tau" in net.silent
        for i, c in enumerate(net.components):
            visible = net.upacts[i] | net.downacts[i]
            cycle = c.states[:ring]
            c = replace(c, transitions=c.transitions + tuple(
                (s, "tau", t) for s, t in zip(cycle, cycle[1:] + cycle[:1])))
            view, block = _contract(c, visible) or (None, None)
            if block is not None:
                got = _named(view)
                # a quotient on c's own alphabet: every move keeps its action,
                # and only hidden moves inside one block go
                assert got.acts <= c.acts
                assert {(got.index[s], a, got.index[d]) for s, a, d in got.transitions} == {
                    (block[s], a, block[d]) for s, out in enumerate(c.succ) for a, d in out
                    if a in visible or block[s] != block[d]}
                if len(got.states) == 1:
                    # one block: every label, and a self-loop per visible action, sorted
                    assert block == (0,) * len(c.states)
                    assert got.labels.get("q0", frozenset()) == frozenset().union(
                        *c.labels.values())
                    assert got.transitions == tuple(
                        ("q0", a, "q0") for a in sorted(c.acts & visible))
            block = range(len(c.states)) if block is None else block
            hidden = [[d for a, d in out if a not in visible] for out in c.succ]
            # members of a block reach each other by hidden moves inside it
            for s, b in enumerate(block):
                inside = [[d for d in out if block[d] == b] for out in hidden]
                assert {t for t in range(len(block)) if block[t] == b} <= reached(inside, s)
            # states of different blocks are not mutually reachable
            reach = [reached(hidden, s) for s in range(len(block))]
            for s, t in combinations(range(len(block)), 2):
                if block[s] != block[t]:
                    assert not (t in reach[s] and s in reach[t]), (c.name, s, t)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_every_stage_of_deeper_trees(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4, max_children=2, max_states=4))
        _, stages = reduce_net_traced(net)
        for stage in stages:
            result, ups = stage.result, stage.sq.root_upacts
            embedded = two_level_network(result, [], [], ups, stage.net.silent)
            assert validate_live_reset(embedded) == []
            assert len(result.states) <= len(cmpl(stage.sq).states)
            sub = subnetwork(net, net.index_of(stage.sq.root_name))
            if prod(len(c.states) for c in sub.components) > ORACLE_CAP:
                continue
            full, lts = full_product(sub), component_lts(result)
            for prop in sub.propositions():
                assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop
            if stage is not stages[-1]:
                # the summary: one state with the subtree's reachable labels
                # and a self-loop on each root upact the subtree fires
                assert len(result.states) == 1
                assert result.label_of(result.initial) == frozenset().union(*full.labels)
                assert {a for _, a, _ in result.transitions} == ups & set(full.act)

    def test_deep_ring_chain_reduces_below_its_product(self):
        net = ring_chain(6)
        full = full_product(net)
        assert full.n_states == 4**6
        lts = component_lts(reduce_net(net))
        assert lts.n_states < full.n_states
        for prop in net.propositions():
            assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop

    def test_two_thousand_level_chain_is_checked(self, tmp_path, capsys):
        net = ring_chain(2000, labelled={1999})
        path = tmp_path / "chain.json"
        save(net, path)
        assert main(["check", str(path), "--ef", "p1999", "--reduced"]) == 0
        assert "HOLDS" in capsys.readouterr().out


#: Graphs of 0 to 12 nodes as successor lists; repeats are parallel edges,
#: ``v`` among the successors of ``v`` a self-loop, an empty list a sink.
GRAPHS = st.integers(0, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=4) if n else st.nothing(),
    min_size=n, max_size=n))


class TestIntegerCore:
    @settings(max_examples=200, deadline=None)
    @given(GRAPHS)
    def test_sccs_are_the_mutually_reachable_nodes(self, succ):
        scc = reduction_module._sccs(succ)
        reach = [closure(succ, [v]) for v in range(len(succ))]
        for v, u in combinations(range(len(succ)), 2):
            assert (scc[v] == scc[u]) == (u in reach[v] and v in reach[u]), (v, u)
        assert sorted(set(scc)) == list(range(len(set(scc))))

    @settings(max_examples=100, deadline=None)
    @given(GRAPHS.filter(len))
    def test_quotient_ranks_blocks_by_their_first_position(self, succ):
        # every move hidden: the blocks are the silent SCCs, and block b is
        # the (b + 1)-th new one met in state position order
        names = [f"s{v}" for v in range(len(succ))]
        c = Component("c", names, "s0",
                      [(names[v], "t", names[w]) for v, out in enumerate(succ) for w in out])
        contracted = _contract(c, frozenset())
        scc = reduction_module._sccs(succ)
        if contracted is None:
            assert len(set(scc)) == len(succ)
            return
        view, block = contracted
        assert list(dict.fromkeys(block)) == list(range(len(view.states)))
        for v, u in combinations(range(len(succ)), 2):
            assert (block[v] == block[u]) == (scc[v] == scc[u]), (v, u)

    def test_the_verdict_path_names_only_the_completed_component(self, monkeypatch):
        # every ring contracts to one state, and no contraction is named
        named = []
        original = reduction_module.flat_component

        def naming(*args):
            named.append(sys._getframe(1).f_code.co_name)
            return original(*args)

        monkeypatch.setattr(reduction_module, "flat_component", naming)
        reduce_net(ring_tree([None, 0, 0, 0]))
        assert named == ["cmpl"]

    @pytest.mark.parametrize("nets", [
        lambda: [ring_chain(6)],
        lambda: [ring_tree([None, 0, 0, 1, 1, 2, 2])],
        lambda: [gen_random_tree(GenConfig(seed=seed, max_depth=4)) for seed in range(40)],
    ], ids=["chain", "balanced", "random"])
    def test_the_verdict_path_of_a_deep_tree_names_one_component(self, nets, monkeypatch):
        # inner children enter the top stage as views of their summaries
        named = []
        original = reduction_module.flat_component

        def naming(*args):
            named.append(sys._getframe(1).f_code.co_name)
            return original(*args)

        nets = nets()
        monkeypatch.setattr(reduction_module, "flat_component", naming)
        for k, net in enumerate(nets):
            named.clear()
            reduce_net(net)
            assert named == ["cmpl"], k
        monkeypatch.setattr(reduction_module, "flat_component", original)
        # reading the inner stages afterwards builds what their squares show
        assert sum(map(assert_inner_summaries_match_their_squares, nets)) >= len(nets)

    @pytest.mark.parametrize("make", [
        lambda: ring_tree([None, 0, 1, 0]),
        lambda: gen_random_tree(GenConfig(seed=3, max_depth=3, max_children=2, max_states=5,
                                          density=1.0)),
    ], ids=["rings", "random"])
    def test_each_stage_input_is_contracted_once(self, make, monkeypatch):
        calls = []
        original = reduction_module._contract

        def counting(component, visible):
            calls.append(component.name)
            return original(component, visible)

        monkeypatch.setattr(reduction_module, "_contract", counting)
        _, stages = reduce_net_traced(make())
        for stage in stages:
            stage.net, stage.blocks, stage.sq, stage.net, stage.blocks
        # inner children enter as their summaries, which are never contracted
        assert sorted(calls) == sorted(
            c.name for stage in stages
            for i, c in zip((stage.node, *stage.tree.children[stage.node]), stage.originals)
            if i == stage.node or not stage.tree.children[i])
        monkeypatch.setattr(reduction_module, "_contract", original)
        # the stage network holds each input as it is or its contraction, named
        for stage in stages:
            tree, kids = stage.tree, stage.tree.children[stage.node]
            for i, c, got in zip((stage.node, *kids), stage.originals, stage.net.components):
                contracted = _contract(c, tree.upacts[i] | tree.downacts[i])
                assert got == (c if contracted is None else _named(contracted[0])), c.name
        assert any(b is not None for stage in stages for b in stage.blocks)

    def test_reduce_adds_few_tracked_objects_per_leaf(self):
        # every object the cyclic collector tracks is walked by each full
        # collection; the reduction of a ring wide adds about 8 per leaf.
        # The network and the result stay alive through the second count.
        leaves = 2000
        net = ring_tree([None] + [0] * leaves, states=10)
        gc.collect()
        before = len(gc.get_objects())
        result = reduce_net_traced(net)
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added <= 9 * leaves, added / leaves


def test_a_component_has_every_field_of_a_view(gx, gy):
    for c in gx.components + gy.components:
        assert set(reduction_module._View._fields) <= set(dir(c))
        assert c.init == c.states.index(c.initial)
        assert c.state_labels == tuple(c.labels.get(s, frozenset()) for s in c.states)


def test_an_uncontracted_stage_input_is_the_component_itself(gx):
    # no component of gx has a silent cycle, so each enters the squares as it is
    (stage,) = reduce_net_traced(gx)[1]
    assert [c.name for c in gx.components] == ["R", "S1", "S2"]
    for i, c in enumerate(gx.components):
        view, blocks = stage._input(i)
        assert view is c and blocks is None, c.name


def test_an_inner_stage_result_equals_its_entry_in_the_parent_stage():
    # each reads the summary pass and names its own copy of the summary
    net = ring_tree([None, 0, 1, 1, 0])
    stages = reduce_net_traced(net)[1]
    at = {stage.node: stage for stage in stages}
    assert [stage.node for stage in stages[:-1]] == [1]
    for stage in stages[:-1]:
        parent = at[net.parent[stage.node]]
        entry = parent.originals[1 + net.children[parent.node].index(stage.node)]
        assert stage.result == entry, stage.result.name


def reached(succ, start):
    """The nodes of the graph ``succ`` reachable from ``start``."""
    seen, todo = {start}, [start]
    while todo:
        for d in succ[todo.pop()]:
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return seen


def summary_of_squares(sq):
    """The one-state summary read off a stage's squares: every label they
    carry, and a self-loop on each root upact some transition takes."""
    loops = [(0, a, 0) for a in sorted(sq.root_upacts.intersection(sq.lts.act))]
    return flat_component(sq.root_name, 0, loops, [frozenset().union(*sq.lts.labels)])


def assert_inner_summaries_match_their_squares(net):
    # summaries do not depend on pruning: the unpruned squares show the same
    _, stages = reduce_net_traced(net)
    for stage in stages[:-1]:
        assert stage.result == summary_of_squares(stage.sq), stage.result.name
        unpruned = build_sq_unreduced(stage.net, stage.sq.epsilon)
        assert stage.result == summary_of_squares(unpruned), stage.result.name
    return len(stages) - 1


class TestSummary:
    """Below the top, a reduced subtree enters its parent's stage as one
    state.  The non-ring shapes have no silent cycle to pre-minimise, so
    a strong-bisimulation quotient of each completed stage grows with the
    depth of the subtree below it."""

    @pytest.mark.parametrize("shape", [
        ACCEPTANCE_SHAPE,
        dict(max_depth=5, max_children=2, max_states=4, density=0.6),
    ], ids=["acceptance", "depth5"])
    def test_inner_summaries_equal_what_their_squares_show(self, shape):
        inner = sum(assert_inner_summaries_match_their_squares(
            gen_random_tree(GenConfig(seed=seed, **shape))) for seed in range(600))
        assert inner > 600

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(1, 3), st.integers(1, 5),
           st.sampled_from([0.3, 0.6, 1.0]))
    def test_inner_summaries_of_deeper_trees(self, seed, children, states, density):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4, max_children=children,
                                        max_states=states, density=density))
        note(save_string(net))  # a failing network, as a file ``treelts`` loads
        assert_inner_summaries_match_their_squares(net)

    @pytest.mark.parametrize("shape", [
        ACCEPTANCE_SHAPE,
        dict(max_depth=5, max_children=2, max_states=3, density=0.6),
    ], ids=["acceptance", "depth5"])
    def test_root_labels_decide_reachability(self, shape):
        checked = 0
        for seed in range(200):
            net = gen_random_tree(GenConfig(seed=seed, **shape))
            if prod(len(c.states) for c in net.components) > ORACLE_CAP:
                continue
            labels = summaries(net)[net.root_index][0]
            full = full_product(net)
            for prop in net.propositions():
                assert check_ef(full, prop).holds == (prop in labels), (seed, prop)
                checked += 1
        assert checked > 400

    @pytest.mark.parametrize("net", [
        ring_chain(5, ring=False), ring_tree([None, 0, 0, 1, 1, 2, 2], ring=False),
    ], ids=["chain5", "balanced3"])
    def test_root_labels_decide_reachability_on_shapes(self, net):
        labels = summaries(net)[net.root_index][0]
        full = full_product(net)
        assert {p for p in net.propositions() if check_ef(full, p).holds} == labels

    def test_two_thousand_level_non_ring_chain_keeps_one_state_per_inner_stage(self):
        labelled = {0, 1000, 1999}
        net = ring_chain(2000, labelled=labelled, ring=False)
        component, stages = reduce_net_traced(net)
        assert len(stages) == 1999
        assert all(len(stage.result.states) == 1 for stage in stages[:-1])
        # every component walks its tau path to its labelled last state alone
        lts = reduced_lts(component, stages)
        assert net.propositions() == ("p0", "p1000", "p1999")
        for prop in net.propositions():
            assert check_ef(lts, prop).holds, prop

    def test_a_labelled_deep_chain_stays_linear_in_memory(self):
        # each inner node reaches the labels of all below it: held as sets,
        # the summaries of a chain grow with the square of its depth
        net = ring_chain(2000, ring=False)
        gc.collect()
        tracemalloc.start()
        try:
            _, stages = reduce_net_traced(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stages) == 1999
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("net", [
        ring_chain(6, ring=False),
        ring_tree([None, 0, 0, 1, 1, 2, 2], ring=False),
    ], ids=["chain6", "balanced3"])
    def test_non_ring_shapes_agree_with_the_full_product(self, net):
        _, stages = reduce_net_traced(net)
        assert all(block is None for stage in stages for block in stage.blocks)
        assert_agrees_with_the_full_product(net)


def load_families():
    """``perfbench/families.py``, imported by path without writing bytecode."""
    path = Path(__file__).parent.parent / "perfbench" / "families.py"
    spec = importlib.util.spec_from_file_location("perfbench_families", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


FAMILIES = load_families()


def without_rings(net):
    """``net`` from ``FAMILIES.ring_network`` with every ``s_k -tau->
    s_{k+1}`` ring edge left out."""
    comps = []
    for c in net.components:
        names = [s for s in c.states if s != "limbo"]
        ring = {(s, "tau", t) for s, t in zip(names, names[1:] + names[:1])}
        comps.append(Component(c.name, c.states, c.initial,
                               tuple(t for t in c.transitions if t not in ring), labels=c.labels))
    return infer_topology(comps, net.components[net.root_index].name, silent=net.silent)


def assert_agrees_with_the_full_product(net):
    full = full_product(net)
    lts = component_lts(reduce_net(net))
    for prop in net.propositions():
        assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop


class TestInterfacePreminimisation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_deep_trees_agree_with_the_full_product(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4, max_children=2, max_states=4))
        if prod(len(c.states) for c in net.components) <= ORACLE_CAP:
            assert_agrees_with_the_full_product(net)

    @pytest.mark.parametrize("net", [
        ring_tree([None] + [0] * 5),
        ring_tree([None, 0, 0, 1, 1, 2]),
        ring_tree([None, 0, 1, 1, 0], states=5, labelled={2, 4}),
        ring_chain(3),
        ring_chain(6, labelled={5}),
    ], ids=["wide", "balanced", "mixed", "chain3", "chain6"])
    def test_ring_shapes_agree_with_the_full_product(self, net):
        _, stages = reduce_net_traced(net)
        # every ring is one silent cycle: each root and leaf merges
        for stage in stages:
            for c, block in zip(stage.originals, stage.blocks):
                assert (block is not None) == (c in net.components)
        assert_agrees_with_the_full_product(net)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["chain", "balanced"]),
           st.integers(2, 3), st.integers(2, 4), st.sampled_from([0.5, 1.0]))
    def test_partial_silent_cycles_agree_with_the_full_product(
            self, seed, shape, levels, states, density):
        # random tau edges close cycles over part of a component only
        rng = random.Random(seed)
        parents = (FAMILIES.chain_shape(levels) if shape == "chain"
                   else FAMILIES.balanced_shape(levels, rng))
        net = without_rings(FAMILIES.ring_network(parents, states, rng, density=density))
        note(save_string(net))
        try:
            report = equivalence_suite(net, cap=ORACLE_CAP)
        except OracleTooLarge:
            reject()  # a few three-level balanced draws
        assert report.disagreements == 0
        assert report.witnesses_lifted == report.witnesses_checked

    def test_stage_networks_hold_the_minimised_components(self):
        net = ring_tree([None, 0, 0], states=3)
        _, (stage,) = reduce_net_traced(net)
        assert stage.originals == net.components
        assert stage.blocks == ((0, 0, 0),) * 3
        assert [len(c.states) for c in stage.net.components] == [1, 1, 1]
        # the glue state, and the copies (q0,q0)#1 and (q0,q0)#2 of home merged
        assert stage.sq.lts.n_states == 2

    def test_nothing_is_made_silent_when_none_is_declared(self, tmp_path):
        root = Component("r", ("r0", "r1"), "r0",
                         (("r0", "loop", "r1"), ("r1", "loop", "r0"), ("r1", "u", "r1")))
        leaf = Component("c", ("c0", "c1", "c2"), "c0",
                         (("c0", "step", "c1"), ("c1", "step", "c0"), ("c1", "u", "c0"),
                          ("c0", "exit", "c2"), ("c2", "u", "c0")),
                         labels={"c1": frozenset({"p"}), "c2": frozenset({"q"})})
        net = infer_topology([root, leaf], "r", silent=frozenset())
        _, (stage,) = reduce_net_traced(net)
        assert stage.net.silent == frozenset()
        assert stage.blocks == ((0, 0), (0, 0, 1))
        # the contracted leaf keeps its hidden move into c2 under its own name
        assert {a for c in stage.net.components for a in c.acts} == {"exit", "u"}
        src, out = tmp_path / "net.json", tmp_path / "out.json"
        save(net, src)
        assert main(["reduce", str(src), "-o", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["silent"] == ["eps0"]
        assert_agrees_with_the_full_product(net)

    def test_components_that_merge_nothing_are_kept(self, gx):
        _, (stage,) = reduce_net_traced(gx)
        assert stage.net.components == stage.originals == gx.components
        assert stage.blocks == (None, None, None)
        assert stage.net.silent == gx.silent

    def test_lone_component_is_returned_as_it_is(self):
        net = ring_tree([None])
        component, stages = reduce_net_traced(net)
        assert component is net.components[0] and stages == ()


class TestFullPipelineAgainstProduct:
    def test_gx_every_root_state_labelled(self, gx):
        r, s1, s2 = gx.components
        labelled = Component(
            "R", r.states, r.initial, r.transitions,
            labels={s: frozenset({f"at_{s}"}) for s in r.states})
        net = infer_topology([labelled, s1, s2], "R")
        lts = component_lts(reduce_net(net))
        full = full_product(net)
        for prop in net.propositions():
            assert check_ef(lts, prop).holds == check_ef(full, prop).holds


class TestReducedLts:
    """``check --reduced`` checks ``reduced_lts``, the benchmark's verdict
    path ``component_lts`` of the reduced component: both answer alike."""

    @staticmethod
    def reduce_and_compare(net):
        component, stages = reduce_net_traced(net)
        lts, flat = reduced_lts(component, stages), component_lts(component)
        for prop in [*net.propositions(), "never_heard_of_it"]:
            assert check_ef(lts, prop) == check_ef(flat, prop), prop
            assert check_eg(lts, prop, Entry.EPSILON_TRANSPARENT) == \
                check_eg(flat, prop, Entry.EPSILON_TRANSPARENT), prop
        return lts, stages

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_trees_are_checked_on_the_top_squares(self, seed):
        lts, stages = self.reduce_and_compare(
            gen_random_tree(GenConfig(seed=seed, max_depth=4)))
        assert lts is stages[-1].sq.lts

    @pytest.mark.parametrize("make", [
        lambda: ring_chain(5), lambda: ring_tree([None, 0, 1, 1, 0]),
        lambda: ring_tree([None] + [0] * 5), all_locked_tree,
    ], ids=["ring-chain", "ring-tree", "wide", "all-locked"])
    def test_shapes_are_checked_on_the_top_squares(self, make):
        lts, stages = self.reduce_and_compare(make())
        assert lts is stages[-1].sq.lts

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_subnetworks_are_checked_and_lifted_on_the_top_squares(self, seed):
        # an inner node's subnetwork keeps its root's upacts
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4, max_children=2, max_states=4))
        for i, kids in enumerate(net.children):
            if i == net.root_index or not kids:
                continue
            sub = subnetwork(net, i)
            if prod(len(c.states) for c in sub.components) > ORACLE_CAP:
                continue
            report = equivalence_suite(sub, cap=ORACLE_CAP)
            assert report.disagreements == 0
            holds = sum(r.reduced_holds for r in report.propositions)
            assert report.witnesses_lifted == report.witnesses_checked == holds

    def test_a_lone_component_is_its_own_graph(self):
        lts, stages = self.reduce_and_compare(ring_tree([None]))
        assert stages == () and lts.payloads[lts.initial] == GlobalTuple(("s0",))

    def test_a_root_with_upacts_is_checked_on_the_top_squares(self):
        # n1 keeps u1, shared with n0 in the full chain, as a declared upact:
        # the squares move on it in place, as the subnetwork's product does
        net = ring_chain(3)
        sub = subnetwork(net, net.index_of("n1"))
        component, stages = reduce_net_traced(sub)
        lts, full = reduced_lts(component, stages), full_product(sub)
        assert stages[-1].sq.root_upacts == {"u1"}
        assert lts is stages[-1].sq.lts
        for prop in sub.propositions():
            assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop
        prefix = lift_witness(stages[-1], check_ef(lts, "p2").witness, "p2")
        assert "p2" in full.labels[resolve_prefix(full, prefix).states[-1]]
