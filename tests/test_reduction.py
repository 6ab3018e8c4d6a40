"""The square construction, locked-state pruning, completion, and the
bottom-up reduction."""

import gc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelts import (
    Component,
    Entry,
    FreshInit,
    GenConfig,
    GlobalTuple,
    NotTwoLevel,
    SquareOrigin,
    ValidationError,
    build_sq,
    build_sq_unreduced,
    check_ef,
    check_eg,
    cmpl,
    component_lts,
    compute_locked,
    full_product,
    gen_random_tree,
    infer_topology,
    prune_locked,
    reduce_net,
    reduce_net_traced,
    reduced_lts,
    subnetwork,
    two_level_network,
    validate_live_reset,
)
from treelts import reduction as reduction_module
from treelts.cli import main, save
from treelts.reduction import quotient
from oracles import naive_ef, naive_product
from shapes import all_locked_tree, ring_chain, ring_tree

#: Largest product of subtree component sizes the per-stage oracle builds.
ORACLE_CAP = 20_000


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
        assert len(comp.states) == sq.lts.n_states == 12
        assert validate_live_reset(infer_topology([comp], comp.name, silent=gx.silent)) == []

    def test_chain_matches_the_oracle_for_every_proposition(self, chain_net):
        comp, stages = reduce_net_traced(chain_net)
        assert len(stages) == 2  # two internal nodes: B then A
        lts = component_lts(comp)
        _, reach, _, labels = naive_product(chain_net.components, chain_net.silent)
        for prop in chain_net.propositions():
            assert check_ef(lts, prop).holds == naive_ef(reach, labels, prop)

    def test_one_build_sq_call_per_internal_node(self, chain_net, monkeypatch):
        calls = []
        original = reduction_module.build_sq_unreduced

        def counting(net, epsilon=None):
            calls.append(net.root.name)
            return original(net, epsilon)

        monkeypatch.setattr(reduction_module, "build_sq_unreduced", counting)
        reduce_net(chain_net)
        assert sorted(calls) == ["A", "B"]
        # every square is locked at both stages: the fallback to the bare
        # glue state reuses the squares already built
        calls.clear()
        reduce_net(all_locked_tree())
        assert sorted(calls) == ["r", "t"]

    def test_keep_locked_mode_skips_pruning(self, gx):
        comp, stages = reduce_net_traced(gx, prune=False)
        assert len(comp.states) == 21
        assert all(stage.deleted == 0 for stage in stages)
        assert stages[-1].sq.lts.n_states == 21

    def test_stages_are_post_order_in_network_order(self):
        # n0 has children n1 and n4; n1 has n2, which has n3; n4 has n5
        net = ring_tree([None, 0, 1, 2, 0, 4])
        _, stages = reduce_net_traced(net)
        assert [stage.sq.root_name for stage in stages] == ["n2", "n1", "n4", "n0"]
        assert [stage.sq.epsilon for stage in stages] == ["eps0"] * 4

    def test_hidden_name_is_silent_even_when_unused(self):
        # every square of r is locked, so its reduced component is the bare
        # glue state and does not use the fresh name reduced children hide
        # their moves under; the stage it enters still lists that name
        net = all_locked_tree()
        net = infer_topology(net.components, net.root.name, silent=frozenset())
        _, stages = reduce_net_traced(net)
        assert not stages[0].result.acts
        assert stages[0].net.silent == frozenset()
        assert stages[1].net.silent == {"tau"}

    def test_one_epsilon_name_is_registered_for_every_level(self, chain_net):
        _, stages = reduce_net_traced(chain_net)
        assert [stage.sq.epsilon for stage in stages] == ["eps0", "eps0"]
        # the inner stage's result hides its glue moves under tau, which is
        # silent at the outer stage
        assert stages[0].result.acts <= {"tau", "x"}
        assert "tau" in stages[-1].net.silent
        # a name the network uses is not taken
        a, b, c = chain_net.components
        a = Component(a.name, a.states, a.initial, a.transitions + (("a0", "eps0", "a0"),))
        taken = infer_topology([a, b, c], "A")
        assert {stage.sq.epsilon for stage in reduce_net_traced(taken)[1]} == {"eps0_1"}

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
        got, block = quotient(c, frozenset({"up"}), "e")
        assert block == (0, 0, 1)
        assert got.states == ("q0", "q1")
        assert got.transitions == (("q0", "e", "q1"), ("q0", "up", "q0"))
        assert got.labels == {"q0": frozenset({"p", "q"}), "q1": frozenset({"r"})}

    def test_bisimilar_states_merge_unless_labels_differ(self):
        def fan(labels):
            return Component(
                "c", ("s0", "s1", "s2"), "s0",
                (("s0", "x", "s1"), ("s0", "y", "s2"), ("s1", "up", "s0"), ("s2", "up", "s0")),
                labels=labels,
            )
        merged, block = quotient(fan({}), frozenset({"up"}), "e")
        assert merged.transitions == (("q0", "e", "q1"), ("q1", "up", "q0"))
        assert block == (0, 1, 1)
        split, block = quotient(fan({"s2": frozenset({"p"})}), frozenset({"up"}), "e")
        assert len(split.states) == 3
        assert block == (0, 1, 2)

    def test_blocks_follow_state_positions(self):
        # the initial state is declared last, the silent sink first
        c = Component("c", ("s2", "s1", "s0"), "s0",
                      (("s0", "a", "s1"), ("s1", "up", "s0"), ("s1", "b", "s2")))
        got, block = quotient(c, frozenset({"up"}), "e")
        assert block == (0, 1, 2)
        assert got.initial == "q2"
        assert got.transitions == (("q1", "e", "q0"), ("q1", "up", "q2"), ("q2", "e", "q1"))

    def test_block_map_is_taken_after_scc_contraction(self):
        # s1 and s2 form a silent cycle; s3 is bisimilar to their block
        c = Component(
            "c", ("s0", "s1", "s2", "s3"), "s0",
            (("s0", "go", "s1"), ("s0", "go", "s3"), ("s1", "t", "s2"), ("s2", "t", "s1"),
             ("s1", "up", "s0"), ("s3", "up", "s0")))
        got, block = quotient(c, frozenset({"go", "up"}), "e", keep=True)
        assert block == (0, 1, 1, 1)
        assert got.transitions == (("q0", "go", "q1"), ("q1", "up", "q0"))

    def test_keep_returns_a_component_without_silent_cycles_as_it_is(self):
        # s1 and s2 are bisimilar, but no silent cycle merges anything
        c = Component(
            "c", ("s0", "s1", "s2"), "s0",
            (("s0", "t", "s1"), ("s0", "t", "s2"), ("s1", "up", "s0"), ("s2", "up", "s0"),
             ("s1", "t", "s1")))
        assert quotient(c, frozenset({"up"}), "e", keep=True) == (c, None)
        got, block = quotient(c, frozenset({"up"}), "e")
        assert block == (0, 1, 1)
        assert got.transitions == (("q0", "e", "q1"), ("q1", "up", "q0"))

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

    def test_stage_networks_hold_the_minimised_components(self):
        net = ring_tree([None, 0, 0], states=3)
        _, (stage,) = reduce_net_traced(net)
        assert stage.originals == net.components
        assert stage.blocks == ((0, 0, 0),) * 3
        assert [len(c.states) for c in stage.net.components] == [1, 1, 1]
        assert stage.sq.lts.n_states == 3

    def test_a_fresh_silent_name_hides_moves_when_none_is_declared(self):
        root = Component("r", ("r0", "r1"), "r0",
                         (("r0", "loop", "r1"), ("r1", "loop", "r0"), ("r1", "u", "r1")))
        leaf = Component("c", ("c0", "c1", "c2"), "c0",
                         (("c0", "step", "c1"), ("c1", "step", "c0"), ("c1", "u", "c0"),
                          ("c0", "exit", "c2"), ("c2", "u", "c0")),
                         labels={"c1": frozenset({"p"}), "c2": frozenset({"q"})})
        net = infer_topology([root, leaf], "r", silent=frozenset())
        _, (stage,) = reduce_net_traced(net)
        assert stage.net.silent == {"tau"}
        assert stage.blocks == ((0, 0), (0, 0, 1))
        assert {a for c in stage.net.components for a in c.acts} == {"tau", "u"}
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

    def test_a_lone_component_is_its_own_graph(self):
        lts, stages = self.reduce_and_compare(ring_tree([None]))
        assert stages == () and lts.payloads[lts.initial] == GlobalTuple(("s0",))

    def test_a_root_with_upacts_falls_back_to_the_component(self):
        # n1 keeps u1, shared with n0 in the full chain, as a declared upact
        # whose transitions cmpl retargets
        net = ring_chain(3)
        lts, stages = self.reduce_and_compare(subnetwork(net, net.index_of("n1")))
        assert stages[-1].sq.root_upacts == {"u1"}
        assert lts is not stages[-1].sq.lts
        assert all(isinstance(p, GlobalTuple) for p in lts.payloads)
