"""Reachability and invariance checking, witnesses, and witness lifting."""

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelts import (
    Component,
    Entry,
    ExplicitLts,
    GenConfig,
    GlobalTuple,
    InvalidWitness,
    Path,
    SquareOrigin,
    build_sq,
    check_ef,
    check_eg,
    component_lts,
    full_product,
    gen_random_tree,
    infer_topology,
    lift_witness,
    prefix_of,
    reduce_net_traced,
    resolve_prefix,
)
from oracles import naive_ef, naive_eg, naive_product


def relabelled_gx(gx, state, prop):
    r, s1, s2 = gx.components
    labels = dict(r.labels)
    labels[state] = labels.get(state, frozenset()) | {prop}
    return infer_topology(
        [Component("R", r.states, r.initial, r.transitions, labels=labels), s1, s2], "R")


class TestCheckEf:
    def test_fixture_goal_on_the_full_product(self, gx):
        lts = full_product(gx)
        verdict = check_ef(lts, "r3_reached")
        _, reach, _, labels = naive_product(gx.components, gx.silent)
        assert verdict.holds == naive_ef(reach, labels, "r3_reached") is True
        assert resolve_prefix(lts, prefix_of(lts, verdict.witness)) == verdict.witness
        final = lts.payloads[verdict.witness.states[-1]]
        assert final.states[0] == "r3"

    def test_zero_length_witness_on_initial_label(self, gx):
        net = relabelled_gx(gx, "r0", "origin")
        lts = full_product(net)
        verdict = check_ef(lts, "origin")
        assert verdict.holds and len(verdict.witness) == 0

    def test_squares_agree_with_the_product(self, gx):
        net = relabelled_gx(gx, "r1", "mid")
        sq = build_sq(net)
        verdict = check_ef(sq.lts, "mid")
        assert verdict.holds
        final = sq.lts.payloads[verdict.witness.states[-1]]
        assert final.root_state == "r1"
        assert check_ef(full_product(net), "mid").holds
        # without the extra labelling the r1 square of S1 is pruned and the
        # proposition is reached through the other square
        plain = build_sq(gx)
        assert SquareOrigin(1, "s0", "r1") not in plain.lts.payloads
        assert SquareOrigin(2, "t0", "r1") in plain.lts.payloads

    def test_unknown_proposition_is_false_not_an_error(self, gx):
        assert check_ef(full_product(gx), "never_heard_of_it").holds is False

    @pytest.mark.parametrize("proposition", [5, None, b"r3", ["r3_reached"]])
    def test_a_proposition_that_is_no_string_is_named(self, gx, proposition):
        # no label set holds one: it must not read as a name found nowhere,
        # nor fail as an unhashable key
        lts = full_product(gx)
        for check in (check_ef, check_eg):
            with pytest.raises(TypeError) as info:
                check(lts, proposition)
            assert str(info.value) == f"proposition {proposition!r} is not a string"

    def test_witnesses_are_shortest(self, gx):
        lts = full_product(gx)
        verdict = check_ef(lts, "r3_reached")
        # r3 needs open at r2, r2 needs chooseL, chooseL needs t1:
        # open tau chooseL open is minimal
        assert len(verdict.witness) == 4
        assert verdict.witness.actions == ("open", "tau", "chooseL", "open")


class TestCheckEg:
    def test_gy_full_product_satisfies_eg(self, gy):
        lts = full_product(gy)
        verdict = check_eg(lts, "p")
        assert verdict.holds
        w = verdict.witness
        assert resolve_prefix(lts, prefix_of(lts, w)) == w
        assert all("p" in lts.labels[s] for s in w.states)
        assert w.states[-1] in w.states[:-1]  # the lasso closes

    def test_gy_oracle_agrees(self, gy):
        init, reach, trans, labels = naive_product(gy.components, gy.silent)
        assert naive_eg(init, reach, trans, labels, "p") is True

    def test_gy_reduced_fails_eg(self, gy):
        comp, _ = reduce_net_traced(gy)
        lts = component_lts(comp)
        assert check_eg(lts, "p", Entry.EPSILON_TRANSPARENT).holds is False
        # reachability of the same proposition is preserved
        assert check_ef(lts, "p").holds is True

    def test_self_loop_on_fully_labelled_component(self):
        c = Component("c", ("s0",), "s0", (("s0", "spin", "s0"),),
                      labels={"s0": frozenset({"p"})})
        verdict = check_eg(component_lts(c), "p")
        assert verdict.holds
        assert verdict.witness.states == (0, 0)

    def test_deadlock_fails_eg(self):
        c = Component("c", ("s0",), "s0", labels={"s0": frozenset({"p"})})
        assert check_eg(component_lts(c), "p").holds is False

    @pytest.mark.parametrize("entry", ["initial", "epsilon-transparent", None, True])
    def test_an_entry_that_is_no_entry_is_named(self, entry):
        # s0 is unlabelled and s1 loops on p: only EPSILON_TRANSPARENT holds,
        # which a value that is not INITIAL must not be taken for
        c = Component("c", ("s0", "s1"), "s0", (("s0", "a", "s1"), ("s1", "a", "s1")),
                      labels={"s1": {"p"}})
        lts = component_lts(c)
        assert check_eg(lts, "p", Entry.INITIAL).holds is False
        assert check_eg(lts, "p", Entry.EPSILON_TRANSPARENT).holds is True
        with pytest.raises(TypeError) as info:
            check_eg(lts, "p", entry)
        assert str(info.value) == f"entry {entry!r} is not an Entry"

    def test_eg_implies_ef(self, gy):
        lts = full_product(gy)
        for prop in gy.propositions():
            if check_eg(lts, prop).holds:
                assert check_ef(lts, prop).holds

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_eg_matches_the_fixpoint_oracle(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=2, max_states=4))
        lts = full_product(net, cap=50_000)
        init, reach, trans, labels = naive_product(net.components, net.silent)
        for prop in net.propositions():
            assert check_eg(lts, prop).holds == naive_eg(init, reach, trans, labels, prop)


class TestCheckerProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_verdicts_survive_state_renumbering(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=3, max_states=4))
        lts = full_product(net, cap=50_000)
        n = lts.n_states
        perm = [(i * 7919 + 13) % n for i in range(n)]
        if len(set(perm)) != n:  # 7919 not coprime with n; rotate instead
            perm = [(i + 1) % n for i in range(n)]
        inverse = [0] * n
        for old, new in enumerate(perm):
            inverse[new] = old
        shuffled = ExplicitLts(
            perm[lts.initial],
            [perm[s] for s in lts.src], list(lts.act), [perm[d] for d in lts.dst],
            list(lts.movers),
            labels=[lts.labels[inverse[i]] for i in range(n)],
            payloads=[lts.payloads[inverse[i]] for i in range(n)],
        )
        for prop in net.propositions():
            assert check_ef(lts, prop).holds == check_ef(shuffled, prop).holds

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_adding_transitions_never_loses_reachability(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=2, max_states=4))
        lts = full_product(net, cap=50_000)
        bigger = ExplicitLts(
            lts.initial,
            lts.src + [(seed + k) % lts.n_states for k in range(3)],
            lts.act + ["shortcut"] * 3,
            lts.dst + [(seed * 3 + k * 5) % lts.n_states for k in range(3)],
            lts.movers + [frozenset()] * 3,
            lts.labels, lts.payloads)
        for prop in net.propositions():
            if check_ef(lts, prop).holds:
                assert check_ef(bigger, prop).holds

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_every_witness_replays(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=2, max_states=4))
        lts = full_product(net, cap=50_000)
        for prop in net.propositions():
            verdict = check_ef(lts, prop)
            if verdict.holds:
                assert resolve_prefix(lts, prefix_of(lts, verdict.witness)) == verdict.witness
                assert prop in lts.labels[verdict.witness.states[-1]]


def merging_two_level():
    """A root over one leaf; both have a tau-cycle that pre-minimisation
    collapses, and the leaf a hidden local move ``l`` out of its cycle."""
    root = Component(
        "R", ("r0", "r1", "r2"), "r0",
        (("r0", "tau", "r1"), ("r1", "tau", "r0"), ("r1", "up", "r2"), ("r2", "tau", "r0")),
        labels={"r1": frozenset({"pr"}), "r2": frozenset({"done"})})
    leaf = Component(
        "C", ("c0", "c1", "c2"), "c0",
        (("c0", "tau", "c1"), ("c1", "tau", "c0"), ("c1", "up", "c0"), ("c0", "l", "c2"),
         ("c2", "up", "c0")),
        labels={"c1": frozenset({"pc"}), "c2": frozenset({"deep"})})
    return infer_topology([root, leaf], "R")


class TestLiftWitness:
    def test_zero_length_witness_lifts_to_the_global_start(self, gx):
        top = reduce_net_traced(gx)[1][-1]
        start = top.sq.lts.id_of(SquareOrigin(1, "s0", "r0"))
        prefix = lift_witness(top, Path((start,), ()))
        assert prefix.states == (GlobalTuple(("r0", "s0", "t0")),)

    @pytest.mark.parametrize("proposition", [5, ["x"]])
    def test_a_proposition_that_is_no_string_is_named(self, gx, proposition):
        top = reduce_net_traced(gx)[1][-1]
        path = check_ef(top.sq.lts, "r3_reached").witness
        with pytest.raises(TypeError) as info:
            lift_witness(top, path, proposition)
        assert str(info.value) == f"proposition {proposition!r} is not a string"

    def test_open_step_lifts_with_the_idle_child_at_initial(self, gx):
        top = reduce_net_traced(gx)[1][-1]
        sq = top.sq
        path = Path(
            (sq.lts.initial,
             sq.lts.id_of(SquareOrigin(1, "s0", "r0")),
             sq.lts.id_of(SquareOrigin(2, "t0", "r1"))),
            (sq.epsilon, "open"))
        prefix = lift_witness(top, path)
        assert [p.states for p in prefix.states] == [("r0", "s0", "t0"), ("r1", "s0", "t0")]
        assert prefix.actions == ("open",)
        resolved = resolve_prefix(full_product(gx), prefix)
        assert len(resolved) == 1

    def test_every_reduced_witness_lifts_and_replays(self, gx):
        # exercise the lifting over all labellings of the running example
        r, s1, s2 = gx.components
        labels = {s: frozenset({f"at_{s}"}) for s in r.states}
        net = infer_topology(
            [Component("R", r.states, r.initial, r.transitions, labels=labels), s1, s2], "R")
        comp, stages = reduce_net_traced(net)
        lts = component_lts(comp)
        full = full_product(net)
        lifted = 0
        for prop in net.propositions():
            verdict = check_ef(lts, prop)
            if not verdict.holds:
                continue
            prefix = lift_witness(stages[-1], verdict.witness)
            resolved = resolve_prefix(full, prefix)
            assert prop in full.labels[resolved.states[-1]]
            lifted += 1
        assert lifted >= 4

    def test_pre_minimised_coordinates_lift_to_the_full_product(self):
        net = merging_two_level()
        comp, stages = reduce_net_traced(net)
        top = stages[-1]
        assert top.originals == net.components
        assert top.blocks == ((0, 0, 1), (0, 0, 1))
        assert [len(c.states) for c in top.net.components] == [2, 2]
        lts, full = component_lts(comp), full_product(net)
        lifted = {}
        for prop in net.propositions():
            verdict = check_ef(lts, prop)
            assert verdict.holds, prop
            prefix = lift_witness(top, verdict.witness, prop)
            resolved = resolve_prefix(full, prefix)
            assert prop in full.labels[resolved.states[-1]], prop
            lifted[prop] = prefix
        assert lifted["pc"].actions == ("tau",)
        # the hidden step of the leaf is lifted to its original action
        assert lifted["deep"].actions == ("l",)
        # both coordinates walk their tau-cycle before synchronising
        assert lifted["done"].actions == ("tau", "tau", "up")
        assert [p.states for p in lifted["done"].states][-1] == ("r2", "c0")

    def test_a_kept_leaf_walks_its_block_to_the_squares_action(self):
        # the leaf has no silent cycle, so it enters the squares as it is:
        # one state per block, and the first hidden move into the target
        # state is the one the squares emit first
        root = Component("R", ("r0", "r1"), "r0", (("r0", "up", "r1"), ("r1", "tau", "r0")))
        leaf = Component("C", ("c0", "c1"), "c0",
                         (("c0", "l", "c1"), ("c0", "tau", "c1"), ("c1", "up", "c0")),
                         labels={"c1": frozenset({"pc"})})
        net = infer_topology([root, leaf], "R")
        top = reduce_net_traced(net)[1][-1]
        assert top.blocks == (None, None)
        prefix = lift_witness(top, check_ef(top.sq.lts, "pc").witness, "pc")
        assert [p.states for p in prefix.states] == [("r0", "c0"), ("r0", "c1")]
        assert prefix.actions == ("l",) and prefix.movers == (frozenset({1}),)
        full = full_product(net)
        assert "pc" in full.labels[resolve_prefix(full, prefix).states[-1]]

    def test_witnesses_lift_at_every_stage(self):
        # inner stages too: their pre-minimised leaves lift to original
        # states, against the product of the stage's network over the
        # components that entered the stage
        lifted = premin_lifted = 0
        for seed in range(300):
            net = gen_random_tree(GenConfig(seed, max_depth=4, max_children=2,
                                            max_states=4, density=0.6))
            for stage in reduce_net_traced(net)[1]:
                props = sorted({p for c in stage.originals for ps in c.labels.values()
                                for p in ps})
                target = None
                for prop in props:
                    verdict = check_ef(stage.sq.lts, prop)
                    if not verdict.holds:
                        continue
                    if target is None:
                        target = full_product(
                            replace(stage.net, components=stage.originals), cap=20_000)
                    resolved = resolve_prefix(target, lift_witness(stage, verdict.witness, prop))
                    assert prop in target.labels[resolved.states[-1]], (seed, prop)
                    lifted += 1
                    premin_lifted += any(b is not None for b in stage.blocks)
        assert lifted and premin_lifted, (lifted, premin_lifted)

    def test_corrupted_paths_are_rejected(self, gx):
        top = reduce_net_traced(gx)[1][-1]
        a = top.sq.lts.id_of(SquareOrigin(1, "s0", "r0"))
        b = top.sq.lts.id_of(SquareOrigin(2, "t1", "r1"))
        with pytest.raises(InvalidWitness):
            lift_witness(top, Path((a, b), ("open",)))

    def test_a_step_without_an_original_move_is_rejected(self, gx):
        # the witness synchronises S1 on ``open``; an S1 without transitions
        # has no move, hidden or not, that completes that step
        top = reduce_net_traced(gx)[1][-1]
        s1 = top.originals[1]
        assert s1.name == "S1" and top.blocks[1] is None
        stuck = copy.copy(top)
        vars(stuck).update(originals=(  # net, blocks and sq not rebuilt from S1
            top.originals[0], Component(s1.name, s1.states, s1.initial, ()), top.originals[2]),
            net=top.net, blocks=top.blocks, sq=top.sq)
        verdict = check_ef(top.sq.lts, "r3_reached")
        assert lift_witness(top, verdict.witness, "r3_reached").actions
        with pytest.raises(InvalidWitness, match="no hidden walk in component 'S1'"):
            lift_witness(stuck, verdict.witness, "r3_reached")

    def test_square_paths_transfer_from_prefix_helpers(self, gx):
        # a witness extracted from the squares resolves against them
        sq = build_sq(gx)
        verdict = check_ef(sq.lts, "r3_reached")
        assert verdict.holds
        prefix = prefix_of(sq.lts, verdict.witness)
        assert resolve_prefix(sq.lts, prefix) == verdict.witness
