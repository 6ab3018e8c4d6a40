"""Product construction and run-prefix projection, checked against the
brute-force enumeration oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelts import (
    Component,
    EmptyProjection,
    GenConfig,
    GlobalTuple,
    Path,
    StateLimitExceeded,
    component_lts,
    full_product,
    gen_random_tree,
    infer_topology,
    prefix_from_states,
    prefix_of,
    product_of,
    project_prefix,
    replay,
    resolve_prefix,
)
from oracles import naive_product


def as_tuple_set(lts):
    return {p.states for p in lts.payloads}


def as_triple_set(lts):
    return {
        (lts.payloads[t.src].states, t.action, lts.payloads[t.dst].states)
        for t in lts.transitions
    }


class TestFullProduct:
    def test_gx_matches_oracle(self, gx):
        lts = full_product(gx)
        _, reach, trans, labels = naive_product(gx.components, gx.silent)
        assert lts.n_states == 15
        assert as_tuple_set(lts) == reach
        assert as_triple_set(lts) == trans
        for i in range(lts.n_states):
            assert lts.labels[i] == labels[lts.payloads[i].states]

    def test_gx_contains_the_projection_example_step(self, gx):
        lts = full_product(gx)
        assert (("r0", "s0", "t2"), "open", ("r1", "s0", "t2")) in as_triple_set(lts)

    def test_single_component_is_isomorphic_copy(self):
        c = Component("c", ("s0", "s1"), "s0",
                      (("s0", "a", "s1"), ("s1", "b", "s0")),
                      labels={"s1": frozenset({"p"})})
        net = infer_topology([c], "c")
        lts = full_product(net)
        assert lts.n_states == 2
        assert as_triple_set(lts) == {(("s0",), "a", ("s1",)), (("s1",), "b", ("s0",))}
        assert lts.labels[lts.id_of(GlobalTuple(("s1",)))] == {"p"}

    def test_initial_is_tuple_of_initials(self, gx):
        lts = full_product(gx)
        assert lts.payloads[lts.initial] == GlobalTuple(("r0", "s0", "t0"))

    def test_state_cap(self, gx):
        with pytest.raises(StateLimitExceeded) as exc:
            full_product(gx, cap=5)
        assert exc.value.cap == 5

    def test_deterministic_rebuild(self, gx):
        a = full_product(gx)
        b = full_product(gx)
        assert a.payloads == b.payloads
        assert a.transitions == b.transitions


class TestPairProduct:
    def test_s1_with_root_synchronises_open(self, gx):
        s1 = gx.components[gx.index_of("S1")]
        lts = product_of((s1, gx.root))
        # S1 never leaves s0, so the five reachable pairs track the root
        assert as_tuple_set(lts) == {("s0", f"r{i}") for i in range(5)}
        triples = as_triple_set(lts)
        assert (("s0", "r0"), "open", ("s0", "r1")) in triples
        assert (("s0", "r2"), "open", ("s0", "r3")) in triples

    def test_s2_with_root_chooseL_sources(self, gx):
        s2 = gx.components[gx.index_of("S2")]
        lts = product_of((s2, gx.root))
        _, reach, trans, _ = naive_product([s2, gx.root], gx.silent)
        assert as_tuple_set(lts) == reach and len(reach) == 15
        sources = {s for s, a, _ in as_triple_set(lts) if a == "chooseL"}
        assert sources == {("t1", "r1"), ("t1", "r4")}

    def test_disjoint_actions_interleave_fully(self, gx):
        s1 = gx.components[gx.index_of("S1")]
        s2 = gx.components[gx.index_of("S2")]
        lts = product_of((s1, s2))
        assert lts.n_states == len(s1.states) * len(s2.states)


class TestProductProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_component_order_permutation_is_isomorphic(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=3, max_states=4))
        lts = full_product(net, cap=50_000)
        rotated = net.components[1:] + net.components[:1]
        net2 = infer_topology(rotated, net.root.name, silent=net.silent)
        lts2 = full_product(net2, cap=50_000)
        assert lts.n_states == lts2.n_states
        assert len(lts.transitions) == len(lts2.transitions)
        # the coordinate permutation is a payload bijection
        order = [net2.components.index(c) for c in net.components]
        remapped = {tuple(p.states[i] for i in order) for p in lts2.payloads}
        assert remapped == as_tuple_set(lts)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_labels_are_coordinate_unions(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=3, max_states=4))
        lts = full_product(net, cap=50_000)
        for sid in range(0, lts.n_states, max(1, lts.n_states // 16)):
            tup = lts.payloads[sid].states
            expected = frozenset().union(
                *(c.label_of(tup[i]) for i, c in enumerate(net.components)))
            assert lts.labels[sid] == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_transitions_move_only_their_movers(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=2, max_states=4))
        lts = full_product(net, cap=50_000)
        for t in lts.transitions:
            src = lts.payloads[t.src].states
            dst = lts.payloads[t.dst].states
            for i, c in enumerate(net.components):
                if i in t.movers:
                    assert (src[i], t.action, dst[i]) in c.transition_set
                else:
                    assert src[i] == dst[i]


ETA_STATES = [
    ("r0", "s0", "t0"), ("r0", "s0", "t1"), ("r0", "s0", "t2"),
    ("r1", "s0", "t2"), ("r4", "s0", "t0"), ("r4", "s0", "t1"),
    ("r0", "s0", "t0"),
]
ETA_ACTIONS = ["tau", "tau", "open", "chooseR", "tau", "chooseL"]


class TestProjection:
    def test_projection_to_root_and_s1(self, gx):
        eta = prefix_from_states(gx, ETA_STATES, ETA_ACTIONS)
        projected = project_prefix(eta, {gx.index_of("R"), gx.index_of("S1")})
        assert [p.states for p in projected.states] == [
            ("r0", "s0"), ("r1", "s0"), ("r4", "s0"), ("r0", "s0")]
        assert projected.actions == ("open", "chooseR", "chooseL")

    def test_projection_to_s2_keeps_its_silent_steps(self, gx):
        eta = prefix_from_states(gx, ETA_STATES, ETA_ACTIONS)
        projected = project_prefix(eta, {gx.index_of("S2")})
        assert [p.states for p in projected.states] == [
            ("t0",), ("t1",), ("t2",), ("t0",), ("t1",), ("t0",)]
        assert projected.actions == ("tau", "tau", "chooseR", "tau", "chooseL")

    def test_projection_to_everything_is_identity(self, gx):
        eta = prefix_from_states(gx, ETA_STATES, ETA_ACTIONS)
        projected = project_prefix(eta, range(len(gx.components)))
        assert projected.states == eta.states
        assert projected.actions == eta.actions

    def test_empty_selection_is_rejected(self, gx):
        eta = prefix_from_states(gx, ETA_STATES, ETA_ACTIONS)
        with pytest.raises(EmptyProjection):
            project_prefix(eta, set())

    def test_prefix_validation_rejects_bad_steps(self, gx):
        with pytest.raises(ValueError):
            prefix_from_states(
                gx, [("r0", "s0", "t0"), ("r2", "s0", "t0")], ["open"])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.data())
    def test_projected_prefix_is_a_path_of_the_subproduct(self, seed, data):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=2, max_states=4))
        lts = full_product(net, cap=50_000)
        # deterministic pseudo-random walk through the product
        states, actions = [lts.initial], []
        for step in range(12):
            outs = lts.out(states[-1])
            if not outs:
                break
            t = outs[(seed + step) % len(outs)]
            actions.append(t.action)
            states.append(t.dst)
        prefix = prefix_of(lts, Path(tuple(states), tuple(actions)))
        indices = data.draw(st.sets(
            st.integers(min_value=0, max_value=len(net.components) - 1), min_size=1))
        projected = project_prefix(prefix, indices)
        sub = product_of([net.components[i] for i in sorted(indices)], net.silent, cap=50_000)
        resolved = resolve_prefix(sub, projected)
        assert replay(sub, resolved)


class TestHelpers:
    def test_component_lts_roundtrip(self, gx):
        s2 = gx.components[gx.index_of("S2")]
        lts = component_lts(s2)
        assert lts.n_states == 3
        assert lts.payloads[lts.initial] == GlobalTuple(("t0",))

    def test_replay_rejects_foreign_steps(self, gx):
        lts = full_product(gx)
        assert not replay(lts, Path((0, 0), ("beep",)))
