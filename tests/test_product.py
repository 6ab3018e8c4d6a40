"""Product construction and run-prefix projection, checked against the
brute-force enumeration oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelts import (
    Component,
    EmptyProjection,
    ExplicitLts,
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
    reduce_net_traced,
    replay,
    resolve_prefix,
)
from oracles import naive_product


def as_tuple_set(lts):
    return {p.states for p in lts.payloads}


def as_triple_set(lts):
    return {
        (lts.payloads[s].states, a, lts.payloads[d].states)
        for s, a, d in zip(lts.src, lts.act, lts.dst)
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
        assert (a.src, a.act, a.dst, a.movers) == (b.src, b.act, b.dst, b.movers)


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
        assert len(lts.src) == len(lts2.src)
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
        for s, act, d, movers in zip(lts.src, lts.act, lts.dst, lts.movers):
            src = lts.payloads[s].states
            dst = lts.payloads[d].states
            for i, c in enumerate(net.components):
                if i in movers:
                    assert (src[i], act, dst[i]) in c.transition_set
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
            outs = lts.out_edges[states[-1]]
            if not outs:
                break
            k = outs[(seed + step) % len(outs)]
            actions.append(lts.act[k])
            states.append(lts.dst[k])
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


class TestExplicitLtsChecks:
    """Every construction check of ExplicitLts, with its message."""

    @staticmethod
    def lts(initial=0, transitions=(), labels=2, payloads=("a", "b")):
        columns = [list(column) for column in zip(*transitions)] or [[], [], [], []]
        return ExplicitLts(initial, *columns, [frozenset()] * labels,
                           [GlobalTuple((p,)) for p in payloads])

    def test_a_well_formed_graph_is_accepted(self):
        lts = self.lts(transitions=[(0, "x", 1, frozenset({0}))])
        assert (lts.src, lts.act, lts.dst, lts.movers) == ([0], ["x"], [1], [{0}])
        assert lts.out_edges == ((0,), ())
        assert lts.id_of(GlobalTuple(("b",))) == 1

    def test_a_duplicate_payload_is_named(self):
        # the payload whose second occurrence comes first is named: b, not a
        with pytest.raises(ValueError, match=r"^duplicate payload \(b\)$"):
            self.lts(labels=4, payloads=("a", "b", "b", "a"))

    @pytest.mark.parametrize("src, dst", [(0, 2), (2, 0), (-1, 0), (0, -1)])
    def test_an_out_of_range_endpoint_is_named(self, src, dst):
        # the first bad transition is named: 1, not 2
        with pytest.raises(ValueError) as info:
            self.lts(transitions=[(0, "x", 1, frozenset({0})), (src, "y", dst, frozenset({0})),
                                  (5, "z", 5, frozenset())])
        assert str(info.value) == f"transition 1 endpoint out of range: {src} -y-> {dst}"

    @pytest.mark.parametrize("initial", [2, -1])
    def test_an_out_of_range_initial_state(self, initial):
        with pytest.raises(ValueError, match=f"^initial state {initial} out of range$"):
            self.lts(initial=initial)

    def test_labels_and_payloads_must_have_the_same_length(self):
        with pytest.raises(ValueError, match="^labels and payloads must have the same length$"):
            self.lts(labels=1)


class TestFromArraysChecks:
    """The parallel transition lists must have the same length."""

    @pytest.mark.parametrize("column", range(4))
    def test_arrays_of_unequal_length(self, column):
        columns = [[0], ["x"], [1], [frozenset({0})]]
        columns[column].append(columns[column][0])
        with pytest.raises(ValueError,
                           match="^src, act, dst and movers must have the same length$"):
            ExplicitLts(0, *columns, [frozenset()] * 2,
                        [GlobalTuple(("a",)), GlobalTuple(("b",))])


class TestEdgeIndex:
    """``out_edges`` lists each state's transitions in order, and the
    ``transitions`` view the benchmark counts is as long as the lists."""

    @staticmethod
    def assert_index_matches(lts):
        by_src = [[] for _ in range(lts.n_states)]
        for k, s in enumerate(lts.src):
            by_src[s].append(k)
        assert lts.out_edges == tuple(map(tuple, by_src))
        assert len(lts.transitions) == len(lts.src)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_index_matches_the_lists(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4))
        systems = [stage.sq.lts for stage in reduce_net_traced(net)[1]]
        try:
            systems.append(full_product(net, cap=5_000))
        except StateLimitExceeded:
            pass
        for lts in systems:
            self.assert_index_matches(lts)
