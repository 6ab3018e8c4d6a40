"""Product construction and run-prefix projection, checked against the
brute-force enumeration oracle."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelts import (
    Component,
    EmptyProjection,
    ExplicitLts,
    FreshInit,
    GenConfig,
    GlobalTuple,
    InvalidWitness,
    Path,
    PathPrefix,
    StateLimitExceeded,
    TreeLtsError,
    ValidationError,
    check_ef,
    component_lts,
    equivalence_suite,
    full_product,
    gen_random_tree,
    infer_topology,
    lift_witness,
    prefix_from_states,
    prefix_of,
    project_prefix,
    reduce_net_traced,
    resolve_prefix,
    stats,
    two_level_network,
)
from treelts.checker import Verdict, render_witness
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

    @pytest.mark.parametrize("cap", [True, False, 2.5, 1.0, "3", None])
    def test_a_cap_that_is_no_integer_is_named(self, gx, cap):
        # True would read as 1 and 2.5 as a bound between 2 and 3; the
        # suite and stats pass their cap to full_product
        for build in (full_product, equivalence_suite, stats):
            with pytest.raises(ValidationError) as info:
                build(gx, cap=cap)
            assert str(info.value) == f"the state cap must be an integer, not {cap!r}"

    def test_deterministic_rebuild(self, gx):
        a = full_product(gx)
        b = full_product(gx)
        assert a.payloads == b.payloads
        assert (a.src, a.act, a.dst, a.movers) == (b.src, b.act, b.dst, b.movers)


class TestPairProduct:
    @staticmethod
    def pair(gx, root, child):
        """The product of two components of gx, the child declaring its upacts."""
        r, c = gx.index_of(root), gx.index_of(child)
        ups = gx.upacts[c] if gx.parent[c] == r else frozenset()
        return full_product(two_level_network(gx.components[r], [gx.components[c]], [ups]))

    def test_s1_with_root_synchronises_open(self, gx):
        lts = self.pair(gx, "R", "S1")
        # S1 never leaves s0, so the five reachable pairs track the root
        assert as_tuple_set(lts) == {(f"r{i}", "s0") for i in range(5)}
        triples = as_triple_set(lts)
        assert (("r0", "s0"), "open", ("r1", "s0")) in triples
        assert (("r2", "s0"), "open", ("r3", "s0")) in triples

    def test_s2_with_root_chooseL_sources(self, gx):
        lts = self.pair(gx, "R", "S2")
        _, reach, trans, _ = naive_product([gx.root, gx.components[gx.index_of("S2")]],
                                           gx.silent)
        assert as_tuple_set(lts) == reach and len(reach) == 15
        assert as_triple_set(lts) == trans
        sources = {s for s, a, _ in as_triple_set(lts) if a == "chooseL"}
        assert sources == {("r1", "t1"), ("r4", "t1")}

    def test_disjoint_actions_interleave_fully(self, gx):
        lts = self.pair(gx, "S1", "S2")
        s1, s2 = (gx.components[gx.index_of(name)] for name in ("S1", "S2"))
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
                    assert (src[i], act, dst[i]) in c.transitions
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

    @pytest.mark.parametrize("prefix, message", [
        (PathPrefix((GlobalTuple(("a", "b")), GlobalTuple(("a",))), ("x",), (frozenset({1}),)),
         "state 1 of the prefix has 1 components, not 2"),
        # a step that names no component would be dropped from every projection
        (PathPrefix((GlobalTuple(("a", "b")), GlobalTuple(("a", "c"))), ("x",),
                    (frozenset({7}),)),
         "step 0 is taken by component 7 of a prefix over 2 components"),
        (PathPrefix((GlobalTuple(("a", "b")), GlobalTuple(("a", "c"))), ("x",),
                    (frozenset({1, -1}),)),
         "step 0 is taken by component -1 of a prefix over 2 components"),
        # True == 1, but a bool is no component index
        (PathPrefix((GlobalTuple(("a", "b")), GlobalTuple(("a", "c"))), ("x",),
                    (frozenset({True}),)),
         "step 0 is taken by component True of a prefix over 2 components"),
    ], ids=["arity", "mover-past-arity", "negative-mover", "bool-mover"])
    def test_a_prefix_that_does_not_fit_its_arity_is_rejected(self, prefix, message):
        with pytest.raises(ValidationError) as info:
            project_prefix(prefix, [1])
        assert str(info.value) == message

    def test_prefix_validation_rejects_bad_steps(self, gx):
        with pytest.raises(ValueError):
            prefix_from_states(
                gx, [("r0", "s0", "t0"), ("r2", "s0", "t0")], ["open"])

    def test_bad_prefixes_and_graphs_raise_the_library_error(self, gx):
        try:
            prefix_from_states(gx, [("r0", "s0", "t0"), ("r2", "s0", "t0")], ["open"])
        except TreeLtsError as exc:
            assert isinstance(exc, ValidationError) and isinstance(exc, ValueError)
            assert str(exc) == "step 0: ('r0', 'open', 'r2') is not a transition of component 'R'"
        else:
            pytest.fail("an impossible step was accepted")
        init = FreshInit()
        for bad in (
            lambda: Path((0,), ("a",)),
            lambda: PathPrefix((init,), ("a",), ()),
            lambda: ExplicitLts(1, [], [], [], [], [frozenset()], [init]),
            lambda: project_prefix(PathPrefix((init,), (), ()), [0]),
            # an index out of range, counted from the end, or not an int
            # (True == 1 would project onto S1)
            lambda: project_prefix(prefix_from_states(gx, ETA_STATES, ETA_ACTIONS), [99]),
            lambda: project_prefix(prefix_from_states(gx, ETA_STATES, ETA_ACTIONS), [-1]),
            lambda: project_prefix(prefix_from_states(gx, ETA_STATES, ETA_ACTIONS), ["a"]),
            lambda: project_prefix(prefix_from_states(gx, ETA_STATES, ETA_ACTIONS), [True]),
        ):
            with pytest.raises(ValidationError):
                bad()

    @pytest.mark.parametrize("states, actions, message", [
        ([("r0", "s0", "t0")], ["open"], "a prefix needs exactly one more state than actions"),
        ([("r0", "s0")], [], "state tuple ('r0', 's0') does not match the network arity"),
        ([("r0", "s0", "t0"), ("r1", "s0", "t1")], ["tau"],
         "step 0: component 'R' moved without participating in 'tau'"),
        ([("r0", "s0", "t0"), ("r0", "s0", "t0")], ["tau"],
         "step 0: ('t0', 'tau', 't0') is not a transition of component 'S2'"),
        ([("r0", "s0", "t0"), ("r0", "s0", "t0")], ["nope"],
         "action 'nope' does not belong to the network"),
        ([("r3", "s0", "t0"), ("r3", "s0", "t1")], ["beep"],
         "step 0: component 'S2' moved without participating in 'beep'"),
        ([("zz", "s0", "t0"), ("r0", "s0", "t1")], ["tau"],
         "state tuple 0: 'zz' is not a state of component 'R'"),
        ([("r0", "s0", "t0"), ("r0", "s0", "t0")], [["tau"]],
         "action ['tau'] at step 0 is not a string"),
        ([("r0", "s0", "t0"), ("r0", "s0", "t0")], [5], "action 5 at step 0 is not a string"),
    ], ids=["length", "arity", "silent-several", "silent-loop-nobody", "unknown-action",
            "moved-without-sharing", "unknown-state", "unhashable-action", "non-string-action"])
    def test_each_bad_prefix_names_its_cause(self, gx, states, actions, message):
        # a step that is not a component transition: see the test above
        with pytest.raises(ValidationError) as info:
            prefix_from_states(gx, states, actions)
        assert str(info.value) == message

    @pytest.mark.parametrize("states, actions, message", [
        (["ac", "bd"], ["x"],
         "state tuple 0: states 'ac' are a string, not a sequence of state names"),
        ([("a", "c"), ("b", "d")], "x",
         "actions 'x' are a string, not a sequence of action names"),
    ], ids=["string-state-tuple", "string-actions"])
    def test_a_string_is_not_read_as_its_letters(self, states, actions, message):
        a = Component("A", ("a", "b"), "a", (("a", "x", "b"),))
        b = Component("B", ("c", "d"), "c", (("c", "x", "d"),))
        net = infer_topology([a, b], "A")
        assert str(prefix_from_states(net, [("a", "c"), ("b", "d")], ["x"])) == "(a,c) -x-> (b,d)"
        with pytest.raises(ValidationError) as info:
            prefix_from_states(net, states, actions)
        assert str(info.value) == message

    def test_a_silent_self_loop_goes_to_the_one_component_that_has_it(self):
        # at a0 both components loop on tau, at a1 only b does
        a = Component("a", ("a0", "a1"), "a0",
                      (("a0", "tau", "a0"), ("a0", "go", "a1"), ("a1", "go", "a0")))
        b = Component("b", ("b0",), "b0", (("b0", "tau", "b0"), ("b0", "go", "b0")))
        net = infer_topology([a, b], "a")
        prefix = prefix_from_states(net, [("a0", "b0"), ("a1", "b0"), ("a1", "b0")], ["go", "tau"])
        assert prefix.movers == (frozenset({0, 1}), frozenset({1}))
        with pytest.raises(ValidationError) as info:
            prefix_from_states(net, [("a0", "b0"), ("a0", "b0")], ["tau"])
        assert str(info.value) == (
            "self-loop on 'tau' at step 0 cannot be attributed to one component")

    def test_a_step_gets_the_movers_of_the_product_edge(self):
        # b declares u, which c takes alone; x is local to b and to c
        r = Component("r", ("r0", "r1"), "r0", (("r0", "u", "r1"),))
        b = Component("b", ("b0", "b1"), "b0", (("b0", "x", "b1"), ("b1", "u", "b0")))
        c = Component("c", ("c0",), "c0", (("c0", "x", "c0"), ("c0", "u", "c0")))
        net = two_level_network(r, [b, c], [frozenset({"u"}), frozenset()])
        lts = full_product(net)
        assert set(lts.movers) == {frozenset({1}), frozenset({2}), frozenset({0, 1})}
        for s, a, d, mv in zip(lts.src, lts.act, lts.dst, lts.movers):
            prefix = prefix_from_states(net, [lts.payloads[s], lts.payloads[d]], [a])
            assert prefix.movers == (mv,)
        twin = Component("d", c.states, c.initial, c.transitions)
        net = two_level_network(r, [b, c, twin], [frozenset({"u"}), frozenset(), frozenset()])
        with pytest.raises(ValidationError) as info:
            prefix_from_states(net, [("r0", "b0", "c0", "c0")] * 2, ["x"])
        assert str(info.value) == "self-loop on 'x' at step 0 cannot be attributed to one component"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_a_random_step_gets_the_movers_of_its_product_edges(self, seed):
        # silent steps included: one attribution by the declared edges, and
        # a step that several product edges take with different movers is
        # ambiguous
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=2, max_states=4))
        lts = full_product(net, cap=50_000)
        steps = {}
        for s, a, d, mv in zip(lts.src, lts.act, lts.dst, lts.movers):
            steps.setdefault((s, a, d), set()).add(mv)
        for (s, a, d), movers in steps.items():
            if len(movers) == 1:
                prefix = prefix_from_states(net, [lts.payloads[s], lts.payloads[d]], [a])
                assert prefix.movers == tuple(movers)
            else:
                with pytest.raises(ValidationError) as info:
                    prefix_from_states(net, [lts.payloads[s], lts.payloads[d]], [a])
                assert str(info.value) == (
                    f"self-loop on {a!r} at step 0 cannot be attributed to one component")

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
        # every step is one of the product of the selected components alone,
        # in which an action synchronises the components that use it
        _, reach, trans, _ = naive_product(
            [net.components[i] for i in sorted(indices)], net.silent)
        tuples = [p.states for p in projected.states]
        assert tuples[0] in reach
        for step in zip(tuples, projected.actions, tuples[1:]):
            assert step in trans


class TestHelpers:
    def test_component_lts_roundtrip(self, gx):
        s2 = gx.components[gx.index_of("S2")]
        lts = component_lts(s2)
        assert lts.n_states == 3
        assert lts.payloads[lts.initial] == GlobalTuple(("t0",))

    def test_replay_rejects_foreign_steps(self, gx):
        lts = full_product(gx)
        with pytest.raises(InvalidWitness, match=r"^step \(0, 'beep', 0\) is not a transition$"):
            prefix_of(lts, Path((0, 0), ("beep",)))

    def test_replay_rejects_a_state_out_of_range(self, gx):
        lts = full_product(gx)
        src, act, dst = lts.src[0], lts.act[0], lts.dst[0]
        assert prefix_of(lts, Path((src, dst), (act,))).movers == (lts.movers[0],)
        for bad in (-1, lts.n_states):
            with pytest.raises(InvalidWitness, match=f"^state id {bad} is not a state"):
                prefix_of(lts, Path((src, bad), (act,)))

    @pytest.mark.parametrize("bad", [-1, 99, "0"], ids=["negative", "past-the-end", "string"])
    def test_an_id_that_is_no_state_is_rejected_by_name(self, gx, bad):
        # Python would read -1 as the last of the 11 top squares, which
        # lift_witness would take to the global start
        top = reduce_net_traced(gx)[1][-1]
        assert top.sq.lts.n_states == 11
        path = Path((bad,), ())
        for read in (lambda: prefix_of(top.sq.lts, path), lambda: lift_witness(top, path),
                     lambda: render_witness(top.sq.lts, Verdict(True, path))):
            with pytest.raises(InvalidWitness) as info:
                read()
            assert str(info.value) == f"state id {bad!r} is not a state of the system"

    @pytest.mark.parametrize("states, actions, message", [
        ([("r9", "s0", "t0")], [], "state (r9,s0,t0) does not exist in the target system"),
        ([("r0", "s0", "t0"), ("r0", "s0", "t1")], ["open"],
         "prefix does not replay on the target system"),
        # a list makes the payload unhashable, so no dict lookup can find it
        ([["r0", "s0", "t0"]], [], "state (r0,s0,t0) does not exist in the target system"),
    ], ids=["unknown-state", "no-such-step", "unhashable-state"])
    def test_resolving_a_foreign_prefix_names_its_cause(self, gx, states, actions, message):
        prefix = PathPrefix(tuple(map(GlobalTuple, states)), tuple(actions),
                            (frozenset({0}),) * len(actions))
        with pytest.raises(InvalidWitness) as info:
            resolve_prefix(full_product(gx), prefix)
        assert str(info.value) == message

    @pytest.mark.parametrize("steps, claimed", [
        ((0, 1, 2, 3), frozenset({2})), ((0,), frozenset({0})), ((0,), frozenset({0, 1, 2})),
        ((1,), frozenset({1})), ((2,), frozenset()),
    ], ids=["all-by-S2", "subset", "superset", "local-step", "no-mover"])
    def test_resolving_checks_who_took_each_step(self, gx, steps, claimed):
        # the witness is open, tau, chooseL, open, taken by {0, 1}, {2},
        # {0, 2} and {0, 1}; the first step whose movers differ is named
        lts = full_product(gx)
        witness = check_ef(lts, "r3_reached").witness
        prefix = prefix_of(lts, witness)
        assert len(prefix) == len(witness) == 4
        assert resolve_prefix(lts, prefix) == witness
        movers = [claimed if k in steps else m for k, m in enumerate(prefix.movers)]
        with pytest.raises(InvalidWitness) as info:
            resolve_prefix(lts, replace(prefix, movers=tuple(movers)))
        first = next(k for k in steps if prefix.movers[k] != claimed)
        assert str(info.value) == (
            f"step {first} ({prefix.actions[first]!r}) is not taken by components {claimed!r}")


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

    @staticmethod
    def labelled(labels):
        return ExplicitLts(0, [0], ["a"], [1], [frozenset({0})], labels,
                           [GlobalTuple(("x",)), GlobalTuple(("y",))])

    @pytest.mark.parametrize("labels, kind", [
        ("goal", "a string"), ({"goal": 1}, "a mapping"), (None, "of type NoneType"),
    ], ids=["string", "mapping", "none"])
    def test_a_label_set_that_is_no_collection_is_named(self, labels, kind):
        # frozenset() would read a string as its letters and a mapping as its keys
        with pytest.raises(ValidationError) as info:
            self.labelled([frozenset(), labels])
        assert str(info.value) == (
            f"labels {labels!r} of state 1 are {kind}, not a set of propositions")

    @pytest.mark.parametrize("label, value", [
        ([5], "5"), (frozenset({5}), "5"), ([["p"]], "['p']"),
    ], ids=["number", "number-in-a-frozenset", "unhashable"])
    def test_a_proposition_that_is_no_string_is_named(self, label, value):
        with pytest.raises(ValidationError) as info:
            self.labelled([frozenset({"goal"}), label])
        assert str(info.value) == f"name {value} in the labels of state 1 is not a string"

    def test_any_collection_of_propositions_is_a_label_set(self):
        lts = self.labelled([set(), ["goal"]])
        assert lts.labels == (frozenset(), frozenset({"goal"}))
        assert check_ef(lts, "goal").holds and not check_ef(lts, "g").holds
        assert repr(lts) == "ExplicitLts(states=2, transitions=1, initial=0)"


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
