"""Topology inference, classification, and the reset-discipline validator."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelts import (
    DEFAULT_SILENT,
    Component,
    GenConfig,
    NotATree,
    UnknownRoot,
    ValidationError,
    Violation,
    gen_random_tree,
    infer_topology,
    subnetwork,
    two_level_network,
    validate_live_reset,
)
from treelts import errors, model
from treelts.errors import LiveResetWarning
from shapes import ring_tree


def local_acts(net, i):
    """The actions of component ``i`` on no tree edge: neither up nor down."""
    return net.components[i].acts - net.upacts[i] - net.downacts[i]


class TestInferTopology:
    def test_gx_classification(self, gx):
        r = gx.index_of("R")
        s1 = gx.index_of("S1")
        s2 = gx.index_of("S2")
        assert gx.root_index == r
        assert gx.parent[s1] == r and gx.parent[s2] == r
        assert gx.children[r] == (s1, s2)
        assert gx.upacts[r] == frozenset()
        assert gx.downacts[r] == {"open", "chooseL", "chooseR"}
        assert local_acts(gx, r) == {"beep"}
        assert gx.upacts[s1] == {"open"}
        assert gx.downacts[s1] == frozenset() and local_acts(gx, s1) == frozenset()
        assert gx.upacts[s2] == {"chooseL", "chooseR"}
        assert local_acts(gx, s2) == {"tau"}
        assert gx.upacts[s1] | gx.upacts[s2] == gx.downacts[r]

    def test_single_component_is_trivial_tree(self):
        c = Component("only", ("u0", "u1"), "u0", (("u0", "go", "u1"),))
        net = infer_topology([c], "only")
        assert net.children[0] == ()
        assert local_acts(net, 0) == {"go"}
        assert net.upacts[0] == frozenset() == net.downacts[0]

    def test_sibling_sharing_is_rejected(self):
        # both children carry action x: the induced graph has a sibling edge
        # and hence a cycle over three nodes
        root = Component("r", ("r0",), "r0",
                         (("r0", "a", "r0"), ("r0", "b", "r0")))
        c1 = Component("c1", ("u0",), "u0", (("u0", "a", "u0"), ("u0", "x", "u0")))
        c2 = Component("c2", ("v0",), "v0", (("v0", "b", "v0"), ("v0", "x", "v0")))
        with pytest.raises(NotATree):
            infer_topology([root, c1, c2], "r")

    def test_three_way_sharing_is_rejected(self):
        comps = [
            Component(f"c{i}", ("s0",), "s0", (("s0", "x", "s0"),)) for i in range(3)
        ]
        with pytest.raises(NotATree, match="shared by 3"):
            infer_topology(comps, "c0")

    def test_disconnected_is_rejected(self):
        a = Component("a", ("s0",), "s0", (("s0", "x", "s0"),))
        b = Component("b", ("s0",), "s0", (("s0", "y", "s0"),))
        with pytest.raises(NotATree, match="not connected"):
            infer_topology([a, b], "a")

    def test_unknown_root(self, gx):
        with pytest.raises(UnknownRoot):
            infer_topology(gx.components, "nope")

    def test_an_empty_network_has_no_root(self):
        with pytest.raises(UnknownRoot) as info:
            infer_topology([], "a")
        assert str(info.value) == "network has no components"

    def test_silent_names_do_not_create_edges(self):
        # both components use tau; without silence this would be an edge
        a = Component("a", ("s0",), "s0", (("s0", "tau", "s0"), ("s0", "x", "s0")))
        b = Component("b", ("s0",), "s0", (("s0", "tau", "s0"), ("s0", "x", "s0")))
        net = infer_topology([a, b], "a")
        assert net.parent[1] == 0
        assert "tau" in local_acts(net, 0) and "tau" in local_acts(net, 1)

    def test_a_silent_string_is_rejected_not_read_as_a_type_error(self):
        c = Component("c", ("a",), "a", (("a", "tau", "a"),))
        with pytest.raises(ValidationError) as info:
            infer_topology([c], "c", silent="tau")
        assert str(info.value) == "silent actions 'tau' are a string, not a set of action names"

    def test_declared_root_upacts(self, gx):
        r, s1, s2 = gx.components
        net = two_level_network(r, [s1, s2], [gx.upacts[1], gx.upacts[2]],
                                root_upacts=frozenset({"beep"}))
        assert net.upacts[net.root_index] == {"beep"}
        assert local_acts(net, net.root_index) == frozenset()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_children_follow_component_order_on_an_out_of_order_tree(self, reverse):
        # parents are declared after their children, and with reverse the
        # root is the last component
        tree = ring_tree([None, 4, 0, 1, 0, 2, 4, 2, 4])
        comps = tree.components[::-1] if reverse else tree.components
        net = infer_topology(comps, "n0")
        n = len(comps)
        assert net.children == tuple(
            tuple(j for j in range(n) if net.parent[j] == i) for i in range(n))
        name = [c.name for c in comps]
        assert [name[j] for j in net.children[net.index_of("n4")]] == (
            ["n8", "n6", "n1"] if reverse else ["n1", "n6", "n8"])


class TestComponent:
    def test_acts_of_s1(self, gx):
        assert gx.components[gx.index_of("S1")].acts == {"open"}

    def test_acts_of_r(self, gx):
        assert gx.root.acts == {"open", "chooseL", "chooseR", "beep"}

    def test_acts_of_empty(self):
        assert Component("e", ("s0",), "s0").acts == frozenset()

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValidationError, match="duplicate state"):
            Component("c", ("s0", "s0"), "s0")

    def test_initial_must_be_a_state(self):
        with pytest.raises(ValidationError, match="initial state"):
            Component("c", ("s0",), "s1")

    def test_transition_endpoints_checked(self):
        with pytest.raises(ValidationError, match="unknown states"):
            Component("c", ("s0",), "s0", (("s0", "a", "s9"),))

    def test_labels_checked(self):
        with pytest.raises(ValidationError, match="unknown state"):
            Component("c", ("s0",), "s0", labels={"s9": {"p"}})

    @pytest.mark.parametrize("key", ["zzz", 5])
    def test_an_empty_label_set_on_an_unknown_state_is_rejected(self, key):
        # the empty set is dropped, but its key must still name a state
        with pytest.raises(ValidationError) as info:
            Component("c", ("a",), "a", labels={key: []})
        assert str(info.value) == f"label on unknown state {key!r} in component 'c'"

    def test_duplicate_transitions_collapse(self):
        c = Component("c", ("s0",), "s0", (("s0", "a", "s0"), ("s0", "a", "s0")))
        assert len(c.transitions) == 1

    @pytest.mark.parametrize("states, initial, transitions, labels, bad", [
        (("s0", 1), "s0", (), {}, 1),
        (("s0",), 0, (), {}, 0),
        (("s0",), "s0", (("s0", 5, "s0"),), {}, 5),
        (("s0",), "s0", (), {"s0": [2, "q"]}, 2),
    ], ids=["state", "initial", "action", "proposition"])
    def test_non_str_names_are_rejected(self, states, initial, transitions, labels, bad):
        with pytest.raises(ValidationError) as info:
            Component("c", states, initial, transitions, labels=labels)
        assert str(info.value) == f"name {bad!r} in component 'c' is not a string"

    def test_non_str_endpoints_and_label_keys_are_unknown_states(self):
        with pytest.raises(ValidationError, match="^transition \\(0, 'a', 's0'\\) uses unknown"):
            Component("c", ("s0",), "s0", ((0, "a", "s0"),))
        with pytest.raises(ValidationError, match="^label on unknown state 0 "):
            Component("c", ("s0",), "s0", labels={0: {"p"}})

    def test_transitions_given_as_lists(self):
        c = Component("c", ["s0", "s1"], "s0", [["s0", "a", "s1"], ["s1", "b", "s0"]])
        assert c.transitions == (("s0", "a", "s1"), ("s1", "b", "s0"))
        assert all(type(tr) is tuple for tr in c.transitions)

    def test_duplicate_transitions_keep_the_first_occurrence_order(self):
        c = Component("c", ("s0", "s1"), "s0", (
            ("s1", "b", "s0"), ("s0", "a", "s1"), ("s1", "b", "s0"), ("s0", "a", "s1")))
        assert c.transitions == (("s1", "b", "s0"), ("s0", "a", "s1"))

    def test_the_first_offending_transition_is_named(self):
        with pytest.raises(ValidationError) as info:
            Component("c", ("s0",), "s0",
                      (("s0", "a", "s0"), ("s0", "b", "s9"), ("s8", "c", "s0")))
        assert str(info.value) == (
            "transition ('s0', 'b', 's9') uses unknown states in component 'c'")

    @pytest.mark.parametrize("bad", [("a",), ("a", "x"), ("a", "x", "a", "y"), "abc", 5],
                             ids=["one", "two", "four", "string", "not-a-sequence"])
    def test_a_transition_that_is_not_a_triple_is_named(self, bad):
        with pytest.raises(ValidationError) as info:
            Component("c", ("a",), "a", (("a", "x", "a"), bad, ("b",)))
        assert str(info.value) == (
            f"transition {bad!r} in component 'c' is not a (src, action, dst) triple")

    def test_str_label_sets_are_kept_and_empty_ones_dropped(self):
        ps = frozenset({"p", "q"})
        given = {"s0": ps, "s1": frozenset(), "s2": ["r", "q"]}
        c = Component("c", ("s0", "s1", "s2"), "s0", labels=given)
        assert c.labels == {"s0": ps, "s2": {"q", "r"}} and c.labels["s0"] is ps
        assert all(type(ps) is frozenset for ps in c.labels.values())
        given["s1"] = frozenset({"r"})
        assert c.labels == {"s0": ps, "s2": {"q", "r"}}

    def test_a_string_label_set_is_rejected_not_split_into_letters(self):
        # frozenset("goal") would label s1 with g, o, a and l
        with pytest.raises(ValidationError) as info:
            Component("c", ("s0", "s1"), "s0", labels={"s0": {"p"}, "s1": "goal"})
        assert str(info.value) == (
            "labels 'goal' of state 's1' in component 'c' are a string, "
            "not a set of propositions")

    def test_a_string_of_states_is_rejected_not_split_into_letters(self):
        # tuple("ab") would make the states a and b
        with pytest.raises(ValidationError) as info:
            Component("c", "ab", "a")
        assert str(info.value) == (
            "states 'ab' of component 'c' are a string, not a sequence of state names")

    @pytest.mark.parametrize("bad", [
        {"a", "go", "b"}, frozenset({"a", "go", "b"}), {"a": 0, "go": 1, "b": 2},
    ], ids=["set", "frozenset", "dict"])
    def test_a_transition_with_no_order_is_rejected(self, bad):
        # a set would read in hash order, a dict as its keys
        with pytest.raises(ValidationError) as info:
            Component("c", ("a", "b"), "a", [("b", "go", "a"), bad])
        assert str(info.value) == (
            f"transition {bad!r} in component 'c' is not a (src, action, dst) triple")

    @pytest.mark.parametrize("states", [{"a", "b", "c"}, frozenset({"a", "b", "c"})],
                             ids=["set", "frozenset"])
    def test_a_set_of_states_is_rejected_not_numbered_in_hash_order(self, states):
        # tuple() of a set follows the hash seed, and the state numbering with it
        with pytest.raises(ValidationError) as info:
            Component("c", states, "a")
        assert str(info.value) == (
            f"states {states!r} of component 'c' are a set, not a sequence of state names")

    def test_a_list_inside_a_transition_is_rejected(self):
        with pytest.raises(ValidationError) as info:
            Component("c", ("a", "b"), "a", [("a", "go", "b"), ("a", ["x"], "b")])
        assert str(info.value) == "name ['x'] in component 'c' is not a string"

    def test_a_list_inside_a_label_set_is_rejected(self):
        with pytest.raises(ValidationError) as info:
            Component("c", ("a", "b"), "a", labels={"b": {"q"}, "a": [["p"]]})
        assert str(info.value) == "name ['p'] in component 'c' is not a string"

    @pytest.mark.parametrize("name", [7, None, ("c",)], ids=["int", "none", "tuple"])
    def test_a_component_name_that_is_not_a_string_is_rejected(self, name):
        # save_string would fail on it later with a TypeError
        with pytest.raises(ValidationError) as info:
            Component(name, ("s0",), "s0")
        assert str(info.value) == f"component name {name!r} is not a string"

    @pytest.mark.parametrize("fields, message", [
        ({"labels": {"a": 5}},
         "labels 5 of state 'a' in component 'c' are of type int, not a set of propositions"),
        ({"labels": ["a"]}, "labels ['a'] of component 'c' are of type list, "
                            "not a mapping from states to sets of propositions"),
        ({"states": 5},
         "states 5 of component 'c' are of type int, not a sequence of state names"),
    ], ids=["label-set-int", "labels-list", "states-int"])
    def test_a_value_of_the_wrong_type_is_a_validation_error(self, fields, message):
        # not a bare TypeError or AttributeError from tuple(), frozenset() or .items()
        with pytest.raises(ValidationError) as info:
            Component(**{"name": "c", "states": ("a",), "initial": "a", **fields})
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, message", [
        ({"states": {"a": 1, "b": 2}},
         "states {'a': 1, 'b': 2} of component 'c' are a mapping, "
         "not a sequence of state names"),
        ({"labels": {"a": {"p": 1}}},
         "labels {'p': 1} of state 'a' in component 'c' are a mapping, "
         "not a set of propositions"),
        ({"transitions": {("a", "x", "a"): 1}},
         "transitions {('a', 'x', 'a'): 1} of component 'c' are a mapping, "
         "not a sequence of (src, action, dst) triples"),
    ], ids=["states", "label-set", "transitions"])
    def test_a_mapping_is_not_read_as_its_keys(self, fields, message):
        # each loaded as the mapping's keys: the states a and b, the label p, the triple
        with pytest.raises(ValidationError) as info:
            Component(**{"name": "c", "states": ("a", "b"), "initial": "a", **fields})
        assert str(info.value) == message


def choose_r_lands_on_t1(gx):
    """gx with S2's upact move ``t2 -chooseR-> t0`` retargeted to ``t1``."""
    r, s1, s2 = gx.components
    bad = Component(
        name="S2", states=s2.states, initial=s2.initial,
        transitions=tuple(
            ("t2", "chooseR", "t1") if tr == ("t2", "chooseR", "t0") else tr
            for tr in s2.transitions),
        labels=s2.labels)
    return infer_topology([r, s1, bad], "R")


class TestLiveReset:
    def test_gx_is_live_reset(self, gx):
        assert validate_live_reset(gx) == []

    def test_no_upacts_is_vacuous(self):
        c = Component("c", ("s0", "s1"), "s0", (("s0", "a", "s1"),))
        net = infer_topology([c], "c")
        assert validate_live_reset(net) == []

    def test_single_broken_reset_is_reported(self, gx):
        net = choose_r_lands_on_t1(gx)
        # reference scan straight from the definition
        expected = [
            Violation(c.name, tr)
            for i, c in enumerate(net.components)
            for tr in c.transitions
            if tr[1] in net.upacts[i] and tr[2] != c.initial
        ]
        assert expected == [Violation("S2", ("t2", "chooseR", "t1"))]
        assert validate_live_reset(net) == expected

    def test_unreachable_breakage_only_warns(self):
        root = Component("r", ("r0",), "r0", (("r0", "up", "r0"),))
        child = Component(
            "c", ("c0", "c1", "c2"), "c0",
            # c1 is unreachable; its non-resetting up transition is a warning
            (("c0", "up", "c0"), ("c1", "up", "c2")))
        net = infer_topology([root, child], "r")
        with pytest.warns(LiveResetWarning):
            assert validate_live_reset(net) == []

    def test_reachable_and_unreachable_stray_moves_are_told_apart(self):
        root = Component("r", ("r0",), "r0", (("r0", "up", "r0"),))
        # c0 -up-> c1 is reachable, c2 -up-> c3 is not; both miss c0
        child = Component("c", ("c0", "c1", "c2", "c3"), "c0",
                          (("c0", "up", "c1"), ("c2", "up", "c3"), ("c1", "up", "c0")))
        net = infer_topology([root, child], "r")
        with pytest.warns(LiveResetWarning) as caught:
            assert validate_live_reset(net) == [Violation("c", ("c0", "up", "c1"))]
        assert [str(w.message) for w in caught] == [
            "unreachable transition ('c2', 'up', 'c3') in component 'c' "
            "does not reset on upstream action 'up'"]

    @pytest.mark.parametrize("broken, searches", [(False, 0), (True, 1)])
    def test_only_a_component_with_a_stray_move_is_searched(self, gx, broken, searches,
                                                            monkeypatch):
        # a stray move: on an upact, to a state other than the initial one
        real, calls = model.closure, []
        monkeypatch.setattr(model, "closure",
                            lambda succ, seeds: calls.append(seeds) or real(succ, seeds))
        validate_live_reset(choose_r_lands_on_t1(gx) if broken else gx)
        assert len(calls) == searches


class TestSubnetwork:
    def test_subtree_keeps_upacts(self, chain_net):
        b = chain_net.index_of("B")
        sub = subnetwork(chain_net, b)
        assert [c.name for c in sub.components] == ["B", "C"]
        bi = sub.index_of("B")
        assert sub.root_index == bi
        assert sub.upacts[bi] == {"x"}
        assert sub.downacts[bi] == {"y"}

    def test_leaf_subtree(self, chain_net):
        sub = subnetwork(chain_net, chain_net.index_of("C"))
        assert len(sub.components) == 1
        assert sub.upacts[0] == {"y"}

    @pytest.mark.parametrize("index", [-1, 3, 7, True, "0", None], ids=[
        "negative", "past-the-end", "far-past-the-end", "bool", "string", "none"])
    def test_an_index_that_is_no_component_is_named(self, gx, index):
        # -1 would give S2's subtree, counted from the end
        with pytest.raises(ValidationError) as info:
            subnetwork(gx, index)
        assert str(info.value) == f"component index {index!r} is not in range for 3 components"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_every_subtree_keeps_the_classification(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4, max_children=3, max_states=3))
        for index in range(len(net.components)):
            sub = subnetwork(net, index)
            kept = [net.index_of(c.name) for c in sub.components]
            assert kept == sorted(kept) and sub.root_index == kept.index(index)
            assert sub.silent == net.silent
            for new, old in enumerate(kept):
                assert sub.components[new] is net.components[old]
                assert sub.upacts[new] == net.upacts[old]
                assert sub.downacts[new] == net.downacts[old]
                assert [kept[j] for j in sub.children[new]] == list(net.children[old])
                parent = sub.parent[new]
                assert (None if parent is None else kept[parent]) == (
                    None if old == index else net.parent[old])


class TestTwoLevelNetwork:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_declared_upacts_give_the_inferred_network(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=4, max_states=4))
        kids = net.children[net.root_index]
        built = two_level_network(
            net.root, [net.components[k] for k in kids], [net.upacts[k] for k in kids],
            frozenset(), net.silent)
        inferred = infer_topology(
            [net.root, *(net.components[k] for k in kids)], net.root.name, silent=net.silent)
        assert built == inferred

    def test_a_declared_action_the_child_does_not_use_stays_declared(self):
        root = Component("r", ("s0", "s1"), "s0", (("s0", "go", "s1"),))
        net = two_level_network(root, [Component("c", ("c0",), "c0")], [frozenset({"go"})])
        assert net.upacts[1] == {"go"} and net.downacts[0] == {"go"}
        assert local_acts(net, 0) == frozenset()

    @pytest.mark.parametrize("child_upacts, root_upacts, message", [
        ([{"tau"}, set()], set(), "action 'tau' declared by 'c1' is silent"),
        ([set(), set()], {"tau"}, "action 'tau' declared by 'r' is silent"),
        ([{"x", "go"}, {"go"}], set(), "action 'go' declared by 'c2' is declared by 'c1' too"),
        ([set(), {"go"}], {"go"}, "action 'go' declared by 'c2' is declared by 'r' too"),
    ], ids=["silent-by-child", "silent-by-root", "two-children", "child-and-root"])
    def test_an_action_is_declared_on_one_edge_and_is_not_silent(
            self, child_upacts, root_upacts, message):
        r, c1, c2 = (Component(name, ("s0",), "s0", (("s0", "go", "s0"),))
                     for name in ("r", "c1", "c2"))
        with pytest.raises(ValidationError) as info:
            two_level_network(r, [c1, c2], child_upacts, root_upacts)
        assert str(info.value) == message


    @pytest.mark.parametrize("child_upacts, root_upacts, silent, message", [
        (["go"], frozenset(), DEFAULT_SILENT,
         "upacts 'go' of component 'c' are a string, not a set of action names"),
        ([set()], "ab", DEFAULT_SILENT,
         "upacts 'ab' of component 'r' are a string, not a set of action names"),
        ([{"go": 1}], frozenset(), DEFAULT_SILENT,
         "upacts {'go': 1} of component 'c' are a mapping, not a set of action names"),
        ([5], frozenset(), DEFAULT_SILENT,
         "upacts 5 of component 'c' are of type int, not a set of action names"),
        ([{5}], frozenset(), DEFAULT_SILENT,
         "name 5 in upacts {5} of component 'c' is not a string"),
        ([{"go"}], frozenset(), "tau",
         "silent actions 'tau' are a string, not a set of action names"),
    ], ids=["string", "root-string", "mapping", "no-collection", "non-string", "silent-string"])
    def test_a_declared_set_is_a_collection_of_action_names(
            self, child_upacts, root_upacts, silent, message):
        # a string would be split into letters, a mapping read as its keys
        r = Component("r", ("s0",), "s0", (("s0", "go", "s0"),))
        c = Component("c", ("c0",), "c0", (("c0", "go", "c0"),))
        with pytest.raises(ValidationError) as info:
            two_level_network(r, [c], child_upacts, root_upacts, silent)
        assert str(info.value) == message

    def test_a_declared_frozenset_is_taken_as_it_is(self):
        r = Component("r", ("s0",), "s0", (("s0", "go", "s0"),))
        c = Component("c", ("c0",), "c0", (("c0", "go", "c0"),))
        up, silent = frozenset({"go"}), frozenset({"tau"})
        net = two_level_network(r, [c], [up], silent=silent)
        assert net.upacts[1] is up and net.silent is silent
        assert two_level_network(r, [c], [["go"]], silent=["tau"]) == net


class TestGeneratedInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_partition_and_snd_totality(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=3, max_states=4))
        for i, c in enumerate(net.components):
            nonsilent = c.acts - net.silent
            up, down = net.upacts[i], net.downacts[i]
            # the local actions are the rest: the two sets must not overlap
            # and must hold only non-silent actions the component uses
            assert up & down == set()
            assert up | down <= nonsilent
            for act in down:
                assert sum(act in net.upacts[j] for j in net.children[i]) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_every_nonsilent_action_on_one_edge(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=3, max_states=4))
        owners = {}
        for i, c in enumerate(net.components):
            for act in c.acts - net.silent:
                owners.setdefault(act, []).append(i)
        for act, group in owners.items():
            assert len(group) <= 2
            if len(group) == 2:
                i, j = group
                assert net.parent[i] == j or net.parent[j] == i


class TestValidationErrors:
    def test_bases(self):
        assert issubclass(ValidationError, errors.TreeLtsError)
        assert issubclass(ValidationError, ValueError)
        assert issubclass(NotATree, ValidationError) and issubclass(UnknownRoot, ValidationError)

    def test_network_constructors_raise_them_with_their_messages(self):
        c = Component("a", ("s0",), "s0")
        with pytest.raises(ValidationError, match=r"^duplicate component names: \['a', 'a'\]$"):
            infer_topology([c, c], "a")
        with pytest.raises(ValidationError, match=r"^duplicate component names: \['a', 'a'\]$"):
            two_level_network(c, [c], [frozenset()])
        with pytest.raises(ValidationError, match="^one upact set per child is required$"):
            two_level_network(c, [c], [])


def test_model_raises_only_treelts_errors():
    # library callers get the exit-code contract of the command line: each
    # raise in model.py names a TreeLtsError subclass
    tree = ast.parse(Path(model.__file__).read_text(encoding="utf-8"))
    raised = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.append(exc.id if isinstance(exc, ast.Name) else ast.unparse(node))
    assert len(raised) >= 10
    for name in raised:
        cls = getattr(errors, name, None)
        assert isinstance(cls, type) and issubclass(cls, errors.TreeLtsError), name
