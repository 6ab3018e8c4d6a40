"""Topology inference, classification, and the reset-discipline validator."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treelts import (
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
        assert gx.locacts[r] == {"beep"}
        assert gx.upacts[s1] == {"open"}
        assert gx.downacts[s1] == frozenset() and gx.locacts[s1] == frozenset()
        assert gx.upacts[s2] == {"chooseL", "chooseR"}
        assert gx.locacts[s2] == {"tau"}
        assert gx.upacts[s1] | gx.upacts[s2] == gx.downacts[r]

    def test_single_component_is_trivial_tree(self):
        c = Component("only", ("u0", "u1"), "u0", (("u0", "go", "u1"),))
        net = infer_topology([c], "only")
        assert net.children[0] == ()
        assert net.locacts[0] == {"go"}
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

    def test_silent_names_do_not_create_edges(self):
        # both components use tau; without silence this would be an edge
        a = Component("a", ("s0",), "s0", (("s0", "tau", "s0"), ("s0", "x", "s0")))
        b = Component("b", ("s0",), "s0", (("s0", "tau", "s0"), ("s0", "x", "s0")))
        net = infer_topology([a, b], "a")
        assert net.parent[1] == 0
        assert "tau" in net.locacts[0] and "tau" in net.locacts[1]

    def test_declared_root_upacts(self, gx):
        r, s1, s2 = gx.components
        net = two_level_network(r, [s1, s2], [gx.upacts[1], gx.upacts[2]],
                                root_upacts=frozenset({"beep"}))
        assert net.upacts[net.root_index] == {"beep"}
        assert "beep" not in net.locacts[net.root_index]

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

    def test_str_label_sets_are_kept_and_empty_ones_dropped(self):
        ps = frozenset({"p", "q"})
        given = {"s0": ps, "s1": frozenset(), "s2": ["r", "q"]}
        c = Component("c", ("s0", "s1", "s2"), "s0", labels=given)
        assert c.labels == {"s0": ps, "s2": {"q", "r"}} and c.labels["s0"] is ps
        assert all(type(ps) is frozenset for ps in c.labels.values())
        given["s1"] = frozenset({"r"})
        assert c.labels == {"s0": ps, "s2": {"q", "r"}}


class TestLiveReset:
    def test_gx_is_live_reset(self, gx):
        assert validate_live_reset(gx) == []

    def test_no_upacts_is_vacuous(self):
        c = Component("c", ("s0", "s1"), "s0", (("s0", "a", "s1"),))
        net = infer_topology([c], "c")
        assert validate_live_reset(net) == []

    def test_single_broken_reset_is_reported(self, gx):
        r, s1, s2 = gx.components
        bad = Component(
            name="S2", states=s2.states, initial=s2.initial,
            transitions=tuple(
                ("t2", "chooseR", "t1") if tr == ("t2", "chooseR", "t0") else tr
                for tr in s2.transitions),
            labels=s2.labels)
        net = infer_topology([r, s1, bad], "R")
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
                assert sub.locacts[new] == net.locacts[old]
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


class TestGeneratedInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_partition_and_snd_totality(self, seed):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=3, max_states=4))
        for i, c in enumerate(net.components):
            nonsilent = c.acts - net.silent
            up, down, loc = net.upacts[i], net.downacts[i], net.locacts[i]
            assert up & down == up & (loc - net.silent) == down & (loc - net.silent) == set()
            assert up | down | (loc - net.silent) == nonsilent
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
