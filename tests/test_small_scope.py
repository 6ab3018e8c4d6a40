"""Every small network of a few fixed shapes, the root's lone moves in
their squares, and relations that need no oracle.

The enumerator draws each component's transitions as any subset of a
fixed candidate set, so no network of that scope goes untried (the
small-scope hypothesis).  The relations shuffle or rename a network and
require every verdict and reduced size to stay as it was.

The full 3-component spaces take a few minutes; they run only with
``TREELTS_EXHAUSTIVE=1`` in the environment, and tier-1 takes a fixed
stride of each.
"""

import os
import random
import warnings

import pytest

from treelts import (
    Component,
    GenConfig,
    NotATree,
    SquareOrigin,
    Violation,
    build_sq_unreduced,
    check_ef,
    equivalence_suite,
    gen_random_tree,
    infer_topology,
    reduce_net_traced,
    reduced_lts,
    two_level_network,
    validate_live_reset,
)
from treelts.cli import main, save
from treelts.errors import LiveResetWarning
from treelts.reduction import summaries

#: The parent vector of each enumerated shape; component ``n0`` is the root.
SHAPES = {"2-chain": (None, 0), "3-chain": (None, 0, 1), "3-star": (None, 0, 0)}
#: Tier-1 takes every ``STRIDE``-th candidate network of a 3-component space.
STRIDE = 97
EXHAUSTIVE = os.environ.get("TREELTS_EXHAUSTIVE") == "1"


def candidate_moves(parent, stray=False):
    """Per component of the shape ``parent``, the transitions a network may
    give it: a ``tau`` move each way between ``s0`` and ``s1``; for a
    non-root ``n{i}``, ``u{i}`` from either state back to ``s0``, so live
    reset holds by construction, and with ``stray`` also into ``s1``,
    which breaks it; and for each child ``n{k}``, ``u{k}`` on any of the
    four state pairs."""
    states = ("s0", "s1")
    out = []
    for i, p in enumerate(parent):
        moves = [("s0", "tau", "s1"), ("s1", "tau", "s0")]
        if p is not None:
            moves += [(s, f"u{i}", d) for s in states for d in (states if stray else ("s0",))]
        moves += [(s, f"u{k}", d) for k, q in enumerate(parent) if q == i
                  for s in states for d in states]
        out.append(moves)
    return out


def small_networks(parent, stride=1, stray=False):
    """Every ``stride``-th candidate network of the shape ``parent`` that
    ``infer_topology`` roots at ``n0`` with the intended parents, drawn
    from ``candidate_moves(parent, stray)``.  Component ``n{i}`` has
    states ``s0`` (initial) and ``s1``, carrying ``p{i}_0`` and
    ``p{i}_1``."""
    moves = [(i, t) for i, ts in enumerate(candidate_moves(parent, stray)) for t in ts]
    for bits in range(0, 1 << len(moves), stride):
        chosen = [[] for _ in parent]
        for b, (i, t) in enumerate(moves):
            if bits >> b & 1:
                chosen[i].append(t)
        comps = [Component(f"n{i}", ("s0", "s1"), "s0", tuple(ts),
                           labels={"s0": {f"p{i}_0"}, "s1": {f"p{i}_1"}})
                 for i, ts in enumerate(chosen)]
        try:
            net = infer_topology(comps, "n0")
        except NotATree:
            continue
        if net.parent == parent:
            yield net


def check_space(parent, stride):
    """Check every network ``small_networks`` gives against the product;
    return how many there were."""
    count = 0
    for net in small_networks(parent, stride):
        count += 1
        report = equivalence_suite(net)
        assert report.disagreements == 0 and not report.divergences, net
        holds = sum(r.reduced_holds for r in report.propositions)
        assert report.witnesses_lifted == report.witnesses_checked == holds, net
        reached = {r.proposition for r in report.propositions if r.full_holds}
        assert summaries(net)[net.root_index][0] == reached, net
    return count


@pytest.mark.parametrize("shape, stride, valid", [
    ("2-chain", 1, 720), ("3-chain", STRIDE, 1_337), ("3-star", STRIDE, 1_336),
])
def test_small_networks_agree_with_the_product(shape, stride, valid):
    assert check_space(SHAPES[shape], stride) == valid


@pytest.mark.skipif(not EXHAUSTIVE, reason="set TREELTS_EXHAUSTIVE=1 to run the full spaces")
@pytest.mark.parametrize("shape", ["3-chain", "3-star"])
def test_every_three_component_network_agrees_with_the_product(shape):
    assert check_space(SHAPES[shape], 1) == 129_600


def test_small_networks_that_break_live_reset_are_refused(tmp_path, capsys):
    # a 2-chain whose n1 has a u1 move into s1: validate_live_reset reports
    # exactly the moves whose source n1 reaches, and warns of the others
    broken, quiet = [], 0
    for net in small_networks(SHAPES["2-chain"], stray=True):
        n1 = net.components[1]
        strays = [t for t in n1.transitions if t[1] == "u1" and t[2] == "s1"]
        if not strays:
            continue
        # with two states, s1 is reachable exactly when some move leaves s0 for it
        reached = {"s0"} | {d for s, _, d in n1.transitions if s == "s0"}
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always", LiveResetWarning)
            violations = validate_live_reset(net)
        assert violations == [Violation("n1", t) for t in strays if t[0] in reached], net
        assert len(warned) == len(strays) - len(violations), net
        if violations:
            broken.append(net)
        else:
            quiet += 1
    assert (len(broken), quiet) == (2_400, 480)
    # every reducing command refuses a saved sample of them, by exit code 2
    for k, net in enumerate(broken[::97]):
        path = str(tmp_path / f"broken{k}.json")
        save(net, path)
        for argv in (["reduce", path], ["check", path, "--reduced", "--ef", "p0_1"],
                     ["stats", path]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LiveResetWarning)
                assert main(argv) == 2, (argv, net)
            assert "error: network is not live-reset: n1:" in capsys.readouterr().err


def root_lone_edges(net):
    """The square edges of the two-level ``net`` that its root takes alone,
    as ``(src, act, dst)`` payloads, rebuilt from ``net`` alone: every root
    move on an action outside its downacts, at every (child, child state,
    root state) the square rules reach from the squares' initial pairs."""
    r, kids, comps = net.root_index, net.children[net.root_index], net.components
    root, down = comps[r], net.downacts[r]
    start = {(k, comps[k].initial, root.initial) for k in kids}
    seen, todo, edges = set(start), list(start), set()
    while todo:
        k, cs, rs = todo.pop()
        child, up = comps[k], net.upacts[k]
        reached = []
        for s, a, d in root.transitions:
            if s == rs and a not in down:
                edges.add((SquareOrigin(k, cs, rs), a, SquareOrigin(k, cs, d)))
                reached.append((k, cs, d))
        for s, a, d in child.transitions:
            if s == cs and a not in up:
                reached.append((k, d, rs))
            elif s == cs and d == child.initial:  # a handoff, with any root move on a
                reached += [(j, comps[j].initial, rd) for rsrc, b, rd in root.transitions
                            if rsrc == rs and b == a for j in kids]
        for state in reached:
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return edges


def with_root_upacts():
    """Two-level random networks whose root declares upacts, each drawn from
    its lone non-silent actions: all of them, and every other one."""
    for seed in range(150):
        tree = gen_random_tree(GenConfig(seed=seed, max_depth=2, max_children=3, max_states=4,
                                         max_local_actions=3))
        kids = [tree.components[k] for k in tree.children[tree.root_index]]
        ups = [tree.upacts[k] for k in tree.children[tree.root_index]]
        lone = sorted(tree.root.acts - tree.downacts[tree.root_index] - tree.silent)
        for declared in dict.fromkeys([frozenset(lone), frozenset(lone[::2])]):
            if declared:
                yield two_level_network(tree.root, kids, ups, declared, tree.silent)


@pytest.mark.parametrize("family", ["2-chain", "root-upacts"])
def test_the_root_moves_alone_on_every_action_off_its_downacts(family):
    # the squares split the root's moves by its downacts alone: a declared
    # upact of the root moves it in place like a local action
    nets = list(small_networks(SHAPES["2-chain"]) if family == "2-chain" else with_root_upacts())
    on_upacts = 0  # root-alone edges on a declared upact of the root
    for net in nets:
        r = net.root_index
        lts = build_sq_unreduced(net).lts
        alone = {(lts.payloads[s], a, lts.payloads[d])
                 for s, a, d, moved in zip(lts.src, lts.act, lts.dst, lts.movers)
                 if moved == {r}}
        assert alone == root_lone_edges(net), net
        on_upacts += sum(a in net.upacts[r] for _, a, _ in alone)
    assert len(nets) == (720 if family == "2-chain" else 80)
    assert (on_upacts > 0) == (family == "root-upacts")


def observed(net):
    """The reduction's ``EF`` verdict per proposition, the root's summary
    labels, and the reduced state and transition counts."""
    component, stages = reduce_net_traced(net)
    lts = reduced_lts(component, stages)
    verdicts = {p: check_ef(lts, p).holds for p in net.propositions()}
    return verdicts, summaries(net)[net.root_index][0], lts.n_states, len(lts.src)


def shuffled(net, rng):
    """``net`` with its components, each one's states and each one's
    transitions in a random order."""
    comps = []
    for c in net.components:
        states, transitions = list(c.states), list(c.transitions)
        rng.shuffle(states)
        rng.shuffle(transitions)
        comps.append(Component(c.name, tuple(states), c.initial, tuple(transitions),
                               labels=c.labels))
    rng.shuffle(comps)
    return infer_topology(comps, net.root.name, silent=net.silent)


def renamed(net, rng):
    """``net`` with every component, state and non-silent action renamed at
    random; the order of each stays."""
    acts = sorted({a for c in net.components for a in c.acts} - net.silent)
    act = dict(zip(acts, rng.sample([f"b{j}" for j in range(len(acts))], len(acts))))
    act.update((a, a) for a in net.silent)
    names = rng.sample([f"m{j}" for j in range(len(net.components))], len(net.components))
    comps = []
    for name, c in zip(names, net.components):
        to = dict(zip(c.states, rng.sample([f"x{j}" for j in range(len(c.states))],
                                           len(c.states))))
        comps.append(Component(
            name, tuple(map(to.get, c.states)), to[c.initial],
            tuple((to[s], act[a], to[d]) for s, a, d in c.transitions),
            labels={to[s]: ps for s, ps in c.labels.items()}))
    return infer_topology(comps, names[net.root_index], silent=net.silent)


@pytest.mark.parametrize("relation", [shuffled, renamed], ids=["shuffle", "rename"])
def test_verdicts_and_sizes_survive_the_relation(relation):
    for seed in range(300):
        net = gen_random_tree(GenConfig(seed=seed, max_depth=4))
        verdicts, root_labels, n_states, n_transitions = observed(net)
        # under live reset the summary pass decides every EF verdict alone
        assert {p for p, holds in verdicts.items() if holds} == root_labels, seed
        after = observed(relation(net, random.Random(seed)))
        assert after == (verdicts, root_labels, n_states, n_transitions), seed
