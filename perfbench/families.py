"""Seeded workload generators for the benchmark.

The shape families (``chain``, ``balanced``, ``wide``) reuse the action
construction of ``treelts.gen_random_tree`` on a fixed tree shape and add a
local tau-ring ``s0 -> s1 -> ... -> s0`` to every component.  Tau never
synchronises, so the ring makes every local state reachable in the full
product.  Two consequences the benchmark relies on:

* the reachability verdicts are known by construction: ``EF p`` holds iff
  ``p`` labels a ring state of some component (the root's extra ``limbo``
  state, labelled ``p_nowhere``, has no incoming transition);
* every square pair is reachable, so state counts depend on the shape and
  the component sizes only, never on the seed, and no square state is ever
  locked.

The ``suite`` family is ``gen_random_tree`` with the configuration of the
acceptance suite, stratified by component count (see ``suite_instances``).
"""

from __future__ import annotations

import random
from collections import Counter
from math import prod

from treelts import Component, GenConfig, Network, gen_random_tree, infer_topology

#: Generator bounds of the acceptance suite (tests/test_acceptance.py).
SUITE_CFG = dict(max_depth=3, max_children=3, max_states=5,
                 max_local_actions=2, propositions=3, density=0.6)

#: Instances per benchmark run and the size of each, per family.
CHAIN_DEPTH, CHAIN_STATES, CHAIN_COUNT = 6, 4, 8
BALANCED_DEPTH, BALANCED_STATES, BALANCED_COUNT = 4, 4, 8
WIDE_LEAVES, WIDE_STATES, WIDE_COUNT = 60, 10, 10
SUITE_COUNT = 500
#: Product of component sizes above which a suite instance is skipped; the
#: same state cap the acceptance suite passes to equivalence_suite.
SUITE_CAP = 300_000

FAMILIES = ("chain", "balanced", "wide", "suite")


def chain_shape(depth: int) -> list[int | None]:
    """Parent index per node of a path with ``depth`` nodes."""
    return [None] + list(range(depth - 1))


def balanced_shape(depth: int, rng: random.Random) -> list[int | None]:
    """Every node above ``depth`` gets two or three children."""
    parents: list[int | None] = [None]
    level = [0]
    for _ in range(depth - 1):
        nxt = []
        for node in level:
            for _ in range(rng.randint(2, 3)):
                parents.append(node)
                nxt.append(len(parents) - 1)
        level = nxt
    return parents


def wide_shape(leaves: int) -> list[int | None]:
    return [None] + [0] * leaves


def ring_network(
    parents: list[int | None],
    states: int,
    rng: random.Random,
    propositions: int = 2,
    max_local_actions: int = 2,
    density: float = 0.5,
) -> Network:
    """A live-reset tree over ``parents`` with a tau-ring in every component.

    Actions follow ``gen_random_tree``: one to three fresh upstream actions
    per non-root component, all resetting it, matching transitions in the
    parent, and random local and silent steps up to ``density``.
    """
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    fresh = iter(range(10**9))
    upacts = {i: [f"a{next(fresh)}" for _ in range(rng.randint(1, 3))] for i in range(1, n)}
    names = [f"s{k}" for k in range(states)]
    comps = []
    for i in range(n):
        trans = [(names[k], "tau", names[(k + 1) % states]) for k in range(states)]
        for act in upacts.get(i, []):
            sources = 1 + (1 if states > 1 and rng.random() < density else 0)
            for _ in range(sources):
                trans.append((names[rng.randrange(states)], act, names[0]))
        for child in children[i]:
            for act in upacts[child]:
                for _ in range(1 + (1 if rng.random() < density else 0)):
                    trans.append(
                        (names[rng.randrange(states)], act, names[rng.randrange(states)]))
        pool = [f"l{next(fresh)}" for _ in range(rng.randint(0, max_local_actions))] + ["tau"]
        extra = rng.randint(round(density * states * 0.5), max(1, round(density * states * 2.5)))
        for _ in range(extra):
            trans.append(
                (names[rng.randrange(states)], rng.choice(pool), names[rng.randrange(states)]))
        labels: dict[str, set[str]] = {}
        for prop in (f"p{k}" for k in range(propositions)):
            for s in names:
                if rng.random() < 0.12:
                    labels.setdefault(s, set()).add(prop)
        comp_states = list(names)
        if i == 0:
            labels.setdefault("s0", set()).add("p_top")
            comp_states.append("limbo")
            labels["limbo"] = {"p_nowhere"}
        comps.append(Component(
            name=f"n{i}",
            states=tuple(comp_states),
            initial="s0",
            transitions=tuple(trans),
            labels={s: frozenset(ps) for s, ps in labels.items()},
        ))
    return infer_topology(comps, "n0", silent=frozenset({"tau"}))


def ring_expected(net: Network) -> dict[str, bool]:
    """EF verdict per proposition of a ring network, by construction."""
    expected = {p: False for p in net.propositions()}
    for c in net.components:
        for s, props in c.labels.items():
            if s != "limbo":
                for p in props:
                    expected[p] = True
    return expected


def chain(depth: int, rng: random.Random, states: int = CHAIN_STATES) -> Network:
    return ring_network(chain_shape(depth), states, rng)


def capped_suite_stream(first_seed: int, limit: int):
    """``gen_random_tree`` instances from consecutive seeds, skipping those
    whose component sizes multiply to more than ``SUITE_CAP``."""
    cfg_seed = first_seed
    for _ in range(limit):
        while True:
            net = gen_random_tree(GenConfig(seed=cfg_seed, **SUITE_CFG))
            cfg_seed += 1
            if prod(len(c.states) for c in net.components) <= SUITE_CAP:
                break
        yield net


def suite_instances(seed: int) -> list[Network]:
    """``SUITE_COUNT`` instances with the component-count histogram of the
    first ``SUITE_COUNT`` instances of seeds 0, 1, 2, ...

    The size of a random tree varies a lot, and with it the work of an
    instance; drawing the same number of instances of each component count
    keeps the work of a run from following the seed (stratified sampling).
    Candidates come in seed order from ``seed * 100_000``; should a count
    run short, the first surplus candidates fill in.
    """
    quota = Counter(len(n.components) for n in capped_suite_stream(0, SUITE_COUNT))
    chosen: list[Network] = []
    surplus: list[Network] = []
    for net in capped_suite_stream(seed * 100_000, 10 * SUITE_COUNT):
        n = len(net.components)
        if quota[n]:
            quota[n] -= 1
            chosen.append(net)
            if len(chosen) == SUITE_COUNT:
                return chosen
        elif len(surplus) < SUITE_COUNT:
            surplus.append(net)
    return chosen + surplus[:SUITE_COUNT - len(chosen)]


def generate(family: str, seed: int) -> list[Network]:
    """The instances of one benchmark run, deterministic in ``seed``.

    On the ring families the tree shapes are fixed per instance index, so
    every seed does the same amount of square construction; the seed draws
    actions and labels.
    """
    if family == "chain":
        return [chain(CHAIN_DEPTH, random.Random(f"chain:{seed}:{k}"))
                for k in range(CHAIN_COUNT)]
    if family == "balanced":
        return [ring_network(balanced_shape(BALANCED_DEPTH, random.Random(f"balanced-shape:{k}")),
                             BALANCED_STATES, random.Random(f"balanced:{seed}:{k}"))
                for k in range(BALANCED_COUNT)]
    if family == "wide":
        return [ring_network(wide_shape(WIDE_LEAVES), WIDE_STATES,
                             random.Random(f"wide:{seed}:{k}"))
                for k in range(WIDE_COUNT)]
    if family == "suite":
        return suite_instances(seed)
    raise ValueError(f"unknown workload {family!r}")
