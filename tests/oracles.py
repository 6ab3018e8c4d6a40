"""Brute-force reference constructions, independent of the package code.

The product oracle enumerates the whole tuple space up front and applies
the synchronisation rule per tuple, then keeps the part reachable from the
initial tuple via a set fixpoint.  The temporal oracles work on that
relation with set fixpoints rather than search, so they share no code with
the structures they check.  The home merge is the reduction's last square
step done on its own, on an explicit graph of pruned squares.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from treelts import ExplicitLts, SquareOrigin


def naive_product(components, silent):
    """Return (initial, reachable tuple set, transition set, label map).

    Transitions are (src_tuple, action, dst_tuple) restricted to reachable
    sources.  Labels map each reachable tuple to the union of component
    labels.
    """
    comps = list(components)
    sharers: dict[str, set[int]] = {}
    for i, c in enumerate(comps):
        for _, act, _ in c.transitions:
            if act not in silent:
                sharers.setdefault(act, set()).add(i)

    all_transitions = set()
    spaces = [list(c.states) for c in comps]
    shared_acts = sorted(a for a, group in sharers.items() if len(group) > 1)
    for tup in itertools.product(*spaces):
        for i, c in enumerate(comps):
            for src, act, dst in c.transitions:
                if src != tup[i]:
                    continue
                if act in silent or len(sharers[act]) == 1:
                    succ = tup[:i] + (dst,) + tup[i + 1:]
                    all_transitions.add((tup, act, succ))
        for act in shared_acts:
            group = sorted(sharers[act])
            per_member = []
            for j in group:
                targets = [d for s, a, d in comps[j].transitions if s == tup[j] and a == act]
                if not targets:
                    per_member = None
                    break
                per_member.append(targets)
            if per_member is None:
                continue
            for combo in itertools.product(*per_member):
                succ = list(tup)
                for j, d in zip(group, combo):
                    succ[j] = d
                all_transitions.add((tup, act, tuple(succ)))

    initial = tuple(c.initial for c in comps)
    reachable = {initial}
    changed = True
    while changed:
        changed = False
        for src, _, dst in all_transitions:
            if src in reachable and dst not in reachable:
                reachable.add(dst)
                changed = True
    transitions = {(s, a, d) for s, a, d in all_transitions if s in reachable}
    labels = {
        tup: frozenset().union(*(comps[i].label_of(tup[i]) for i in range(len(comps))))
        for tup in reachable
    }
    return initial, reachable, transitions, labels


def naive_ef(reachable, labels, proposition):
    """EF by definition: some reachable tuple carries the proposition."""
    return any(proposition in labels[t] for t in reachable)


def naive_eg(initial, reachable, transitions, labels, proposition):
    """EG via the greatest fixpoint of 'labelled and has a labelled successor'."""
    good = {t for t in reachable if proposition in labels[t]}
    changed = True
    while changed:
        changed = False
        for s in list(good):
            if not any(src == s and dst in good for src, _, dst in transitions):
                good.discard(s)
                changed = True
    return initial in good


def merge_home(sq, net):
    """Merge the squares' copies of each all-children-home state.

    A handoff enters every square at ``(child k, initial of k, rs)``; these
    copies, one per child, are one global state: the root at ``rs`` and
    every child at its initial state.  Each root position's copies in
    ``sq`` become one state that keeps the payload of the lowest-id copy
    and the union of the copies' labels; states and transitions keep their
    order, renumbered, and exact repeats of ``(src, act, dst, movers)`` go.
    ``net`` is the two-level network the squares were built from.  Squares
    with fewer than two copies at every root position come back as they
    are.
    """
    home = {k: net.components[k].initial for k in net.children[net.root_index]}
    lts = sq.lts
    first = {}
    to = list(range(lts.n_states))
    for i, p in enumerate(lts.payloads):
        if type(p) is SquareOrigin and home[p.child_index] == p.child_state:
            to[i] = first.setdefault(p.root_state, i)
    if to == list(range(lts.n_states)):
        return sq
    kept = [i for i, t in enumerate(to) if t == i]
    new_id = {i: k for k, i in enumerate(kept)}
    remap = [new_id[t] for t in to]
    labels = [set() for _ in kept]
    for i, k in enumerate(remap):
        labels[k] |= lts.labels[i]
    edges = dict.fromkeys(zip([remap[s] for s in lts.src], lts.act,
                              [remap[d] for d in lts.dst], lts.movers))
    src, act, dst, movers = (list(col) for col in zip(*edges)) if edges else ([], [], [], [])
    return replace(sq, lts=ExplicitLts(remap[lts.initial], src, act, dst, movers,
                                       labels=labels, payloads=[lts.payloads[i] for i in kept]))
