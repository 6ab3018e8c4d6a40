"""Sum-of-squares reduction of live-reset tree networks.

A two-level tree is collapsed into the disjoint union of the child-root
pairwise products, glued at a fresh silent initial state.  Upstream child
synchronisations become handoffs that may pass control to any square.
States from which the root can never act again are pruned, and the result
can be completed into a live-reset component so the construction nests
bottom-up over trees of any height.  Below the top stage each completed
result is quotiented down to what its parent can observe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .errors import EmptyReduction, NotTwoLevel
# subnetwork is not called here; perfbench/spans.py patches it in this namespace
from .model import Component, Network, subnetwork, two_level_network  # noqa: F401
from .product import (
    ExplicitLts,
    FreshInit,
    SquareOrigin,
    Transition,
    lts_to_component,
)


@dataclass(frozen=True)
class SumOfSquares:
    """The glued union of child-root squares of a two-level network."""

    lts: ExplicitLts
    epsilon: str
    root_name: str
    root_acts: frozenset[str]
    root_upacts: frozenset[str]
    unreduced: bool


def fresh_action(taken: frozenset[str] | set[str], base: str) -> str:
    """A name not in ``taken``, derived from ``base``."""
    if base not in taken:
        return base
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def build_sq_unreduced(net: Network, epsilon: str | None = None) -> SumOfSquares:
    """Build the glued union of child-root squares, reachable part only.

    The network must be a two-level tree (a root whose children are all
    leaves).  Transitions follow four rules: the fresh initial state reaches
    every square's initial pair via ``epsilon``; local child and root
    actions move their own coordinate inside a square; a child synchronising
    upward resets and hands control to any square; and upstream actions of
    the root itself move the root coordinate in place.

    A square state (child index, child state position, root state position)
    is coded as ``row * width + root position``, the rows running over the
    squares' child states.  The reachable codes are found first and
    numbered in sorted order, so ids follow the keys: square by square in
    network order, child states varying slower than root states, both in
    declaration order.  Each transition is then emitted once, with its ids.
    """
    r = net.root_index
    kids = net.children[r]
    if not kids:
        raise NotTwoLevel("the network must have at least one child under the root")
    for k in kids:
        if net.children[k]:
            raise NotTwoLevel(f"component {net.components[k].name!r} is not a leaf")
    comps = net.components
    root = comps[r]
    all_acts = {a for c in comps for a in c.acts}
    if epsilon is None:
        epsilon = fresh_action(all_acts | set(net.silent), "eps")
    elif epsilon in all_acts:
        raise ValueError(f"epsilon name {epsilon!r} collides with an existing action")

    # per root position and per row (child index, child state position): the
    # moves of each rule as (action, code offset, movers), the handoffs as
    # (action, movers) and the root's targets per action; entries: the code
    # of each square's initial pair at root position 0
    width = len(root.states)
    loc_root, up_root, at_root = net.locacts[r], net.upacts[r], frozenset((r,))
    root_local = [[(a, d - rs, at_root) for a, d in moves if a in loc_root]
                  for rs, moves in enumerate(root.succ)]
    root_up = [[(a, d - rs, at_root) for a, d in moves if a in up_root]
               for rs, moves in enumerate(root.succ)]
    root_dsts = [{a: [d for b, d in moves if b == a] for a, _ in moves} for moves in root.succ]
    rows, child_local, handoffs, entries = [], [], [], []
    for k in kids:
        init, loc, up = comps[k].index[comps[k].initial], net.locacts[k], net.upacts[k]
        at_child, at_both = frozenset((k,)), frozenset((k, r))
        entries.append((len(rows) + init) * width)
        for cs, moves in enumerate(comps[k].succ):
            rows.append((k, cs))
            child_local.append([(a, (d - cs) * width, at_child) for a, d in moves if a in loc])
            handoffs.append([(a, at_both) for a, d in moves if a in up and d == init])

    root_init = root.index[root.initial]
    found = {e + root_init for e in entries}
    entered = {root_init}  # root positions at which every square has been entered
    stack = list(found)
    while stack:
        code = stack.pop()
        row, rs = divmod(code, width)
        new = {code + d for _, d, _ in child_local[row] + root_local[rs] + root_up[rs]}
        for act, _ in handoffs[row]:
            for root_dst in root_dsts[rs].get(act, ()):
                if root_dst not in entered:
                    entered.add(root_dst)
                    new.update(e + root_dst for e in entries)
        stack += new - found
        found |= new

    ordered = sorted(found)
    ids = dict(zip(ordered, range(1, len(ordered) + 1)))
    entry_ids = {rs: [ids[e + rs] for e in entries] for rs in entered}
    transitions = [Transition(0, epsilon, dst, frozenset()) for dst in entry_ids[root_init]]
    for src, code in enumerate(ordered, 1):
        row, rs = divmod(code, width)
        transitions += [Transition(src, a, ids[code + d], m)
                        for a, d, m in child_local[row] + root_local[rs]]
        for act, movers in handoffs[row]:
            for root_dst in root_dsts[rs].get(act, ()):
                transitions += [Transition(src, act, dst, movers) for dst in entry_ids[root_dst]]
        transitions += [Transition(src, a, ids[code + d], m) for a, d, m in root_up[rs]]
    keys = [rows[code // width] + (code % width,) for code in ordered]
    names = {i: comps[i].states for i in (r, *kids)}
    labels = {i: [comps[i].label_of(s) for s in comps[i].states] for i in (r, *kids)}
    return SumOfSquares(
        lts=ExplicitLts(
            0,
            transitions,
            [frozenset()] + [_union(labels[i][cs], labels[r][rs]) for i, cs, rs in keys],
            [FreshInit()] + [SquareOrigin(i, names[i][cs], names[r][rs]) for i, cs, rs in keys],
        ),
        epsilon=epsilon,
        root_name=root.name,
        root_acts=root.acts,
        root_upacts=up_root,
        unreduced=True,
    )


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """``a | b``, reusing an operand when the other is empty."""
    return a | b if a and b else a or b


def _backward_closure(lts: ExplicitLts, seeds: Iterable[int]) -> set[int]:
    """The ``seeds`` together with every state that has a path into them."""
    rev: list[list[int]] = [[] for _ in range(lts.n_states)]
    for t in lts.transitions:
        rev[t.dst].append(t.src)
    closed = set(seeds)
    stack = list(closed)
    while stack:
        for v in rev[stack.pop()]:
            if v not in closed:
                closed.add(v)
                stack.append(v)
    return closed


def compute_locked(sq: SumOfSquares) -> frozenset[int]:
    """States from which no finite path reaches a root-labelled transition.

    Computed by reverse reachability from the sources of transitions
    labelled with an action of the root component; everything else is
    locked.
    """
    lts = sq.lts
    alive = _backward_closure(
        lts, (t.src for t in lts.transitions if t.action in sq.root_acts))
    return frozenset(i for i in range(lts.n_states) if i not in alive)


def build_sq(net: Network, epsilon: str | None = None) -> SumOfSquares:
    """The pruned sum-of-squares: locked states removed, ids renumbered.

    Raises EmptyReduction when pruning would leave the initial state with no
    surviving square to enter.
    """
    return prune_locked(build_sq_unreduced(net, epsilon))


def prune_locked(sq: SumOfSquares) -> SumOfSquares:
    """Remove the locked states of an unreduced sum-of-squares.

    A locked state is kept when a labelled state is reachable from it:
    locked regions are forward-closed, so deleting such a state could make
    a reachable labelling unreachable and flip a verdict.  On systems whose
    locked states carry no reachable labelling (all the bundled fixtures)
    this deletes exactly the locked set.  The glue initial state is never
    deleted; if every square it enters is deleted, EmptyReduction is raised
    instead of emitting a system with a dangling initial state.
    """
    locked = compute_locked(sq)
    lts = sq.lts
    if not locked:
        return replace(sq, unreduced=False)

    label_reaching = _backward_closure(
        lts, (i for i in range(lts.n_states) if lts.labels[i]))

    deleted = locked - label_reaching - {lts.initial}
    if all(t.dst in deleted for t in lts.out(lts.initial)):
        raise EmptyReduction("all squares are locked; the initial state would be isolated")
    if not deleted:
        return replace(sq, unreduced=False)
    remap = {old: new for new, old in
             enumerate(i for i in range(lts.n_states) if i not in deleted)}
    pruned = ExplicitLts(
        initial=remap[lts.initial],
        transitions=[
            Transition(remap[t.src], t.action, remap[t.dst], t.movers)
            for t in lts.transitions
            if t.src in remap and t.dst in remap
        ],
        labels=[lts.labels[i] for i in range(lts.n_states) if i not in deleted],
        payloads=[lts.payloads[i] for i in range(lts.n_states) if i not in deleted],
    )
    return replace(sq, lts=pruned, unreduced=False)


def cmpl(sq: SumOfSquares) -> Component:
    """Close a sum-of-squares under upstream synchronisation of its root.

    Every transition labelled with an upstream action of the root is
    retargeted to the fresh initial state, making the result a live-reset
    component (named after the root) that can stand in for the whole
    subtree inside an enclosing network.
    """
    return lts_to_component(sq.lts, sq.root_name, sq.root_upacts)


def quotient(component: Component, visible: frozenset[str], epsilon: str) -> Component:
    """Minimise a completed child as a parent synchronising over ``visible``
    sees it.

    Every action outside ``visible`` is renamed to ``epsilon``.  Each
    strongly connected component of ``epsilon`` moves collapses into one
    state carrying the union of its members' labels, and its silent
    self-loops are dropped.  Bisimilar states then merge by signature
    refinement, starting from the partition by label set.  Blocks are
    numbered by the first state position each contains and transitions are
    emitted sorted, so the result never depends on hashing order.

    Reachability of every single proposition is preserved inside any such
    parent: a silent move never involves the parent, so all members of a
    silent cycle are reachable alongside any parent state, and strong
    bisimulation is a congruence for synchronisation over ``visible``.
    """
    moves = [[(a if a in visible else epsilon, d) for a, d in out] for out in component.succ]
    scc = _sccs([[d for a, d in out if a == epsilon] for out in moves])
    n = max(scc) + 1
    labels: list[frozenset[str]] = [frozenset()] * n
    edges: list[set[tuple[str, int]]] = [set() for _ in range(n)]
    for pos, out in enumerate(moves):
        src = scc[pos]
        labels[src] = _union(labels[src], component.label_of(component.states[pos]))
        edges[src].update((a, scc[d]) for a, d in out if a != epsilon or scc[d] != src)

    by_label: dict[frozenset[str], int] = {}
    block = [by_label.setdefault(lab, len(by_label)) for lab in labels]
    count = len(by_label)
    while True:
        # a block splits by the blocks its members' moves reach
        sigs: dict[tuple[int, frozenset[tuple[str, int]]], int] = {}
        block = [sigs.setdefault((block[s], frozenset((a, block[d]) for a, d in edges[s])),
                                 len(sigs)) for s in range(n)]
        if len(sigs) == count:
            break
        count = len(sigs)

    rank: dict[int, int] = {}
    for s in scc:
        rank.setdefault(block[s], len(rank))
    of = [rank[b] for b in block]
    names = tuple(f"q{i}" for i in range(len(rank)))
    return Component(
        name=component.name,
        states=names,
        initial=names[of[scc[component.index[component.initial]]]],
        transitions=tuple(
            (names[src], act, names[dst]) for src, act, dst in
            sorted({(of[s], a, of[d]) for s in range(n) for a, d in edges[s]})),
        labels={names[of[s]]: labels[s] for s in range(n) if labels[s]},
    )


def _sccs(succ: list[list[int]]) -> list[int]:
    """Strongly connected component id per node of the graph ``succ``, by
    Tarjan's algorithm with explicit stacks."""
    n = len(succ)
    order, low, scc = [0] * n, [0] * n, [-1] * n
    visited, found = 0, 0
    path: list[int] = []
    for start in range(n):
        if order[start]:
            continue
        visited += 1
        order[start] = low[start] = visited
        path.append(start)
        work = [(start, 0)]
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if not order[w]:
                    visited += 1
                    order[w] = low[w] = visited
                    path.append(w)
                    work.append((w, 0))
                elif scc[w] < 0:  # still on the path stack
                    low[v] = min(low[v], order[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == order[v]:
                while True:
                    w = path.pop()
                    scc[w] = found
                    if w == v:
                        break
                found += 1
    return scc


@dataclass(frozen=True)
class ReductionStage:
    """One two-level collapse performed during a bottom-up reduction.

    ``result`` is the component the parent sees: ``cmpl(sq)``, quotiented
    below the top stage, so ``sq.lts.n_states`` against
    ``len(result.states)`` is the quotient's shrink.
    """

    net: Network
    sq: SumOfSquares
    result: Component


def reduce_net(net: Network, prune: bool = True) -> Component:
    """Collapse a live-reset tree network into a single component.

    Leaves are returned unchanged; every internal node is replaced by the
    completed (and, unless ``prune`` is false, pruned) sum-of-squares of
    itself and its already-reduced children, quotiented by ``quotient``
    unless it is the root.  The result satisfies the same reachability
    verdicts as the full product for every single proposition.
    """
    component, _ = reduce_net_traced(net, prune=prune)
    return component


def reduce_net_traced(
    net: Network, prune: bool = True,
) -> tuple[Component, tuple[ReductionStage, ...]]:
    """Like reduce_net but also returns the per-node stages, bottom-up.

    Stages come in post-order over the original tree, children in network
    order.  Below the top, each stage's ``result`` is the quotiented
    component its parent's stage glues in.  The last stage is the top-level
    one; its network consists of the original root and the reduced
    children, which is what any witness found on the final component is
    expressed over.
    """
    stages: list[ReductionStage] = []
    reserved = frozenset(
        {a for c in net.components for a in c.acts} | net.silent
    )
    reduced: dict[int, Component] = {}
    hidden: dict[int, str] = {}
    todo = [(net.root_index, 0, False)]
    while todo:
        node, level, ready = todo.pop()
        kids = net.children[node]
        if not kids:
            reduced[node] = net.components[node]
        elif not ready:
            todo.append((node, level, True))
            todo.extend((k, level + 1, False) for k in reversed(kids))
        else:
            epsilon = fresh_action(reserved, f"eps{level}")
            two_level = two_level_network(
                net.components[node],
                [reduced.pop(k) for k in kids],
                child_upacts=[net.upacts[k] for k in kids],
                root_upacts=net.upacts[node],
                # the names reduced children hide their moves under stay
                # silent here
                silent=net.silent | {hidden.pop(k) for k in kids if k in hidden},
            )
            sq = _squares(two_level, epsilon, prune)
            result = cmpl(sq)
            if level:
                result = quotient(result, net.upacts[node], epsilon)
                hidden[node] = epsilon
            reduced[node] = result
            stages.append(ReductionStage(net=two_level, sq=sq, result=result))
    return reduced[net.root_index], tuple(stages)


def _squares(net: Network, epsilon: str, prune: bool) -> SumOfSquares:
    """The (pruned, unless ``prune`` is false) squares of a two-level stage."""
    if not prune:
        return build_sq_unreduced(net, epsilon)
    try:
        return build_sq(net, epsilon)
    except EmptyReduction:
        # every square is locked and label-free: nothing labelled is
        # reachable in this subtree, so the bare glue state is enough
        return _glue_only(build_sq_unreduced(net, epsilon))


def _glue_only(sq: SumOfSquares) -> SumOfSquares:
    lts = sq.lts
    return replace(
        sq,
        lts=ExplicitLts(0, (), [frozenset()], [lts.payloads[lts.initial]]),
        unreduced=False,
    )
