"""Sum-of-squares reduction of live-reset tree networks.

A two-level tree is collapsed into the disjoint union of the child-root
pairwise products, glued at a fresh silent initial state.  Upstream child
synchronisations become handoffs that may pass control to any square.
States from which the root can never act again are pruned, and the result
can be completed into a live-reset component so the construction nests
bottom-up over trees of any height.  Below the top stage each completed
result is quotiented down to what its parent can observe.  A path of any
stage's squares lifts back to the components that entered the stage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from itertools import compress
from typing import Callable, Iterable

from .errors import InvalidWitness, NotTwoLevel, ValidationError
# subnetwork is not called here; perfbench/spans.py patches it in this namespace
from .model import Component, Network, subnetwork, two_level_network  # noqa: F401
from .product import (
    ExplicitLts,
    FreshInit,
    GlobalTuple,
    Path,
    PathPrefix,
    Payload,
    SquareOrigin,
    component_lts,
    lts_to_component,
    prefix_of,
)


@dataclass(frozen=True)
class SumOfSquares:
    """The glued union of child-root squares of a two-level network."""

    lts: ExplicitLts
    epsilon: str
    root_name: str
    root_index: int
    root_upacts: frozenset[str]


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
        raise ValidationError(f"epsilon name {epsilon!r} collides with an existing action")

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
    glue = entry_ids[root_init]
    n_glue = len(glue)
    src, act, dst, movers = [0] * n_glue, [epsilon] * n_glue, glue[:], [frozenset()] * n_glue
    for s, code in enumerate(ordered, 1):
        row, rs = divmod(code, width)
        for a, d, m in child_local[row] + root_local[rs]:
            src.append(s)
            act.append(a)
            dst.append(ids[code + d])
            movers.append(m)
        for a, m in handoffs[row]:
            for root_dst in root_dsts[rs].get(a, ()):
                targets = entry_ids[root_dst]
                src += [s] * len(targets)
                act += [a] * len(targets)
                dst += targets
                movers += [m] * len(targets)
        for a, d, m in root_up[rs]:
            src.append(s)
            act.append(a)
            dst.append(ids[code + d])
            movers.append(m)
    keys = [rows[code // width] + (code % width,) for code in ordered]
    names = {i: comps[i].states for i in (r, *kids)}
    labels = {i: [comps[i].label_of(s) for s in comps[i].states] for i in (r, *kids)}
    return SumOfSquares(
        lts=ExplicitLts(
            0, src, act, dst, movers,
            [frozenset()] + [_union(labels[i][cs], labels[r][rs]) for i, cs, rs in keys],
            [FreshInit()] + [SquareOrigin(i, names[i][cs], names[r][rs]) for i, cs, rs in keys],
        ),
        epsilon=epsilon,
        root_name=root.name,
        root_index=r,
        root_upacts=up_root,
    )


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """``a | b``, reusing an operand when the other is empty."""
    return a | b if a and b else a or b


def _backward_closure(lts: ExplicitLts, seeds: Iterable[int]) -> set[int]:
    """The ``seeds`` together with every state that has a path into them."""
    rev: list[list[int]] = [[] for _ in range(lts.n_states)]
    for s, d in zip(lts.src, lts.dst):
        rev[d].append(s)
    closed = set(seeds)
    stack = list(closed)
    while stack:
        for v in rev[stack.pop()]:
            if v not in closed:
                closed.add(v)
                stack.append(v)
    return closed


def compute_locked(sq: SumOfSquares) -> frozenset[int]:
    """States from which no finite path reaches a transition the root takes
    part in.

    Computed by reverse reachability from the sources of transitions whose
    movers contain the root's index; everything else is locked.  Who moved
    is read from the movers, never from the action name: a leaf may use a
    name the root uses too, a silent one such as ``tau`` most often.
    """
    lts = sq.lts
    r = sq.root_index
    alive = _backward_closure(lts, compress(lts.src, [r in m for m in lts.movers]))
    return frozenset(i for i in range(lts.n_states) if i not in alive)


def build_sq(net: Network, epsilon: str | None = None) -> SumOfSquares:
    """The pruned sum-of-squares: locked states removed, ids renumbered
    (see ``prune_locked``)."""
    return prune_locked(build_sq_unreduced(net, epsilon))


def prune_locked(sq: SumOfSquares) -> SumOfSquares:
    """Remove the locked states of an unreduced sum-of-squares.

    A locked state is kept when a labelled state is reachable from it:
    locked regions are forward-closed, so deleting such a state could make
    a reachable labelling unreachable and flip a verdict.  On systems whose
    locked states carry no reachable labelling (all the bundled fixtures)
    this deletes exactly the locked set.  The glue initial state is never
    deleted; when every square is locked and label-free, it is all that is
    left, with no transitions.
    """
    locked = compute_locked(sq)
    lts = sq.lts
    if not locked:
        return sq

    label_reaching = _backward_closure(
        lts, (i for i in range(lts.n_states) if lts.labels[i]))

    deleted = locked - label_reaching - {lts.initial}
    if not deleted:
        return sq
    remap = {old: new for new, old in
             enumerate(i for i in range(lts.n_states) if i not in deleted)}
    kept = [s in remap and d in remap for s, d in zip(lts.src, lts.dst)]
    pruned = ExplicitLts(
        remap[lts.initial],
        [remap[s] for s in compress(lts.src, kept)],
        list(compress(lts.act, kept)),
        [remap[d] for d in compress(lts.dst, kept)],
        list(compress(lts.movers, kept)),
        labels=[lts.labels[i] for i in range(lts.n_states) if i not in deleted],
        payloads=[lts.payloads[i] for i in range(lts.n_states) if i not in deleted],
    )
    return replace(sq, lts=pruned)


def cmpl(sq: SumOfSquares) -> Component:
    """Close a sum-of-squares under upstream synchronisation of its root.

    Every transition labelled with an upstream action of the root is
    retargeted to the fresh initial state, making the result a live-reset
    component (named after the root) that can stand in for the whole
    subtree inside an enclosing network.
    """
    return lts_to_component(sq.lts, sq.root_name, sq.root_upacts)


def quotient(
    component: Component, visible: frozenset[str], epsilon: str, keep: bool = False,
) -> tuple[Component, tuple[int, ...] | None]:
    """Minimise a component as tree neighbours synchronising over
    ``visible`` see it.

    Every action outside ``visible`` is renamed to ``epsilon``.  Each
    strongly connected component of ``epsilon`` moves collapses into one
    state carrying the union of its members' labels, and its silent
    self-loops are dropped.  Bisimilar states then merge by signature
    refinement, starting from the partition by label set.  Blocks are
    numbered by the first state position each contains and transitions are
    emitted sorted, so the result never depends on hashing order.

    Returns the minimised component and its block map: per state position
    of ``component``, the position of the result state its silent SCC
    merged into.  With ``keep``, a component whose silent moves contain no
    cycle comes back as it is, with no block map, right after the SCC pass:
    its SCC contraction merges nothing, and what bisimulation alone would
    merge in it is not worth the refinement's cost.

    Reachability of every single proposition is preserved inside any
    network whose other components share only ``visible`` with this one: a
    silent move involves no other component, so all members of a silent
    cycle are reachable alongside any state of the others, and strong
    bisimulation is a congruence for synchronisation over ``visible``.
    """
    scc = _sccs([[d for a, d in out if a not in visible] for out in component.succ])
    n = max(scc) + 1
    if keep and n == len(scc):
        return component, None
    moves = [[(a if a in visible else epsilon, d) for a, d in out] for out in component.succ]
    labels: list[frozenset[str]] = [frozenset()] * n
    edges: list[set[tuple[str, int]]] = [set() for _ in range(n)]
    for pos, out in enumerate(moves):
        src = scc[pos]
        labels[src] = _union(labels[src], component.label_of(component.states[pos]))
        edges[src].update((a, scc[d]) for a, d in out if a != epsilon or scc[d] != src)

    by_label: dict[frozenset[str], int] = {}
    block = [by_label.setdefault(lab, len(by_label)) for lab in labels]
    count = len(by_label)
    while count < n:  # a partition into singletons is stable
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
    minimal = Component(
        name=component.name,
        states=names,
        initial=names[of[scc[component.index[component.initial]]]],
        transitions=tuple(
            (names[src], act, names[dst]) for src, act, dst in
            sorted({(of[s], a, of[d]) for s in range(n) for a, d in edges[s]})),
        labels={names[of[s]]: labels[s] for s in range(n) if labels[s]},
    )
    return minimal, tuple(of[s] for s in scc)


def _interface(net: Network, i: int) -> frozenset[str]:
    """The actions component ``i`` of ``net`` shares with its tree
    neighbours: its upacts and downacts."""
    return net.upacts[i] | net.downacts[i]


def _premin(
    component: Component, visible: frozenset[str], hide: str,
) -> tuple[Component, tuple[int, ...] | None]:
    """``component`` quotiented against its tree interface ``visible``, or
    itself with no block map when its moves outside ``visible`` contain no
    cycle.  A component with a single state or no action outside
    ``visible`` is left as it is without a look."""
    if len(component.states) < 2 or component.acts <= visible:
        return component, None
    return quotient(component, visible, hide, keep=True)


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

    ``net`` is the network the squares ``sq`` were built from.  Its root
    and its leaf children are pre-minimised: ``originals`` holds the
    components as they entered the stage (the reduced inner children among
    them), aligned with ``net.components``, and ``blocks[i]`` the block map
    ``quotient`` gave for ``originals[i]``, or None where the component
    entered as it is (see ``_premin``).  ``lift_witness`` reads all three
    to map a path of ``sq`` onto states of ``originals``.  ``result`` is the
    component the parent sees: ``cmpl(sq)``, quotiented below the top stage,
    so ``sq.lts.n_states`` against ``len(result.states)`` is the quotient's
    shrink.  ``deleted`` counts the states pruning removed from the
    unpruned squares; when it is 0, ``sq`` holds the unpruned squares
    themselves.
    """

    net: Network
    sq: SumOfSquares
    result: Component
    deleted: int
    originals: tuple[Component, ...]
    blocks: tuple[tuple[int, ...] | None, ...]


def lift_witness(
    stage: ReductionStage, path: Path, proposition: str | None = None,
) -> PathPrefix:
    """Map a path of ``stage.sq`` onto global states of ``stage.originals``.

    The glue step is dropped.  Each square state places the root and the
    active child at their square coordinates and every other component at
    its initial state, so a handoff, which resets the active child, sends
    the old child home; every step keeps the movers the squares recorded.
    A pre-minimised component (one with a block map) sits at an original
    state of its current block, starting at its original initial state.  A
    step that moves it becomes hidden moves (on actions outside its tree
    interface in ``stage.net``) through members of the block, up to a
    member with an original move into the target block on the step's
    action, or on any hidden action when the step's is hidden; that move
    follows.  Such a member is reachable inside the silent SCC the walk
    starts in, because the blocks are a bisimulation of the SCC-contracted
    component.  With ``proposition``, unless some coordinate carries it at
    the end already, one pre-minimised component whose block carries it
    walks the same way to a member that does.

    The result replays on the product of ``stage.originals``: the full
    product when the stage is the top one of a two-level network.  Raises
    InvalidWitness when a step is not a transition of the squares, or when
    no hidden walk completes a step.
    """
    net, originals, blocks = stage.net, stage.originals, stage.blocks
    prefix = prefix_of(stage.sq.lts, path)
    payloads, actions, movers = prefix.states, prefix.actions, prefix.movers
    if actions and isinstance(payloads[0], FreshInit):
        payloads, actions, movers = payloads[1:], actions[1:], movers[1:]

    def place(p: Payload, i: int) -> str:
        # only a zero-length path stays at the glue state: the global start
        if isinstance(p, SquareOrigin):
            if i == net.root_index:
                return p.root_state
            if i == p.child_index:
                return p.child_state
        return net.components[i].initial

    # original state position of each pre-minimised component
    at = {i: c.index[c.initial] for i, (c, b) in enumerate(zip(originals, blocks))
          if b is not None}
    coords = [originals[i].states[at[i]] if i in at else place(payloads[0], i)
              for i in range(len(originals))]
    states = [GlobalTuple(tuple(coords))]
    lifted_actions: list[str] = []
    lifted_movers: list[frozenset[int]] = []

    def take(moved: frozenset[int], act: str, to: dict[int, int]) -> None:
        for i, p in to.items():
            at[i] = p
            coords[i] = originals[i].states[p]
        lifted_actions.append(act)
        lifted_movers.append(moved)
        states.append(GlobalTuple(tuple(coords)))

    def walk(i: int, goal: Callable[[int], tuple | None]) -> tuple:
        """Take the hidden moves of ``i``, breadth-first, up to the first
        state for which ``goal`` is not None; return what it gave there."""
        comp, block, visible = originals[i], blocks[i], _interface(net, i)
        back: dict[int, tuple[int, str] | None] = {at[i]: None}
        queue = deque(back)
        while queue:
            p = queue.popleft()
            if (found := goal(p)) is not None:
                hidden = []
                while (step := back[p]) is not None:
                    hidden.append((step[1], p))
                    p = step[0]
                for act, p in reversed(hidden):
                    take(frozenset((i,)), act, {i: p})
                return found
            for a, d in comp.succ[p]:
                if d not in back and a not in visible and block[d] == block[p]:
                    back[d] = (p, a)
                    queue.append(d)
        raise InvalidWitness(f"no hidden walk in component {comp.name!r} completes the step")

    for act, moved, target in zip(actions, movers, payloads[1:]):
        last: dict[int, int] = {}
        for i in sorted(moved & at.keys()):
            succ, block, visible = originals[i].succ, blocks[i], _interface(net, i)
            goal = net.components[i].index[place(target, i)]
            # on a hidden step ``act`` becomes the original action taken
            act, last[i] = walk(i, lambda p: next(
                ((a, d) for a, d in succ[p] if block[d] == goal
                 and (a == act if act in visible else a not in visible)), None))
        for i in moved - at.keys():
            coords[i] = place(target, i)
        take(moved, act, last)
    if proposition is not None and not any(
            proposition in c.label_of(s) for c, s in zip(originals, coords)):
        for i in at:
            if proposition in net.components[i].label_of(place(payloads[-1], i)):
                comp = originals[i]
                walk(i, lambda p: () if proposition in comp.label_of(comp.states[p]) else None)
                break
    return PathPrefix(tuple(states), tuple(lifted_actions), tuple(lifted_movers))


def reduce_net(net: Network) -> Component:
    """Collapse a live-reset tree network into a single component.

    A lone component is returned unchanged.  Every internal node is
    replaced by the completed and pruned sum-of-squares of itself and its
    children, quotiented by ``quotient`` unless it is the root.  The node
    and its leaf children enter the squares pre-minimised against their
    tree interface (upacts and downacts); its inner children enter as
    already reduced.  The result satisfies the same reachability verdicts
    as the full product for every single proposition.
    """
    return reduce_net_traced(net)[0]


def reduce_net_traced(
    net: Network, prune: bool = True,
) -> tuple[Component, tuple[ReductionStage, ...]]:
    """Like reduce_net but also returns the per-node stages, bottom-up;
    with ``prune`` false, no stage prunes its locked states.

    Stages come in post-order over the original tree, children in network
    order.  Below the top, each stage's ``result`` is the quotiented
    component its parent's stage glues in.  The last stage is the top-level
    one; its ``originals`` are the original root and leaves and the reduced
    inner children, which is what a witness found on the final component
    lifts to (see ``lift_witness``).

    Every stage glues its squares under one fresh name, ``eps0`` unless the
    network uses it.  Pre-minimised components and reduced children hide
    their moves under one name too: one of ``net.silent``, or a fresh one
    that is then silent in the stage networks.  Sharing these names is
    safe because pruning reads who moved from the squares' movers.
    """
    stages: list[ReductionStage] = []
    reserved = frozenset(
        {a for c in net.components for a in c.acts} | net.silent
    )
    hide = min(net.silent) if net.silent else fresh_action(reserved, "tau")
    epsilon = fresh_action(reserved, "eps0")
    reduced: dict[int, Component] = {}
    todo = [(net.root_index, False)]
    while todo:
        node, ready = todo.pop()
        kids = net.children[node]
        if not kids:
            reduced[node] = net.components[node]
        elif not ready:
            todo.append((node, True))
            todo.extend((k, False) for k in reversed(kids))
        else:
            originals = (net.components[node], *(reduced.pop(k) for k in kids))
            premin = [
                _premin(c, _interface(net, i), hide)
                if i == node or not net.children[i] else (c, None)
                for i, c in zip((node, *kids), originals)]
            blocks = tuple(b for _, b in premin)
            # pre-minimised components and reduced children hide moves under ``hide``
            hiding = any(b is not None for b in blocks) or any(net.children[k] for k in kids)
            two_level = two_level_network(
                premin[0][0],
                [c for c, _ in premin[1:]],
                child_upacts=[net.upacts[k] for k in kids],
                root_upacts=net.upacts[node],
                silent=net.silent | {hide} if hiding else net.silent,
            )
            sq, deleted = _squares(two_level, epsilon, prune)
            result = cmpl(sq)
            if node != net.root_index:
                result, _ = quotient(result, net.upacts[node], hide)
            reduced[node] = result
            stages.append(ReductionStage(two_level, sq, result, deleted, originals, blocks))
    return reduced[net.root_index], tuple(stages)


def reduced_lts(component: Component, stages: tuple[ReductionStage, ...]) -> ExplicitLts:
    """The explicit graph of a reduction, given ``reduce_net_traced``'s
    ``(component, stages)``.

    It is the top stage's squares, whose paths ``lift_witness`` lifts, when
    the root has no upacts and ``cmpl`` retargeted nothing, as in every
    network ``infer_topology`` builds.  Otherwise, for a lone component or a
    root that keeps upacts, it is ``component_lts(component)``."""
    if stages and not stages[-1].sq.root_upacts:
        return stages[-1].sq.lts
    return component_lts(component)


def _squares(net: Network, epsilon: str, prune: bool) -> tuple[SumOfSquares, int]:
    """The (pruned, unless ``prune`` is false) squares of a two-level stage
    and the number of states pruning deleted."""
    sq = build_sq_unreduced(net, epsilon)
    pruned = prune_locked(sq) if prune else sq
    return pruned, sq.lts.n_states - pruned.lts.n_states
