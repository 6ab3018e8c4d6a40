"""Sum-of-squares reduction of live-reset tree networks.

A two-level tree is collapsed into the disjoint union of the child-root
pairwise products, glued at a fresh silent initial state.  Upstream child
synchronisations become handoffs that may pass control to any square.
States from which the root can never act again are pruned.  The squares'
copies of each state with every child at home, one per child and root
position, then merge into one.  Each square builder finds the reachable
squares (``_square_moves``) and emits them (``_emit``) once:
``build_sq_unreduced`` all, ``build_sq`` the pruned ones, and the
reduction those merged too (see ``_squares``), so a handoff enters the
merged home state once instead of every square.  The top stage's result
is completed into a live-reset component.  Below the top, a subtree is
seen by its parent only through the labels it can reach and the upacts it
can fire; one linear pass computes both for every node (see
``summaries``), and the stage's result is a one-state summary of them
(``_one_state``, which also builds a component contracted to one state),
so a stage below the top builds its squares, and its summary component,
only when they are read.  A path of any stage's squares lifts back to the
components that entered the stage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InvalidWitness, NotTwoLevel, ValidationError
# subnetwork and two_level_network are not called here; perfbench/spans.py
# patches them in this namespace
from .model import (  # noqa: F401
    Component, Network, _network, closure, subnetwork, two_level_network)
from .product import (
    ExplicitLts,
    FreshInit,
    GlobalTuple,
    Path,
    PathPrefix,
    Payload,
    SquareOrigin,
    component_lts,
    flat_component,
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


def _taken(net: Network) -> set[str]:
    """Every name ``net`` uses, keeps silent or declares: a glue name must
    avoid them all, or ``cmpl`` takes it for a declared upact."""
    return set(net.silent).union(*net.upacts, *(c.acts for c in net.components))


def build_sq_unreduced(net: Network, epsilon: str | None = None) -> SumOfSquares:
    """Build the glued union of child-root squares, reachable part only.

    The network must be a two-level tree (a root whose children are all
    leaves).  Transitions follow three rules: the fresh initial state
    reaches every square's initial pair via ``epsilon``; a child's move off
    its upacts, and a root's move off its downacts (on a declared upact of
    the root too), moves that coordinate alone inside a square; and a
    child's upact move that resets it, with a root move on that action,
    hands control to any square at the root's target.

    A square state (child index, child state position, root state position)
    is coded as ``row * width + root position``, the rows running over the
    squares' child states.  The reachable codes are found first and
    numbered in sorted order, so ids follow the keys: square by square in
    network order, child states varying slower than root states, both in
    declaration order.  Each transition is then emitted once, with its ids.
    """
    return _unmerged(net, epsilon, prune=False)


def build_sq(net: Network) -> SumOfSquares:
    """``prune_locked(build_sq_unreduced(net))``, glued under ``eps0``
    unless the network uses or declares it, pruned in one pass as the
    reduction prunes (see ``_pruned``), but with no home merge."""
    return _unmerged(net, None, prune=True)


def _unmerged(net: Network, epsilon: str | None, prune: bool) -> SumOfSquares:
    """The squares of ``net`` with no home merge: every reachable code, or
    with ``prune`` those ``_pruned`` keeps, numbered in code order, glued
    under ``epsilon``, or a fresh name when it is None."""
    taken = _taken(net)
    if epsilon is None:
        epsilon = fresh_action(taken, "eps0")
    elif not isinstance(epsilon, str):
        raise ValidationError(f"epsilon name {epsilon!r} is not a string")
    elif epsilon in taken:
        raise ValidationError(f"epsilon name {epsilon!r} collides with an existing action")
    m = _square_moves(net, epsilon)
    gone = _pruned(m) if prune else set()
    codes = [code for code in m.codes if code not in gone]
    ids = dict(zip(codes, range(1, len(codes) + 1)))
    return _emit(net, m, ids, {rs: [ids[e + rs] for e in m.entries if e + rs in ids]
                               for rs in m.entered})


class _View(NamedTuple):
    """A component as the squares read it: integer tables over its state
    positions, ``(action, target)`` moves and label sets, and the actions
    the moves use.  A ``Component`` has every field, so the squares read it
    as it is, and a network of views is classified by ``_network`` like
    one of components."""

    name: str
    states: tuple[str, ...]
    init: int
    succ: Sequence[Sequence[tuple[str, int]]]
    state_labels: Sequence[frozenset[str]]
    acts: frozenset[str]


class _Moves(NamedTuple):
    """The move tables and reachable codes of a two-level network's squares
    (see ``build_sq_unreduced``)."""

    epsilon: str
    width: int
    # per row: (child index, child state position), its labels, the child's
    # moves off its upacts as (action, code offset, movers), and its upacts
    # that reset it as (action, movers)
    rows: list[tuple[int, int]]
    row_labels: list[frozenset[str]]
    child_local: list[list[tuple[str, int, frozenset[int]]]]
    handoffs: list[list[tuple[str, frozenset[int]]]]
    # per root position: the root's moves off its downacts, its targets
    # per downact, and its labels
    root_moves: list[list[tuple[str, int, frozenset[int]]]]
    root_dsts: list[dict[str, list[int]]]
    root_labels: Sequence[frozenset[str]]
    entries: list[int]  # the code of each square's initial pair at root position 0
    root_init: int
    entered: set[int]  # root positions at which every square has been entered
    codes: list[int]  # the reachable codes, sorted


def _square_moves(net: Network, epsilon: str) -> _Moves:
    """The move tables of the squares of ``net``, a network of components
    or views, glued under ``epsilon``, and their reachable codes."""
    r = net.root_index
    kids = net.children[r]
    if not kids:
        raise NotTwoLevel("the network must have at least one child under the root")
    for k in kids:
        if net.children[k]:
            raise NotTwoLevel(f"component {net.components[k].name!r} is not a leaf")
    comps = net.components
    root = comps[r]
    width = len(root.states)
    down_root, at_root = net.downacts[r], frozenset((r,))
    root_moves = [[(a, d - rs, at_root) for a, d in moves if a not in down_root]
                  for rs, moves in enumerate(root.succ)]
    root_dsts: list[dict[str, list[int]]] = [{} for _ in root.succ]
    for dsts, moves in zip(root_dsts, root.succ):
        for a, d in moves:
            if a in down_root:
                dsts.setdefault(a, []).append(d)
    rows, row_labels, child_local, handoffs, entries = [], [], [], [], []
    for k in kids:
        init, up = comps[k].init, net.upacts[k]
        at_child, at_both = frozenset((k,)), frozenset((k, r))
        entries.append((len(rows) + init) * width)
        row_labels += comps[k].state_labels
        for cs, moves in enumerate(comps[k].succ):
            rows.append((k, cs))
            child_local.append([(a, (d - cs) * width, at_child) for a, d in moves if a not in up])
            handoffs.append([(a, at_both) for a, d in moves if a in up and d == init])

    root_init = root.init
    found = {e + root_init for e in entries}
    entered = {root_init}
    stack = list(found)
    while stack:
        code = stack.pop()
        row, rs = divmod(code, width)
        new = {code + d for _, d, _ in child_local[row] + root_moves[rs]}
        for act, _ in handoffs[row]:
            for root_dst in root_dsts[rs].get(act, ()):
                if root_dst not in entered:
                    entered.add(root_dst)
                    new.update(e + root_dst for e in entries)
        stack += new - found
        found |= new
    return _Moves(epsilon, width, rows, row_labels, child_local, handoffs, root_moves,
                  root_dsts, root.state_labels, entries, root_init, entered, sorted(found))


def _emit(net: Network, m: _Moves, ids: dict[int, int],
          targets: dict[int, list[int]]) -> SumOfSquares:
    """The squares of ``net``, a network of components or views, over the
    codes of ``ids``, in code order, each becoming state ``ids[code]``.

    Codes that share an id merge into one state, which keeps the payload of
    the first and the union of their labels; their transitions keep their
    order, and exact repeats of ``(src, act, dst, movers)`` go.  A move into
    a code outside ``ids`` goes too.  A handoff to root position ``rs``, and
    the glue at the root's initial position, enter the states
    ``targets[rs]``.
    """
    r, width, rows, row_labels, root_labels = (
        net.root_index, m.width, m.rows, m.row_labels, m.root_labels)
    comps = net.components
    root_names = comps[r].states
    glue = targets.get(m.root_init, [])
    src, act, dst = [0] * len(glue), [m.epsilon] * len(glue), glue[:]
    movers = [frozenset()] * len(glue)
    labels: list[frozenset[str]] = [frozenset()]
    payloads: list[Payload] = [FreshInit()]
    for code, s in ids.items():
        row, rs = divmod(code, width)
        label = _union(row_labels[row], root_labels[rs])
        if s == len(payloads):
            i, cs = rows[row]
            payloads.append(SquareOrigin(i, comps[i].states[cs], root_names[rs]))
            labels.append(label)
        else:
            labels[s] = _union(labels[s], label)
        for a, d, mv in m.child_local[row] + m.root_moves[rs]:
            if (t := ids.get(code + d)) is not None:
                src.append(s)
                act.append(a)
                dst.append(t)
                movers.append(mv)
        for a, mv in m.handoffs[row]:
            for root_dst in m.root_dsts[rs].get(a, ()):
                into = targets.get(root_dst, ())
                src += [s] * len(into)
                act += [a] * len(into)
                dst += into
                movers += [mv] * len(into)
    if len(payloads) <= len(ids):  # merged copies can repeat a transition
        edges = dict.fromkeys(zip(src, act, dst, movers))
        src, act, dst, movers = (list(col) for col in zip(*edges)) if edges else ([], [], [], [])
    return SumOfSquares(
        lts=ExplicitLts(0, src, act, dst, movers, labels, payloads),
        epsilon=m.epsilon,
        root_name=comps[r].name,
        root_index=r,
        root_upacts=net.upacts[r],
    )


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """``a | b``, reusing an operand when the other is empty."""
    return a | b if a and b else a or b


def _backward_closure(lts: ExplicitLts, seeds: Iterable[int]) -> set[int]:
    """The ``seeds`` together with every state that has a path into them."""
    rev: list[list[int]] = [[] for _ in range(lts.n_states)]
    for s, d in zip(lts.src, lts.dst):
        rev[d].append(s)
    return closure(rev, seeds)


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


def prune_locked(sq: SumOfSquares) -> SumOfSquares:
    """Remove the locked states of an unreduced sum-of-squares.

    A locked state is kept when a labelled state is reachable from it:
    locked regions are forward-closed, so deleting such a state could make
    a reachable labelling unreachable and flip a verdict.  On systems whose
    locked states carry no reachable labelling (all the bundled fixtures)
    this deletes exactly the locked set.  The glue initial state is never
    deleted; when every square is locked and label-free, it is all that is
    left, with no transitions.  Kept states and transitions keep their
    order, renumbered; a transition with a deleted end goes.
    """
    lts = sq.lts
    label_reaching = _backward_closure(lts, (i for i in range(lts.n_states) if lts.labels[i]))
    deleted = compute_locked(sq) - label_reaching - {lts.initial}
    if not deleted:
        return sq
    kept = [i for i in range(lts.n_states) if i not in deleted]
    new_id = dict(zip(kept, range(len(kept))))
    edges = [(new_id[s], a, new_id[d], mv)
             for s, a, d, mv in zip(lts.src, lts.act, lts.dst, lts.movers)
             if s in new_id and d in new_id]
    src, act, dst, movers = (list(col) for col in zip(*edges)) if edges else ([], [], [], [])
    return replace(sq, lts=ExplicitLts(
        new_id[lts.initial], src, act, dst, movers,
        labels=[lts.labels[i] for i in kept], payloads=[lts.payloads[i] for i in kept]))


def cmpl(sq: SumOfSquares) -> Component:
    """Close a sum-of-squares under upstream synchronisation of its root.

    Every transition labelled with an upstream action of the root is
    retargeted to the fresh initial state, making the result a live-reset
    component (named after the root) that can stand in for the whole
    subtree inside an enclosing network.  States are named ``q<id>``; the
    repeats a retarget can make are dropped (see ``flat_component``).
    """
    lts = sq.lts
    dst = (lts.initial if a in sq.root_upacts else d for a, d in zip(lts.act, lts.dst))
    return flat_component(sq.root_name, lts.initial, zip(lts.src, lts.act, dst), lts.labels)


def summaries(net: Network) -> dict[int, tuple[frozenset[str], frozenset[str]]]:
    """What a parent can observe of each subtree, per node of ``net``,
    children first: the labels the subtree can reach and the upacts the
    node can fire.

    One pass, linear in the components: each is searched from its initial
    state along its local and silent moves, and along a downact only where
    the child declaring it can fire it; an upact is recorded, not followed.
    A node's labels are its visited states' and its children's.  The pass
    carries them as bitmasks (see ``_summary_masks``); this decodes every
    node's, where the reduction decodes only the nodes it reads.

    Sound under live reset (``validate_live_reset``): an upact move resets
    its component, so what a component reaches does not depend on its
    parent, and a child reaches a label or an enabled upact by moves the
    parent takes no part in while the parent waits.  The subtree shares
    only its root's upacts with the parent, each resetting it, so the
    parent learns nothing more of it, and ``EF p`` holds iff ``p`` is among
    the root's labels.  Only single-proposition reachability is preserved:
    safety and ``EG`` verdicts may change.  The two sets are what the node's
    pruned squares show (their labels, and the root upacts their
    transitions take); on a network that violates live reset they may not
    be.
    """
    masks, names = _summary_masks(net, [net.root_index])
    return {i: (_decode(mask, names), upacts) for i, (mask, upacts) in masks.items()}


#: What ``_summary_masks`` gives: per node a label mask and upacts; each bit's proposition
_Summary = tuple[dict[int, tuple[int, frozenset[str]]], list[str]]


def _summary_masks(net: Network, tops: Sequence[int]) -> _Summary:
    """The ``summaries`` pass over the subtree under each node of ``tops``
    in turn, with each node's labels as an ``int`` mask: bit ``b`` stands
    for proposition ``names[b]``, the names interned in the order the pass
    meets them."""
    bit: dict[str, int] = {}  # the bit position of each proposition met
    out: dict[int, tuple[int, frozenset[str]]] = {}
    todo = [(top, False) for top in reversed(tops)]
    while todo:
        i, ready = todo.pop()
        kids = net.children[i]
        if kids and not ready:
            todo.append((i, True))
            todo.extend((k, False) for k in reversed(kids))
            continue
        comp, up = net.components[i], net.upacts[i]
        index = comp.index
        skip = up | net.downacts[i].difference(*(out[k][1] for k in kids))
        succ: list[list[int]] = [[] for _ in comp.states]
        fire: list[tuple[int, str]] = []  # (position, upact) of each upact move
        for s, a, d in comp.transitions:
            if a not in skip:
                succ[index[s]].append(index[d])
            elif a in up:
                fire.append((index[s], a))
        seen = closure(succ, [comp.init])
        mask = reduce(or_, (out[k][0] for k in kids), 0)
        for s, ps in comp.labels.items():
            if index[s] in seen:
                for p in ps:
                    mask |= 1 << bit.setdefault(p, len(bit))
        out[i] = (mask, frozenset(a for p, a in fire if p in seen))
    return out, list(bit)


def _decode(mask: int, names: Sequence[str]) -> frozenset[str]:
    """The propositions of the bits set in ``mask``."""
    # bin's digits, least significant first; its "0b" falls past the top bit
    return frozenset(compress(names, map("1".__eq__, reversed(bin(mask)))))


def _contract(
    component: Component, visible: frozenset[str],
) -> tuple[_View, tuple[int, ...]] | None:
    """Contract the silent SCCs of a component as tree neighbours
    synchronising over ``visible`` see it, into a view over states ``q0``,
    ``q1``, ..., with its block map: per state position of ``component``,
    the position of the result state its silent SCC merged into.

    None means the component enters as it is: it has no cycle of moves
    outside ``visible``, which a single state, or no action outside
    ``visible``, shows without a look at its moves.  Otherwise each
    strongly connected component of moves outside ``visible`` collapses
    into one state carrying the union of its members' labels.  Every move
    keeps its own action; a move outside ``visible`` inside one block is
    dropped.  Blocks are numbered by the first state position each
    contains and the view's moves come sorted per position, so the result
    never depends on hashing order.

    Reachability of every single proposition is preserved inside any
    network whose other components share only ``visible`` with this one: a
    silent move involves no other component, so all members of a silent
    cycle are reachable from each other alongside any state of the others.
    """
    n = len(component.states)
    if n < 2 or component.acts <= visible:
        return None
    index = component.index
    hidden: list[list[int]] = [[] for _ in range(n)]
    for s, a, d in component.transitions:
        if a not in visible:
            hidden[index[s]].append(index[d])
    scc = _sccs(hidden)
    rank: dict[int, int] = {}
    for s in scc:
        rank.setdefault(s, len(rank))
    if len(rank) == n:
        return None
    if len(rank) == 1:  # one silent SCC: one state, a self-loop per visible action
        return _one_state(component.name, reduce(_union, component.labels.values(), frozenset()),
                          component.acts & visible), (0,) * n
    of = tuple(map(rank.__getitem__, scc))
    block = dict(zip(component.states, of))
    labels: list[frozenset[str]] = [frozenset()] * len(rank)
    for s, ps in component.labels.items():
        b = block[s]
        labels[b] = _union(labels[b], ps)
    edges = sorted({(block[s], a, block[d]) for s, a, d in component.transitions
                    if a in visible or block[s] != block[d]})
    succ: list[list[tuple[str, int]]] = [[] for _ in labels]
    for s, a, d in edges:
        succ[s].append((a, d))
    names = tuple(f"q{i}" for i in range(len(labels)))
    acts = frozenset(a for _, a, _ in edges)
    return _View(component.name, names, of[component.init], succ, labels, acts), of


def _one_state(name: str, labels: frozenset[str], acts: frozenset[str]) -> _View:
    """State ``q0`` with ``labels`` and a self-loop per action of ``acts``, sorted."""
    return _View(name, ("q0",), 0, [[(a, 0) for a in sorted(acts)]], [labels], acts)


def _named(view: _View) -> Component:
    """The component a view stands for, named by ``flat_component``."""
    return flat_component(view.name, view.init, (
        (s, a, d) for s, moves in enumerate(view.succ) for a, d in moves), view.state_labels)


def _interface(net: Network, i: int) -> frozenset[str]:
    """The actions component ``i`` of ``net`` shares with its tree
    neighbours: its upacts and downacts."""
    return net.upacts[i] | net.downacts[i]


def _sccs(succ: list[list[int]]) -> list[int]:
    """Strongly connected component id per node of the graph ``succ``, by
    Tarjan's algorithm with explicit stacks, one successor iterator per frame."""
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
        work = [(start, iter(succ[start]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not order[w]:
                    visited += 1
                    order[w] = low[w] = visited
                    path.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if scc[w] < 0 and order[w] < low[v]:  # w is still on the path stack
                    low[v] = order[w]
            else:
                work.pop()
                lv = low[v]
                if work:
                    u = work[-1][0]
                    if lv < low[u]:
                        low[u] = lv
                if lv == order[v]:
                    while True:
                        w = path.pop()
                        scc[w] = found
                        if w == v:
                            break
                    found += 1
    return scc


@dataclass(frozen=True)
class ReductionStage:
    """One two-level collapse of a bottom-up reduction: node ``node`` of
    the network ``tree`` with its children.  ``summary`` is the
    ``_summary_masks`` pass over the inner nodes, shared by all stages.

    Every other field is built on first access, once; ``reduce_net_traced``
    reads the top stage's ``result`` at once.  ``originals`` holds the
    components as they entered the stage, the node's first and then its
    children's in network order: a leaf as it is, an inner child as its
    one-state summary.  ``result`` is ``cmpl(sq)`` at the top stage and,
    below it, the one-state summary of the node's subtree, named where it
    is read: equal to its parent's ``originals`` entry, not the same object.

    The squares read the root and each leaf contracted once, into a view
    of integer tables, or as it is where it has no silent cycle, and an
    inner child straight from its summary.  ``net`` names the same views:
    it is the two-level network the squares ``sq`` are built from, aligned
    with ``originals``, every component pre-minimised: ``blocks[i]`` is
    ``_contract``'s block map for ``originals[i]``, None where it entered
    as it is (an inner child's summary among them, equal to it in ``net``).
    ``lift_witness`` reads all three.
    ``sq`` is the squares of ``net`` pruned, with their home copies
    merged, built in one pass (see ``_squares``).  ``unpruned_states``
    counts the states of ``build_sq_unreduced(net)``, which is never
    built, and ``deleted`` those pruning removed, not those the merge
    folded: when it is 0, ``sq`` holds the unpruned squares merged.
    ``epsilon`` names the glue (see ``reduce_net_traced``).
    Pre-minimisation renames nothing, so ``net`` has the silent names of
    ``tree``.
    """

    tree: Network
    node: int
    epsilon: str
    summary: _Summary = field(repr=False, compare=False)

    def _summary(self, i: int) -> _View:
        """Inner node ``i``'s summary, its labels and upacts, as a one-state view."""
        (mask, upacts), names = self.summary[0][i], self.summary[1]
        return _one_state(self.tree.components[i].name, _decode(mask, names), upacts)

    @cached_property
    def originals(self) -> tuple[Component, ...]:
        tree = self.tree
        return (tree.components[self.node], *(
            _named(self._summary(k)) if tree.children[k] else tree.components[k]
            for k in tree.children[self.node]))

    @cached_property
    def result(self) -> Component:
        if self.node == self.tree.root_index:
            return cmpl(self.sq)
        return _named(self._summary(self.node))

    def _input(self, i: int) -> tuple[Component | _View, tuple[int, ...] | None]:
        """Component ``i`` of ``tree`` as the squares read it, with its block
        map: an inner child's summary, else ``_contract``'s view or itself."""
        tree = self.tree
        if i != self.node and tree.children[i]:
            return self._summary(i), None
        c = tree.components[i]
        return _contract(c, _interface(tree, i)) or (c, None)

    @cached_property
    def _entered(self) -> tuple[Network, tuple[tuple[int, ...] | None, ...]]:
        """The stage's network of views and the block maps."""
        tree, kids = self.tree, self.tree.children[self.node]
        views, blocks = zip(*map(self._input, (self.node, *kids)))
        # every builder of a tree already checked the declared sets that
        # two_level_network checks: disjoint and not silent
        return _network(views, 0, tree.silent, (None,) + (0,) * len(kids),
                        [tree.upacts[i] for i in (self.node, *kids)]), blocks

    @cached_property
    def _built(self) -> tuple[SumOfSquares, int, int]:
        return _squares(self._entered[0], self.epsilon)

    @cached_property
    def net(self) -> Network:
        views = self._entered[0]
        return replace(views, components=tuple(
            _named(v) if isinstance(v, _View) else v for v in views.components))

    blocks = cached_property(lambda self: self._entered[1])
    sq = cached_property(lambda self: self._built[0])
    unpruned_states = cached_property(lambda self: self._built[1])
    deleted = cached_property(lambda self: self._built[2])


def lift_witness(
    stage: ReductionStage, path: Path, proposition: str | None = None,
) -> PathPrefix:
    """Map a path of ``stage.sq`` onto global states of ``stage.originals``.

    The glue step is dropped.  Each square state places the root and the
    active child at their square coordinates and every other component at
    its initial state, so a handoff, which resets the active child, sends
    the old child home; every step keeps the movers the squares recorded.
    Every component sits at an original state of its current block from
    its original initial state on (so the path starts where all are home);
    one that entered as it is, with no block map, has one state per block.
    A step that moves a component becomes hidden moves (on actions outside
    its tree interface in ``stage.net``) through members of its block, up
    to a member with an original move into the target block on the step's
    action, which pre-minimisation left as it was; the first such move
    follows.  Such a member is reachable: each block is one silent SCC, so
    every member is reachable from every other by hidden moves inside it.
    With ``proposition``, unless some coordinate carries it at the end
    already, the first component whose block carries it walks the same way
    to a member that does.

    The result replays on the product of ``stage.originals``: the full
    product when the stage is the top one of a two-level network.  Raises
    InvalidWitness when a step is not a transition of the squares, or when
    no hidden walk completes a step, and TypeError when ``proposition`` is
    neither None nor a string.
    """
    if proposition is not None and not isinstance(proposition, str):
        raise TypeError(f"proposition {proposition!r} is not a string")
    net, originals = stage.net, stage.originals
    blocks = [range(len(c.states)) if b is None else b for c, b in zip(originals, stage.blocks)]
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

    at = [c.init for c in originals]  # original state position per component
    lifted_at = [tuple(at)]
    lifted_actions: list[str] = []
    lifted_movers: list[frozenset[int]] = []

    def take(moved: frozenset[int], act: str, to: dict[int, int]) -> None:
        for i, p in to.items():
            at[i] = p
        lifted_actions.append(act)
        lifted_movers.append(moved)
        lifted_at.append(tuple(at))

    def walk(i: int, goal: Callable[[int], int | None]) -> int:
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
        to: dict[int, int] = {}
        for i in sorted(moved):
            succ, block = originals[i].succ, blocks[i]
            goal = net.components[i].index[place(target, i)]
            to[i] = walk(i, lambda p: next(
                (d for a, d in succ[p] if a == act and block[d] == goal), None))
        take(moved, act, to)
    if proposition is not None and not any(
            proposition in c.state_labels[p] for c, p in zip(originals, at)):
        for i, comp in enumerate(originals):
            if proposition in net.components[i].label_of(place(payloads[-1], i)):
                walk(i, lambda p: p if proposition in comp.state_labels[p] else None)
                break
    states = tuple(GlobalTuple(tuple(c.states[p] for c, p in zip(originals, v)))
                   for v in lifted_at)
    return PathPrefix(states, tuple(lifted_actions), tuple(lifted_movers))


def reduce_net(net: Network) -> Component:
    """Collapse a live-reset tree network into a single component.

    A lone component is returned unchanged.  The root is replaced by the
    sum-of-squares of itself and its children, pruned and with its home
    copies merged, and completed by ``cmpl``.  The root and its leaf
    children enter the squares pre-minimised against their tree interface
    (upacts and downacts); each inner child enters as a one-state summary
    of its subtree, which the summary pass computes (see ``summaries``).
    The result satisfies the same reachability verdicts as the full
    product for every single proposition.  The network must pass
    ``validate_live_reset``.
    """
    return reduce_net_traced(net)[0]


def reduce_net_traced(net: Network) -> tuple[Component, tuple[ReductionStage, ...]]:
    """Like reduce_net but also returns the per-node stages, bottom-up.

    Stages come in post-order over the original tree, children in network
    order.  Below the top, each stage's ``result`` is the one-state summary
    its parent's stage glues in, straight from the summary pass: no stage
    below the top builds a component or its squares until they are read,
    and the top stage's squares read its inner children's summaries as
    integer tables, so the one component built is the result.  On a network
    that fails ``validate_live_reset`` these summaries may differ from what
    the squares show, and no verdict is promised.  The last stage is the
    top-level one; its ``originals`` are the original root and leaves and
    the summaries of the inner children, which is what a witness found on
    the final component lifts to (see ``lift_witness``).

    Every stage glues its squares under one fresh name, ``eps0`` unless the
    network uses or declares it (see ``_taken``).  No other name is made
    up: pre-minimised components keep their own actions, so every stage's
    network has the silent names of ``net``.
    """
    r, kids = net.root_index, net.children[net.root_index]
    if not kids:
        return net.root, ()
    epsilon = fresh_action(_taken(net), "eps0")
    # the pass runs only inside inner children's subtrees
    summary = _summary_masks(net, [k for k in kids if net.children[k]])
    stages = [ReductionStage(net, i, epsilon, summary) for i in summary[0] if net.children[i]]
    stages.append(ReductionStage(net, r, epsilon, summary))
    return stages[-1].result, tuple(stages)


def reduced_lts(component: Component, stages: tuple[ReductionStage, ...]) -> ExplicitLts:
    """The explicit graph of a reduction, given ``reduce_net_traced``'s
    ``(component, stages)``.

    It is the top stage's squares, whose paths ``lift_witness`` lifts,
    whenever there is a stage, and ``component_lts(component)`` for a lone
    component.  A root that keeps upacts (a subnetwork's) moves on them in
    place in the squares, as it does in the subnetwork's full product;
    only ``cmpl`` retargets those moves, for an enclosing network."""
    return stages[-1].sq.lts if stages else component_lts(component)


def _squares(net: Network, epsilon: str) -> tuple[SumOfSquares, int, int]:
    """The squares of the components the views of ``net`` stand for,
    pruned as by ``build_sq``, each root position's surviving copies of
    home merged into one state with the first copy's payload and the union
    of their labels: a handoff enters it once, not every square.  Sound for
    every single proposition's reachability: every kept state is reachable,
    so the merge adds no reachable state or label and keeps the copies'
    moves; ``lift_witness`` places the other children at home already.
    Also returns the number of unpruned square states and the number of
    states pruning deleted (see ``_pruned``)."""
    m = _square_moves(net, epsilon)
    gone = _pruned(m)
    home_rows = {e // m.width for e in m.entries}
    # one state per kept code, and one for the copies of home at rs (key -1 - rs)
    state: dict[int, int] = {}
    ids: dict[int, int] = {}
    for code in m.codes:
        if code not in gone:
            row, rs = divmod(code, m.width)
            ids[code] = state.setdefault(-1 - rs if row in home_rows else code, len(state) + 1)
    targets = {rs: [state[-1 - rs]] for rs in m.entered if -1 - rs in state}
    return _emit(net, m, ids, targets), len(m.codes) + 1, len(gone)


def _pruned(m: _Moves) -> set[int]:
    """The codes ``prune_locked`` deletes from the squares of ``m``, found
    from their in-square moves.

    Every move the root takes part in seeds ``compute_locked``'s closure at
    its source, so only child-local moves carry it further; a handoff,
    which moves the root, changes nothing.  A locked state has only
    child-local moves, so whether it reaches a label is decided by those
    moves too.
    """
    width = m.width
    preds: dict[int, list[int]] = {code: [] for code in m.codes}
    seeds = []
    for code in m.codes:
        row, rs = divmod(code, width)
        for _, d, _ in m.child_local[row]:
            preds[code + d].append(code)
        if m.root_moves[rs] or any(a in m.root_dsts[rs] for a, _ in m.handoffs[row]):
            seeds.append(code)
    alive = closure(preds, seeds)
    locked = [code for code in m.codes if code not in alive]
    reaching = closure(preds, [code for code in locked
                               if m.row_labels[code // width] or m.root_labels[code % width]])
    return {code for code in locked if code not in reaching}
