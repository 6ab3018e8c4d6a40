"""EF/EG checking over explicit graphs, with witness extraction and lifting.

Formulas are a single modality applied to a single atomic proposition:
reachability of labellings is what the reduction preserves, conjunctions
and nesting are not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import InvalidWitness
from .model import Component, Network
from .product import (
    ExplicitLts,
    FreshInit,
    GlobalTuple,
    Path,
    PathPrefix,
    Payload,
    SquareOrigin,
    prefix_of,
)
from .reduction import SumOfSquares


class Entry(Enum):
    """Where evaluation starts.

    INITIAL evaluates at the initial state.  EPSILON_TRANSPARENT is meant
    for sum-of-squares systems whose initial state is unlabelled glue: EF is
    unaffected (the glue step is an ordinary step), while EG is evaluated at
    the successors of the initial state instead of the initial state itself.
    """

    INITIAL = "initial"
    EPSILON_TRANSPARENT = "epsilon-transparent"


@dataclass(frozen=True)
class Formula:
    modality: str  # "EF" or "EG"
    proposition: str

    def __post_init__(self) -> None:
        if self.modality not in ("EF", "EG"):
            raise ValueError(f"unsupported modality {self.modality!r}")

    def __str__(self) -> str:
        return f"{self.modality} {self.proposition}"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check; the witness replays on the checked system.

    For EF the witness is a shortest path ending in a state carrying the
    proposition.  For EG it is a lasso: the final state closes a cycle with
    an earlier one and every state on the path carries the proposition.
    """

    holds: bool
    witness: Path | None = None


def check(lts: ExplicitLts, formula: Formula, entry: Entry = Entry.INITIAL) -> Verdict:
    """Check ``formula``; ``entry`` matters only for EG."""
    if formula.modality == "EF":
        return check_ef(lts, formula.proposition)
    return check_eg(lts, formula.proposition, entry)


def check_ef(lts: ExplicitLts, proposition: str) -> Verdict:
    """Can a state carrying ``proposition`` be reached?

    BFS from the initial state; the witness is a shortest path.  A
    proposition that occurs nowhere simply yields a negative verdict.  Both
    entry modes coincide for EF: the glue step is an ordinary step for
    reachability.
    """
    if proposition in lts.labels[lts.initial]:
        return Verdict(True, Path((lts.initial,), ()))
    out, dst, labels = lts.out_edges, lts.dst, lts.labels
    back = {lts.initial: -1}  # state -> index of the transition that found it
    queue = deque([lts.initial])
    while queue:
        for k in out[queue.popleft()]:
            d = dst[k]
            if d in back:
                continue
            back[d] = k
            if proposition in labels[d]:
                return Verdict(True, _backtrack(lts, back, d))
            queue.append(d)
    return Verdict(False)


def _backtrack(lts: ExplicitLts, back: dict[int, int], goal: int) -> Path:
    states = [goal]
    actions: list[str] = []
    while (k := back[states[-1]]) >= 0:
        actions.append(lts.act[k])
        states.append(lts.src[k])
    return Path(tuple(reversed(states)), tuple(reversed(actions)))


def check_eg(lts: ExplicitLts, proposition: str, entry: Entry = Entry.INITIAL) -> Verdict:
    """Is there an infinite path along which ``proposition`` always holds?

    Equivalent to reaching a cycle inside the subgraph of labelled states.
    Deadlocked labelled states do not satisfy EG (runs are infinite, no
    stuttering is added).  With EPSILON_TRANSPARENT entry the check is run
    from each successor of the initial state, skipping the unlabelled glue
    state itself.
    """
    in_p = [proposition in lab for lab in lts.labels]
    if entry is Entry.INITIAL:
        entries = [lts.initial]
    else:
        entries = list(dict.fromkeys(lts.dst[k] for k in lts.out_edges[lts.initial]))
    for e in entries:
        if not in_p[e]:
            continue
        lasso = _find_lasso(lts, e, in_p)
        if lasso is not None:
            return Verdict(True, lasso)
    return Verdict(False)


def _find_lasso(lts: ExplicitLts, start: int, in_p: list[bool]) -> Path | None:
    """DFS inside the labelled subgraph; returns stem plus closed cycle."""
    path_nodes = [start]
    path_acts: list[str] = []
    on_path = {start}
    next_branch = [0]
    finished: set[int] = set()
    while path_nodes:
        node = path_nodes[-1]
        outs = lts.out_edges[node]
        advanced = False
        while next_branch[-1] < len(outs):
            k = outs[next_branch[-1]]
            next_branch[-1] += 1
            d = lts.dst[k]
            if not in_p[d]:
                continue
            if d in on_path:
                return Path(tuple(path_nodes) + (d,), tuple(path_acts) + (lts.act[k],))
            if d in finished:
                continue
            path_nodes.append(d)
            path_acts.append(lts.act[k])
            on_path.add(d)
            next_branch.append(0)
            advanced = True
            break
        if not advanced:
            finished.add(node)
            on_path.discard(node)
            path_nodes.pop()
            if path_acts:
                path_acts.pop()
            next_branch.pop()
    return None


def lift_witness(
    sq: SumOfSquares,
    net: Network,
    path: Path,
    proposition: str | None = None,
    originals: Sequence[Component] = (),
    blocks: Sequence[tuple[int, ...] | None] = (),
) -> PathPrefix:
    """Map a reachability witness of a sum-of-squares onto global states.

    ``net`` must be the two-level network ``sq`` was built from.  The glue
    step is dropped; every square state becomes the global tuple placing the
    root and the active child at their square coordinates and every other
    component at its initial state, and every step keeps the movers the
    squares recorded for it.  A handoff step is valid globally because the
    active child resets when synchronising upward.

    ``originals`` and ``blocks`` are those of the ``ReductionStage`` that
    built ``sq``.  Given them, the coordinates of pre-minimised components
    are expanded into states of ``originals`` (see ``_expand``), so the
    prefix replays on the product of ``originals``; with ``proposition``
    it also ends on a state carrying it.

    Raises InvalidWitness when a step is not a transition of the squares.
    """
    prefix = prefix_of(sq.lts, path)
    states, actions, movers = prefix.states, prefix.actions, prefix.movers
    if actions and isinstance(states[0], FreshInit):
        states, actions, movers = states[1:], actions[1:], movers[1:]
    start = tuple(c.initial for c in net.components)

    def globalise(p: Payload) -> GlobalTuple:
        # only a zero-length path stays at the glue state: the global start
        coords = list(start)
        if isinstance(p, SquareOrigin):
            coords[net.root_index] = p.root_state
            coords[p.child_index] = p.child_state
        return GlobalTuple(tuple(coords))

    lifted = PathPrefix(tuple(globalise(p) for p in states), actions, movers)
    if not any(b is not None for b in blocks):
        return lifted
    return _expand(lifted, net, originals, blocks, proposition)


def _expand(
    prefix: PathPrefix,
    net: Network,
    originals: Sequence[Component],
    blocks: Sequence[tuple[int, ...] | None],
    proposition: str | None,
) -> PathPrefix:
    """Replace the block coordinates of pre-minimised components by
    original states.

    Each component ``i`` with ``blocks[i]`` set sits at an original state
    of its current block, starting at its original initial state.  A step
    that moves it becomes hidden moves (on actions outside its interface in
    ``net``) through members of the block, up to a member with an original
    move into the target block on the step's action, or on any hidden action
    when the step's is hidden; that move follows.  Such a member is
    reachable inside the silent SCC the walk starts in, because the blocks
    are a bisimulation of the SCC-contracted component.  At the end, unless
    some coordinate carries ``proposition`` already, one component whose
    block carries it walks the same way to a member that does.
    """
    at = {i: originals[i].index[originals[i].initial]
          for i, b in enumerate(blocks) if b is not None}
    interface = {i: net.upacts[i] | net.downacts[i] for i in at}
    coords = list(prefix.states[0].states)
    for i, p in at.items():
        coords[i] = originals[i].states[p]
    states = [GlobalTuple(tuple(coords))]
    actions: list[str] = []
    movers: list[frozenset[int]] = []

    def take(moved: frozenset[int], act: str, to: dict[int, int]) -> None:
        for i, p in to.items():
            at[i] = p
            coords[i] = originals[i].states[p]
        actions.append(act)
        movers.append(moved)
        states.append(GlobalTuple(tuple(coords)))

    def walk(i: int, goal: Callable[[int], tuple | None]) -> tuple:
        """Take the hidden moves of ``i``, breadth-first, up to the first
        state for which ``goal`` is not None; return what it gave there."""
        comp, block, visible = originals[i], blocks[i], interface[i]
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

    for act, moved, target in zip(prefix.actions, prefix.movers, prefix.states[1:]):
        last: dict[int, int] = {}
        for i in sorted(moved & at.keys()):
            succ, block, visible = originals[i].succ, blocks[i], interface[i]
            goal = net.components[i].index[target.states[i]]
            # on a hidden step ``act`` becomes the original action taken
            act, last[i] = walk(i, lambda p: next(
                ((a, d) for a, d in succ[p] if block[d] == goal
                 and (a == act if act in visible else a not in visible)), None))
        for i in moved - at.keys():
            coords[i] = target.states[i]
        take(moved, act, last)
    if proposition is not None and not any(
            proposition in c.label_of(s) for c, s in zip(originals, coords)):
        for i in at:
            if proposition in net.components[i].label_of(prefix.states[-1].states[i]):
                comp = originals[i]
                walk(i, lambda p: () if proposition in comp.label_of(comp.states[p]) else None)
                break
    return PathPrefix(tuple(states), tuple(actions), tuple(movers))
