"""EF/EG checking over explicit graphs, with witness extraction.

Each check, ``check_ef`` or ``check_eg``, applies one modality to a single
atomic proposition: reachability of labellings is what the reduction
preserves, conjunctions and nesting are not.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .product import ExplicitLts, Path, prefix_of


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
class Verdict:
    """Outcome of a check; the witness replays on the checked system.

    For EF the witness is a shortest path ending in a state carrying the
    proposition.  For EG it is a lasso: the final state closes a cycle with
    an earlier one and every state on the path carries the proposition.
    """

    holds: bool
    witness: Path | None = None


def render_witness(lts: ExplicitLts, verdict: Verdict) -> str | None:
    """The witness of ``verdict`` as the payloads and actions of ``lts`` it
    passes through, or None when the verdict has none."""
    return None if verdict.witness is None else str(prefix_of(lts, verdict.witness))


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
