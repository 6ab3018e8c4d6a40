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


def _check_proposition(proposition: object) -> None:
    """Raise TypeError unless ``proposition`` is a string: no label set
    holds anything else, so another value would read as nowhere."""
    if not isinstance(proposition, str):
        raise TypeError(f"proposition {proposition!r} is not a string")


def check_ef(lts: ExplicitLts, proposition: str) -> Verdict:
    """Can a state carrying ``proposition`` be reached?

    BFS from the initial state; the witness is a shortest path.  A
    proposition that occurs nowhere simply yields a negative verdict.  Both
    entry modes coincide for EF: the glue step is an ordinary step for
    reachability.  Raises TypeError when ``proposition`` is not a string.
    """
    _check_proposition(proposition)
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
    state itself.  Raises TypeError when ``entry`` is not an ``Entry`` or
    ``proposition`` is not a string.
    """
    _check_proposition(proposition)
    if entry is Entry.INITIAL:
        entries = [lts.initial]
    elif entry is Entry.EPSILON_TRANSPARENT:
        entries = list(dict.fromkeys(lts.dst[k] for k in lts.out_edges[lts.initial]))
    else:
        raise TypeError(f"entry {entry!r} is not an Entry")
    in_p = [proposition in lab for lab in lts.labels]
    for e in entries:
        if not in_p[e]:
            continue
        lasso = _find_lasso(lts, e, in_p)
        if lasso is not None:
            return Verdict(True, lasso)
    return Verdict(False)


def _find_lasso(lts: ExplicitLts, start: int, in_p: list[bool]) -> Path | None:
    """DFS inside the labelled subgraph, one out-edge iterator per frame;
    returns stem plus closed cycle."""
    out, dst, act = lts.out_edges, lts.dst, lts.act
    path_nodes = [start]
    path_acts: list[str] = []
    on_path = {start}
    frames = [iter(out[start])]
    finished: set[int] = set()
    while frames:
        for k in frames[-1]:
            d = dst[k]
            if not in_p[d] or d in finished:
                continue
            if d in on_path:
                return Path(tuple(path_nodes) + (d,), tuple(path_acts) + (act[k],))
            path_nodes.append(d)
            path_acts.append(act[k])
            on_path.add(d)
            frames.append(iter(out[d]))
            break
        else:
            node = path_nodes.pop()
            finished.add(node)
            on_path.discard(node)
            frames.pop()
            if path_acts:
                path_acts.pop()
    return None
