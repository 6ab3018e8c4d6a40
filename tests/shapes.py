"""Deterministic network shapes built in code for the tests."""

from treelts import Component, infer_topology


def ring_tree(parents, states=4, labelled=None, ring=True):
    """A tree of tau-rings over ``states`` states; ``parents[i]`` is the
    parent index of component ``n{i}`` (``None`` for the root ``n0``).

    Component ``n{i}`` resets from its last state on ``u{i}``, which its
    parent offers from ``s1`` to ``s2``, and carries ``p{i}`` on its last
    state when ``i`` is in ``labelled`` (default: every component).  The
    rings make every tuple of local states reachable, so the full product
    has ``states ** len(parents)`` states and ``EF p{i}`` holds for every
    label.

    With ``ring`` false the tau edge from the last state back to ``s0`` is
    left out: each component is a tau path that only a reset takes back,
    with no silent cycle for pre-minimisation to collapse.  Every local
    state is still reachable, so ``EF p{i}`` still holds for every label;
    a root parked past ``s1`` never offers a reset again.
    """
    labelled = range(len(parents)) if labelled is None else labelled
    names = tuple(f"s{k}" for k in range(states))
    comps = []
    for i, parent in enumerate(parents):
        trans = [(names[k], "tau", names[(k + 1) % states])
                 for k in range(states if ring else states - 1)]
        if parent is not None:
            trans.append((names[-1], f"u{i}", names[0]))
        trans += [(names[1], f"u{j}", names[2]) for j, p in enumerate(parents) if p == i]
        comps.append(Component(
            name=f"n{i}", states=names, initial=names[0], transitions=tuple(trans),
            labels={names[-1]: frozenset({f"p{i}"})} if i in labelled else {},
        ))
    return infer_topology(comps, "n0")


def ring_chain(depth, states=4, labelled=None, ring=True):
    """The path ``n0 - n1 - ...`` of ``depth`` rings, as in ``ring_tree``."""
    return ring_tree([None, *range(depth - 1)], states, labelled, ring)


def all_locked_tree():
    """``t - r - c``: ``c`` never moves, so every square of both stages is
    locked."""
    top = Component("t", ("t0", "t1"), "t0", (("t0", "up", "t1"),))
    root = Component("r", ("r0", "r1"), "r0", (("r0", "go", "r1"), ("r1", "up", "r0")))
    child = Component("c", ("c0", "c1"), "c0", (("c1", "go", "c0"),))
    return infer_topology([top, root, child], "t")
