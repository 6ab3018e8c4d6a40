"""Components, networks, and synchronisation-topology inference.

A component is a single labelled transition system; a network is an ordered
collection of components whose shared action names induce a tree.  Action
direction (towards the parent or towards a child) is always derived from
that tree, never from input annotations.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .errors import LiveResetWarning, NotATree, UnknownRoot, ValidationError

#: Action names that never synchronise and never create topology edges.
DEFAULT_SILENT = frozenset({"tau"})

_NO_LABELS: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Component:
    """A finite labelled transition system.

    The action set ``acts`` is implicit: it is derived from the transitions
    at construction, so a component cannot declare actions it never uses.
    States keep their declaration order, which downstream constructions
    rely on for deterministic numbering.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[tuple[str, str, str], ...] = ()
    labels: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # one pass per collection: tuples, the first of equal transitions
        # kept, empty label sets dropped, a given frozenset kept as it is
        states = tuple(self.states)
        transitions = tuple(dict.fromkeys(map(tuple, self.transitions)))
        labels = {s: ps if type(ps) is frozenset else frozenset(ps)
                  for s, ps in self.labels.items() if ps}
        acts = frozenset(map(itemgetter(1), transitions))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "acts", acts)
        # endpoints and label keys are checked by membership below
        names = (states, (self.initial,), acts, *labels.values())
        if not {str}.issuperset(map(type, chain.from_iterable(names))):
            bad = [name for name in chain.from_iterable(names) if not isinstance(name, str)]
            if bad:
                raise ValidationError(
                    f"name {bad[0]!r} in component {self.name!r} is not a string")
        state_set = set(states)
        if len(state_set) != len(states):
            raise ValidationError(f"duplicate state names in component {self.name!r}")
        if self.initial not in state_set:
            raise ValidationError(
                f"initial state {self.initial!r} is not a state of component {self.name!r}")
        for src, act, dst in transitions:
            if src not in state_set or dst not in state_set:
                raise ValidationError(
                    f"transition ({src!r}, {act!r}, {dst!r}) uses unknown states "
                    f"in component {self.name!r}")
        for s in labels:
            if s not in state_set:
                raise ValidationError(
                    f"label on unknown state {s!r} in component {self.name!r}")

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each state in declaration order."""
        return dict(zip(self.states, range(len(self.states))))

    @cached_property
    def succ(self) -> tuple[tuple[tuple[str, int], ...], ...]:
        """Outgoing (action, target position) pairs per state position, in
        declaration order."""
        index = self.index
        out: list[list[tuple[str, int]]] = [[] for _ in self.states]
        for src, act, dst in self.transitions:
            out[index[src]].append((act, index[dst]))
        return tuple(tuple(v) for v in out)

    @cached_property
    def transition_set(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(self.transitions)

    @cached_property
    def reachable(self) -> frozenset[str]:
        """States reachable from the initial state via any transition."""
        succ = self.succ
        seen = {self.index[self.initial]}
        stack = list(seen)
        while stack:
            for _, dst in succ[stack.pop()]:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(self.states[i] for i in seen)

    def label_of(self, state: str) -> frozenset[str]:
        return self.labels.get(state, _NO_LABELS)


def sharers_of(
    components: Iterable[Component], silent: frozenset[str],
) -> dict[str, tuple[int, ...]]:
    """For every non-silent action, the indices of the components using it."""
    sharers: dict[str, tuple[int, ...]] = {}
    for i, c in enumerate(components):
        for act in c.acts:
            if act not in silent:
                sharers[act] = sharers.get(act, ()) + (i,)
    return sharers


@dataclass(frozen=True)
class Network:
    """An ordered list of components with a tree topology.

    All per-component data is stored in tuples aligned with ``components``:
    ``parent[i]`` is the parent index (``None`` for the root), ``children[i]``
    the child indices in component order, and ``upacts``/``downacts``/
    ``locacts`` the action classification, which ``_network`` alone computes.
    Local actions include the silent ones.
    """

    components: tuple[Component, ...]
    root_index: int
    silent: frozenset[str]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    upacts: tuple[frozenset[str], ...]
    downacts: tuple[frozenset[str], ...]
    locacts: tuple[frozenset[str], ...]

    @property
    def root(self) -> Component:
        return self.components[self.root_index]

    def index_of(self, name: str) -> int:
        """Position of the component ``name``; KeyError if there is none."""
        return {c.name: i for i, c in enumerate(self.components)}[name]

    def propositions(self) -> tuple[str, ...]:
        """All proposition names occurring in the network, sorted."""
        props: set[str] = set()
        for c in self.components:
            for ps in c.labels.values():
                props |= ps
        return tuple(sorted(props))


def _network(
    comps: tuple[Component, ...],
    root_index: int,
    silent: frozenset[str],
    parent: tuple[int | None, ...],
    declared: Iterable[frozenset[str]],
) -> Network:
    """Classify every component's actions by the tree edge they lie on.

    ``declared[i]``: the actions component ``i`` shares with its parent
    (for the root, with one outside the network).  Upacts are the declared
    actions a component uses, downacts those it uses that a child declares
    (even one a reduced child no longer uses: it must not fire as a local
    move), and the rest are local.
    """
    declared = tuple(declared)
    children: tuple[list[int], ...] = tuple([] for _ in comps)
    for j, p in enumerate(parent):
        if p is not None:
            children[p].append(j)
    upacts = tuple(d & c.acts for d, c in zip(declared, comps))
    downacts = tuple(c.acts & frozenset().union(*(declared[j] for j in kids))
                     for c, kids in zip(comps, children))
    return Network(
        components=comps,
        root_index=root_index,
        silent=frozenset(silent),
        parent=parent,
        children=tuple(map(tuple, children)),
        upacts=upacts,
        downacts=downacts,
        locacts=tuple(c.acts - up - down for c, up, down in zip(comps, upacts, downacts)),
    )


def infer_topology(
    components: Iterable[Component],
    root: str,
    silent: frozenset[str] = DEFAULT_SILENT,
) -> Network:
    """Build a Network from components, rooting the shared-action tree.

    Two components are adjacent iff they share a non-silent action name.
    The graph must be a tree and no non-silent action may occur in three or
    more components.  Each component declares the non-silent actions it
    shares with its parent; the root declares none.

    Raises NotATree or UnknownRoot accordingly.
    """
    comps = tuple(components)
    if not comps:
        raise UnknownRoot("network has no components")
    names = [c.name for c in comps]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate component names: {sorted(names)}")
    try:
        root_index = names.index(root)
    except ValueError:
        raise UnknownRoot(f"no component named {root!r}") from None

    n = len(comps)
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    sharers = sharers_of(comps, silent)
    for act in sorted(sharers):
        group = sharers[act]
        if len(group) > 2:
            shared_by = ", ".join(comps[i].name for i in group)
            raise NotATree(f"action {act!r} is shared by {len(group)} components ({shared_by})")
        if len(group) == 2:
            i, j = group
            adjacency[i].add(j)
            adjacency[j].add(i)

    parent: list[int | None] = [None] * n
    seen = {root_index}
    queue = deque([root_index])
    while queue:
        u = queue.popleft()
        for v in sorted(adjacency[u]):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                queue.append(v)
    if len(seen) != n:
        missing = ", ".join(comps[i].name for i in range(n) if i not in seen)
        raise NotATree(f"components not connected to the root: {missing}")
    edges = sum(map(len, adjacency.values())) // 2
    if edges != n - 1:
        raise NotATree(f"shared-action graph has a cycle ({edges} edges over {n} components)")

    return _network(comps, root_index, silent, tuple(parent), (
        frozenset() if p is None else (c.acts & comps[p].acts) - silent
        for c, p in zip(comps, parent)))


def two_level_network(
    root: Component,
    children: Iterable[Component],
    child_upacts: Iterable[frozenset[str]],
    root_upacts: frozenset[str] = frozenset(),
    silent: frozenset[str] = DEFAULT_SILENT,
) -> Network:
    """Assemble a two-level network whose children declare their upacts.

    Used when the children are already-reduced components: their action sets
    may have shrunk below the declared upstream actions, so inferring the
    topology from shared names again could misclassify.  The declared
    upstream actions of each child, and ``root_upacts`` of the root, are
    classified as given; upstream actions a child no longer uses simply
    never fire.
    """
    kids = tuple(children)
    ups = tuple(frozenset(u) for u in child_upacts)
    if len(kids) != len(ups):
        raise ValidationError("one upact set per child is required")
    comps = (root, *kids)
    names = [c.name for c in comps]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate component names: {sorted(names)}")
    return _network(comps, 0, silent, (None,) + (0,) * len(kids),
                    (frozenset(root_upacts), *ups))


def subnetwork(net: Network, index: int) -> Network:
    """The network induced by the subtree rooted at component ``index``.

    Components keep their order and their classification: the new root
    keeps the actions it shares with its parent in ``net`` as declared
    upacts.
    """
    kept = [index]
    for u in kept:
        kept += net.children[u]
    kept.sort()
    new = {old: i for i, old in enumerate(kept)}
    return _network(
        tuple(net.components[i] for i in kept),
        new[index],
        net.silent,
        tuple(None if i == index else new[net.parent[i]] for i in kept),
        (net.upacts[i] for i in kept),
    )


@dataclass(frozen=True)
class Violation:
    """A reachable transition breaking the reset discipline."""

    component: str
    transition: tuple[str, str, str]


def validate_live_reset(net: Network) -> list[Violation]:
    """Check that every reachable upstream transition resets its component.

    Returns one Violation per reachable transition labelled with an upstream
    action whose target is not the component's initial state.  The same
    defect on an unreachable transition only emits a LiveResetWarning.
    """
    violations: list[Violation] = []
    for i, c in enumerate(net.components):
        up = net.upacts[i]
        if not up:
            continue
        reachable = c.reachable
        for tr in c.transitions:
            src, act, dst = tr
            if act in up and dst != c.initial:
                if src in reachable:
                    violations.append(Violation(c.name, tr))
                else:
                    warnings.warn(
                        f"unreachable transition {tr} in component {c.name!r} "
                        f"does not reset on upstream action {act!r}",
                        LiveResetWarning,
                        stacklevel=2,
                    )
    return violations
