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
from typing import Iterable

from .errors import LiveResetWarning, NotATree, UnknownRoot

#: Action names that never synchronise and never create topology edges.
DEFAULT_SILENT = frozenset({"tau"})


@dataclass(frozen=True)
class Component:
    """A finite labelled transition system.

    The action set is implicit: it is derived from the transitions, so a
    component cannot declare actions it never uses.  States keep their
    declaration order, which downstream constructions rely on for
    deterministic numbering.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[tuple[str, str, str], ...] = ()
    labels: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        seen: set[tuple[str, str, str]] = set()
        deduped: list[tuple[str, str, str]] = []
        for raw in self.transitions:
            tr = (str(raw[0]), str(raw[1]), str(raw[2]))
            if tr not in seen:
                seen.add(tr)
                deduped.append(tr)
        object.__setattr__(self, "transitions", tuple(deduped))
        object.__setattr__(
            self, "labels",
            {str(s): frozenset(str(p) for p in ps) for s, ps in self.labels.items() if ps},
        )
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise ValueError(f"duplicate state names in component {self.name!r}")
        if self.initial not in state_set:
            raise ValueError(
                f"initial state {self.initial!r} is not a state of component {self.name!r}")
        for src, act, dst in self.transitions:
            if src not in state_set or dst not in state_set:
                raise ValueError(
                    f"transition ({src!r}, {act!r}, {dst!r}) uses unknown states "
                    f"in component {self.name!r}")
        for s in self.labels:
            if s not in state_set:
                raise ValueError(f"label on unknown state {s!r} in component {self.name!r}")

    @cached_property
    def acts(self) -> frozenset[str]:
        """All action names occurring on transitions."""
        return frozenset(act for _, act, _ in self.transitions)

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each state in declaration order."""
        return {s: i for i, s in enumerate(self.states)}

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
        return self.labels.get(state, frozenset())


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
    """An ordered list of components with an inferred tree topology.

    All per-component data is stored in tuples aligned with ``components``:
    ``parent[i]`` is the parent index (``None`` for the root), ``children[i]``
    the child indices in component order, ``upacts``/``downacts``/``locacts``
    the action classification, and ``snd[i]`` maps each down action to the
    child that synchronises over it.  Local actions include the silent ones.
    """

    components: tuple[Component, ...]
    root_index: int
    silent: frozenset[str]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    upacts: tuple[frozenset[str], ...]
    downacts: tuple[frozenset[str], ...]
    locacts: tuple[frozenset[str], ...]
    snd: tuple[dict[str, int], ...]

    @property
    def root(self) -> Component:
        return self.components[self.root_index]

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.components):
            if c.name == name:
                return i
        raise KeyError(name)

    def propositions(self) -> tuple[str, ...]:
        """All proposition names occurring in the network, sorted."""
        props: set[str] = set()
        for c in self.components:
            for ps in c.labels.values():
                props |= ps
        return tuple(sorted(props))


def infer_topology(
    components: Iterable[Component],
    root: str,
    silent: frozenset[str] = DEFAULT_SILENT,
    root_upacts: frozenset[str] = frozenset(),
) -> Network:
    """Build a Network from components, rooting the shared-action tree.

    Two components are adjacent iff they share a non-silent action name.
    The graph must be a tree and no non-silent action may occur in three or
    more components.  ``root_upacts`` declares actions of the root that are
    shared with a parent outside this network (used when the network is a
    subtree embedded in a larger one); they are classified as the root's
    upstream actions instead of local ones.

    Raises NotATree or UnknownRoot accordingly.
    """
    comps = tuple(components)
    if not comps:
        raise UnknownRoot("network has no components")
    names = [c.name for c in comps]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate component names: {sorted(names)}")
    try:
        root_index = names.index(root)
    except ValueError:
        raise UnknownRoot(f"no component named {root!r}") from None

    n = len(comps)
    sharers = sharers_of(comps, silent)
    for act in sorted(sharers):
        group = sharers[act]
        if len(group) > 2:
            shared_by = ", ".join(comps[i].name for i in group)
            raise NotATree(f"action {act!r} is shared by {len(group)} components ({shared_by})")

    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    edges: set[frozenset[int]] = set()
    for act in sorted(sharers):
        group = sharers[act]
        if len(group) == 2:
            i, j = group
            adjacency[i].add(j)
            adjacency[j].add(i)
            edges.add(frozenset(group))

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
    if len(edges) != n - 1:
        raise NotATree(f"shared-action graph has a cycle ({len(edges)} edges over {n} components)")

    children = tuple(
        tuple(j for j in range(n) if parent[j] == i) for i in range(n)
    )

    upacts: list[frozenset[str]] = []
    downacts: list[frozenset[str]] = []
    locacts: list[frozenset[str]] = []
    snd: list[dict[str, int]] = []
    root_upacts = frozenset(root_upacts)
    for i, c in enumerate(comps):
        up: set[str] = set()
        down: set[str] = set()
        for act in c.acts:
            if act in silent:
                continue
            group = sharers[act]
            if len(group) == 1:
                continue
            other = group[0] if group[1] == i else group[1]
            if parent[i] == other:
                up.add(act)
            else:
                down.add(act)
        if i == root_index and root_upacts:
            bad = root_upacts - c.acts
            if bad:
                raise ValueError(f"declared root upacts not used by the root: {sorted(bad)}")
            clash = root_upacts & down
            if clash:
                raise ValueError(
                    f"declared root upacts are already shared with children: {sorted(clash)}")
            up |= root_upacts
        upacts.append(frozenset(up))
        downacts.append(frozenset(down))
        locacts.append(c.acts - frozenset(up) - frozenset(down))
        snd.append({})
    for i in range(n):
        for j in children[i]:
            for act in sorted(upacts[j]):
                snd[i][act] = j

    return Network(
        components=comps,
        root_index=root_index,
        silent=frozenset(silent),
        parent=tuple(parent),
        children=children,
        upacts=tuple(upacts),
        downacts=tuple(downacts),
        locacts=tuple(locacts),
        snd=tuple(snd),
    )


def two_level_network(
    root: Component,
    children: Iterable[Component],
    child_upacts: Iterable[frozenset[str]],
    root_upacts: frozenset[str] = frozenset(),
    silent: frozenset[str] = DEFAULT_SILENT,
) -> Network:
    """Assemble a two-level network with an explicitly given classification.

    Used when the children are already-reduced components: their action sets
    may have shrunk below the declared upstream actions, so inferring the
    topology from shared names again could misclassify.  The declared
    classification is carried over instead; upstream actions a child no
    longer uses simply never fire.
    """
    kids = tuple(children)
    ups = tuple(frozenset(u) for u in child_upacts)
    if len(kids) != len(ups):
        raise ValueError("one upact set per child is required")
    comps = (root, *kids)
    names = [c.name for c in comps]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate component names: {sorted(names)}")
    n = len(comps)
    upacts = [frozenset(root_upacts)] + [u & k.acts for u, k in zip(ups, kids)]
    # root actions declared upstream by some child stay downacts even when
    # the reduced child no longer offers them: without a partner they must
    # never fire as local moves
    declared = frozenset().union(*ups) if ups else frozenset()
    downacts = [root.acts & declared] + [frozenset()] * len(kids)
    locacts = [c.acts - upacts[i] - downacts[i] for i, c in enumerate(comps)]
    snd: list[dict[str, int]] = [{} for _ in range(n)]
    for j in range(1, n):
        for act in sorted(upacts[j]):
            snd[0][act] = j
    return Network(
        components=comps,
        root_index=0,
        silent=frozenset(silent),
        parent=(None,) + (0,) * len(kids),
        children=(tuple(range(1, n)),) + ((),) * len(kids),
        upacts=tuple(upacts),
        downacts=tuple(downacts),
        locacts=tuple(locacts),
        snd=tuple(snd),
    )


def subnetwork(net: Network, index: int) -> Network:
    """The network induced by the subtree rooted at component ``index``.

    The new root keeps its upstream actions (shared with its parent in the
    enclosing network) as declared upacts.
    """
    keep: set[int] = set()
    stack = [index]
    while stack:
        u = stack.pop()
        keep.add(u)
        stack.extend(net.children[u])
    comps = tuple(c for i, c in enumerate(net.components) if i in keep)
    return infer_topology(
        comps,
        net.components[index].name,
        silent=net.silent,
        root_upacts=net.upacts[index],
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
