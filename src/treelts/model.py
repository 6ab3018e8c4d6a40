"""Components, networks, and synchronisation-topology inference.

A component is a single labelled transition system; a network is an ordered
collection of components whose shared action names induce a tree.  Action
direction (towards the parent or towards a child) is always derived from
that tree, never from input annotations.
"""

from __future__ import annotations

import warnings
from collections import deque
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .errors import LiveResetWarning, NotATree, UnknownRoot, ValidationError

#: Action names that never synchronise and never create topology edges.
DEFAULT_SILENT = frozenset({"tau"})

_NO_LABELS: frozenset[str] = frozenset()
_LABEL_SETS = frozenset({frozenset, set, list, tuple})  # taken without a further look


def closure(
    succ: Sequence[Iterable[int]] | Mapping[int, Iterable[int]], seeds: Iterable[int],
) -> set[int]:
    """The ``seeds`` together with every node ``succ[node]`` leads to from them."""
    closed = set(seeds)
    stack = list(closed)
    while stack:
        for v in succ[stack.pop()]:
            if v not in closed:
                closed.add(v)
                stack.append(v)
    return closed


def _misfit(what: str, value: object, want: str) -> str:
    """The message for ``what``, given as ``value``, which is not ``want``."""
    kind = ("a string" if isinstance(value, str) else "a set" if isinstance(value, (set, frozenset))
            else "a mapping" if isinstance(value, Mapping) else f"of type {type(value).__name__}")
    return f"{what} are {kind}, not {want}"


def _as_tuple(value: object, what: str, name: str, items: str) -> tuple:
    """``value`` as a tuple, if it is a sequence and not a string: tuple() would split
    a string into letters, number a set in hash order and read a mapping as its keys."""
    if type(value) is list or (isinstance(value, Sequence) and not isinstance(value, str)):
        return tuple(value)
    raise ValidationError(
        _misfit(f"{what} {value!r} of component {name!r}", value, f"a sequence of {items}"))


def _name_set(names: object, what: str, owner: str | None = None) -> frozenset[str]:
    """``names`` (the ``what`` of component ``owner``, if given) as a frozenset of action
    names, a frozenset as it is; frozenset() would split a string and read a mapping's keys."""
    if type(names) is frozenset:
        return names
    what = f"{what} {names!r}" if owner is None else f"{what} {names!r} of component {owner!r}"
    if isinstance(names, (str, Mapping)) or not isinstance(names, Collection):
        raise ValidationError(_misfit(what, names, "a set of action names"))
    for name in names:
        if not isinstance(name, str):
            raise ValidationError(f"name {name!r} in {what} is not a string")
    return frozenset(names)


@dataclass(frozen=True)
class Component:
    """A finite labelled transition system.

    The action set ``acts`` is implicit: it is derived from the transitions
    at construction, so a component cannot declare actions it never uses.
    States keep their declaration order, which downstream constructions
    rely on for deterministic numbering.  ``index`` (each state's position
    in it) and ``init`` (the initial one's) are recorded by the check at
    construction, ``succ`` and ``state_labels`` built on first read.
    """

    name: str
    states: tuple[str, ...]
    initial: str
    transitions: tuple[tuple[str, str, str], ...] = ()
    labels: dict[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        name = self.name
        if not isinstance(name, str):
            raise ValidationError(f"component name {name!r} is not a string")
        # one pass per collection: tuples, the first of equal transitions
        # kept, empty label sets dropped, a given frozenset kept as it is
        states, given, labelled = self.states, self.transitions, self.labels
        if type(states) is not tuple:
            states = _as_tuple(states, "states", name, "state names")
        if type(given) is not tuple:
            given = _as_tuple(given, "transitions", name, "(src, action, dst) triples")
        triples = given
        if not {tuple}.issuperset(map(type, given)):
            if {list}.issuperset(map(type, given)):  # as a loaded file gives them
                triples = tuple(map(tuple, given))
            else:  # a string, set or dict is no (src, action, dst) sequence: it reads as ()
                triples = tuple(tuple(t) if isinstance(t, Sequence) and not isinstance(t, str)
                                else () for t in given)
        if not {3}.issuperset(map(len, triples)):
            bad = next(t for t, triple in zip(given, triples) if len(triple) != 3)
            raise ValidationError(
                f"transition {bad!r} in component {name!r} is not a (src, action, dst) triple")
        if type(labelled) is not dict and not isinstance(labelled, Mapping):
            raise ValidationError(_misfit(f"labels {labelled!r} of component {name!r}", labelled,
                                          "a mapping from states to sets of propositions"))
        for s, ps in labelled.items():  # frozenset() splits a string, reads a mapping's keys
            if type(ps) not in _LABEL_SETS and (
                    isinstance(ps, (str, Mapping)) or not isinstance(ps, Collection)):
                raise ValidationError(_misfit(f"labels {ps!r} of state {s!r} in component "
                                              f"{name!r}", ps, "a set of propositions"))
        try:
            transitions = tuple(dict.fromkeys(triples))
            labels = {s: ps if type(ps) is frozenset else frozenset(ps)
                      for s, ps in labelled.items() if ps}
        except TypeError:  # a list or another unhashable name inside a triple or label set
            bad = next(n for n in chain(chain.from_iterable(triples), *labelled.values())
                       if not isinstance(n, str))
            raise ValidationError(
                f"name {bad!r} in component {name!r} is not a string") from None
        acts = frozenset(map(itemgetter(1), transitions))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "acts", acts)
        # endpoints and label keys are checked by membership below
        names = (states, (self.initial,), acts, *labels.values())
        if not {str}.issuperset(map(type, chain.from_iterable(names))):
            bad = [n for n in chain.from_iterable(names) if not isinstance(n, str)]
            if bad:
                raise ValidationError(
                    f"name {bad[0]!r} in component {name!r} is not a string")
        index = dict(zip(states, range(len(states))))
        if len(index) != len(states):
            raise ValidationError(f"duplicate state names in component {name!r}")
        init = index.get(self.initial)
        if init is None:
            raise ValidationError(
                f"initial state {self.initial!r} is not a state of component {name!r}")
        for src, act, dst in transitions:
            if src not in index or dst not in index:
                raise ValidationError(
                    f"transition ({src!r}, {act!r}, {dst!r}) uses unknown states "
                    f"in component {name!r}")
        for s in labelled:  # an empty set is dropped, but must name a state too
            if s not in index:
                raise ValidationError(
                    f"label on unknown state {s!r} in component {name!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "init", init)

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
    def state_labels(self) -> tuple[frozenset[str], ...]:
        """The label set per state position."""
        return tuple(map(self.label_of, self.states))

    def label_of(self, state: str) -> frozenset[str]:
        return self.labels.get(state, _NO_LABELS)


@dataclass(frozen=True)
class Network:
    """An ordered list of components with a tree topology.

    All per-component data is stored in tuples aligned with ``components``:
    ``parent[i]`` is the parent index (``None`` for the root), ``children[i]``
    the child indices in component order, and ``upacts``/``downacts`` the
    action classification, which ``_network`` alone computes.
    ``upacts[i]`` is the set component ``i`` declares on its edge to the
    parent, used or not; this record of who synchronises on what is the
    one every construction reads, the product included.  An action of
    component ``i`` in neither set, a silent one included, is local.
    """

    components: tuple[Component, ...]
    root_index: int
    silent: frozenset[str]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    upacts: tuple[frozenset[str], ...]
    downacts: tuple[frozenset[str], ...]

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
    (for the root, with one outside the network), kept as the upacts even
    where the component does not use them: a partner that declares an
    action it cannot fire blocks it.  Downacts are the actions a component
    uses that a child declares (even one the child no longer uses: it must
    not fire as a local move), and the rest are local.
    """
    upacts = tuple(declared)
    children: tuple[list[int], ...] = tuple([] for _ in comps)
    for j, p in enumerate(parent):
        if p is not None:
            children[p].append(j)
    downacts = tuple(c.acts & frozenset().union(*(upacts[j] for j in kids))
                     for c, kids in zip(comps, children))
    return Network(
        components=comps,
        root_index=root_index,
        silent=silent,
        parent=parent,
        children=tuple(map(tuple, children)),
        upacts=upacts,
        downacts=downacts,
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

    Raises NotATree, UnknownRoot or ValidationError accordingly.
    """
    silent = _name_set(silent, "silent actions")
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
    sharers: dict[str, list[int]] = {}
    for i, c in enumerate(comps):
        for act in c.acts:
            if act not in silent:
                sharers.setdefault(act, []).append(i)
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
    classified as given: a child's upact synchronises it with the root,
    so one that either of them cannot fire never fires, and the root's
    own upacts move it alone.  Raises ValidationError when a declared
    action is silent or is declared on two edges (by two children, or by
    a child and the root), and when ``silent`` or a declared set is not a
    collection of action names.
    """
    comps = (root, *children)
    given = (root_upacts, *child_upacts)
    if len(comps) != len(given):
        raise ValidationError("one upact set per child is required")
    silent = _name_set(silent, "silent actions")
    ups = tuple(_name_set(up, "upacts", c.name) for c, up in zip(comps, given))
    names = [c.name for c in comps]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate component names: {sorted(names)}")
    owner: dict[str, str] = {}  # the component declaring each action
    for c, up in zip(comps, ups):
        for act in sorted(up):
            if act in silent or act in owner:
                why = "silent" if act in silent else f"declared by {owner[act]!r} too"
                raise ValidationError(f"action {act!r} declared by {c.name!r} is {why}")
            owner[act] = c.name
    return _network(comps, 0, silent, (None,) + (0,) * (len(comps) - 1), ups)


def subnetwork(net: Network, index: int) -> Network:
    """The network induced by the subtree rooted at component ``index``.

    Components keep their order and their classification: the new root
    keeps the actions it shares with its parent in ``net`` as declared
    upacts.  The kept components are ``index`` and every component below it,
    found by ``closure`` over ``net.children``.  Raises ValidationError
    when ``index`` is not an ``int`` (a ``bool`` is not one) in
    ``range(len(net.components))``.
    """
    if not (type(index) is int and 0 <= index < len(net.components)):
        raise ValidationError(
            f"component index {index!r} is not in range for {len(net.components)} components")
    kept = sorted(closure(net.children, [index]))
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
    Both come in transition order.  Only a component with such a stray
    transition is searched (one ``closure`` from its initial state), so
    validating a live-reset network searches nothing.
    """
    violations: list[Violation] = []
    for i, c in enumerate(net.components):
        up = net.upacts[i]
        stray = [tr for tr in c.transitions if tr[1] in up and tr[2] != c.initial]
        if not stray:
            continue
        reached = closure([[d for _, d in moves] for moves in c.succ], [c.init])
        for tr in stray:
            if c.index[tr[0]] in reached:
                violations.append(Violation(c.name, tr))
            else:
                warnings.warn(
                    f"unreachable transition {tr} in component {c.name!r} "
                    f"does not reset on upstream action {tr[1]!r}",
                    LiveResetWarning,
                    stacklevel=2,
                )
    return violations
