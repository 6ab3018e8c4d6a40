"""Explicit-state asynchronous products and run-prefix projection.

The product construction explores only the fragment reachable from the
initial tuple and is the brute-force oracle against which reductions are
checked.  Every transition records which components moved, so silent steps
can be attributed to their component when projecting prefixes.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Collection, Mapping
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import EmptyProjection, InvalidWitness, StateLimitExceeded, ValidationError
from .model import Component, Network, _misfit

DEFAULT_STATE_CAP = 10**6


# ---------------------------------------------------------------------------
# State payloads
# ---------------------------------------------------------------------------


class GlobalTuple(NamedTuple):
    """A product state: one local state per component, in network order."""

    states: tuple[str, ...]

    def __str__(self) -> str:
        return "(" + ",".join(self.states) + ")"


class SquareOrigin(NamedTuple):
    """A sum-of-squares state: a child state paired with a root state."""

    child_index: int
    child_state: str
    root_state: str

    def __str__(self) -> str:
        return f"({self.child_state},{self.root_state})#{self.child_index}"


@dataclass(frozen=True)
class FreshInit:
    """The fresh initial state gluing the squares together."""

    def __str__(self) -> str:
        return "init"


Payload = Union[GlobalTuple, SquareOrigin, FreshInit]


class ExplicitLts:
    """A flat transition graph with structured state payloads.

    States are consecutive integers; ``payloads[i]`` records where flat
    state ``i`` came from and is unique per state.  Transition ``k`` is
    ``src[k] -act[k]-> dst[k]``, moving the components in ``movers[k]`` (one
    of a few shared frozensets, empty for glue transitions): four parallel
    lists, no object per edge.  ``out_edges[i]`` lists the indices of the
    transitions leaving ``i``, in order, and is built on first use.
    Instances are immutable after construction and safe to share.  The
    constructor takes the lists over, not copies.  Each label set is a
    collection of propositions: a string, a mapping or a non-collection
    raises ValidationError, where ``frozenset`` would read its letters or
    keys.
    """

    def __init__(self, initial: int, src: list[int], act: list[str], dst: list[int],
                 movers: list[frozenset[int]], labels: Iterable[frozenset[str]],
                 payloads: Iterable[Payload]) -> None:
        if not len(src) == len(act) == len(dst) == len(movers):
            raise ValidationError("src, act, dst and movers must have the same length")
        self.payloads: tuple[Payload, ...] = tuple(payloads)
        n = self.n_states = len(self.payloads)
        self.labels: tuple[frozenset[str], ...] = tuple(labels)
        # every builder passes frozensets, which one pass in C lets through
        if not {frozenset}.issuperset(map(type, self.labels)):
            for i, ps in enumerate(self.labels):
                if isinstance(ps, (str, Mapping)) or not isinstance(ps, Collection):
                    raise ValidationError(_misfit(f"labels {ps!r} of state {i}", ps,
                                                  "a set of propositions"))
            self.labels = tuple(map(frozenset, self.labels))
        if len(self.labels) != n:
            raise ValidationError("labels and payloads must have the same length")
        if not 0 <= initial < n:
            raise ValidationError(f"initial state {initial} out of range")
        self.initial = initial
        self.src, self.act, self.dst, self.movers = src, act, dst, movers
        self._ids: dict[Payload, int] = dict(zip(self.payloads, range(n)))
        if len(self._ids) != n:  # name the payload whose repeat comes first
            dup = next(p for i, p in enumerate(self.payloads) if self.payloads.index(p) != i)
            raise ValidationError(f"duplicate payload {dup}")
        if src and (min(min(src), min(dst)) < 0 or max(max(src), max(dst)) >= n):
            k = next(k for k, (s, d) in enumerate(zip(src, dst))
                     if not (0 <= s < n and 0 <= d < n))
            raise ValidationError(
                f"transition {k} endpoint out of range: {src[k]} -{act[k]}-> {dst[k]}")

    @property
    def transitions(self) -> tuple[tuple[int, str, int, frozenset[int]], ...]:
        """``(src, act, dst, movers)`` per transition, built on every call.

        Kept only because ``perfbench`` takes its ``len`` in
        ``spans.Tracer._square`` and ``run.stage_records``; read the lists
        instead.
        """
        return tuple(zip(self.src, self.act, self.dst, self.movers))

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n_states)]
        for k, s in enumerate(self.src):
            out[s].append(k)
        return tuple(map(tuple, out))

    def id_of(self, payload: Payload) -> int:
        return self._ids[payload]

    def __repr__(self) -> str:
        return (f"ExplicitLts(states={self.n_states}, "
                f"transitions={len(self.src)}, initial={self.initial})")


# ---------------------------------------------------------------------------
# Paths and prefixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Path:
    """An alternating sequence of flat state ids and actions."""

    states: tuple[int, ...]
    actions: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions) + 1:
            raise ValidationError("a path needs exactly one more state than actions")

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class PathPrefix:
    """An alternating sequence of state payloads and actions.

    ``movers[k]`` records which components performed step ``k``; it is what
    makes silent steps attributable during projection.
    """

    states: tuple[Payload, ...]
    actions: tuple[str, ...]
    movers: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions) + 1 or len(self.actions) != len(self.movers):
            raise ValidationError("prefix lengths are inconsistent")

    def __len__(self) -> int:
        return len(self.actions)

    def __str__(self) -> str:
        parts = [str(self.states[0])]
        for act, state in zip(self.actions, self.states[1:]):
            parts.append(f"-{act}->")
            parts.append(str(state))
        return " ".join(parts)


def _movers(lts: ExplicitLts, src: int, act: str, dst: int) -> list[frozenset[int]]:
    """The movers of each transition ``src -act-> dst`` of ``lts``, in order."""
    return [lts.movers[k] for k in lts.out_edges[src] if lts.act[k] == act and lts.dst[k] == dst]


def prefix_of(lts: ExplicitLts, path: Path) -> PathPrefix:
    """Resolve a flat path into a payload-level prefix with mover data,
    taking the movers of the first transition that matches each step.

    Raises InvalidWitness if an id is not a state of ``lts`` or a step is
    not one of its transitions."""
    for s in path.states:
        if not (type(s) is int and 0 <= s < lts.n_states):
            raise InvalidWitness(f"state id {s!r} is not a state of the system")
    movers: list[frozenset[int]] = []
    for src, act, dst in zip(path.states, path.actions, path.states[1:]):
        found = _movers(lts, src, act, dst)
        if not found:
            raise InvalidWitness(f"step ({src}, {act!r}, {dst}) is not a transition")
        movers.append(found[0])
    return PathPrefix(
        states=tuple(lts.payloads[s] for s in path.states),
        actions=path.actions,
        movers=tuple(movers),
    )


def resolve_prefix(lts: ExplicitLts, prefix: PathPrefix) -> Path:
    """Map a payload-level prefix onto flat ids, checking every step and
    who took it.

    Raises InvalidWitness if a payload is not a state of ``lts``, a step is
    not one of its transitions, or no transition of the step is taken by
    exactly the components the prefix records.
    """
    ids = []
    for p in prefix.states:
        try:
            ids.append(lts.id_of(p))
        except (KeyError, TypeError):  # TypeError: an unhashable payload
            raise InvalidWitness(f"state {p} does not exist in the target system") from None
    steps = zip(ids, prefix.actions, ids[1:], prefix.movers)
    for k, (src, act, dst, moved) in enumerate(steps):
        found = _movers(lts, src, act, dst)
        if not found:
            raise InvalidWitness("prefix does not replay on the target system")
        if moved not in found:
            raise InvalidWitness(f"step {k} ({act!r}) is not taken by components {moved!r}")
    return Path(tuple(ids), prefix.actions)


# ---------------------------------------------------------------------------
# Product construction
# ---------------------------------------------------------------------------


def _pairs(net: Network) -> list[dict[str, tuple[int, int]]]:
    """Per component, each action it synchronises on, with the two ends of
    the tree edge that declares it, lower index first (the product combines
    their moves in network order): a child's upacts pair it with its
    parent.  Every other action moves its component alone: silent actions,
    local actions and a root's own upacts."""
    pairs: list[dict[str, tuple[int, int]]] = [{} for _ in net.components]
    for k, p in enumerate(net.parent):
        if p is not None:
            pair = (min(p, k), max(p, k))
            for act in net.upacts[k]:
                pairs[k][act] = pairs[p][act] = pair
    return pairs


def full_product(net: Network, cap: int = DEFAULT_STATE_CAP) -> ExplicitLts:
    """Reachable product of all network components, in network order.

    An action synchronises the two ends of the tree edge that declares it,
    so a partner that declares an action but cannot fire it blocks it;
    every other action interleaves (see ``_pairs``).  States are numbered
    in BFS discovery order, which is deterministic in the component and
    transition declaration order.  Raises StateLimitExceeded when more
    than ``cap`` states are discovered, and ValidationError when ``cap`` is
    not an ``int`` (a ``bool`` is not one) or is below 1: the initial state
    is always admitted.
    """
    if type(cap) is not int:
        raise ValidationError(f"the state cap must be an integer, not {cap!r}")
    if cap < 1:
        raise ValidationError(f"the state cap must be at least 1, not {cap}")
    comps = net.components
    n = len(comps)
    succ = [c.succ for c in comps]
    pairs = _pairs(net)

    init = tuple(c.init for c in comps)
    ids: dict[tuple[int, ...], int] = {init: 0}
    tuples: list[tuple[int, ...]] = [init]
    queue: deque[tuple[int, ...]] = deque([init])
    src_ids: list[int] = []
    acts: list[str] = []
    dst_ids: list[int] = []
    movers: list[frozenset[int]] = []
    alone = [frozenset((i,)) for i in range(n)]
    together = {pair: frozenset(pair) for by_act in pairs for pair in by_act.values()}

    def state_id(tup: tuple[int, ...]) -> int:
        sid = ids.get(tup)
        if sid is None:
            if len(ids) >= cap:
                raise StateLimitExceeded(cap, len(ids))
            sid = len(tuples)
            ids[tup] = sid
            tuples.append(tup)
            queue.append(tup)
        return sid

    while queue:
        src = queue.popleft()
        src_id = ids[src]
        for i in range(n):
            seen_shared: set[str] = set()
            for act, dst in succ[i][src[i]]:
                pair = pairs[i].get(act)
                if pair is None:
                    src_ids.append(src_id)
                    acts.append(act)
                    dst_ids.append(state_id(src[:i] + (dst,) + src[i + 1:]))
                    movers.append(alone[i])
                    continue
                if pair[0] != i or act in seen_shared:
                    continue
                seen_shared.add(act)
                # no combination when a partner cannot take part
                options = [[d for a, d in succ[j][src[j]] if a == act] for j in pair]
                for combo in itertools.product(*options):
                    nxt_list = list(src)
                    for j, d in zip(pair, combo):
                        nxt_list[j] = d
                    src_ids.append(src_id)
                    acts.append(act)
                    dst_ids.append(state_id(tuple(nxt_list)))
                    movers.append(together[pair])

    names = [c.states for c in comps]
    labels = [c.state_labels for c in comps]
    return ExplicitLts(
        0, src_ids, acts, dst_ids, movers,
        labels=[frozenset().union(*(labels[i][tup[i]] for i in range(n))) for tup in tuples],
        payloads=[GlobalTuple(tuple(names[i][tup[i]] for i in range(n))) for tup in tuples],
    )


def component_lts(component: Component) -> ExplicitLts:
    """A component viewed as an explicit graph over its declared states."""
    at = component.index.__getitem__
    ts = component.transitions
    return ExplicitLts(
        component.init,
        list(map(at, map(itemgetter(0), ts))),
        list(map(itemgetter(1), ts)),
        list(map(at, map(itemgetter(2), ts))),
        [frozenset((0,))] * len(ts),
        labels=component.state_labels,
        payloads=[GlobalTuple((s,)) for s in component.states],
    )


def flat_component(
    name: str, initial: int, transitions: Iterable[tuple[int, str, int]],
    labels: Sequence[frozenset[str]],
) -> Component:
    """A component named ``name`` over states ``q0``, ``q1``, ..., one per
    entry of ``labels``, with ``(src, act, dst)`` id triples as transitions.

    Repeated triples are dropped by ``Component``, which keeps first
    occurrences.
    """
    names = tuple(f"q{i}" for i in range(len(labels)))
    return Component(
        name=name,
        states=names,
        initial=names[initial],
        transitions=[(names[s], a, names[d]) for s, a, d in transitions],
        labels={names[i]: lab for i, lab in enumerate(labels) if lab},
    )


# ---------------------------------------------------------------------------
# Prefix construction and projection
# ---------------------------------------------------------------------------


def prefix_from_states(
    net: Network,
    states: Sequence[GlobalTuple | tuple[str, ...]],
    actions: Sequence[str],
) -> PathPrefix:
    """Build a product prefix from raw tuples, inferring who moved.

    Each step is checked against the component transition relations, with
    the synchronisation of ``full_product``: its candidate movers are the
    two ends of the edge declaring the action, or each component taking it
    alone (``_pairs``).  It goes to the one candidate whose members take it
    while no other component moves; a self-loop that several take is
    rejected as ambiguous.
    """
    if isinstance(actions, str):
        raise ValidationError(
            _misfit(f"actions {actions!r}", actions, "a sequence of action names"))
    for k, s in enumerate(states):
        if isinstance(s, str):  # tuple() would split it into letters
            raise ValidationError(_misfit(f"state tuple {k}: states {s!r}", s,
                                          "a sequence of state names"))
    tuples = [s.states if isinstance(s, GlobalTuple) else tuple(s) for s in states]
    if len(tuples) != len(actions) + 1:
        raise ValidationError("a prefix needs exactly one more state than actions")
    comps = net.components
    n = len(comps)
    for k, tup in enumerate(tuples):
        if len(tup) != n:
            raise ValidationError(f"state tuple {tup} does not match the network arity")
        for c, s in zip(comps, tup):
            if not (isinstance(s, str) and s in c.index):
                raise ValidationError(
                    f"state tuple {k}: {s!r} is not a state of component {c.name!r}")
    rows = [tuple(c.index[s] for c, s in zip(comps, tup)) for tup in tuples]
    pairs = _pairs(net)

    def fault(k: int, group: tuple[int, ...]) -> str | None:
        """Why step ``k`` is no move of the components of ``group`` alone."""
        act, src, dst = actions[k], rows[k], rows[k + 1]
        for i in range(n):
            if i in group:
                if (act, dst[i]) not in comps[i].succ[src[i]]:
                    return (f"step {k}: ({tuples[k][i]!r}, {act!r}, {tuples[k + 1][i]!r}) "
                            f"is not a transition of component {comps[i].name!r}")
            elif src[i] != dst[i]:
                return (f"step {k}: component {comps[i].name!r} "
                        f"moved without participating in {act!r}")
        return None

    movers: list[frozenset[int]] = []
    for k, act in enumerate(actions):
        if not isinstance(act, str):
            raise ValidationError(f"action {act!r} at step {k} is not a string")
        groups = sorted({pairs[i].get(act, (i,)) for i in range(n) if act in comps[i].acts})
        if not groups:
            raise ValidationError(f"action {act!r} does not belong to the network")
        fits = [g for g in groups if fault(k, g) is None]
        if len(fits) > 1:
            raise ValidationError(
                f"self-loop on {act!r} at step {k} cannot be attributed to one component")
        if not fits:
            raise ValidationError(fault(k, groups[0]))
        movers.append(frozenset(fits[0]))
    return PathPrefix(
        states=tuple(GlobalTuple(t) for t in tuples),
        actions=tuple(actions),
        movers=tuple(movers),
    )


def project_prefix(prefix: PathPrefix, selected: Iterable[int]) -> PathPrefix:
    """Project a product prefix onto a subset of components.

    Every state tuple is restricted to the selected coordinates.  A step is
    deleted together with its source state when none of the selected
    components took part in it; the final state is always kept.  Every
    state must have the arity of the first, and each selected index and
    each mover must be an ``int`` below it (a ``bool`` is not one).
    """
    picked = list(selected)
    if not picked:
        raise EmptyProjection("cannot project onto an empty set of components")
    if not all(isinstance(p, GlobalTuple) for p in prefix.states):
        raise ValidationError("projection is defined on product states only")
    arity = len(prefix.states[0].states)
    for k, p in enumerate(prefix.states):
        if len(p.states) != arity:
            raise ValidationError(
                f"state {k} of the prefix has {len(p.states)} components, not {arity}")
    for k, moved in enumerate(prefix.movers):
        for i in moved:
            if not (type(i) is int and 0 <= i < arity):
                raise ValidationError(
                    f"step {k} is taken by component {i!r} of a prefix over {arity} components")
    for i in picked:
        if not (type(i) is int and 0 <= i < arity):
            raise ValidationError(
                f"cannot project onto component {i!r} of a prefix over {arity} components")
    sel_set = set(picked)
    sel = sorted(sel_set)

    def shrink(payload: Payload) -> GlobalTuple:
        return GlobalTuple(tuple(payload.states[i] for i in sel))

    states: list[GlobalTuple] = []
    actions: list[str] = []
    movers: list[frozenset[int]] = []
    for k, act in enumerate(prefix.actions):
        if prefix.movers[k] & sel_set:
            states.append(shrink(prefix.states[k]))
            actions.append(act)
            movers.append(prefix.movers[k] & sel_set)
    states.append(shrink(prefix.states[-1]))
    return PathPrefix(tuple(states), tuple(actions), tuple(movers))
