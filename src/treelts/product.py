"""Explicit-state asynchronous products and run-prefix projection.

The product construction explores only the fragment reachable from the
initial tuple and is the brute-force oracle against which reductions are
checked.  Every transition records which components moved, so silent steps
can be attributed to their component when projecting prefixes.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import EmptyProjection, InvalidWitness, StateLimitExceeded
from .model import DEFAULT_SILENT, Component, Network, sharers_of

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
    constructor takes the lists over, not copies.
    """

    def __init__(self, initial: int, src: list[int], act: list[str], dst: list[int],
                 movers: list[frozenset[int]], labels: Iterable[frozenset[str]],
                 payloads: Iterable[Payload]) -> None:
        if not len(src) == len(act) == len(dst) == len(movers):
            raise ValueError("src, act, dst and movers must have the same length")
        self.payloads: tuple[Payload, ...] = tuple(payloads)
        n = self.n_states = len(self.payloads)
        self.labels: tuple[frozenset[str], ...] = tuple(map(frozenset, labels))
        if len(self.labels) != n:
            raise ValueError("labels and payloads must have the same length")
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} out of range")
        self.initial = initial
        self.src, self.act, self.dst, self.movers = src, act, dst, movers
        self._ids: dict[Payload, int] = dict(zip(self.payloads, range(n)))
        if len(self._ids) != n:  # name the payload whose repeat comes first
            dup = next(p for i, p in enumerate(self.payloads) if self.payloads.index(p) != i)
            raise ValueError(f"duplicate payload {dup}")
        if src and (min(min(src), min(dst)) < 0 or max(max(src), max(dst)) >= n):
            k = next(k for k, (s, d) in enumerate(zip(src, dst))
                     if not (0 <= s < n and 0 <= d < n))
            raise ValueError(
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

    def edge(self, src: int, act: str, dst: int) -> int | None:
        """Index of the first transition ``src -act-> dst``, if there is one."""
        return next((k for k in self.out_edges[src]
                     if self.act[k] == act and self.dst[k] == dst), None)

    def id_of(self, payload: Payload) -> int:
        return self._ids[payload]

    def has_payload(self, payload: Payload) -> bool:
        return payload in self._ids

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
            raise ValueError("a path needs exactly one more state than actions")

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
            raise ValueError("prefix lengths are inconsistent")

    def __len__(self) -> int:
        return len(self.actions)

    def __str__(self) -> str:
        parts = [str(self.states[0])]
        for act, state in zip(self.actions, self.states[1:]):
            parts.append(f"-{act}->")
            parts.append(str(state))
        return " ".join(parts)


def replay(lts: ExplicitLts, path: Path) -> bool:
    """Whether every step of ``path`` is a transition of ``lts``."""
    if not all(0 <= s < lts.n_states for s in path.states):
        return False
    steps = zip(path.states, path.actions, path.states[1:])
    return all(lts.edge(src, act, dst) is not None for src, act, dst in steps)


def prefix_of(lts: ExplicitLts, path: Path) -> PathPrefix:
    """Resolve a flat path into a payload-level prefix with mover data."""
    movers: list[frozenset[int]] = []
    for src, act, dst in zip(path.states, path.actions, path.states[1:]):
        k = lts.edge(src, act, dst)
        if k is None:
            raise InvalidWitness(f"step ({src}, {act!r}, {dst}) is not a transition")
        movers.append(lts.movers[k])
    return PathPrefix(
        states=tuple(lts.payloads[s] for s in path.states),
        actions=path.actions,
        movers=tuple(movers),
    )


def resolve_prefix(lts: ExplicitLts, prefix: PathPrefix) -> Path:
    """Map a payload-level prefix onto flat ids, checking every step.

    Raises InvalidWitness if a payload is not a state of ``lts`` or a step
    is not one of its transitions.
    """
    ids = []
    for p in prefix.states:
        if not lts.has_payload(p):
            raise InvalidWitness(f"state {p} does not exist in the target system")
        ids.append(lts.id_of(p))
    path = Path(tuple(ids), prefix.actions)
    if not replay(lts, path):
        raise InvalidWitness("prefix does not replay on the target system")
    return path


# ---------------------------------------------------------------------------
# Product construction
# ---------------------------------------------------------------------------


def product_of(
    components: Sequence[Component],
    silent: frozenset[str] = DEFAULT_SILENT,
    cap: int = DEFAULT_STATE_CAP,
) -> ExplicitLts:
    """Asynchronous product of the given components, reachable part only.

    Non-silent shared actions synchronise every component that uses them;
    silent and unshared actions interleave.  States are numbered in BFS
    discovery order, which is deterministic in the component and transition
    declaration order.  Raises StateLimitExceeded when more than ``cap``
    states are discovered.
    """
    comps = tuple(components)
    n = len(comps)
    succ = [c.succ for c in comps]
    sharers = sharers_of(comps, silent)

    init = tuple(c.index[c.initial] for c in comps)
    ids: dict[tuple[int, ...], int] = {init: 0}
    tuples: list[tuple[int, ...]] = [init]
    queue: deque[tuple[int, ...]] = deque([init])
    src_ids: list[int] = []
    acts: list[str] = []
    dst_ids: list[int] = []
    movers: list[frozenset[int]] = []
    alone = [frozenset((i,)) for i in range(n)]
    together = {act: frozenset(group) for act, group in sharers.items()}

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
                if act in silent or len(sharers[act]) == 1:
                    src_ids.append(src_id)
                    acts.append(act)
                    dst_ids.append(state_id(src[:i] + (dst,) + src[i + 1:]))
                    movers.append(alone[i])
                    continue
                group = sharers[act]
                if group[0] != i or act in seen_shared:
                    continue
                seen_shared.add(act)
                # no combination when some member cannot take part
                options = [[d for a, d in succ[j][src[j]] if a == act] for j in group]
                for combo in itertools.product(*options):
                    nxt_list = list(src)
                    for j, d in zip(group, combo):
                        nxt_list[j] = d
                    src_ids.append(src_id)
                    acts.append(act)
                    dst_ids.append(state_id(tuple(nxt_list)))
                    movers.append(together[act])

    names = [c.states for c in comps]
    labels = [[c.label_of(s) for s in c.states] for c in comps]
    return ExplicitLts(
        0, src_ids, acts, dst_ids, movers,
        labels=[frozenset().union(*(labels[i][tup[i]] for i in range(n))) for tup in tuples],
        payloads=[GlobalTuple(tuple(names[i][tup[i]] for i in range(n))) for tup in tuples],
    )


def full_product(net: Network, cap: int = DEFAULT_STATE_CAP) -> ExplicitLts:
    """Reachable product of all network components, in network order."""
    return product_of(net.components, net.silent, cap)


def component_lts(component: Component) -> ExplicitLts:
    """A component viewed as an explicit graph over its declared states."""
    at = component.index.__getitem__
    ts = component.transitions
    return ExplicitLts(
        at(component.initial),
        list(map(at, map(itemgetter(0), ts))),
        list(map(itemgetter(1), ts)),
        list(map(at, map(itemgetter(2), ts))),
        [frozenset((0,))] * len(ts),
        labels=map(component.label_of, component.states),
        payloads=[GlobalTuple((s,)) for s in component.states],
    )


def lts_to_component(lts: ExplicitLts, name: str, reset: frozenset[str]) -> Component:
    """Flatten an explicit graph into a single component named ``name``.

    States become ``q0``, ``q1``, ... in id order.  Every transition
    labelled with an action in ``reset`` is retargeted to the initial state;
    the duplicates this can make are dropped by ``Component``, which keeps
    first occurrences.
    """
    init = lts.initial
    dst = lts.dst
    if reset:
        dst = [init if a in reset else d for a, d in zip(lts.act, dst)]
    names = tuple(f"q{i}" for i in range(lts.n_states))
    return Component(
        name=name,
        states=names,
        initial=names[init],
        transitions=list(zip(map(names.__getitem__, lts.src), lts.act,
                             map(names.__getitem__, dst))),
        labels={names[i]: lab for i, lab in enumerate(lts.labels) if lab},
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

    Each step is checked against the component transition relations.  For a
    silent step the mover is the component whose coordinate changed; a
    silent self-loop is attributed to the unique component that can perform
    it, and an ambiguous silent self-loop is rejected.
    """
    tuples = [s.states if isinstance(s, GlobalTuple) else tuple(s) for s in states]
    if len(tuples) != len(actions) + 1:
        raise ValueError("a prefix needs exactly one more state than actions")
    n = len(net.components)
    for tup in tuples:
        if len(tup) != n:
            raise ValueError(f"state tuple {tup} does not match the network arity")
    sharers = sharers_of(net.components, net.silent)

    movers: list[frozenset[int]] = []
    for k, act in enumerate(actions):
        src, dst = tuples[k], tuples[k + 1]
        if act in net.silent:
            changed = [i for i in range(n) if src[i] != dst[i]]
            if len(changed) > 1:
                raise ValueError(f"silent step {k} moves several components")
            if changed:
                group: tuple[int, ...] = (changed[0],)
            else:
                loopers = tuple(
                    i for i in range(n)
                    if (src[i], act, src[i]) in net.components[i].transition_set
                )
                if len(loopers) != 1:
                    raise ValueError(
                        f"silent self-loop at step {k} cannot be attributed to one component")
                group = loopers
        else:
            group = sharers.get(act, ())
            if not group:
                raise ValueError(f"action {act!r} does not belong to the network")
        for i in range(n):
            if i in group:
                if (src[i], act, dst[i]) not in net.components[i].transition_set:
                    raise ValueError(
                        f"step {k}: ({src[i]!r}, {act!r}, {dst[i]!r}) is not a transition "
                        f"of component {net.components[i].name!r}")
            elif src[i] != dst[i]:
                raise ValueError(f"step {k}: component {net.components[i].name!r} moved "
                                 f"without participating in {act!r}")
        movers.append(frozenset(group))
    return PathPrefix(
        states=tuple(GlobalTuple(t) for t in tuples),
        actions=tuple(actions),
        movers=tuple(movers),
    )


def project_prefix(prefix: PathPrefix, selected: Iterable[int]) -> PathPrefix:
    """Project a product prefix onto a subset of components.

    Every state tuple is restricted to the selected coordinates.  A step is
    deleted together with its source state when none of the selected
    components took part in it; the final state is always kept.
    """
    sel = tuple(sorted(set(selected)))
    if not sel:
        raise EmptyProjection("cannot project onto an empty set of components")

    def shrink(payload: Payload) -> GlobalTuple:
        if not isinstance(payload, GlobalTuple):
            raise ValueError("projection is defined on product states only")
        return GlobalTuple(tuple(payload.states[i] for i in sel))

    sel_set = set(sel)
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
