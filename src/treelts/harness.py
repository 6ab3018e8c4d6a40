"""Random instance generation and oracle-equivalence suites.

The generator produces reset-on-sync tree networks by construction, so
every instance is accepted by the validators.  The suite compares
reachability verdicts of the brute-force product oracle against the
reduced component, replays lifted witnesses, and keeps an eye on the
pruned-versus-unpruned question.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import asdict, dataclass, field

from .checker import Entry, check_ef, check_eg, render_witness
from .errors import InvalidWitness, OracleTooLarge, StateLimitExceeded
from .model import Component, Network, infer_topology
# component_lts is not called here; perfbench/spans.py patches it in this namespace
from .product import (  # noqa: F401
    DEFAULT_STATE_CAP,
    ExplicitLts,
    component_lts,
    full_product,
    product_of,
    resolve_prefix,
)
from .reduction import build_sq_unreduced, lift_witness, reduce_net_traced, reduced_lts


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Bounds for random network generation; out-of-range values clamp.

    ``max_states`` bounds the states per component, ``propositions`` the
    number of scattered proposition names, ``density`` (in (0, 1]) the
    transition fill.  The ``min_*`` knobs pin shapes for experiments; by
    default only the maxima constrain.
    """

    seed: int
    max_depth: int = 3
    max_children: int = 3
    max_states: int = 4
    max_local_actions: int = 2
    propositions: int = 2
    density: float = 0.5
    min_children: int = 1
    min_states: int = 1


def gen_random_tree(cfg: GenConfig) -> Network:
    """Generate a reset-on-sync tree network, deterministically in the seed.

    The tree shape is drawn first, then actions: every non-root component
    gets one to three fresh upstream actions whose transitions all target
    its initial state, the parent gets matching transitions, and local plus
    silent steps fill up to the density.  One proposition is guaranteed on
    the root's initial state and one on a fresh unreachable state, so both
    verdict polarities are always exercised.
    """
    rng = random.Random(cfg.seed)
    depth_cap = max(1, cfg.max_depth)
    kid_hi = max(1, cfg.max_children)
    kid_lo = min(max(1, cfg.min_children), kid_hi)
    st_hi = max(1, cfg.max_states)
    st_lo = min(max(1, cfg.min_states), st_hi)
    loc_cap = max(0, cfg.max_local_actions)
    n_props = max(1, cfg.propositions)
    density = min(1.0, cfg.density) if cfg.density > 0 else 0.1

    parents: list[int | None] = []
    children: list[list[int]] = []

    def grow(parent: int | None, depth: int) -> None:
        idx = len(parents)
        parents.append(parent)
        children.append([])
        if parent is not None:
            children[parent].append(idx)
        if depth < depth_cap:
            count = rng.randint(kid_lo, kid_hi) if parent is None else rng.randint(0, kid_hi)
            for _ in range(count):
                grow(idx, depth + 1)

    grow(None, 1)
    n = len(parents)

    sizes = [rng.randint(st_lo, st_hi) for _ in range(n)]
    fresh = iter(range(10**9))
    upacts = {idx: [f"a{next(fresh)}" for _ in range(rng.randint(1, 3))] for idx in range(1, n)}

    transitions: list[list[tuple[str, str, str]]] = []
    for idx in range(n):
        size = sizes[idx]
        states = [f"s{k}" for k in range(size)]
        trans: list[tuple[str, str, str]] = []
        for act in upacts.get(idx, []):
            sources = 1 + (1 if size > 1 and rng.random() < density else 0)
            for _ in range(sources):
                trans.append((states[rng.randrange(size)], act, states[0]))
        for child in children[idx]:
            for act in upacts[child]:
                count = 1 + (1 if rng.random() < density else 0)
                for _ in range(count):
                    trans.append(
                        (states[rng.randrange(size)], act, states[rng.randrange(size)]))
        pool = [f"l{next(fresh)}" for _ in range(rng.randint(0, loc_cap))] + ["tau"]
        extra = rng.randint(round(density * size * 0.5), max(1, round(density * size * 2.5)))
        for _ in range(extra):
            trans.append(
                (states[rng.randrange(size)], rng.choice(pool), states[rng.randrange(size)]))
        transitions.append(trans)

    labelling: list[dict[str, set[str]]] = [{} for _ in range(n)]
    for prop in [f"p{k}" for k in range(n_props)]:
        placed = False
        for idx in range(n):
            for k in range(sizes[idx]):
                if rng.random() < 0.12:
                    labelling[idx].setdefault(f"s{k}", set()).add(prop)
                    placed = True
        if not placed:
            idx = rng.randrange(n)
            labelling[idx].setdefault(f"s{rng.randrange(sizes[idx])}", set()).add(prop)
    labelling[0].setdefault("s0", set()).add("p_top")

    comps = []
    for idx in range(n):
        states = [f"s{k}" for k in range(sizes[idx])]
        labels = {s: frozenset(ps) for s, ps in labelling[idx].items()}
        if idx == 0:
            states.append("limbo")
            labels["limbo"] = frozenset({"p_nowhere"})
        comps.append(Component(
            name=f"n{idx}",
            states=tuple(states),
            initial="s0",
            transitions=tuple(transitions[idx]),
            labels=labels,
        ))
    return infer_topology(comps, "n0", silent=frozenset({"tau"}))


# ---------------------------------------------------------------------------
# Equivalence suite
# ---------------------------------------------------------------------------


@dataclass
class PropResult:
    """Verdicts for one proposition on one instance."""

    proposition: str
    full_holds: bool
    reduced_holds: bool
    agree: bool
    eg_full: bool
    eg_reduced: bool
    eg_diverged: bool
    witness_lifted: bool | None = None
    full_witness: str | None = None
    reduced_witness: str | None = None


@dataclass
class Divergence:
    """A pruned-versus-unpruned reachability mismatch at one stage."""

    stage_root: str
    proposition: str
    pruned_holds: bool
    unpruned_holds: bool


@dataclass
class SuiteReport:
    """Self-contained comparison record for one network instance."""

    propositions: list[PropResult] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)
    disagreements: int = 0
    size_bound_ok: bool = True
    full_states: int = 0
    full_transitions: int = 0
    reduced_states: int = 0
    reduced_transitions: int = 0
    stage_count: int = 0
    witnesses_checked: int = 0
    witnesses_lifted: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        agree = sum(1 for r in self.propositions if r.agree)
        lifted = f"{self.witnesses_lifted}/{self.witnesses_checked}"
        return (
            f"props={len(self.propositions)} agree={agree} "
            f"disagree={self.disagreements} eg_div={sum(r.eg_diverged for r in self.propositions)} "
            f"lifted={lifted} sq_vs_unpruned_div={len(self.divergences)} "
            f"full={self.full_states} reduced={self.reduced_states}"
        )

    def table(self) -> str:
        header = f"{'proposition':<16} {'full':<6} {'reduced':<8} {'agree':<6} " \
                 f"{'EG full':<8} {'EG red':<7} lifted"
        rows = [header, "-" * len(header)]
        for r in self.propositions:
            lifted = "-" if r.witness_lifted is None else str(r.witness_lifted).lower()
            rows.append(
                f"{r.proposition:<16} {str(r.full_holds).lower():<6} "
                f"{str(r.reduced_holds).lower():<8} {str(r.agree).lower():<6} "
                f"{str(r.eg_full).lower():<8} {str(r.eg_reduced).lower():<7} {lifted}")
        for d in self.divergences:
            rows.append(f"pruning divergence at {d.stage_root}: {d.proposition} "
                        f"pruned={d.pruned_holds} unpruned={d.unpruned_holds}")
        return "\n".join(rows)


def equivalence_suite(
    net: Network,
    cap: int = DEFAULT_STATE_CAP,
) -> SuiteReport:
    """Compare the full-product oracle against the reduced component.

    For every proposition occurring in the network the reachability verdict
    must agree between the two; the EG verdicts are recorded as well but
    divergence there is expected and only flagged.  Reachability witnesses
    found on ``reduced_lts`` are lifted by ``lift_witness`` when it is the
    top stage's squares, and replayed against the product of the stage's
    original components: the full product on a two-level network, and
    otherwise the original root and leaves with the reduced inner children.
    The pruned and unpruned squares are compared at every stage where
    pruning deleted a state; elsewhere they are the same system.  Raises
    OracleTooLarge when the product exceeds ``cap``.
    """
    try:
        full = full_product(net, cap=cap)
    except StateLimitExceeded as exc:
        raise OracleTooLarge(
            f"full product exceeds the cap of {cap} states") from exc

    component, stages = reduce_net_traced(net)
    reduced = reduced_lts(component, stages)
    eg_entry = Entry.EPSILON_TRANSPARENT if stages else Entry.INITIAL
    report = SuiteReport(
        full_states=full.n_states,
        full_transitions=len(full.src),
        reduced_states=reduced.n_states,
        reduced_transitions=len(reduced.src),
        stage_count=len(stages),
    )

    top = stages[-1] if stages else None
    lift_target: ExplicitLts | None = None
    if top is not None and reduced is top.sq.lts:
        if top.originals == net.components:
            lift_target = full
        else:
            try:
                lift_target = product_of(top.originals, top.net.silent, cap=cap)
            except StateLimitExceeded:
                lift_target = None

    for prop in net.propositions():
        vf = check_ef(full, prop)
        vr = check_ef(reduced, prop)
        gf = check_eg(full, prop, Entry.INITIAL)
        gr = check_eg(reduced, prop, eg_entry)
        agree = vf.holds == vr.holds
        result = PropResult(
            proposition=prop,
            full_holds=vf.holds,
            reduced_holds=vr.holds,
            agree=agree,
            eg_full=gf.holds,
            eg_reduced=gr.holds,
            eg_diverged=gf.holds != gr.holds,
        )
        if not agree:
            report.disagreements += 1
            result.full_witness = render_witness(full, vf)
            result.reduced_witness = render_witness(reduced, vr)
        if vr.holds and vr.witness is not None and lift_target is not None:
            report.witnesses_checked += 1
            ok = False
            try:
                prefix = lift_witness(top, vr.witness, prop)
                lifted = resolve_prefix(lift_target, prefix)
                ok = prop in lift_target.labels[lifted.states[-1]]
            except InvalidWitness:
                ok = False
            result.witness_lifted = ok
            if ok:
                report.witnesses_lifted += 1
        report.propositions.append(result)

    for stage in stages:
        n = len(stage.net.components)
        m = max(len(c.states) for c in stage.net.components)
        if stage.sq.lts.n_states + stage.deleted > (n - 1) * m * m + 1:
            report.size_bound_ok = False
        if not stage.deleted:  # the pruned squares are the unpruned ones
            continue
        unpruned = build_sq_unreduced(stage.net, epsilon=stage.sq.epsilon).lts
        for prop in stage.net.propositions():
            pruned_holds = check_ef(stage.sq.lts, prop).holds
            unpruned_holds = check_ef(unpruned, prop).holds
            if pruned_holds != unpruned_holds:
                report.divergences.append(Divergence(
                    stage_root=stage.sq.root_name,
                    proposition=prop,
                    pruned_holds=pruned_holds,
                    unpruned_holds=unpruned_holds,
                ))
    return report


# ---------------------------------------------------------------------------
# Statespace statistics
# ---------------------------------------------------------------------------


@dataclass
class StatsReport:
    """Size and timing comparison between the product and the reduction."""

    full_states: int
    full_transitions: int
    full_capped: bool
    reduced_states: int
    reduced_transitions: int
    reduction_ratio: float
    wall_times: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        full_note = " (lower bound, cap hit)" if self.full_capped else ""
        lines = [
            f"full product : {self.full_states} states, "
            f"{self.full_transitions} transitions{full_note}",
            f"reduced      : {self.reduced_states} states, "
            f"{self.reduced_transitions} transitions",
            f"ratio        : {self.reduction_ratio:.4f}"
            + (" (relative to the lower bound)" if self.full_capped else ""),
            "wall times   : "
            + " ".join(f"{k}={v:.4f}s" for k, v in sorted(self.wall_times.items())),
        ]
        return "\n".join(lines)


def stats(net: Network, cap: int = DEFAULT_STATE_CAP, runs: int = 3) -> StatsReport:
    """Build both structures and report sizes and per-phase median times.

    The reduced sizes are those of ``reduced_lts``, the graph that
    ``check --reduced`` checks.  A capped product is reported as a lower
    bound instead of failing.
    """
    full_times: list[float] = []
    full_states = 0
    full_transitions = 0
    capped = False
    for _ in range(max(1, runs)):
        t0 = time.perf_counter()
        try:
            full = full_product(net, cap=cap)
            full_states = full.n_states
            full_transitions = len(full.src)
        except StateLimitExceeded as exc:
            capped = True
            full_states = exc.seen
        full_times.append(time.perf_counter() - t0)

    reduce_times: list[float] = []
    for _ in range(max(1, runs)):
        t0 = time.perf_counter()
        component, stages = reduce_net_traced(net)
        reduce_times.append(time.perf_counter() - t0)
    reduced = reduced_lts(component, stages)
    reduced_states = reduced.n_states
    reduced_transitions = len(reduced.src)

    return StatsReport(
        full_states=full_states,
        full_transitions=full_transitions,
        full_capped=capped,
        reduced_states=reduced_states,
        reduced_transitions=reduced_transitions,
        reduction_ratio=reduced_states / full_states if full_states else 1.0,
        wall_times={
            "full_product": statistics.median(full_times),
            "reduce": statistics.median(reduce_times),
        },
    )
