"""In-memory spans around the calls into each layer of treelts.

The tracer wraps public functions where they are looked up: either in the
benchmark's own call table or in the namespace of the treelts module that
calls them (calls inside one module do not go through the package-level
name).  Spans carry a parent id, the instance being processed and, for
reduction phases, the name of the stage root they belong to.  Nothing is
written until the traced run ends.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict
from dataclasses import asdict, dataclass, field

from treelts import harness, reduction
from treelts.errors import EmptyReduction


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    instance: int
    stage: str | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    instance: int = -1
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    #: What each ExplicitLts checked by the harness is: "full" or "reduced".
    _kinds: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary)

    def wrap(self, fn, name, stage=None, after=None):
        """``fn`` inside a span; ``stage(args)`` names the stage root,
        ``after(args, result)`` records counts."""
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name(args) if callable(name) else name, self.instance,
                        stage(args) if stage else None, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after:
                after(args, result)
            return result
        return traced

    def patch(self, module, attr, *args, **kwargs) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, *args, **kwargs))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self, lts, kind: str) -> None:
        self._kinds[lts] = kind

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    # -- counters -----------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def _square(self, args, sq) -> None:
        self._count("reduction.square_states", sq.lts.n_states)
        self._count("reduction.square_transitions", len(sq.lts.transitions))
        self.counts["reduction.max_stage_states"] = max(
            self.counts["reduction.max_stage_states"], sq.lts.n_states)

    def product_built(self, args, lts) -> None:
        self.mark(lts, "full")
        self._count("product.full_states", lts.n_states)

    def install(self) -> None:
        """Patch the names treelts modules call each other through."""
        root_of_net = lambda a: a[0].components[a[0].root_index].name
        root_of_sq = lambda a: a[0].root_name
        self.patch(reduction, "subnetwork", "model.subnetwork", root_of_net,
                   lambda a, r: self._count("model.subnetwork_calls"))
        self.patch(reduction, "two_level_network", "model.two_level_network",
                   lambda a: a[0].name)
        self.patch(reduction, "build_sq_unreduced", "reduction.square_bfs", root_of_net,
                   self._square)
        self.patch(reduction, "compute_locked", "reduction.locked", root_of_sq,
                   lambda a, r: self._count("reduction.locked_states", len(r)))
        original = reduction.prune_locked

        def prune_counted(sq):
            try:
                result = original(sq)
            except EmptyReduction:
                # the reduction falls back to the bare glue state
                self._count("reduction.deleted_states", sq.lts.n_states - 1)
                raise
            self._count("reduction.deleted_states", sq.lts.n_states - result.lts.n_states)
            return result
        self._patched.append((reduction, "prune_locked", original))
        reduction.prune_locked = self.wrap(prune_counted, "reduction.prune", root_of_sq)
        self.patch(reduction, "cmpl", "reduction.cmpl", root_of_sq,
                   lambda a, r: self._count("reduction.stages"))

        self.patch(harness, "full_product", "product.full_product", after=self.product_built)
        self.patch(harness, "component_lts", "product.component_lts",
                   after=lambda a, r: self.mark(r, "reduced"))
        self.patch(harness, "check_ef",
                   lambda a: "checker.ef_" + self._kinds.get(a[0], "stage"))
        self.patch(harness, "check_eg", "checker.eg")
        self.patch(harness, "lift_witness", "checker.lift")
        self.patch(harness, "resolve_prefix", "product.resolve_prefix")
        self.patch(harness, "build_sq_unreduced", "harness.unpruned_rebuild")
        self.patch(harness, "reduce_net_traced", "reduction.reduce")

    # -- summaries ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            total[s.name] += s.end - s.start
            own[s.name] += t
        return total, own

    def stage_phases(self, end: int) -> dict[tuple[int, str], dict[str, float]]:
        """Self time per reduction phase among the first ``end`` spans,
        keyed by (instance, stage root)."""
        phases: dict[tuple[int, str], dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, own in zip(self.spans[:end], self.self_times()):
            if s.stage is not None:
                phases[(s.instance, s.stage)][s.name.split(".", 1)[1] + "_s"] += own
        return phases
