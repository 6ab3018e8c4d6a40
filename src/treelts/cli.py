"""File formats, command-line interface, and graph export.

This is the only module that performs I/O.  Network files are JSON:

    {
      "root": "R",
      "silent": ["tau"],              // optional, defaults to ["tau"]
      "components": [
        {
          "name": "R",
          "states": ["r0", "r1"],
          "initial": "r0",
          "labels": {"r1": ["goal"]},  // optional
          "transitions": [["r0", "?go", "r1"]]
        }
      ]
    }

The loader checks the document's shape and the direction marks only;
components and the silent list go as they are to ``Component`` and
``infer_topology``, which check them for files and library callers
alike.  Action names may carry a ``?``/``!``
prefix marking the expected direction (towards a child / towards the
parent); the prefix is stripped and checked against the inferred
classification, never trusted.

Exit codes: 0 success or formula holds, 1 formula does not hold,
2 validation or usage error or an output file that cannot be written,
3 state cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path as FsPath

from .checker import Entry, check_ef, check_eg, render_witness
from .errors import (
    OracleTooLarge,
    ParseError,
    StateLimitExceeded,
    TreeLtsError,
    ValidationError,
)
from .harness import GenConfig, equivalence_suite, gen_random_tree, stats
from .model import Component, Network, infer_topology, validate_live_reset
from .product import (
    DEFAULT_STATE_CAP,
    ExplicitLts,
    flat_component,
    full_product,
)
from .reduction import reduce_net_traced, reduced_lts

_TOP_KEYS = {"root", "silent", "components"}
_COMPONENT_KEYS = {"name", "states", "initial", "labels", "transitions"}


# ---------------------------------------------------------------------------
# Network files
# ---------------------------------------------------------------------------


def load(path: str | FsPath) -> Network:
    """Parse a network file and infer its topology.

    Raises ParseError for an unreadable or non-UTF-8 file, for malformed
    JSON (with position) and for JSON nested too deep to parse, and
    ValidationError for structurally invalid documents.  The reset
    discipline is not enforced here; run validate_live_reset separately.
    """
    try:
        text = FsPath(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError(f"{path} is nested too deep to parse") from exc
    return network_from_doc(doc)


def network_from_doc(doc: object) -> Network:
    """Build a Network from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("the document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")
    if "root" not in doc or "components" not in doc:
        raise ValidationError("both 'root' and 'components' are required")
    raw_components = doc["components"]
    if not isinstance(raw_components, list) or not raw_components:
        raise ValidationError("'components' must be a non-empty list")

    components, annotations = zip(*map(_component_from_doc, raw_components))

    net = infer_topology(components, doc["root"], silent=doc.get("silent", ["tau"]))

    for i, marks in enumerate(annotations):
        for act, mark in sorted(marks.items()):
            if mark == "?" and act not in net.downacts[i]:
                raise ValidationError(
                    f"action {act!r} in component {components[i].name!r} is marked '?' "
                    f"but is not synchronised with a child")
            if mark == "!" and act not in net.upacts[i]:
                raise ValidationError(
                    f"action {act!r} in component {components[i].name!r} is marked '!' "
                    f"but is not synchronised with the parent")
    return net


def _component_from_doc(raw: object) -> tuple[Component, dict[str, str]]:
    if not isinstance(raw, dict):
        raise ValidationError("each component must be a JSON object")
    unknown = set(raw) - _COMPONENT_KEYS
    if unknown:
        raise ValidationError(f"unknown component keys: {sorted(unknown)}")
    for key in ("name", "states", "initial"):
        if key not in raw:
            raise ValidationError(f"component is missing required key {key!r}")
    # Component checks the content; only the direction marks are the file's
    marks: dict[str, str] = {}
    transitions = raw.get("transitions", [])
    if isinstance(transitions, list):
        transitions = transitions[:]  # the document keeps its marks
        for i, tr in enumerate(transitions):
            if type(tr) is list and len(tr) == 3 and type(tr[1]) is str and tr[1][:1] in ("?", "!"):
                mark, act = tr[1][0], tr[1][1:]
                if not act:
                    raise ValidationError(f"empty action name in transition {tr!r}")
                if marks.setdefault(act, mark) != mark:
                    raise ValidationError(f"action {act!r} is marked both '?' and '!' "
                                          f"in component {raw['name']!r}")
                transitions[i] = [tr[0], act, tr[2]]
    return Component(raw["name"], raw["states"], raw["initial"], transitions,
                     raw.get("labels", {})), marks


def network_to_doc(net: Network) -> dict:
    """Canonical JSON document for a network (stable key and list order)."""
    return {
        "root": net.root.name,
        "silent": sorted(net.silent),
        "components": [
            {
                "name": c.name,
                "states": list(c.states),
                "initial": c.initial,
                "labels": {
                    s: sorted(c.labels[s]) for s in c.states if s in c.labels
                },
                "transitions": [list(tr) for tr in c.transitions],
            }
            for c in net.components
        ],
    }


def save(net: Network, path: str | FsPath) -> None:
    """Write a network file; save then load round-trips the network."""
    FsPath(path).write_text(save_string(net), encoding="utf-8")


def save_string(net: Network) -> str:
    """``json.dumps(network_to_doc(net), indent=2)`` and a newline, laid out
    by hand: the standard library indents with its pure-Python encoder."""
    doc = network_to_doc(net)

    def strings(names: list[str], indent: str) -> str:
        return _nested(list(map(_quote, names)), indent)

    at = " " * 6  # the indent of a component's keys
    step, close = "\n" + at + "    ", "\n" + at + "  ]"
    comps = []
    for c in doc["components"]:
        labels = [f"{_quote(s)}: {strings(ps, at + '  ')}" for s, ps in c["labels"].items()]
        # every transition is a [src, act, dst] triple
        transitions = [f"[{step}{_quote(s)},{step}{_quote(a)},{step}{_quote(d)}{close}"
                       for s, a, d in c["transitions"]]
        comps.append(_nested([
            f'"name": {_quote(c["name"])}',
            f'"states": {strings(c["states"], at)}',
            f'"initial": {_quote(c["initial"])}',
            f'"labels": {_nested(labels, at, "{}")}',
            f'"transitions": {_nested(transitions, at)}',
        ], " " * 4, "{}"))
    return _nested([
        f'"root": {_quote(doc["root"])}',
        f'"silent": {strings(doc["silent"], "  ")}',
        f'"components": {_nested(comps, "  ")}',
    ], "", "{}") + "\n"


def _nested(items: list[str], indent: str, brackets: str = "[]") -> str:
    """Encoded ``items`` as a JSON list (or object) nested at ``indent``,
    in the layout of ``json.dumps(..., indent=2)``."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def export_dot(lts: ExplicitLts, path: str | FsPath, silent: frozenset[str] = frozenset()) -> None:
    """Write a deterministic DOT rendering of an explicit graph.

    One node line per state (payload plus labels), an arrow into the
    initial state, one edge per transition; silent edges are dashed.
    """
    FsPath(path).write_text(dot_string(lts, silent), encoding="utf-8")


def dot_string(lts: ExplicitLts, silent: frozenset[str] = frozenset()) -> str:
    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph lts {", "  rankdir=LR;", '  __start [shape=point, style=invis];']
    for i in range(lts.n_states):
        label = esc(str(lts.payloads[i]))
        if lts.labels[i]:
            label += "\\n{" + esc(",".join(sorted(lts.labels[i]))) + "}"
        lines.append(f'  s{i} [label="{label}"];')
    lines.append(f"  __start -> s{lts.initial};")
    for src, act, dst in zip(lts.src, lts.act, lts.dst):
        style = ", style=dashed" if act in silent else ""
        lines.append(f'  s{src} -> s{dst} [label="{esc(act)}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    net = load(args.file)
    print(f"topology OK: {len(net.components)} component(s), tree rooted at {net.root.name!r}")
    for c, up, down in zip(net.components, net.upacts, net.downacts):
        print(f"  {c.name}: upacts={sorted(up)} downacts={sorted(down)} "
              f"locacts={sorted(c.acts - up - down)}")
    violations = validate_live_reset(net)
    if violations:
        for v in violations:
            print(f"live-reset violation in {v.component}: {v.transition}")
        return 2
    print("live-reset: OK")
    return 0


def _cmd_product(args: argparse.Namespace) -> int:
    net = load(args.file)
    lts = full_product(net, cap=args.cap)
    print(f"product: {lts.n_states} states, {len(lts.src)} transitions")
    if args.out:
        flat = flat_component("product", lts.initial, zip(lts.src, lts.act, lts.dst), lts.labels)
        product_net = infer_topology([flat], "product", silent=net.silent)
        save(product_net, args.out)
        print(f"wrote {args.out}")
    if args.dot:
        export_dot(lts, args.dot, silent=net.silent)
        print(f"wrote {args.dot}")
    return 0


def _require_live_reset(net: Network) -> None:
    violations = validate_live_reset(net)
    if violations:
        details = "; ".join(f"{v.component}:{v.transition}" for v in violations)
        raise ValidationError(f"network is not live-reset: {details}")


def _cmd_reduce(args: argparse.Namespace) -> int:
    net = load(args.file)
    _require_live_reset(net)
    component, stages = reduce_net_traced(net)
    lts = reduced_lts(component, stages)
    print(f"reduced: {lts.n_states} states, "
          f"{len(lts.src)} transitions ({len(stages)} reduction stage(s))")
    silent = net.silent | {stages[-1].sq.epsilon} if stages else net.silent
    if args.out:
        reduced_net = infer_topology([component], component.name, silent=silent)
        save(reduced_net, args.out)
        print(f"wrote {args.out}")
    if args.dot:
        export_dot(lts, args.dot, silent=silent)
        print(f"wrote {args.dot}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    net = load(args.file)
    modality, proposition = ("EF", args.ef) if args.ef is not None else ("EG", args.eg)
    if args.full:
        lts = full_product(net, cap=args.cap)
        side = "full product"
        entry = Entry.INITIAL
    else:
        _require_live_reset(net)
        component, stages = reduce_net_traced(net)
        lts = reduced_lts(component, stages)
        side = "reduced component"
        entry = Entry.EPSILON_TRANSPARENT if stages else Entry.INITIAL
    verdict = check_ef(lts, proposition) if modality == "EF" else check_eg(lts, proposition, entry)
    print(f"{modality} {proposition!r} on {side}: {'HOLDS' if verdict.holds else 'does not hold'}")
    if args.witness and verdict.holds:
        print(f"witness: {render_witness(lts, verdict)}")
    return 0 if verdict.holds else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    net = load(args.file)
    _require_live_reset(net)
    print(stats(net, cap=args.cap).table())
    return 0


#: The GenConfig bounds, one command-line flag each (see _add_gen_bounds).
_GEN_BOUNDS = tuple(f for f in fields(GenConfig) if f.name != "seed")


def _gen_config(args: argparse.Namespace, seed: int) -> GenConfig:
    return GenConfig(seed, **{f.name: getattr(args, f.name) for f in _GEN_BOUNDS})


def _cmd_gen(args: argparse.Namespace) -> int:
    net = gen_random_tree(_gen_config(args, args.seed))
    save(net, args.out)
    print(f"wrote {args.out}: {len(net.components)} component(s)")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be at least 1, not {args.seeds}")
    if args.json:  # a report path that cannot be written fails before any seed runs
        FsPath(args.json).open("a", encoding="utf-8").close()
    rows = []
    disagreements = 0
    skipped = 0
    for seed in range(args.seeds):
        cfg = _gen_config(args, seed)
        net = gen_random_tree(cfg)
        try:
            report = equivalence_suite(net, cap=args.cap)
        except OracleTooLarge:
            skipped += 1
            print(f"seed {seed}: skipped (oracle exceeds cap)")
            continue
        disagreements += report.disagreements
        print(f"seed {seed}: {report.summary()}")
        rows.append({"seed": seed, "config": vars(cfg), "report": report.to_dict()})
    print(f"suite: {len(rows)} instance(s) checked, {skipped} skipped, "
          f"{disagreements} reachability disagreement(s)")
    if args.json:
        FsPath(args.json).write_text(
            json.dumps({"instances": rows, "skipped": skipped,
                        "disagreements": disagreements}, indent=2) + "\n",
            encoding="utf-8")
        print(f"wrote {args.json}")
    return 0 if disagreements == 0 else 1


def _add_gen_bounds(parser: argparse.ArgumentParser) -> None:
    for f in _GEN_BOUNDS:
        flag = "--props" if f.name == "propositions" else "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=type(f.default), default=f.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelts",
        description="Reduce tree networks of reset-on-sync transition systems "
                    "and check reachability against the full product.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("product", help="build the full asynchronous product")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="save the product as a one-component network file")
    p.add_argument("--dot", help="export the product as DOT")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                   help="most states the full product may have (exit 3 beyond)")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("reduce", help="collapse the network into one component")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="save the result as a one-component network file")
    p.add_argument("--dot", help="export the result as DOT")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check", help="check EF/EG of a single proposition")
    p.add_argument("file")
    formula = p.add_mutually_exclusive_group(required=True)
    formula.add_argument("--ef", metavar="PROP")
    formula.add_argument("--eg", metavar="PROP")
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--full", action="store_true")
    side.add_argument("--reduced", action="store_true")
    p.add_argument("--witness", action="store_true", help="print a witness when it holds")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                   help="most states the full product of --full may have (exit 3 beyond); "
                        "--reduced builds no product and ignores it")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("stats", help="compare statespace sizes and times")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                   help="most states the full product may have; a larger one is "
                        "reported as a lower bound")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gen", help="generate a random reset-on-sync tree network")
    p.add_argument("--seed", type=int, required=True)
    _add_gen_bounds(p)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("suite", help="run the oracle-equivalence suite on random instances")
    p.add_argument("--seeds", type=int, required=True, help="number of seeds (at least 1), starting at 0")
    _add_gen_bounds(p)
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP,
                   help="most states each instance's full product may have; "
                        "a larger instance is skipped")
    p.add_argument("--json", help="write a machine-readable report")
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StateLimitExceeded, OracleTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TreeLtsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
