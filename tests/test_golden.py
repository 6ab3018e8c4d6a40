"""Pinned `reduce`/`validate` output text and the treelts names the
benchmark uses.

The golden files under ``tests/golden`` pin the canonical state numbering,
which follows state declaration order, not state names.  Each pinned
reduction is also checked against the full product of its source network.
"""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

import treelts
from treelts import (
    Component,
    GenConfig,
    build_sq,
    build_sq_unreduced,
    check_ef,
    component_lts,
    equivalence_suite,
    full_product,
    gen_random_tree,
    harness,
    infer_topology,
    product,
    prune_locked,
    reduce_net,
    reduce_net_traced,
    reduction,
    two_level_network,
)
from treelts.cli import load, main, save
from treelts.fixtures import gx_path, gy_path
from oracles import merge_home
from shapes import all_locked_tree, ring_chain, ring_tree
from test_small_scope import SHAPES, small_networks

GOLDEN = Path(__file__).parent / "golden"
PACKAGE = Path(treelts.__file__).parent
PERFBENCH = Path(__file__).parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def chain_out_of_order():
    """Three-level chain A - B - C whose states are declared out of lexical
    order; the root's dead end ``a3`` gives locked squares to prune."""
    a = Component(
        name="A", states=("a2", "a0", "a3", "a1"), initial="a0",
        transitions=(("a0", "x", "a1"), ("a1", "go", "a2"), ("a2", "x", "a0"),
                     ("a1", "stop", "a3")),
        labels={"a2": frozenset({"pa"})},
    )
    b = Component(
        name="B", states=("b1", "b0"), initial="b0",
        transitions=(("b0", "x", "b0"), ("b1", "x", "b0"), ("b0", "y", "b1")),
    )
    c = Component(
        name="C", states=("c1", "c0"), initial="c0",
        transitions=(("c0", "tau", "c1"), ("c1", "y", "c0")),
    )
    return infer_topology([a, b, c], "A")


def network_file(name, tmp_path):
    if name == "gx":
        return str(gx_path())
    path = tmp_path / "chain.json"
    save(chain_out_of_order(), path)
    return str(path)


def reduce_outputs(name, tmp_path):
    """``reduce -o``/``--dot`` file texts."""
    src = network_file(name, tmp_path)
    out, dot = tmp_path / "out.json", tmp_path / "out.dot"
    assert main(["reduce", src, "-o", str(out), "--dot", str(dot)]) == 0
    return {
        f"{name}-reduce.json": out.read_text(encoding="utf-8"),
        f"{name}-reduce.dot": dot.read_text(encoding="utf-8"),
    }


@pytest.mark.parametrize("name", ["gx", "chain"])
def test_reduce_output_matches_golden_text(name, tmp_path):
    for filename, text in reduce_outputs(name, tmp_path).items():
        assert text == (GOLDEN / filename).read_text(encoding="utf-8"), filename


@pytest.mark.parametrize("name", ["gx", "chain"])
def test_golden_reductions_agree_with_the_full_product(name, tmp_path):
    source = load(network_file(name, tmp_path))
    full = full_product(source)
    assert source.propositions()
    lts = component_lts(load(GOLDEN / f"{name}-reduce.json").root)
    for prop in source.propositions():
        assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop


def wide_tree():
    """A root over five tau-ring leaves: one top stage gluing five squares."""
    return ring_tree([None] + [0] * 5)


def test_wide_top_stage_matches_golden_text(tmp_path, capsys):
    src = tmp_path / "wide.json"
    save(wide_tree(), src)
    out, dot = tmp_path / "out.json", tmp_path / "out.dot"
    assert main(["reduce", str(src), "-o", str(out), "--dot", str(dot)]) == 0
    assert out.read_text(encoding="utf-8") == (
        GOLDEN / "wide-reduce.json").read_text(encoding="utf-8")
    assert dot.read_text(encoding="utf-8") == (
        GOLDEN / "wide-reduce.dot").read_text(encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(src), "--reduced", "--ef", "p3", "--witness"]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / "wide-check-ef-p3.txt").read_text(encoding="utf-8")


def test_gx_reduced_witness_matches_golden_text(capsys):
    # gx has no silent cycles, so the square payloads name original states
    assert main(["check", str(gx_path()), "--reduced", "--ef", "r3_reached", "--witness"]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / "gx-check-ef-r3.txt").read_text(encoding="utf-8")


def test_wide_golden_reduction_agrees_with_the_full_product():
    source = wide_tree()
    full = full_product(source)
    lts = component_lts(load(GOLDEN / "wide-reduce.json").root)
    assert len(source.propositions()) == 6
    for prop in source.propositions():
        assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop


STAGE_NETWORKS = {
    "gx": lambda: [load(gx_path())],
    "chain": lambda: [chain_out_of_order()],
    "wide": lambda: [wide_tree()],
    "all-locked": lambda: [all_locked_tree()],
    "ring-tree": lambda: [ring_tree([None, 0, 1, 1, 0])],
    "non-ring-tree": lambda: [ring_tree([None, 0, 1, 1, 0], ring=False)],
    "random-depth-4": lambda: [
        gen_random_tree(GenConfig(seed=seed, max_depth=4, max_children=3, max_states=5))
        for seed in range(600)],
}
# where pruning deletes a copy of home and keeps another at the same root
# position: merging the copies before pruning would keep the deleted one's
# moves, so these cases tell the two orders apart
SPLIT_HOME = {"gx", "random-depth-4"}


def splits_home(unpruned, pruned, net):
    """Whether ``pruned`` keeps some copy of home at a root position where
    it deleted another."""
    home = {k: net.components[k].initial for k in net.children[net.root_index]}
    by_root, kept = {}, set(pruned.lts.payloads)
    for p in unpruned.lts.payloads[1:]:
        if home[p.child_index] == p.child_state:
            by_root.setdefault(p.root_state, set()).add(p in kept)
    return {True, False} in by_root.values()


@pytest.mark.parametrize("name", STAGE_NETWORKS)
def test_stage_squares_rebuild_from_the_stage_network(name):
    # the pipeline builds its pruned, merged squares in one pass; they must
    # be the reference construction's, edge for edge.  The benchmark's
    # per-stage records and equivalence_suite rebuild the unpruned squares
    # from stage.net, so it must be the network the squares were built
    # from, pre-minimised components included
    split = False
    for net in STAGE_NETWORKS[name]():
        for stage in reduce_net_traced(net)[1]:
            unpruned = build_sq_unreduced(stage.net, epsilon=stage.sq.epsilon)
            assert stage.unpruned_states == unpruned.lts.n_states
            pruned = prune_locked(unpruned)
            assert unpruned.lts.n_states - stage.deleted == pruned.lts.n_states
            rebuilt, lts = merge_home(pruned, stage.net).lts, stage.sq.lts
            assert (rebuilt.initial, rebuilt.payloads, rebuilt.labels) == (
                lts.initial, lts.payloads, lts.labels)
            edges = list(zip(lts.src, lts.act, lts.dst, lts.movers))
            assert list(zip(rebuilt.src, rebuilt.act, rebuilt.dst, rebuilt.movers)) == edges
            assert len(set(edges)) == len(edges)
            split = split or splits_home(unpruned, pruned, stage.net)
    assert split == (name in SPLIT_HOME)


def square_fields(sq):
    """Every field of a sum-of-squares and of its graph, as one tuple."""
    lts = sq.lts
    return (sq.epsilon, sq.root_name, sq.root_index, sq.root_upacts, lts.initial,
            lts.src, lts.act, lts.dst, lts.movers, lts.labels, lts.payloads)


def bounds_sweep():
    """Random trees whose generator bounds vary with the seed."""
    return [gen_random_tree(GenConfig(seed=seed, max_depth=2 + seed % 3,
                                      max_children=1 + seed % 4, max_states=2 + seed % 5,
                                      density=(0.3, 0.6, 0.9)[seed % 3]))
            for seed in range(300)]


@pytest.mark.parametrize("name", [*STAGE_NETWORKS, "bounds-sweep"])
def test_one_pass_build_sq_is_the_reference_pruning(name):
    # build_sq prunes with the pipeline's _pruned in one pass; it must give
    # what the delete-only reference gives on the unpruned squares
    for net in bounds_sweep() if name == "bounds-sweep" else STAGE_NETWORKS[name]():
        for stage in reduce_net_traced(net)[1]:
            assert square_fields(build_sq(stage.net)) == square_fields(
                prune_locked(build_sq_unreduced(stage.net)))


@pytest.mark.parametrize("name", ["bounds-sweep", "2-chain"])
def test_a_stage_network_is_the_one_two_level_network_builds(name):
    # the reduction classifies its stage networks without two_level_network's
    # checks, which every tree builder has made already
    nets = bounds_sweep() if name == "bounds-sweep" else small_networks(SHAPES["2-chain"])
    fields = ("root_index", "silent", "parent", "children", "upacts", "downacts")
    for tree in nets:
        for stage in reduce_net_traced(tree)[1]:
            net, kids = stage.net, tree.children[stage.node]
            built = two_level_network(net.components[0], net.components[1:],
                                      [tree.upacts[k] for k in kids], tree.upacts[stage.node],
                                      tree.silent)
            assert [getattr(net, f) for f in fields] == [getattr(built, f) for f in fields]


@pytest.mark.parametrize("name", ["gx", "gy", "chain", "wide"])
def test_validate_output_matches_golden_text(name, tmp_path, capsys):
    if name in ("gx", "gy"):
        src = gx_path() if name == "gx" else gy_path()
    else:
        src = tmp_path / f"{name}.json"
        save(chain_out_of_order() if name == "chain" else wide_tree(), src)
    assert main(["validate", str(src)]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / f"{name}-validate.txt").read_text(encoding="utf-8")


def test_chain_reduction_text_ignores_the_hash_seed(tmp_path):
    src = tmp_path / "chain.json"
    save(ring_chain(5), src)
    env = dict(os.environ, PYTHONPATH=str(Path(treelts.__file__).parents[1]))
    texts = []
    for seed in ("0", "1", "2"):
        out, dot = tmp_path / f"out{seed}.json", tmp_path / f"out{seed}.dot"
        subprocess.run(
            [sys.executable, "-m", "treelts", "reduce", str(src), "-o", str(out),
             "--dot", str(dot)],
            env=dict(env, PYTHONHASHSEED=seed), check=True, capture_output=True)
        texts.append((out.read_text(encoding="utf-8"), dot.read_text(encoding="utf-8")))
    assert texts[1:] == texts[:1] * 2


def test_chain_exercises_pruning_and_declaration_order(tmp_path):
    texts = reduce_outputs("chain", tmp_path)
    assert reduce_net_traced(chain_out_of_order())[1][-1].deleted > 0
    # square payloads of the top stage list B's reduced states before A's
    # states, each in declaration order: a2 precedes a0
    dot = texts["chain-reduce.dot"]
    assert dot.index(",a2)#1") < dot.index(",a0)#1")


@pytest.mark.parametrize("make", [lambda: ring_chain(4), chain_out_of_order],
                         ids=["ring-chain", "chain"])
def test_one_glue_name_for_the_whole_reduction(make, tmp_path):
    net = make()
    _, stages = reduce_net_traced(net)
    assert len(stages) >= 2
    assert {stage.sq.epsilon for stage in stages} == {"eps0"}
    for stage in stages[:-1]:  # each enters its parent's stage as a reduced child
        assert stage.result.acts <= stage.net.upacts[stage.net.root_index]
    src, out = tmp_path / "net.json", tmp_path / "out.json"
    save(net, src)
    assert main(["reduce", str(src), "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    reduced = load(out)
    # the file lists the network's silent names and the glue; the transitions
    # use only the glue
    assert reduced.silent == net.silent | {"eps0"}
    assert reduced.silent & reduced.root.acts == {"eps0"}
    full, lts = full_product(net), component_lts(reduced.root)
    for prop in net.propositions():
        assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop


def test_names_patched_by_the_benchmark_tracer_exist():
    patched = re.findall(r'\((reduction|harness), "(\w+)"', SPANS.read_text(encoding="utf-8"))
    modules = {"reduction": reduction, "harness": harness}
    names = {mod: sorted(attr for m, attr in patched if m == mod) for mod in modules}
    assert len(names["reduction"]) == 6 and len(names["harness"]) == 8
    for mod, attrs in names.items():
        for attr in attrs:
            assert callable(getattr(modules[mod], attr, None)), f"{mod}.{attr}"


def perfbench_module(name, monkeypatch):
    """``perfbench/<name>.py`` imported by path, writing no bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_reads_the_reduction_of_gx(monkeypatch, tmp_path):
    # what ``perfbench/run.py --trace 1`` counts and records: the patched
    # calls' first arguments, stage.net, stage.sq and stage.result, and the
    # unpruned squares and locked count rebuilt by the public reference
    # functions; the pipeline no longer calls those, so their sizes come
    # from the records
    spans, run = perfbench_module("spans", monkeypatch), perfbench_module("run", monkeypatch)
    before = dict(vars(reduction)), dict(vars(harness))
    tracer = spans.Tracer()
    tracer.install()
    try:
        equivalence_suite(load(gx_path()))
    finally:
        tracer.restore()
    assert (dict(vars(reduction)), dict(vars(harness))) == before
    expected = {"reduction.stages": 1, "product.full_states": 15}
    assert {key: tracer.counts[key] for key in expected} == expected
    records = run.stage_records(tracer.stage_phases(len(tracer.spans)), [gx_path()])
    assert len(records) == 1 and records[0]["result_states"] == 11
    sizes = {key: records[0][key] for key in ("unpruned_states", "unpruned_transitions", "locked")}
    assert sizes == {"unpruned_states": 21, "unpruned_transitions": 26, "locked": 9}
    assert reduce_net_traced(load(gx_path()))[1][0].deleted == 9
    # gx has one stage; a deeper tree also reads an inner stage's net and result
    deeper = tmp_path / "ring-tree.json"
    save(ring_tree([None, 0, 1, 1, 0]), deeper)
    records = run.stage_records({}, [deeper])
    assert [(r["root"], r["level"]) for r in records] == [("n1", 1), ("n0", 0)]
    assert records[0]["result_states"] == 1


@pytest.mark.parametrize("workload", ["chain", "balanced", "wide", "suite"])
def test_the_benchmark_verdict_path_gives_the_reference_verdicts(workload, monkeypatch,
                                                                 tmp_path):
    # what ``perfbench/run.py`` times, on a few instances: the ring families
    # against their verdicts by construction, the suite against the full product
    run, families = perfbench_module("run", monkeypatch), perfbench_module("families", monkeypatch)
    if workload == "suite":
        nets, checked = list(families.capped_suite_stream(0, 10)), 0
    else:
        nets = families.generate(workload, 0)[:1]
    for k, net in enumerate(nets):
        path = tmp_path / f"inst-{k}.json"
        save(net, path)
        verdicts, states, transitions = run.verdict_path(run.Api(), path)
        reduced = reduce_net(net)
        assert (states, transitions) == (len(reduced.states), len(reduced.transitions)), k
        if workload != "suite":
            assert verdicts == families.ring_expected(net)
        elif prod(len(c.states) for c in net.components) <= 10_000:
            full = full_product(net)
            assert verdicts == {p: check_ef(full, p).holds for p in net.propositions()}, k
            checked += 1
    assert workload != "suite" or checked > 0


def test_names_the_benchmark_imports_from_treelts_exist():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "treelts":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert ("spans.py", "treelts.errors", "EmptyReduction") in imported
    assert ("selfcheck.py", "treelts.cli", "save_string") in imported
    for filename, module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{filename}: {module}.{name}"


def test_package_exports_are_listed_and_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported - set(treelts.__all__) == set()
    assert [name for name in treelts.__all__ if not hasattr(treelts, name)] == []


def treelts_imports(module):
    """The treelts modules ``treelts/<module>.py`` imports from."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treelts."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("treelts.")}
    return found


def test_the_package_imports_the_standard_library_alone():
    # pyproject.toml declares no dependencies, so a module that happens to be
    # installed beside the package must not be imported by it
    assert re.search(r"^dependencies = \[\]$", (PERFBENCH.parent / "pyproject.toml").read_text(
        encoding="utf-8"), re.M)
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "treelts", f"{path.name}: {name}"


def test_the_package_parses_as_its_oldest_declared_python():
    # pyproject.toml declares the oldest Python the package supports; every
    # module must be written in that version's grammar (library calls that
    # came later are not caught)
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (PERFBENCH.parent / "pyproject.toml")
                      .read_text(encoding="utf-8"), re.M)
    assert floor, "requires-python is not of the form >=3.N"
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, int(floor[1])))


def test_core_modules_do_not_import_the_layers_above():
    assert treelts_imports("checker") == {"product"}
    for module in ("model", "product", "reduction", "fixtures/__init__"):
        assert not treelts_imports(module) & {"checker", "harness", "cli"}, module


def constructor_callers(module, name):
    """The top-level definitions of ``treelts/<module>.py`` that call
    ``name(...)``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name}


def test_one_renumbering_and_one_namer():
    # every square builder emits through _emit; only prune_locked, the
    # delete-only reference, renumbers an explicit graph; cmpl, _named and
    # product -o name their states through flat_component
    assert constructor_callers("reduction", "ExplicitLts") == {"_emit", "prune_locked"}
    assert constructor_callers("reduction", "Component") == set()
    assert constructor_callers("product", "Component") == {"flat_component"}


def test_one_builder_of_a_one_state_input():
    # a one-block contraction and an inner child's summary are both built
    # by _one_state; contraction has one entry point
    assert constructor_callers("reduction", "_View") == {"_one_state", "_contract"}
    assert not hasattr(reduction, "quotient") and not hasattr(reduction, "_Inner")


def test_one_attribution_of_a_step():
    # prefix_from_states attributes silent steps by the declared edges like
    # any other, and steps are checked on the integer view, not on a second
    # name-keyed copy of the transitions
    tree = ast.parse((PACKAGE / "product.py").read_text(encoding="utf-8"))
    readers = {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "silent"}
    assert readers == set()
    for path in sorted(PACKAGE.rglob("*.py")):
        assert "transition_set" not in path.read_text(encoding="utf-8"), path


def test_one_classification_of_an_action():
    # upacts and downacts are the only stored classification; the squares
    # split the root's moves by its downacts into one table of lone moves
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Attribute) and node.attr == "locacts"
                       for node in ast.walk(tree)), path
    assert "locacts" not in treelts.Network.__dataclass_fields__
    assert not {"root_local", "root_up"} & set(reduction._Moves._fields)


def test_one_matcher_of_a_step():
    # prefix_of and resolve_prefix look steps up through _movers alone, so
    # a path and a prefix are checked alike, movers included
    tree = ast.parse((PACKAGE / "product.py").read_text(encoding="utf-8"))
    readers = {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "out_edges"}
    assert readers == {"_movers"}
    assert not hasattr(treelts, "replay") and not hasattr(product, "replay")
    assert not hasattr(product.ExplicitLts, "edge")
    assert not hasattr(product.ExplicitLts, "has_payload")
