"""Pinned `reduce` output text and the names the benchmark tracer patches.

The golden files under ``tests/golden`` pin the canonical state numbering,
which follows state declaration order, not state names.  Each pinned
reduction is also checked against the full product of its source network.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treelts
from treelts import (
    Component,
    check_ef,
    component_lts,
    full_product,
    harness,
    infer_topology,
    reduction,
)
from treelts.cli import load, main, save
from treelts.fixtures import gx_path
from shapes import ring_chain, ring_tree

GOLDEN = Path(__file__).parent / "golden"
SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


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
    """``reduce -o``/``--dot`` and ``reduce --keep-locked -o`` file texts."""
    src = network_file(name, tmp_path)
    out, dot, kept = tmp_path / "out.json", tmp_path / "out.dot", tmp_path / "kept.json"
    assert main(["reduce", src, "-o", str(out), "--dot", str(dot)]) == 0
    assert main(["reduce", src, "--keep-locked", "-o", str(kept)]) == 0
    return {
        f"{name}-reduce.json": out.read_text(encoding="utf-8"),
        f"{name}-reduce.dot": dot.read_text(encoding="utf-8"),
        f"{name}-keep-locked.json": kept.read_text(encoding="utf-8"),
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
    for kind in ("reduce", "keep-locked"):
        lts = component_lts(load(GOLDEN / f"{name}-{kind}.json").root)
        for prop in source.propositions():
            assert check_ef(lts, prop).holds == check_ef(full, prop).holds, (kind, prop)


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


def test_wide_golden_reduction_agrees_with_the_full_product():
    source = wide_tree()
    full = full_product(source)
    lts = component_lts(load(GOLDEN / "wide-reduce.json").root)
    assert len(source.propositions()) == 6
    for prop in source.propositions():
        assert check_ef(lts, prop).holds == check_ef(full, prop).holds, prop


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
    assert texts["chain-reduce.json"] != texts["chain-keep-locked.json"]
    # square payloads of the top stage list B's reduced states before A's
    # states, each in declaration order: a2 precedes a0
    dot = texts["chain-reduce.dot"]
    assert dot.index(",a2)#1") < dot.index(",a0)#1")


def test_names_patched_by_the_benchmark_tracer_exist():
    patched = re.findall(r'\((reduction|harness), "(\w+)"', SPANS.read_text(encoding="utf-8"))
    modules = {"reduction": reduction, "harness": harness}
    names = {mod: sorted(attr for m, attr in patched if m == mod) for mod in modules}
    assert len(names["reduction"]) == 6 and len(names["harness"]) == 8
    for mod, attrs in names.items():
        for attr in attrs:
            assert callable(getattr(modules[mod], attr, None)), f"{mod}.{attr}"
