"""File format, DOT export, and command-line behaviour."""

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import treelts
from treelts import (
    Component,
    GenConfig,
    ParseError,
    ValidationError,
    gen_random_tree,
    infer_topology,
)
from treelts.cli import (
    _GEN_BOUNDS,
    _gen_config,
    build_parser,
    dot_string,
    export_dot,
    load,
    main,
    network_from_doc,
    network_to_doc,
    save,
    save_string,
)
from treelts.fixtures import gx_path, gy_path
from treelts.product import component_lts, full_product
from treelts.reduction import build_sq
from shapes import all_locked_tree, ring_chain, ring_tree


def awkward_names():
    """A root and a leaf whose names hold quotes, backslashes and non-ASCII
    characters; the leaf has no labels."""
    root = Component(
        'R"1', ("r\\0", "r\u00e91"), "r\\0",
        (("r\\0", 'go"', "r\u00e91"), ("r\u00e91", "tau", "r\\0")),
        labels={"r\u00e91": frozenset({"p\u2192q", 'say "hi"\\'}),
                "r\\0": frozenset({"\U0001f600"})})
    leaf = Component("le\taf\u00df", ("c0", "c\u03b11"), "c0",
                     (("c0", "tau", "c\u03b11"), ("c\u03b11", 'go"', "c0")))
    return infer_topology([root, leaf], 'R"1')


ONE_STATE = {"name": "a", "states": ["s0"], "initial": "s0"}


class TestLoad:
    def test_gx_fixture(self, gx):
        assert [c.name for c in gx.components] == ["R", "S1", "S2"]
        assert gx.root.name == "R"
        assert gx.root.label_of("r3") == {"r3_reached"}
        r = gx.index_of("R")
        assert gx.downacts[r] == {"open", "chooseL", "chooseR"}

    def test_gy_fixture_labels(self, gy):
        assert gy.components[0].label_of("r2") == {"p"}
        assert gy.components[1].label_of("s1") == {"p"}
        assert gy.components[2].label_of("t0") == {"p"}

    def test_empty_components_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            network_from_doc({"root": "x", "components": []})

    def test_unknown_top_level_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            network_from_doc({"root": "x", "components": [], "extra": 1})

    def test_unknown_component_keys_rejected(self):
        doc = {"root": "c", "components": [
            {"name": "c", "states": ["s0"], "initial": "s0", "color": "red"}]}
        with pytest.raises(ValidationError, match="unknown component keys"):
            network_from_doc(doc)

    def test_malformed_json_reports_position(self, tmp_path):
        # a file is read as text, so every kind of line end counts
        bad = tmp_path / "bad.json"
        for newline in (b"\n", b"\r", b"\r\n"):
            bad.write_bytes(newline.join([b"{", b"  broken", b"}"]))
            with pytest.raises(ParseError) as exc:
                load(bad)
            assert exc.value.line == 2, newline

    def test_a_number_is_no_path(self):
        # open() would take it for a file descriptor
        with pytest.raises(TypeError):
            load(3)

    def test_direction_marks_are_checked(self):
        # the '!' claims an upstream synchronisation that does not exist
        doc = {"root": "a", "components": [
            {"name": "a", "states": ["s0"], "initial": "s0",
             "transitions": [["s0", "!solo", "s0"]]}]}
        with pytest.raises(ValidationError, match="marked '!'"):
            network_from_doc(doc)

    def test_direction_marks_accepted_when_consistent(self, gx):
        # the bundled fixture uses ? and ! markers throughout
        assert gx.upacts[gx.index_of("S1")] == {"open"}
        # a marked and an unmarked copy of one move are one transition, where
        # the first copy stands
        doc = {"root": "a", "components": [
            {"name": "a", "states": ["s0", "s1"], "initial": "s0",
             "transitions": [["s0", "x", "s1"], ["s1", "?go", "s0"], ["s1", "tau", "s1"],
                             ["s1", "go", "s0"]]},
            {"name": "b", "states": ["t0"], "initial": "t0",
             "transitions": [["t0", "!go", "t0"]]}]}
        net = network_from_doc(doc)
        assert net.components[0].transitions == (
            ("s0", "x", "s1"), ("s1", "go", "s0"), ("s1", "tau", "s1"))
        assert net.components[1].transitions == (("t0", "go", "t0"),)
        assert net.downacts[0] == {"go"}

    @pytest.mark.parametrize("doc, message", [
        (None, None),
        (["a"], "the document must be a JSON object"),
        ({"root": "a"}, "both 'root' and 'components' are required"),
        ({"root": "a", "components": [ONE_STATE], "silent": "tau"},
         "silent actions 'tau' are a string, not a set of action names"),
        ({"root": "a", "components": [{**ONE_STATE, "transitions": [["s0", "?x", "s0"]]}]},
         "action 'x' in component 'a' is marked '?' but is not synchronised with a child"),
        ({"root": "a", "components": ["a"]}, "each component must be a JSON object"),
        ({"root": "a", "components": [{"name": "a", "states": ["s0"]}]},
         "component is missing required key 'initial'"),
        ({"root": "a", "components": [{**ONE_STATE, "transitions": "s0"}]},
         "transitions 's0' of component 'a' are a string, "
         "not a sequence of (src, action, dst) triples"),
        ({"root": "a", "components": [{**ONE_STATE, "transitions": [["s0", "x"]]}]},
         "transition ['s0', 'x'] in component 'a' is not a (src, action, dst) triple"),
        ({"root": "a", "components": [{**ONE_STATE, "transitions": [["s0", "!", "s0"]]}]},
         "empty action name in transition ['s0', '!', 's0']"),
        # the content is checked before the marks
        ({"root": "a", "components": [
            {**ONE_STATE, "transitions": [["s0", "!", "s0"], ["s0", "x", "s9"]]}]},
         "transition ('s0', 'x', 's9') uses unknown states in component 'a'"),
    ], ids=["unreadable", "not-an-object", "no-components", "silent-not-a-list",
            "unshared-down-mark", "component-not-an-object", "missing-key",
            "transitions-not-a-list", "malformed-transition", "empty-marked-action",
            "content-before-marks"])
    def test_each_rejection_names_its_cause(self, doc, message, tmp_path):
        src = tmp_path / "net.json"
        if doc is None:  # no file at all
            with pytest.raises(OSError) as missing:
                src.read_text(encoding="utf-8")
            error, message = ParseError, f"cannot read {src}: {missing.value}"
        else:
            src.write_text(json.dumps(doc), encoding="utf-8")
            error = ValidationError
        with pytest.raises(error) as info:
            load(src)
        assert type(info.value) is error and str(info.value) == message

    def test_conflicting_marks_rejected(self):
        doc = {"root": "a", "components": [
            {"name": "a", "states": ["s0"], "initial": "s0",
             "transitions": [["s0", "!x", "s0"], ["s0", "?x", "s0"]]}]}
        with pytest.raises(ValidationError, match="both"):
            network_from_doc(doc)


class TestSaveRoundTrip:
    def test_fixture_round_trip(self, gx, tmp_path):
        out = tmp_path / "copy.json"
        save(gx, out)
        again = load(out)
        assert again == gx

    def test_generated_round_trips(self, tmp_path):
        for seed in range(25):
            net = gen_random_tree(GenConfig(seed=seed, max_depth=3, max_children=3))
            out = tmp_path / f"g{seed}.json"
            save(net, out)
            assert load(out) == net

    def test_save_is_canonical(self, gx):
        assert save_string(gx) == save_string(load(gx_path()))

    @pytest.mark.parametrize("make", [
        lambda: load(gx_path()), lambda: load(gy_path()), lambda: ring_tree([None, 0, 1, 1, 0]),
        lambda: ring_chain(3, labelled={2}), all_locked_tree, awkward_names,
        lambda: infer_topology([Component("idle", ("z",), "z")], "idle", silent=frozenset()),
    ], ids=["gx", "gy", "ring-tree", "ring-chain", "all-locked", "awkward-names", "bare"])
    def test_save_string_is_the_indented_json_dump(self, make):
        net = make()
        assert save_string(net) == json.dumps(network_to_doc(net), indent=2) + "\n"


class TestDotExport:
    def test_gx_squares_have_twelve_node_lines(self, gx, tmp_path):
        sq = build_sq(gx)
        out = tmp_path / "sq.dot"
        export_dot(sq.lts, out, silent=gx.silent | {sq.epsilon})
        text = out.read_text(encoding="utf-8")
        node_lines = [l for l in text.splitlines() if re.match(r"^  s\d+ \[", l)]
        assert len(node_lines) == 12

    def test_single_state_component(self):
        c_lts = component_lts(Component("c", ("s0",), "s0"))
        text = dot_string(c_lts)
        assert len([l for l in text.splitlines() if re.match(r"^  s\d+ \[", l)]) == 1
        assert " -> " not in text.replace("__start -> s0", "")

    def test_reexport_is_byte_identical(self, gx):
        lts = full_product(gx)
        assert dot_string(lts, gx.silent) == dot_string(lts, gx.silent)

    def test_silent_edges_are_dashed(self, gx):
        lts = full_product(gx)
        dashed = [l for l in dot_string(lts, gx.silent).splitlines()
                  if 'label="tau"' in l]
        assert dashed and all("dashed" in l for l in dashed)


class TestMain:
    def test_validate_gx(self, capsys):
        assert main(["validate", str(gx_path())]) == 0
        assert "live-reset: OK" in capsys.readouterr().out

    def test_validate_broken_file(self, tmp_path, capsys):
        doc = json.loads(gx_path().read_text(encoding="utf-8"))
        # break the reset discipline: chooseR now lands on t1
        s2 = doc["components"][2]
        s2["transitions"] = [
            t if t != ["t2", "!chooseR", "t0"] else ["t2", "!chooseR", "t1"]
            for t in s2["transitions"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "violation" in capsys.readouterr().out

    def test_check_ef_full_with_witness(self, capsys):
        code = main(["check", str(gx_path()), "--ef", "r3_reached", "--full", "--witness"])
        out = capsys.readouterr().out
        assert code == 0
        assert "HOLDS" in out and "witness:" in out and "r3" in out

    def test_check_ef_reduced_agrees(self):
        assert main(["check", str(gx_path()), "--ef", "r3_reached", "--reduced"]) == 0

    def test_check_eg_full_vs_reduced_on_gy(self):
        assert main(["check", str(gy_path()), "--eg", "p", "--full"]) == 0
        assert main(["check", str(gy_path()), "--eg", "p", "--reduced"]) == 1

    def test_missing_proposition_exits_one(self):
        assert main(["check", str(gx_path()), "--ef", "nothing", "--full"]) == 1

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "nested-too-deep"])
    def test_unparsable_file_exits_two(self, content, tmp_path, capsys):
        # exit 1 would read as "the formula does not hold"
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["check", str(bad), "--ef", "p", "--full"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("field, value", [
        ("states", "ab"), ("labels", {"b": "goal"}), ("labels", {"b": ["goal", 1]}),
    ])
    def test_strings_are_not_split_into_names(self, field, value, tmp_path, capsys):
        # "ab" must not load as the states a and b, nor "goal" as g, o, a, l
        comp = {"name": "c", "states": ["a", "b"], "initial": "a",
                "transitions": [["a", "tau", "b"]], field: value}
        src = tmp_path / "strings.json"
        src.write_text(json.dumps({"root": "c", "components": [comp]}), encoding="utf-8")
        assert main(["check", str(src), "--ef", "g", "--full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "component 'c'" in err

    @pytest.mark.parametrize("root, name, initial, message", [
        (["c"], "['c']", "0", "no component named ['c']"),
        ("['c']", ["c"], "0", "component name ['c'] is not a string"),
        ("c", "c", 0, "name 0 in component 'c' is not a string"),
    ], ids=["root", "name", "initial"])
    def test_names_must_be_strings(self, root, name, initial, message, tmp_path, capsys):
        # str() would turn each into a name that matches: ['c'] and 0
        comp = {"name": name, "states": ["0"], "initial": initial}
        src = tmp_path / "names.json"
        src.write_text(json.dumps({"root": root, "components": [comp]}), encoding="utf-8")
        assert main(["validate", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}-{shape}")
        for field in ("name", "states", "initial", "transitions", "labels", "label-set")
        for shape, value in (("object", {"a": 1}), ("number", 5), ("null", None),
                             ("string", "zz"), ("non-strings", [1, 2]))
        if (field, shape) != ("name", "string")  # the one well-formed value
    ])
    def test_one_validator_for_files_and_the_library(self, field, value, tmp_path, capsys):
        # the loader checks the document and the marks; Component all of the content
        comp = {"name": "c", "states": ["a", "b"], "initial": "a",
                "transitions": [["a", "tau", "b"]], "labels": {"b": ["p"]}}
        if field == "label-set":
            comp["labels"] = {"b": value}
        else:
            comp[field] = value
        with pytest.raises(ValidationError) as direct:
            Component(**comp)
        message = str(direct.value)
        assert repr(comp["name"]) in message
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"root": "c", "components": [comp]}), encoding="utf-8")
        with pytest.raises(ValidationError) as loaded:
            load(src)
        assert str(loaded.value) == message
        assert main(["validate", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("silent, message", [
        ("tau", "silent actions 'tau' are a string, not a set of action names"),
        ({"tau": 1}, "silent actions {'tau': 1} are a mapping, not a set of action names"),
        (["tau", 5], "name 5 in silent actions ['tau', 5] is not a string"),
    ], ids=["string", "object", "non-string"])
    def test_one_check_of_the_silent_set_for_files_and_the_library(
            self, silent, message, tmp_path, capsys):
        comp = Component("c", ("a",), "a")
        with pytest.raises(ValidationError) as direct:
            infer_topology([comp], "c", silent=silent)
        assert str(direct.value) == message
        src = tmp_path / "silent.json"
        doc = {"root": "c", "silent": silent, "components": [
            {"name": "c", "states": ["a"], "initial": "a"}]}
        src.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError) as loaded:
            load(src)
        assert str(loaded.value) == message
        assert main(["validate", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_empty_label_set_on_an_unknown_state_fails_validation(self, tmp_path, capsys):
        comp = {"name": "c", "states": ["r0"], "initial": "r0", "labels": {"r9": []}}
        src = tmp_path / "labels.json"
        src.write_text(json.dumps({"root": "c", "components": [comp]}), encoding="utf-8")
        assert main(["validate", str(src)]) == 2
        assert capsys.readouterr().err == "error: label on unknown state 'r9' in component 'c'\n"

    def test_cap_exit_code(self, capsys):
        assert main(["product", str(gx_path()), "--cap", "3"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["product", "ONE", "--cap", "0"],
        ["product", "ONE", "--cap", "-3"],
        ["check", "ONE", "--ef", "p", "--full", "--cap", "0"],
        ["stats", "ONE", "--cap", "0"],
        ["suite", "--seeds", "1", "--cap", "0"],
    ], ids=["product-0", "product-negative", "check", "stats", "suite"])
    def test_a_cap_below_one_exits_two(self, argv, tmp_path, capsys):
        # the initial state is always admitted, so no cap below 1 holds
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"root": "c", "components": [
            {"name": "c", "states": ["a"], "initial": "a", "labels": {"a": ["p"]}}]}),
            encoding="utf-8")
        assert main([str(one) if a == "ONE" else a for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: the state cap must be at least 1")

    @pytest.mark.parametrize("command", ["product", "check", "stats", "suite"])
    def test_every_cap_flag_says_it_bounds_the_full_product(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(r"--cap CAP most states [^.;]*full product", help_text)
        if command == "check":
            assert "--reduced builds no product and ignores it" in help_text

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(gx_path()), "--full"])  # no formula given
        assert exc.value.code == 2

    def test_stats_output(self, capsys):
        assert main(["stats", str(gx_path())]) == 0
        out = capsys.readouterr().out
        assert "full product : 15 states" in out
        # build_sq(gx)'s 12 states, its two copies of home at r3 merged
        assert "reduced      : 11 states" in out

    def test_reduce_output_can_be_rechecked(self, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        assert main(["reduce", str(gx_path()), "-o", str(out)]) == 0
        capsys.readouterr()
        # the reduction preserves reachability end to end
        assert main(["check", str(out), "--ef", "r3_reached", "--full"]) == 0
        assert main(["check", str(out), "--ef", "nothing", "--full"]) == 1

    def test_reduce_prints_the_sizes_of_the_graph_it_draws(self, tmp_path, capsys):
        # on this seed the top squares hold a transition twice, which the
        # completed component keeps once
        src, dot = tmp_path / "g127.json", tmp_path / "g127.dot"
        bounds = ["--max-depth", "3", "--max-children", "3", "--max-states", "5",
                  "--max-local-actions", "2", "--props", "3", "--density", "0.6"]
        assert main(["gen", "--seed", "127", *bounds, "-o", str(src)]) == 0
        capsys.readouterr()
        assert main(["reduce", str(src), "--dot", str(dot)]) == 0
        printed = capsys.readouterr().out.splitlines()[0]
        lines = dot.read_text(encoding="utf-8").splitlines()
        nodes = [l for l in lines if re.match(r"^  s\d+ \[", l)]
        edges = [l for l in lines if re.match(r"^  s\d+ -> ", l)]
        assert (len(nodes), len(edges)) == (2, 5)
        assert printed.startswith("reduced: 2 states, 5 transitions")

    def test_reduce_refuses_broken_input(self, tmp_path, capsys):
        doc = json.loads(gx_path().read_text(encoding="utf-8"))
        s2 = doc["components"][2]
        s2["transitions"] = [
            t if t != ["t2", "!chooseR", "t0"] else ["t2", "!chooseR", "t1"]
            for t in s2["transitions"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["reduce", str(bad), "-o", str(tmp_path / "out.json")]) == 2
        # stats reduces too, so it refuses the same file
        capsys.readouterr()
        assert main(["stats", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: network is not live-reset")

    def test_product_save_and_dot(self, tmp_path, capsys):
        out = tmp_path / "product.json"
        dot = tmp_path / "product.dot"
        assert main(["product", str(gx_path()), "-o", str(out), "--dot", str(dot)]) == 0
        net = load(out)
        assert len(net.components[0].states) == 15
        assert dot.read_text(encoding="utf-8").startswith("digraph")

    @pytest.mark.parametrize("argv", [
        ["reduce", "GX", "-o", "OUT"],
        ["reduce", "GX", "--dot", "OUT"],
        ["product", "GX", "-o", "OUT"],
        ["product", "GX", "--dot", "OUT"],
        ["gen", "--seed", "0", "-o", "OUT"],
        ["suite", "--seeds", "1", "--max-states", "3", "--json", "OUT"],
    ], ids=["reduce-o", "reduce-dot", "product-o", "product-dot", "gen-o", "suite-json"])
    def test_an_output_file_that_cannot_be_written_exits_two(self, argv, tmp_path, capsys):
        # exit 1 means "does not hold" or "disagreements", so a failed write
        # is an error, reported without a traceback
        out = tmp_path / "missing" / "out"
        argv = [str(gx_path()) if a == "GX" else str(out) if a == "OUT" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err

    def test_suite_checks_its_report_path_before_the_first_seed(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.json"
        assert main(["suite", "--seeds", "2", "--max-states", "3", "--json", str(out)]) == 2
        assert not [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("seed ")]

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_suite_needs_at_least_one_seed(self, seeds, capsys):
        assert main(["suite", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --seeds")

    def test_gen_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--seed", "5", "-o", str(a)]) == 0
        assert main(["gen", "--seed", "5", "-o", str(b)]) == 0
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")
        assert main(["validate", str(a)]) == 0

    def test_gen_bounds_default_to_gen_config_and_each_flag_sets_its_field(self):
        parser = build_parser()
        for argv in (["gen", "--seed", "0", "-o", "x"], ["suite", "--seeds", "1"]):
            assert _gen_config(parser.parse_args(argv), 5) == GenConfig(seed=5)
        flags = {
            "--max-depth": ("max_depth", 9), "--max-children": ("max_children", 9),
            "--max-states": ("max_states", 9), "--max-local-actions": ("max_local_actions", 9),
            "--props": ("propositions", 9), "--density": ("density", 0.25),
            "--min-children": ("min_children", 9), "--min-states": ("min_states", 9),
        }
        for flag, (name, value) in flags.items():
            args = parser.parse_args(["suite", "--seeds", "1", flag, str(value)])
            assert _gen_config(args, 5) == replace(GenConfig(seed=5), **{name: value}), flag

    def test_suite_runs_clean(self, tmp_path, capsys):
        report = tmp_path / "suite.json"
        code = main(["suite", "--seeds", "8", "--max-states", "4",
                     "--json", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 reachability disagreement(s)" in out
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["disagreements"] == 0
        assert len(data["instances"]) == 8

    def test_suite_skips_a_seed_whose_oracle_exceeds_the_cap(self, tmp_path, capsys):
        report = tmp_path / "suite.json"
        assert main(["suite", "--seeds", "3", "--cap", "5", "--json", str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "seed 0: skipped (oracle exceeds cap)"
        assert [line.split(":")[0] for line in lines[1:3]] == ["seed 1", "seed 2"]
        data = json.loads(report.read_text(encoding="utf-8"))
        assert data["skipped"] == 1
        assert [row["seed"] for row in data["instances"]] == [1, 2]
        assert [row["config"]["seed"] for row in data["instances"]] == [1, 2]


def test_readme_command_line_summary_matches_the_parser():
    # every option the summary shows exists, and every option of the parser
    # is shown but -h and the generator bounds, which it writes "bounds..."
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {}
    for line in block.splitlines():
        _, command, *rest = line.split()
        shown[command] = set(re.findall(r"(?<![\w.-])--?[a-z][a-z-]*", " ".join(rest)))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert shown.keys() == subparsers.choices.keys()
    bounds = {f.name for f in _GEN_BOUNDS}
    for command, parser in subparsers.choices.items():
        options = [a for a in parser._actions
                   if a.option_strings and a.dest != "help" and a.dest not in bounds]
        known = {s for a in parser._actions for s in a.option_strings}
        assert shown[command] <= known, command
        for action in options:
            assert shown[command] & set(action.option_strings), (command, action.option_strings)


#: The directory holding the ``treelts`` package, for a child interpreter.
SRC = str(Path(treelts.__file__).resolve().parents[1])


@pytest.mark.parametrize("launch", [
    ["-m", "treelts"],
    ["-c", "from treelts.cli import entrypoint; entrypoint()"],
], ids=["python-m", "entrypoint"])
@pytest.mark.parametrize("argv, code", [
    (["check", "GX", "--ef", "r3_reached", "--reduced"], 0),
    (["check", "GX", "--ef", "nowhere", "--reduced"], 1),
    (["product", "GX", "--cap", "5"], 3),
], ids=["holds", "does-not-hold", "capped"])
def test_entry_points_exit_with_the_command_code(launch, argv, code):
    env = {**os.environ, "PYTHONPATH": SRC}
    argv = [str(gx_path()) if a == "GX" else a for a in argv]
    run = subprocess.run([sys.executable, *launch, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == code, run.stderr
    assert run.stderr.startswith("error:") == (code == 3)
