#!/usr/bin/env python3
"""Benchmark of the treelts verdict path, with the full-product oracle beside it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

Each run generates its workload from the seed, saves the networks with
``treelts.cli.save`` and drives the public API the way the ``check
--reduced`` command does: ``load -> validate_live_reset -> reduce_net_traced
-> component_lts -> check_ef`` for every proposition.  Every measured path
runs in a fresh child process (fixed hash seed) that reports its own peak
RSS.  Every verdict is checked against a reference that does not come from
the reducer: by construction on the ring families, the full-product oracle on
``chain`` and ``equivalence_suite``'s oracle comparison on ``suite``.

The gated timings are normalised to a reference machine speed, sampled with
a fixed kernel in between units of work (see reference.py); the raw wall
times are printed beside them.

With ``--trace 0`` the last output line is the JSON result carrying the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run, and one record per reduction
stage is printed above it.  See NOTES.md for the choice of workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
#: A run must end within this many seconds; children share what is left.
RUN_LIMIT_S = 170
#: Passes of the verdict path a run makes at least, whatever --seconds says.
MIN_PASSES = 3
#: Units of the figures printed beside the metrics of BENCHMARK.json.  They
#: are not gated: some exist on one or two workloads only, the others are the
#: raw wall times behind the normalised ones.
PRINTED_UNITS = {
    "oracle_s": "s",
    "oracle_peak_rss_mb": "MB",
    "full_states": "count",
    "reduction_ratio": "ratio",
    "suite_s": "s",
    "suite_inst_ms.p50": "ms",
    "suite_inst_ms.p90": "ms",
    "suite_peak_rss_mb": "MB",
    "setup_raw_s": "s",
    "verdict_raw_s": "s",
    "reference_ms": "ms",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("chain", "balanced", "wide", "suite"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="check the chain generator against the baseline sizes")
    parser.add_argument("--role", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "treelts" / "__init__.py").is_file():
        print(f"run.py: no treelts package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.role or args.self_check:
        import_treelts()
        if args.self_check:
            from selfcheck import self_check
            return self_check()
        result = ROLES[args.role](args.workload, args.seed, args.seconds, Path(args.dir))
        print(json.dumps(result))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return orchestrate(args)


def import_treelts() -> None:
    """Import treelts from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import treelts
    if Path(treelts.__file__).resolve().parent != (SRC / "treelts").resolve():
        raise ImportError(f"treelts imported from {treelts.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Orchestration (parent process)
# ---------------------------------------------------------------------------


def orchestrate(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    def child(role: str) -> dict:
        cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--dir", str(workdir)]
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"{role} child exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        setup = child("setup")
        # the suite's oracle verdicts are the reference the verdict path needs
        suite = child("suite") if args.workload == "suite" else None
        if args.trace:
            parts = [setup, suite, child("traced")]
        else:
            parts = [setup, suite, child("verdict"),
                     child("oracle") if args.workload == "chain" else None]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    parts = [p for p in parts if p]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    figures: dict[str, float] = {}
    for p in parts:
        figures.update(p["figures"])
    if "full_states" in figures:
        figures["reduction_ratio"] = figures["reduced_states"] / figures["full_states"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}: {setup['instances']} instances, "
          f"{'traced run' if args.trace else 'measured run'}")
    for stage in parts[-1].get("stages", []):
        print("stage " + json.dumps(stage, sort_keys=True))
    units = dict(PRINTED_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    for name in sorted(figures):
        print(f"  {name:<32} {figures[name]:>16.6f} {units.get(name, '')}")
    print(f"  {'failed_ops':<32} {failed:>16d} of {attempted} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def instance_paths(workdir: Path) -> list[Path]:
    return sorted(workdir.glob("inst-*.json"))


def expected_verdicts(workdir: Path) -> list[dict[str, bool]]:
    return json.loads((workdir / "expected.json").read_text())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def role_setup(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Generate and save the workload; repeated, reported as a median."""
    from families import generate, ring_expected
    from reference import SpeedProbe
    from treelts.cli import save

    times: list[float] = []
    probe = SpeedProbe()
    while len(times) < 5 or (sum(times) < 2.0 and len(times) < 200):
        gc.collect()
        start = time.perf_counter()
        nets = generate(workload, seed)
        for k, net in enumerate(nets):
            save(net, workdir / f"inst-{k:03d}.json")
        times.append(time.perf_counter() - start)
        probe.tick(times[-1])
    if workload != "suite":
        (workdir / "expected.json").write_text(json.dumps([ring_expected(n) for n in nets]))
    setup_s = statistics.median(times)
    return {"instances": len(nets), "attempted": 0, "failed": 0, "figures": {
        "setup_s": setup_s * probe.scale(),
        "setup_raw_s": setup_s,
    }}


class Api:
    """The public calls each path makes; the traced run swaps in wrappers."""

    def __init__(self) -> None:
        from treelts import (check_ef, component_lts, equivalence_suite, full_product,
                             reduce_net_traced, validate_live_reset)
        from treelts.cli import load
        self.load = load
        self.validate = validate_live_reset
        self.reduce = reduce_net_traced
        self.component_lts = component_lts
        self.check_ef_reduced = check_ef
        self.full_product = full_product
        self.check_ef_full = check_ef
        self.equivalence_suite = equivalence_suite


def verdict_path(api: Api, path: Path) -> tuple[dict[str, bool], int, int]:
    """One instance as ``treelts check --reduced --ef P`` handles it."""
    net = api.load(path)
    violations = api.validate(net)
    if violations:
        raise ValueError(f"{path.name}: {len(violations)} live-reset violations")
    component, _ = api.reduce(net)
    lts = api.component_lts(component)
    verdicts = {p: api.check_ef_reduced(lts, p).holds for p in net.propositions()}
    return verdicts, len(component.states), len(component.transitions)


def verdict_pass(api: Api, paths: list[Path], expected, on_instance=lambda k: None,
                 probe=None):
    """One pass of the verdict path: seconds per instance, summed reduced
    sizes, failures.  ``probe`` samples the machine's speed in between."""
    gc.collect()
    inst_s: list[float] = []
    sizes = [0, 0]
    failed = 0
    for k, path in enumerate(paths):
        on_instance(k)
        start = time.perf_counter()
        try:
            verdicts, states, transitions = verdict_path(api, path)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            inst_s.append(time.perf_counter() - start)
            if probe:
                probe.tick(inst_s[-1])
        sizes[0] += states
        sizes[1] += transitions
        failed += check_verdicts(path, verdicts, expected[k])
    return inst_s, sizes, failed


def check_verdicts(path: Path, verdicts: dict[str, bool], expected: dict[str, bool]) -> int:
    if verdicts == expected:
        return 0
    print(f"{path.name}: wrong verdicts {verdicts}, expected {expected}", file=sys.stderr)
    return 1


def verdict_passes(api: Api, paths, expected, budget: float, probe=None):
    """Passes of the verdict path until ``budget`` seconds of it are used.

    Returns the sum over instances of each instance's median time, which
    keeps a slowdown of the machine during one instance out of the figure,
    the number of passes, the reduced sizes and the failures.
    """
    times: list[list[float]] = []
    sizes = None
    failed = 0
    used = 0.0
    while len(times) < MIN_PASSES or used * (len(times) + 1) / len(times) <= budget:
        inst_s, pass_sizes, pass_failed = verdict_pass(api, paths, expected, probe=probe)
        times.append(inst_s)
        used += sum(inst_s)
        failed += pass_failed
        if sizes is not None and pass_sizes != sizes:
            print(f"reduced sizes changed between passes: {sizes} != {pass_sizes}",
                  file=sys.stderr)
            failed += 1
        sizes = pass_sizes
    seconds = sum(statistics.median(per_instance) for per_instance in zip(*times))
    return seconds, len(times), sizes, failed


def role_verdict(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    from reference import SpeedProbe

    paths = instance_paths(workdir)
    probe = SpeedProbe()
    verdict_s, passes, sizes, failed = verdict_passes(
        Api(), paths, expected_verdicts(workdir), seconds, probe)
    return {"attempted": len(paths) * passes, "failed": failed, "figures": {
        "verdict_s": verdict_s * probe.scale(),
        "verdict_raw_s": verdict_s,
        "reference_ms": statistics.median(probe.samples) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
        "reduced_states": sizes[0],
        "reduced_transitions": sizes[1],
    }}


def oracle_pass(api: Api, paths: list[Path], expected, on_instance=lambda k: None):
    """full_product plus check_ef for every proposition; loading is untimed."""
    nets = [api.load(path) for path in paths]
    gc.collect()
    full_states = 0
    failed = 0
    start = time.perf_counter()
    for k, (path, net) in enumerate(zip(paths, nets)):
        on_instance(k)
        try:
            full = api.full_product(net)
            verdicts = {p: api.check_ef_full(full, p).holds for p in net.propositions()}
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        full_states += full.n_states
        failed += check_verdicts(path, verdicts, expected[k])
    return time.perf_counter() - start, full_states, failed


def role_oracle(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """One oracle pass, in a process of its own so its peak RSS is its own."""
    paths = instance_paths(workdir)
    elapsed, full_states, failed = oracle_pass(Api(), paths, expected_verdicts(workdir))
    return {"attempted": len(paths), "failed": failed, "figures": {
        "oracle_s": elapsed,
        "oracle_peak_rss_mb": peak_rss_mb(),
        "full_states": full_states,
    }}


def suite_pass(api: Api, paths: list[Path], on_instance=lambda k: None):
    """equivalence_suite per instance; the oracle verdicts it computed are
    returned as the reference for the verdict path."""
    from families import SUITE_CAP

    nets = [api.load(path) for path in paths]
    gc.collect()
    inst_s: list[float] = []
    expected: list[dict[str, bool]] = []
    full_states = reduced_states = 0
    failed = 0
    start = time.perf_counter()
    for k, (path, net) in enumerate(zip(paths, nets)):
        on_instance(k)
        t0 = time.perf_counter()
        try:
            report = api.equivalence_suite(net, cap=SUITE_CAP)
        except Exception:
            traceback.print_exc()
            failed += 1
            expected.append({})
            continue
        finally:
            inst_s.append(time.perf_counter() - t0)
        expected.append({r.proposition: r.full_holds for r in report.propositions})
        full_states += report.full_states
        reduced_states += report.reduced_states
        if report.disagreements or report.witnesses_lifted != report.witnesses_checked:
            print(f"{path.name}: {report.summary()}", file=sys.stderr)
            failed += 1
    elapsed = time.perf_counter() - start
    inst_ms = [t * 1e3 for t in inst_s]
    return {
        "suite_s": elapsed,
        "suite_inst_ms.p50": statistics.median(inst_ms),
        "suite_inst_ms.p90": statistics.quantiles(inst_ms, n=10)[-1],
        "reduction_ratio": reduced_states / full_states,
    }, failed, expected


def role_suite(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    paths = instance_paths(workdir)
    figures, failed, expected = suite_pass(Api(), paths)
    (workdir / "expected.json").write_text(json.dumps(expected))
    figures["suite_peak_rss_mb"] = peak_rss_mb()
    return {"attempted": len(paths), "failed": failed, "figures": figures}


#: Span name of each call the benchmark itself makes into treelts.
API_SPANS = {
    "load": "cli.load",
    "validate": "model.validate",
    "reduce": "reduction.reduce",
    "component_lts": "product.component_lts",
    "check_ef_reduced": "checker.ef_reduced",
    "full_product": "product.full_product",
    "check_ef_full": "checker.ef_full",
    "equivalence_suite": "harness.suite",
}


def role_traced(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced verdict passes, then one traced round of the workload's paths:
    the verdict pass, plus the oracle pass on chain and the suite pass on suite."""
    from spans import Tracer

    paths = instance_paths(workdir)
    expected = expected_verdicts(workdir)
    untraced_s, passes, _, failed = verdict_passes(Api(), paths, expected, seconds / 2)
    attempted = len(paths) * (passes + 1)

    tracer = Tracer()
    tracer.install()
    api = Api()
    for attr, name in API_SPANS.items():
        after = tracer.product_built if attr == "full_product" else None
        setattr(api, attr, tracer.wrap(getattr(api, attr), name, after=after))

    def at(k: int) -> None:
        tracer.instance = k

    try:
        traced_s, _, pass_failed = verdict_pass(api, paths, expected, at)
        verdict_spans = len(tracer.spans)
        failed += pass_failed
        if workload == "chain":
            failed += oracle_pass(api, paths, expected, at)[2]
            attempted += len(paths)
        if workload == "suite":
            failed += suite_pass(api, paths, at)[1]
            attempted += len(paths)
    finally:
        tracer.restore()

    figures = layer_figures(tracer)
    figures["trace.overhead_s"] = sum(traced_s) - untraced_s
    stages = stage_records(tracer.stage_phases(verdict_spans), paths)
    (WORK / f"trace-{workload}-{seed}.json").write_text(json.dumps({
        "spans": tracer.dump(), "stages": stages}))
    return {"attempted": attempted, "failed": failed, "figures": figures, "stages": stages}


def layer_figures(tracer) -> dict[str, float]:
    total, own = tracer.totals()
    counts = tracer.counts
    t = lambda name: total.get(name, 0.0)
    per = lambda a, b: a / b if b else 0.0
    return {
        "cli.load_s": t("cli.load"),
        "model.validate_s": t("model.validate"),
        "model.subnetwork_s": t("model.subnetwork"),
        "model.subnetwork_calls": counts["model.subnetwork_calls"],
        "model.two_level_network_s": t("model.two_level_network"),
        "reduction.self_s": own.get("reduction.reduce", 0.0),
        "reduction.square_bfs_s": t("reduction.square_bfs"),
        "reduction.square_states": counts["reduction.square_states"],
        "reduction.square_transitions": counts["reduction.square_transitions"],
        "reduction.square_states_per_s": per(counts["reduction.square_states"],
                                             t("reduction.square_bfs")),
        "reduction.max_stage_states": counts["reduction.max_stage_states"],
        "reduction.stages": counts["reduction.stages"],
        "reduction.locked_s": t("reduction.locked"),
        "reduction.prune_s": own.get("reduction.prune", 0.0),
        "reduction.locked_states": counts["reduction.locked_states"],
        "reduction.deleted_states": counts["reduction.deleted_states"],
        "reduction.deleted_per_locked": per(counts["reduction.deleted_states"],
                                            counts["reduction.locked_states"]),
        "reduction.cmpl_s": t("reduction.cmpl"),
        "product.component_lts_s": t("product.component_lts"),
        "product.full_product_s": t("product.full_product"),
        "product.full_states": counts["product.full_states"],
        "product.full_states_per_s": per(counts["product.full_states"],
                                         t("product.full_product")),
        "product.resolve_prefix_s": t("product.resolve_prefix"),
        "checker.ef_reduced_s": t("checker.ef_reduced"),
        "checker.ef_full_s": t("checker.ef_full"),
        "checker.ef_stage_s": t("checker.ef_stage"),
        "checker.eg_s": t("checker.eg"),
        "checker.lift_s": t("checker.lift"),
        "harness.self_s": own.get("harness.suite", 0.0),
        "harness.unpruned_rebuild_s": t("harness.unpruned_rebuild"),
    }


def stage_records(phases, paths: list[Path]) -> list[dict]:
    """One record per stage of the traced verdict pass.

    Sizes come from the ``ReductionStage`` list of a reduction repeated after
    tracing stopped, the unpruned size and locked count from a rebuild with
    the public ``build_sq_unreduced`` and ``compute_locked``.
    """
    from treelts import build_sq_unreduced, compute_locked, reduce_net_traced
    from treelts.cli import load

    records = []
    for instance, path in enumerate(paths):
        net = load(path)
        for stage in reduce_net_traced(net)[1]:
            unpruned = build_sq_unreduced(stage.net, epsilon=stage.sq.epsilon)
            root = stage.sq.root_name
            level, i = 0, net.index_of(root)
            while net.parent[i] is not None:
                level, i = level + 1, net.parent[i]
            records.append({
                "instance": instance,
                "level": level,
                "root": root,
                "states_in": sum(len(c.states) for c in stage.net.components),
                "transitions_in": sum(len(c.transitions) for c in stage.net.components),
                "unpruned_states": unpruned.lts.n_states,
                "unpruned_transitions": len(unpruned.lts.transitions),
                "locked": len(compute_locked(unpruned)),
                "deleted": unpruned.lts.n_states - stage.sq.lts.n_states,
                "result_states": len(stage.result.states),
                "result_transitions": len(stage.result.transitions),
                "phase_s": dict(sorted(phases.get((instance, root), {}).items())),
            })
    return records


ROLES = {
    "setup": role_setup,
    "verdict": role_verdict,
    "oracle": role_oracle,
    "suite": role_suite,
    "traced": role_traced,
}


if __name__ == "__main__":
    sys.exit(main())
