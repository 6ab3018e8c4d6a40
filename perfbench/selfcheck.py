"""Self-check of the workload generators, run with ``run.py --self-check``.

Pins the chain family to the baseline table of the ROADMAP: depth k gives a
full product of 4**k states and, with the plain sum-of-squares reduction,
17, 69, 277, 1,109 and 4,437 reduced states for k = 2..6.  It also checks
that generation is deterministic in the seed and that the verdicts known by
construction match the full-product oracle.
"""

from __future__ import annotations

import random

from families import FAMILIES, chain, generate, ring_expected
from treelts import check_ef, full_product, reduce_net, validate_live_reset
from treelts.cli import save_string

#: Reduced state count of a chain of depth k with four states per component.
CHAIN_REDUCED = {2: 17, 3: 69, 4: 277, 5: 1109, 6: 4437}


def self_check() -> int:
    problems = []
    for depth, reduced in CHAIN_REDUCED.items():
        for seed in range(3):
            net = chain(depth, random.Random(f"self-check:{seed}:{depth}"))
            full = full_product(net)
            got = len(reduce_net(net).states)
            if full.n_states != 4 ** depth or got != reduced:
                problems.append(f"chain depth {depth} seed {seed}: full {full.n_states} "
                                f"(want {4 ** depth}), reduced {got} (want {reduced})")
            if validate_live_reset(net):
                problems.append(f"chain depth {depth} seed {seed}: live-reset violations")
            oracle = {p: check_ef(full, p).holds for p in net.propositions()}
            if oracle != ring_expected(net):
                problems.append(f"chain depth {depth} seed {seed}: oracle {oracle} "
                                f"!= construction {ring_expected(net)}")
    for family in FAMILIES:
        first = [save_string(n) for n in generate(family, 7)]
        if first != [save_string(n) for n in generate(family, 7)]:
            problems.append(f"{family}: generation is not deterministic in the seed")
        if first == [save_string(n) for n in generate(family, 8)]:
            problems.append(f"{family}: seeds 7 and 8 give the same inputs")
    for line in problems:
        print("FAIL " + line)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
