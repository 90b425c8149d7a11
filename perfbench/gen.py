"""Seeded workload inputs, as plain text and numbers.

Nothing here imports gnoc: the program under test only ever sees the link
sentences, (length, period) specs and candidate-file text made here.  Every
generator takes the seed as an argument and draws from its own named stream,
so one part of a workload can change without shifting the others.
"""

from __future__ import annotations

import math
import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Slew grid of the shipped tech config (slew_grid_min..max over L rows).
GRID_SLEWS = [4.0 + 4.0 * i for i in range(10)]


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"perfbench:{part}:{seed}")


def link_sentence(rng: random.Random, n_segments: int) -> str:
    """A valid sentence with n_segments active-to-active segments.

    Interior active blocks are mostly B, with R and S as flops; every wire run
    holds 2..5 slots, which keeps chained slews inside the characterized grid
    (criteria 2 and 3 use the same range), and 15% of wires carry a clock
    buffer (W.cb).
    """
    words = ["S"]
    for i in range(n_segments):
        for _ in range(rng.randint(2, 5)):
            words.append("W.cb" if rng.random() < 0.15 else "W")
        if i == n_segments - 1:
            words.append("S")
        else:
            u = rng.random()
            words.append("B" if u < 0.75 else ("R" if u < 0.95 else "S"))
    return " ".join(words)


def _link_case(rng: random.Random, n_segments: int) -> dict:
    off_grid = rng.uniform(4.5, 39.5)
    if any(abs(off_grid - g) < 0.25 for g in GRID_SLEWS):
        off_grid += 1.0
    return {
        "sentence": link_sentence(rng, n_segments),
        "segments": n_segments,
        # flop-to-flop runs average four segments (~95 tu); a period of
        # 150..200 tu makes the long runs, a minority, violate
        "period": round(rng.uniform(150.0, 200.0), 3),
        "interp_slew": round(off_grid, 6),
        "grid_slew": rng.choice(GRID_SLEWS),
    }


def _stratified_sizes(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """count segment counts, log-uniform on [lo, hi), one per equal-width stratum."""
    span = math.log10(hi / lo)
    return [int(lo * 10 ** (span * (i + rng.random()) / count)) for i in range(count)]


def long_corpus(seed: int) -> list[dict]:
    """analyze_long: 98 links log-uniform over 10^2..3*10^3 segments plus 2 at 10^4."""
    rng = _rng(seed, "long")
    sizes = _stratified_sizes(rng, 98, 100, 3000) + [10_000] * 2
    rng.shuffle(sizes)
    return [_link_case(rng, n) for n in sizes]


def base_corpus(seed: int) -> list[dict]:
    """Light analysis sample: 100 links over 10^2..10^3 segments plus 1 of 5*10^3."""
    rng = _rng(seed, "base-links")
    sizes = _stratified_sizes(rng, 100, 100, 1000) + [5000]
    rng.shuffle(sizes)
    return [_link_case(rng, n) for n in sizes]


def sweep_specs(seed: int) -> list[tuple[int, float]]:
    """synth_sweep: 112 specs, lengths 8..34 by 2 and eight period levels 55..230.

    Each period is its level plus a seeded offset below 2 tu.  Candidate counts
    are step functions of the period, so the levels fix the cost mix and the
    offsets make the specs distinct per seed without moving it.
    """
    rng = _rng(seed, "sweep")
    specs = [(m, round(55.0 + 25.0 * k + rng.uniform(0.0, 2.0), 2))
             for m in range(8, 35, 2) for k in range(8)]
    rng.shuffle(specs)
    return specs


def base_specs(seed: int) -> list[tuple[int, float]]:
    """Light synthesis sample: 104 cheap specs, lengths 8..20, periods 140..250."""
    rng = _rng(seed, "base-specs")
    specs = [(m, round(140.0 + 110.0 * (k + rng.random()) / 8, 2))
             for m in range(8, 21) for k in range(8)]
    rng.shuffle(specs)
    return specs


def cli_inputs(seed: int) -> dict:
    """Inputs of one CLI pass: a ~500-segment link and a candidates file."""
    rng = _rng(seed, "cli")
    case = _link_case(rng, rng.randint(480, 520))
    pool = [(rng.randint(8, 24), round(rng.uniform(120.0, 250.0), 1))
            for _ in range(4)]
    lines = []
    for c in range(8):
        lines.append(f"candidate cand{c}")
        for j in range(rng.randint(1, 3)):
            lines.append(f"island isl{j} {round(rng.uniform(50.0, 500.0), 1)}")
        for j in range(rng.randint(1, 2)):
            length, period = rng.choice(pool)
            lines.append(f"link lnk{j} {length} {period}")
        lines.append("end")
    return {"link": case["sentence"], "period": case["period"],
            "launch_slew": case["grid_slew"],
            "candidates": "\n".join(lines) + "\n"}
