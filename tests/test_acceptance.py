"""End-to-end acceptance gate.

Each test covers one numbered criterion and writes a single PASS/FAIL line
straight to the terminal (bypassing capture) so a run leaves an auditable
checklist.  Tolerances are pinned here and must not be loosened.
"""

import itertools
import math
import random
import sys
import time

import pytest

from conftest import random_link, with_slew_grid
from gnoc.characterize import (PAIRS, LookupMode, LookupPurpose, build_tables,
                               slew_grid, table_lookup, table_view)
from gnoc.dse import dse_loop, random_candidates
from gnoc.errors import ClockUnsatisfiable, GnocError, LexError, GrammarError, SubtypeError
from gnoc.golden import Corner, golden_path_analyze, golden_segment
from gnoc.grammar import parse_link, segment_decompose, serialize_link
from gnoc.hasta import ViolationKind, analyze_link, analyze_path, clock_check
from gnoc.synthesize import (LinkSpec, _assemble, assign_clock_subtypes,
                             insert_evenly, is_valid, link_cost,
                             synthesize_link)
from gnoc.techlib import (CB_SUBTYPE, DEFAULT_SUBTYPE, BlockKind, ClockSpec,
                          default_tech_config, load_tech_config,
                          serialize_tech_config)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}\n"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
    assert ok, line


# --------------------------------------------------------------- criterion 1

def test_criterion_1_characterization_count(cfg):
    t0 = time.perf_counter()
    ts = build_tables(cfg)
    elapsed = time.perf_counter() - t0
    views = [table_view(ts, *pair, purpose)
             for pair, purpose in itertools.product(PAIRS, LookupPurpose)]
    ok = (len(views) == 18 and ts.cell_count == 900 and elapsed < 1.0
          and all((len(v.delay), len(v.delay[0])) == (10, 10) for v in views))
    report(1, ok, f"9 tables x 100 cells = {ts.cell_count} cells, "
                  f"2 corners, built in {elapsed * 1e3:.1f} ms (< 1 s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_exact_grid_accuracy(cfg, tables):
    rows = slew_grid(cfg)
    worst_cell = 0.0
    for (src, dst) in PAIRS:
        for s, n in itertools.product(rows, range(cfg.K)):
            for purpose, corner in ((LookupPurpose.SETUP_MAX, Corner.MAX),
                                    (LookupPurpose.HOLD_MIN, Corner.MIN)):
                got = table_lookup(tables, src, dst, n, float(s),
                                   LookupMode.EXACT, purpose)
                ref = golden_segment(src, dst, n, float(s), corner, cfg)
                worst_cell = max(worst_cell,
                                 abs(got.delay - ref.delay) / ref.delay)

    rng = random.Random(7)
    worst_path = 0.0
    for _ in range(200):
        # wire runs of 2..5 keep chained slews on the characterized range
        link = random_link(rng, rng.randint(1, 30), w_lo=2, w_hi=5)
        launch = float(rng.choice(rows))
        got = analyze_path(link, tables, launch, LookupMode.EXACT,
                           LookupPurpose.SETUP_MAX)
        ref = golden_path_analyze(link, launch, Corner.MAX, cfg)
        worst_path = max(worst_path, abs(got.total_delay - ref.total_delay)
                         / ref.total_delay)

    ok = worst_cell <= 1e-12 and worst_path <= 1e-9
    report(2, ok, f"1800 cells worst rel err {worst_cell:.2e} (<= 1e-12); "
                  f"200 EXACT paths worst rel err {worst_path:.2e} (<= 1e-9)")


# --------------------------------------------------------------- criterion 3

LINKS_1K = None


def accuracy_corpus():
    # wire runs of 2..5 keep every chained slew inside the characterized
    # grid, so the measured error is pure slew-chaining quantization
    global LINKS_1K
    if LINKS_1K is None:
        rng = random.Random(2030)
        LINKS_1K = [(random_link(rng, rng.randint(1, 50), w_lo=2, w_hi=5),
                     rng.uniform(4.0, 40.0)) for _ in range(1000)]
    return LINKS_1K


def worst_interp_error(ts, cfg):
    worst = 0.0
    for link, launch in accuracy_corpus():
        got = analyze_path(link, ts, launch, LookupMode.INTERPOLATE,
                           LookupPurpose.SETUP_MAX)
        assert not got.clamped
        ref = golden_path_analyze(link, launch, Corner.MAX, cfg)
        worst = max(worst, abs(got.total_delay - ref.total_delay)
                    / ref.total_delay)
    return worst


def test_criterion_3_interpolated_accuracy(cfg, tables):
    err10 = worst_interp_error(tables, cfg)

    cfg20 = with_slew_grid(cfg, 20)
    tables20 = build_tables(cfg20)
    err20 = worst_interp_error(tables20, cfg20)

    # single-segment delay error at the true (golden) input slew
    worst_seg = 0.0
    for link, launch in accuracy_corpus()[:200]:
        slew = launch
        for seg in segment_decompose(link):
            if cfg.slew_grid_min <= slew <= cfg.slew_grid_max:
                got = table_lookup(tables, seg.src_kind, seg.dst_kind,
                                   seg.n_wires, slew, LookupMode.INTERPOLATE,
                                   LookupPurpose.SETUP_MAX)
                ref = golden_segment(seg.src_kind, seg.dst_kind, seg.n_wires,
                                     slew, Corner.MAX, cfg)
                worst_seg = max(worst_seg,
                                abs(got.delay - ref.delay) / ref.delay)
                slew = ref.slew_out
            else:
                slew = golden_segment(seg.src_kind, seg.dst_kind, seg.n_wires,
                                      slew, Corner.MAX, cfg).slew_out

    ok = err10 <= 0.02 and err20 <= 0.005 and worst_seg <= 1e-9
    report(3, ok, f"1000-link INTERPOLATE worst path err {err10:.2e} at L=10 "
                  f"(<= 2e-2), {err20:.2e} at L=20 (<= 5e-3); "
                  f"per-segment delay err {worst_seg:.2e} (<= 1e-9)")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_conservatism(cfg, tables):
    exceptions = 0
    for link, launch in accuracy_corpus():
        up = analyze_path(link, tables, launch, LookupMode.PESSIMISTIC,
                          LookupPurpose.SETUP_MAX)
        down = analyze_path(link, tables, launch, LookupMode.PESSIMISTIC,
                            LookupPurpose.HOLD_MIN)
        hi = golden_path_analyze(link, launch, Corner.MAX, cfg)
        lo = golden_path_analyze(link, launch, Corner.MIN, cfg)
        if up.total_delay < hi.total_delay or down.total_delay > lo.total_delay:
            exceptions += 1
    report(4, exceptions == 0,
           f"PESSIMISTIC brackets golden MAX/MIN on 1000 links with "
           f"{exceptions} exceptions (required 0)")


# --------------------------------------------------------------- criterion 5

def timed_analysis(link, tables, reps=5):
    best = math.inf
    res = None
    for _ in range(reps):
        t0 = time.perf_counter()
        res = analyze_path(link, tables, 10.0, LookupMode.INTERPOLATE,
                           LookupPurpose.SETUP_MAX)
        best = min(best, time.perf_counter() - t0)
    return res, best


def test_criterion_5_linearity(cfg, tables):
    counts_ok = all(
        analyze_path(link, tables, launch, LookupMode.INTERPOLATE,
                     LookupPurpose.SETUP_MAX).lookup_count
        == len(segment_decompose(link))
        for link, launch in accuracy_corpus()[:100])

    rng = random.Random(55)
    small = random_link(rng, 1000, w_lo=2, w_hi=4)
    large = random_link(rng, 10000, w_lo=2, w_hi=4)
    res_s, t_small = timed_analysis(small, tables)
    res_l, t_large = timed_analysis(large, tables)
    ratio = t_large / t_small
    ok = (counts_ok and res_s.lookup_count == 1000
          and res_l.lookup_count == 10000
          and 5.0 <= ratio <= 15.0 and t_large < 0.050)
    report(5, ok, f"lookup_count == segments on 100 links; 10^4-segment "
                  f"analysis {t_large * 1e3:.1f} ms (< 50 ms), "
                  f"10^4/10^3 time ratio {ratio:.1f} (in [5, 15])")


# --------------------------------------------------------------- criterion 6

def brute_force_best(spec, ts, cfg):
    """Exhaustive even-placement search, minimal (r, total buffers, vector)."""
    M = spec.length_slots
    for r in range(0, M + 1):
        reg_pos = insert_evenly(M, r)
        bounds = [0] + reg_pos + [M + 1]
        sub_lens = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        candidates = []
        for budgets in itertools.product(*[range(m + 1) for m in sub_lens]):
            candidates.append((sum(budgets), budgets))
        for _, budgets in sorted(candidates):
            link = _assemble(M, reg_pos, budgets)
            try:
                link = assign_clock_subtypes(link, spec, cfg)
            except ClockUnsatisfiable:
                continue
            if is_valid(link, spec, ts, cfg)[0]:
                return r, sum(budgets), link
    return None


def test_criterion_6_synthesis_minimality(cfg, tables):
    t0 = time.perf_counter()
    checked = mismatches = 0
    periods = [12.0 + 288.0 * i / 19.0 for i in range(20)]
    for M in range(1, 13):
        for T in periods:
            spec = LinkSpec(length_slots=M, period=T)
            res = synthesize_link(spec, tables, cfg)
            best = brute_force_best(spec, tables, cfg)
            checked += 1
            if best is None:
                if res.valid:
                    mismatches += 1
                continue
            r, total_b, link = best
            if (not res.valid or res.counts[2] != r or res.counts[1] != total_b
                    or serialize_link(res.link) != serialize_link(link)):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    report(6, ok, f"synthesize_link matches brute-force minimal (r, sum b) on "
                  f"{checked} specs (lengths 1..12 x 20 periods), "
                  f"{mismatches} mismatches, sweep {elapsed:.1f} s (< 60 s)")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_violation_detection(cfg, tables):
    relaxed = ClockSpec(period=1000.0)
    hold_cfg = load_tech_config(
        serialize_tech_config(default_tech_config()).replace("t_h = 1.0",
                                                             "t_h = 8.0"))
    cases = [
        (ViolationKind.SETUP, "S B S",
         ClockSpec(period=30.0, jitter=20.0), cfg, tables),
        (ViolationKind.HOLD, "S W.cb R W W S",
         relaxed, hold_cfg, build_tables(hold_cfg)),
        (ViolationKind.SLEW_RANGE, "S W W W W W W W W W S",
         relaxed, cfg, tables),
        (ViolationKind.COMB_GT_PERIOD, "S W.cb W W W W S",
         ClockSpec(period=43.0), cfg, tables),
        (ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD, "S W W W W W W S",
         ClockSpec(period=71.0), cfg, tables),
    ]
    failures = []
    for kind, text, clk, c, ts in cases:
        rep = analyze_link(parse_link(text), ts, c, clk)
        if [v.kind for v in rep.violations] != [kind]:
            failures.append(f"{kind.value}: got "
                            f"{[v.kind.value for v in rep.violations]}")
    report(7, not failures,
           "five constructed links each raise exactly one violation "
           "(SETUP, HOLD, SLEW_RANGE, COMB_GT_PERIOD, CLOCK_UNBUFFERED"
           "_GT_HALF_PERIOD)" + ("; " + "; ".join(failures) if failures else ""))


# --------------------------------------------------------------- criterion 8

def min_promotions_exhaustive(link, spec, cfg):
    """Fewest W->W.cb promotions keeping every clock stage under T/2."""
    from gnoc.golden import clock_buffer_indices, clock_stage_delay
    w_idx = [i for i, (k, _) in enumerate(link.tokens) if k is BlockKind.W]
    for size in range(len(w_idx) + 1):
        for subset in itertools.combinations(w_idx, size):
            tokens = tuple(
                (k, CB_SUBTYPE if i in subset and k is BlockKind.W
                 else (s if k is not BlockKind.W else DEFAULT_SUBTYPE))
                for i, (k, s) in enumerate(link.tokens))
            trial = type(link)(tokens)
            bufs = clock_buffer_indices(trial)
            if all(clock_stage_delay(b - a - 1, cfg, Corner.MAX)
                   < spec.period / 2.0
                   for a, b in zip(bufs, bufs[1:])):
                return size
    return len(w_idx)


def test_criterion_8_clock_rule(cfg, tables):
    # every synthesized link passes the half-period stage check
    unsat = 0
    for M in range(1, 13):
        for T in (22.0, 60.0, 150.0):
            spec = LinkSpec(length_slots=M, period=T)
            res = synthesize_link(spec, tables, cfg)
            if res.valid and clock_check(res.link, cfg, spec.clock):
                unsat += 1

    # greedy promotion count equals the exhaustive minimum
    rng = random.Random(88)
    mismatches = 0
    trials = 0
    for M in range(1, 13):
        for T in (22.0, 40.0, 100.0):
            spec = LinkSpec(length_slots=M, period=T)
            shapes = ["S " + "W " * M + "S"]
            if M >= 3:
                interior = [rng.choice("WWB") for _ in range(M)]
                shapes.append("S " + " ".join(interior) + " S")
            for text in shapes:
                link = parse_link(text)
                greedy = assign_clock_subtypes(link, spec, cfg)
                got = sum(1 for _, s in greedy.tokens if s.clock_buffered)
                want = min_promotions_exhaustive(link, spec, cfg)
                trials += 1
                if got != want:
                    mismatches += 1
    ok = unsat == 0 and mismatches == 0
    report(8, ok, f"all synthesized links pass clock_check; greedy promotion "
                  f"count equals exhaustive minimum on {trials} links "
                  f"(lengths 1..12), {mismatches} mismatches")


# --------------------------------------------------------------- criterion 9

INVALID_SENTENCES = [
    ("", GrammarError), ("W", GrammarError), ("S W B W", GrammarError),
    ("S S", GrammarError), ("S W", GrammarError), ("W S", GrammarError),
    ("B W S", GrammarError), ("S W B", GrammarError),
    ("S W W S S", GrammarError), ("S S W S", GrammarError),
    ("S Q S", LexError), ("S W.x S", LexError), ("S WW S", LexError),
    ("S B.cb S", SubtypeError), ("S W R.cb S", SubtypeError),
]


def test_criterion_9_grammar(cfg):
    rng = random.Random(2026)
    valid = [random_link(rng, rng.randint(1, 20), cb_prob=0.2)
             for _ in range(15)]
    misclassified = 0
    for link in valid:
        try:
            parse_link(serialize_link(link))
        except GnocError:
            misclassified += 1
    positions = set()
    for text, exc in INVALID_SENTENCES:
        try:
            parse_link(text)
            misclassified += 1
        except exc as err:
            positions.add((text, err.position))
        except GnocError:
            misclassified += 1

    round_trip_failures = sum(
        parse_link(serialize_link(l)) != l
        for l in (random_link(rng, rng.randint(1, 30), cb_prob=0.15)
                  for _ in range(1000)))
    ok = (misclassified == 0 and len(positions) == len(INVALID_SENTENCES)
          and round_trip_failures == 0)
    report(9, ok, f"{len(valid) + len(INVALID_SENTENCES)}-sentence corpus "
                  f"(15 valid / {len(INVALID_SENTENCES)} invalid with "
                  f"positions) classified correctly; parse o serialize is "
                  f"identity on 1000 random sentences")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_dse(cfg, tables):
    cands = random_candidates(seed=42, count=50, length_range=(2, 12),
                              period_range=(60.0, 400.0))

    # independently-known candidate costs: islands plus brute-force minimal
    # link implementations
    expected_best = math.inf
    for c in cands:
        total = sum(cost for _, cost in c.islands)
        feasible = True
        for spec in c.links:
            best = brute_force_best(spec, tables, cfg)
            if best is None:
                feasible = False
                break
            total += link_cost(best[2], cfg)
        if feasible:
            expected_best = min(expected_best, total)

    fwd = dse_loop(cands, tables, cfg)
    shuffled = list(cands)
    random.Random(9).shuffle(shuffled)
    rev = dse_loop(shuffled, tables, cfg)
    ok = (abs(fwd.best_cost - expected_best) < 1e-9
          and fwd.best_cost == rev.best_cost and fwd.evaluated == 50)
    report(10, ok, f"dse_loop best cost {fwd.best_cost:.6g} equals "
                   f"brute-force minimum {expected_best:.6g} over 50 "
                   f"candidates; permutation preserves the best cost")
