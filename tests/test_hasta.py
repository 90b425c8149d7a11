import hashlib
import math
import random
import time
from collections import Counter
from itertools import chain

import pytest

from conftest import corpus, random_link
from gnoc import golden, hasta
from gnoc.characterize import (PAIRS, LookupMode, LookupPurpose, build_tables,
                               reconstruct_lookup, slew_grid, table_lookup, table_view)
from gnoc.errors import (GnocError, NotOnGrid, SegmentTooLong, SlewOutOfRange,
                         TableMismatch)
from gnoc.golden import (Corner, clock_stage_delay, clock_stage_delays,
                         golden_clock_analyze, golden_path_analyze)
from gnoc.grammar import LinkSentence, parse_link, segment_decompose, walk_link
from gnoc.hasta import (PathDirection, Violation, ViolationKind, analyze_link,
                        analyze_path, clock_check, clock_slew, flop_paths,
                        hold_check, judge_paths, render_report, setup_check)
from gnoc.techlib import (ACTIVE_KINDS, BlockKind, ClockSpec, default_tech_config,
                          load_tech_config, serialize_tech_config)

RELAXED = ClockSpec(period=1000.0)


def test_setup_check_arithmetic():
    assert setup_check(20.0, 2.0, 1.0, 9.0, 3.0) == pytest.approx(7.0)
    assert setup_check(20.0, 2.0, 0.0, 21.0, 3.0) == pytest.approx(-6.0)


def test_hold_check_arithmetic():
    assert hold_check(20.0, 2.0, 1.0) == pytest.approx(17.0)
    assert hold_check(5.0, 7.0, 1.0) == pytest.approx(-3.0)
    assert hold_check(5.0, 1.0, 1.0, jitter=2.0) == pytest.approx(1.0)


def test_setup_slack_linear_in_skew_and_jitter():
    base = setup_check(30.0, 0.0, 0.0, 10.0, 3.0)
    assert setup_check(30.0, 0.0, 4.0, 10.0, 3.0) == pytest.approx(base + 4.0)
    assert setup_check(30.0, 4.0, 0.0, 10.0, 3.0) == pytest.approx(base - 4.0)


def test_clock_slew_value(cfg):
    assert clock_slew(cfg) == 2.0


def test_analyze_path_one_lookup_per_segment(cfg, tables):
    link = parse_link("S W W B W W R W W S")
    res = analyze_path(link, tables, 10.0, LookupMode.INTERPOLATE,
                       LookupPurpose.SETUP_MAX)
    assert res.lookup_count == 3
    assert len(res.arrivals) == 3
    assert res.total_delay == res.arrivals[-1]


def test_analyze_path_matches_golden_chain(cfg, tables):
    """Interpolated chained delays track the oracle (no relaunch either side)."""
    for link in corpus(seed=11, count=40, seg_lo=1, seg_hi=10, w_lo=2, w_hi=5):
        res = analyze_path(link, tables, 10.0, LookupMode.INTERPOLATE,
                           LookupPurpose.SETUP_MAX)
        ref = golden_path_analyze(link, 10.0, Corner.MAX, cfg)
        assert res.total_delay == pytest.approx(ref.total_delay, rel=0.02)


def test_clock_latencies_sbs(cfg):
    res = golden_clock_analyze(parse_link("S B S"), cfg, Corner.NOMINAL)
    assert res.latencies == pytest.approx([0.0, 4.32, 8.64])
    assert res.stage_spans == ((0, 1), (1, 2))


def test_clock_latency_constant_between_buffers(cfg):
    lat = golden_clock_analyze(parse_link("S W W B W S"), cfg,
                               Corner.NOMINAL).latencies
    # wires inherit the latency of the upstream buffer
    assert lat[1] == lat[2] == lat[0] == 0.0
    assert lat[4] == lat[3]
    assert lat[5] > lat[3]


def test_clock_entry_far_end_reverses(cfg):
    link = parse_link("S B S")
    fwd = golden_clock_analyze(link, cfg, Corner.NOMINAL, entry_index=0)
    bwd = golden_clock_analyze(link, cfg, Corner.NOMINAL, entry_index=2)
    assert bwd.latencies[2] == 0.0
    assert bwd.latencies[0] == pytest.approx(fwd.latencies[2])
    assert bwd.stage_spans == ((2, 1), (1, 0))


def test_clock_entry_interior_rejected(cfg):
    with pytest.raises(ValueError):
        golden_clock_analyze(parse_link("S B S"), cfg, Corner.NOMINAL,
                             entry_index=1)


def test_clock_check_threshold(cfg):
    link = parse_link("S B S")  # MAX stage delay 4.752
    assert clock_check(link, cfg, ClockSpec(period=9.6)) == []
    bad = clock_check(link, cfg, ClockSpec(period=9.5))
    assert len(bad) == 2
    assert all(v.kind is ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD
               for v in bad)


def test_analyze_link_clean(cfg, tables):
    rep = analyze_link(parse_link("S W W B W W S"), tables, cfg,
                       ClockSpec(period=100.0))
    assert rep.ok
    assert render_report(rep).splitlines()[1].startswith("lookups setup=2 hold=2 ")
    assert len(rep.paths) == 1
    p = rep.paths[0]
    assert p.direction is PathDirection.FORWARD
    assert p.path_delay_max >= p.path_delay_min


def test_analyze_link_paths_between_consecutive_flops(cfg, tables):
    rep = analyze_link(parse_link("S W W R W W B W W R W W S"), tables, cfg,
                       RELAXED)
    assert [(p.launch_index, p.capture_index) for p in rep.paths] == \
        [(0, 3), (3, 9), (9, 12)]


def test_analyze_link_backward_skew(cfg, tables):
    rep = analyze_link(parse_link("S W W B W W S"), tables, cfg, RELAXED,
                       clock_entry=6)
    assert rep.paths[0].skew < 0.0
    assert rep.paths[0].direction is PathDirection.BACKWARD


def test_setup_violation(cfg, tables):
    rep = analyze_link(parse_link("S B S"), tables, cfg,
                       ClockSpec(period=30.0, jitter=20.0))
    kinds = [v.kind for v in rep.violations]
    assert kinds == [ViolationKind.SETUP]
    assert rep.paths[0].setup_slack == pytest.approx(-4.295, abs=1e-6)


def test_slew_violation(cfg, tables):
    rep = analyze_link(parse_link("S W W W W W W W W W S"), tables, cfg,
                       RELAXED)
    assert [v.kind for v in rep.violations] == [ViolationKind.SLEW_RANGE]


def test_comb_violation(cfg, tables):
    rep = analyze_link(parse_link("S W.cb W W W W S"), tables, cfg,
                       ClockSpec(period=43.0))
    assert [v.kind for v in rep.violations] == [ViolationKind.COMB_GT_PERIOD]


def test_hold_violation(cfg):
    text = serialize_tech_config(default_tech_config()).replace(
        "t_h = 1.0", "t_h = 8.0")
    hcfg = load_tech_config(text)
    htables = build_tables(hcfg)
    rep = analyze_link(parse_link("S W.cb R W W S"), htables, hcfg, RELAXED)
    assert [v.kind for v in rep.violations] == [ViolationKind.HOLD]


def test_table_mismatch(cfg, tables):
    other = load_tech_config(
        serialize_tech_config(cfg).replace("pitch_r = 1.0", "pitch_r = 2.0"))
    with pytest.raises(TableMismatch):
        analyze_link(parse_link("S B S"), tables, other, RELAXED)


def test_pessimistic_brackets_golden_chain(cfg, tables):
    """PESSIMISTIC chained totals bound the oracle on both sides."""
    for link in corpus(seed=13, count=60, seg_lo=1, seg_hi=12, w_lo=2, w_hi=5):
        up = analyze_path(link, tables, 12.0, LookupMode.PESSIMISTIC,
                          LookupPurpose.SETUP_MAX)
        down = analyze_path(link, tables, 12.0, LookupMode.PESSIMISTIC,
                            LookupPurpose.HOLD_MIN)
        hi = golden_path_analyze(link, 12.0, Corner.MAX, cfg)
        lo = golden_path_analyze(link, 12.0, Corner.MIN, cfg)
        assert up.total_delay >= hi.total_delay - 1e-9
        assert down.total_delay <= lo.total_delay + 1e-9


def test_jitter_tightens_setup_only(cfg, tables):
    link = parse_link("S W W B W W S")
    a = analyze_link(link, tables, cfg, ClockSpec(period=100.0, jitter=0.0))
    b = analyze_link(link, tables, cfg, ClockSpec(period=100.0, jitter=5.0))
    assert b.paths[0].setup_slack == pytest.approx(a.paths[0].setup_slack - 5.0)
    assert b.paths[0].hold_slack == pytest.approx(a.paths[0].hold_slack)


def test_render_report_smoke(cfg, tables):
    rep = analyze_link(parse_link("S W W B W W S"), tables, cfg,
                       ClockSpec(period=100.0))
    text = render_report(rep)
    assert "seg_index,src,dst,n_wires" in text
    assert "launch,capture,skew" in text
    assert text.endswith("\n")
    # deterministic
    assert text == render_report(analyze_link(
        parse_link("S W W B W W S"), tables, cfg, ClockSpec(period=100.0)))


def test_render_report_pinned(cfg, tables):
    """Reports for 200 seeded links with the clock entering at either end."""
    rng = random.Random(8)
    links = [random_link(rng, rng.randint(1, 40), cb_prob=0.2) for _ in range(200)]
    digest, size = hashlib.sha256(), 0
    for link in links:
        for entry in (0, len(link) - 1):
            text = render_report(analyze_link(
                link, tables, cfg, ClockSpec(period=40.0, jitter=1.0),
                clock_entry=entry)).encode()
            digest.update(text)
            size += len(text)
    assert size == 841_435
    assert digest.hexdigest() == (
        "e6f7d83bc59c3f3fbb3b52772a0105dd72634ae748ee4a61c4ce3ae2bdd4190f")


def test_analysis_corpus_pinned(cfg, tables):
    """Reports, path fields and violation fields of 300 seeded links with
    W.cb and zero-wire segments, at both clock entries, four clocks (every
    clock stage is late at T = 9, none at T = 170), two modes and two launch
    slews."""
    rng = random.Random(808)
    links = [random_link(rng, rng.randint(1, 12), w_lo=0, w_hi=6, cb_prob=0.2)
             for _ in range(300)]
    clocks = (ClockSpec(period=9.0), ClockSpec(period=12.0),
              ClockSpec(period=20.0, jitter=1.0), ClockSpec(period=170.0))
    digest = hashlib.sha256()
    kinds = Counter()
    for link in links:
        for entry in (0, len(link) - 1):
            for clk in clocks:
                for mode in (LookupMode.PESSIMISTIC, LookupMode.INTERPOLATE):
                    for launch in (None, 9.5):
                        rep = analyze_link(link, tables, cfg, clk, mode,
                                           clock_entry=entry, launch_slew=launch)
                        paths = [(p.launch_index, p.capture_index, p.path_delay_max,
                                  p.path_delay_min, p.skew, p.setup_slack,
                                  p.hold_slack, p.direction) for p in rep.paths]
                        violations = [(v.kind, v.location, v.detail)
                                      for v in rep.violations]
                        digest.update(render_report(rep).encode())
                        digest.update(repr((paths, violations)).encode())
                        kinds.update((v.kind, entry > 0) for v in rep.violations)
    late = ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD
    assert kinds[late, False] and kinds[late, True]
    assert kinds[ViolationKind.SETUP, False] and kinds[ViolationKind.SETUP, True]
    assert digest.hexdigest() == (
        "945e1ca390dd5bf81a2d0256ffb038853af0fe2190c42b8c9babcde819daf7f9")


def test_analyze_path_pinned(cfg, tables):
    """Stages and arrivals of analyze_path over 150 seeded links and two that
    raise, in every mode and purpose, launched on a grid row, between rows
    and below the grid; a raised error is hashed by type and message.  The
    digest was recorded before the lookup core read per-interval constants."""
    rng = random.Random(1010)
    grid = slew_grid(cfg)
    links = [random_link(rng, rng.randint(1, 40), w_lo=0, w_hi=5) for _ in range(150)]
    links += [parse_link("S " + "W " * 8 + "B W W B W S"),  # slew_out > 40
              parse_link("S W W B " + "W " * 10 + "S")]       # 10 wires >= K
    digest = hashlib.sha256()
    outcomes = Counter()
    for k, link in enumerate(links):
        launches = (grid[k % len(grid)], rng.uniform(grid[0], grid[-1]), 2.0)
        for mode in LookupMode:
            for purpose in LookupPurpose:
                for launch in launches:
                    res = _outcome(analyze_path, link, tables, launch, mode, purpose)
                    if isinstance(res, tuple):
                        outcomes[res[0].__name__] += 1
                        res = (res[0].__name__, res[1])
                    else:
                        outcomes[mode] += 1
                        res = (res.stages, res.arrivals)
                    digest.update(repr(res).encode())
    assert all(outcomes[mode] for mode in LookupMode)
    assert all(outcomes[e] for e in ("NotOnGrid", "SlewOutOfRange", "SegmentTooLong"))
    assert digest.hexdigest() == (
        "3ee4e0b4a785e7153825d12d6a573c9feba5b1dceb4d42ff314be70d73d27c09")


def lookup_chain(link, ts, launch_slew, mode, purpose, relaunch_slew=None):
    """Plain per-segment table_lookup / reconstruct_lookup chain over segment_decompose."""
    stages, arrivals, total, slew = [], [], 0.0, launch_slew
    for j, seg in enumerate(segment_decompose(link)):
        chained = j > 0
        if (chained and relaunch_slew is not None
                and seg.src_kind in (BlockKind.R, BlockKind.S)):
            slew, chained = relaunch_slew, False
        if chained and mode is LookupMode.EXACT:
            res = reconstruct_lookup(ts, seg.src_kind, seg.dst_kind,
                                     seg.n_wires, slew, purpose)
        else:
            res = table_lookup(ts, seg.src_kind, seg.dst_kind, seg.n_wires,
                               slew, mode, purpose)
        stages.append(res)
        total += res.delay
        arrivals.append(total)
        slew = res.slew_out
    return tuple(stages), tuple(arrivals)


def criterion_3_corpus():
    """Criterion 3's 1000 links (wire runs 2..5) with their launch slews."""
    rng = random.Random(2030)
    return [(random_link(rng, rng.randint(1, 50), w_lo=2, w_hi=5),
             rng.uniform(4.0, 40.0)) for _ in range(1000)]


@pytest.mark.parametrize("mode", list(LookupMode))
def test_analyze_path_equals_lookup_chain(cfg, tables, mode):
    """The compiled chaining loop computes exactly the per-segment lookup chain."""
    grid = [float(x) for x in slew_grid(cfg)]
    for k, (link, launch) in enumerate(criterion_3_corpus()):
        if mode is LookupMode.EXACT:
            launch = grid[k % len(grid)]
        for purpose in LookupPurpose:
            res = analyze_path(link, tables, launch, mode, purpose)
            stages, arrivals = lookup_chain(link, tables, launch, mode, purpose)
            assert res.stages == stages
            assert res.arrivals == arrivals
            assert res.lookup_count == len(stages)
            assert res.clamped == any(st.clamped for st in stages)

    # a launch below the grid clamps to the first row, flagged
    link = parse_link("S W W B W W R W W S")
    res = analyze_path(link, tables, 1.0, mode, LookupPurpose.SETUP_MAX)
    stages, arrivals = lookup_chain(link, tables, 1.0, mode,
                                    LookupPurpose.SETUP_MAX)
    assert res.clamped and stages[0].clamped
    assert (res.stages, res.arrivals) == (stages, arrivals)


@pytest.mark.parametrize("link, launch, mode, error", [
    ("S " + "W " * 10 + "S", 4.0, LookupMode.INTERPOLATE, SegmentTooLong),
    ("S W W B W W S", 41.0, LookupMode.PESSIMISTIC, SlewOutOfRange),
    ("S W W B W W S", 6.0, LookupMode.EXACT, NotOnGrid),
])
def test_analyze_path_errors_match_lookup_chain(tables, link, launch, mode, error):
    link = parse_link(link)
    with pytest.raises(error) as got:
        analyze_path(link, tables, launch, mode, LookupPurpose.SETUP_MAX)
    with pytest.raises(error) as want:
        lookup_chain(link, tables, launch, mode, LookupPurpose.SETUP_MAX)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", list(LookupMode))
def test_analyze_link_stages_equal_relaunching_chain(cfg, tables, mode):
    """Both passes chain like analyze_path but relaunch from the clock at R/S."""
    cs = clock_slew(cfg)
    for link in corpus(seed=21, count=100, seg_lo=1, seg_hi=30, w_lo=2, w_hi=5):
        for launch in (None, 8.0):
            rep = analyze_link(link, tables, cfg, RELAXED, mode,
                               launch_slew=launch)
            start = cs if launch is None else launch
            setup, _ = lookup_chain(link, tables, start, mode,
                                    LookupPurpose.SETUP_MAX, relaunch_slew=cs)
            hold, _ = lookup_chain(link, tables, start, mode,
                                   LookupPurpose.HOLD_MIN, relaunch_slew=cs)
            assert rep.setup_stages == setup
            assert rep.hold_stages == hold
            assert rep.clamped == any(st.clamped for st in setup + hold)


def test_analyze_link_agrees_with_clock_oracle(cfg, tables):
    """Segments, paths, skews and clock violations follow segment_decompose
    and golden_clock_analyze exactly, with the clock at either end.  A skew
    is the sum from 0.0 of the path's own stage delays in token order, each
    negated when the clock enters at the far end; it equals the latency
    difference up to rounding."""
    rng = random.Random(57)
    for _ in range(150):
        link = random_link(rng, rng.randint(1, 30), w_lo=2, w_hi=5, cb_prob=0.15)
        flops = [i for i, (kind, _) in enumerate(link.tokens)
                 if kind in (BlockKind.R, BlockKind.S)]
        segments = tuple(segment_decompose(link))
        for entry in (0, len(link) - 1):
            oracle = golden_clock_analyze(link, cfg, Corner.NOMINAL, entry_index=entry)
            latencies = oracle.latencies
            sign = -1.0 if entry else 1.0
            # (first token of the stage, signed delay), in token order
            stages = sorted((min(span), sign * d)
                            for span, d in zip(oracle.stage_spans, oracle.stage_delays))
            for clk in (ClockSpec(period=20.0, jitter=1.0), ClockSpec(period=170.0)):
                rep = analyze_link(link, tables, cfg, clk, clock_entry=entry)
                assert rep.segments == segments
                assert [(p.launch_index, p.capture_index) for p in rep.paths] \
                    == list(zip(flops, flops[1:]))
                for p in rep.paths:
                    skew = 0.0
                    for at, d in stages:
                        if p.launch_index <= at < p.capture_index:
                            skew += d
                    assert p.skew == skew
                    assert p.skew == pytest.approx(
                        latencies[p.capture_index] - latencies[p.launch_index])
                    d_max = 0.0
                    for seg, st in zip(segments, rep.setup_stages):
                        if p.launch_index <= seg.src_index < p.capture_index:
                            d_max += st.delay
                    assert p.path_delay_max == d_max
                clock = [v for v in rep.violations
                         if v.kind is ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD]
                assert clock == clock_check(link, cfg, clk)
        with pytest.raises(ValueError):
            analyze_link(link, tables, cfg, RELAXED, clock_entry=len(link) // 2)


def test_sub_run_paths_judge_as_analyze_link(cfg, tables):
    """Synthesis's premise: chain each R/S-to-R/S sub-run of a link alone from
    the clock slew, sign its own clock stages for the clock entry, and judge
    its one flop_paths record alone from the sub-run's launch token.  That
    gives analyze_link's path at the same index, and its findings other than
    clock-stage ones, to the last bit, in every mode and with the clock at
    either end."""
    rng = random.Random(1212)
    cs = clock_slew(cfg)
    late = ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD
    clocks = (ClockSpec(period=20.0, jitter=1.0), ClockSpec(period=60.0))
    kinds, judged = Counter(), 0
    for _ in range(150):
        # w_hi = K - 1: no segment is too long, but long runs leave the slew grid
        link = random_link(rng, rng.randint(1, 16), w_lo=0, w_hi=9, cb_prob=0.2)
        flops = [i for i, (kind, _) in enumerate(link.tokens)
                 if kind in (BlockKind.R, BlockKind.S)]
        for mode in LookupMode:
            runs = []
            try:
                for a, b in zip(flops, flops[1:]):
                    steps, buffers = walk_link(LinkSentence(link.tokens[a:b + 1]))
                    setup = hasta._chain(steps, tables, mode, LookupPurpose.SETUP_MAX, cs)
                    hold = hasta._chain(steps, tables, mode, LookupPurpose.HOLD_MIN, cs)
                    delays = [clock_stage_delay(j - i - 1, cfg, Corner.NOMINAL)
                              for i, j in zip(buffers, buffers[1:])]
                    runs.append((a, steps, setup, hold, delays))
            except SlewOutOfRange:
                with pytest.raises(SlewOutOfRange):
                    analyze_link(link, tables, cfg, RELAXED, mode)
                continue
            for entry in (0, len(link) - 1):
                sign = -1.0 if entry else 1.0
                for clk in clocks:
                    rep = analyze_link(link, tables, cfg, clk, mode, clock_entry=entry)
                    slews, found = [], []
                    for index, (a, steps, setup, hold, delays) in enumerate(runs):
                        record = flop_paths(steps, setup, hold,
                                            [sign * d for d in delays], cfg)
                        assert len(record) == 1
                        [check], run_slews, run_found = judge_paths(
                            record, clk, cfg.slew_legal_max, a)
                        assert check == rep.paths[index]
                        assert all(v.kind is ViolationKind.SLEW_RANGE for v in run_slews)
                        slews += run_slews
                        found += run_found
                    assert slews + found == [v for v in rep.violations if v.kind is not late]
                    kinds.update(v.kind for v in slews + found)
                    judged += 1
    assert judged > 1000
    assert {ViolationKind.SLEW_RANGE, ViolationKind.SETUP,
            ViolationKind.COMB_GT_PERIOD} <= set(kinds)


def test_analyze_link_linear_time(cfg, tables):
    """Criterion 5's growth bound, applied to the whole link analysis."""
    rng = random.Random(55)
    small = random_link(rng, 1000, w_lo=2, w_hi=4)
    large = random_link(rng, 10000, w_lo=2, w_hi=4)
    best = [math.inf, math.inf]
    reports = [None, None]
    for _ in range(5):
        for k, link in enumerate((small, large)):
            t0 = time.perf_counter()
            reports[k] = analyze_link(link, tables, cfg, RELAXED)
            best[k] = min(best[k], time.perf_counter() - t0)
    for link, rep in zip((small, large), reports):
        n = len(segment_decompose(link))
        assert render_report(rep).splitlines()[1].startswith(
            f"lookups setup={n} hold={n} ")
    ratio = best[1] / best[0]
    assert 5.0 <= ratio <= 15.0, (
        f"10^4/10^3 analyze_link time ratio {ratio:.1f} outside [5, 15] "
        f"({best[0] * 1e3:.1f} ms, {best[1] * 1e3:.1f} ms)")


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the GnocError it raises."""
    try:
        return fn(*args, **kwargs)
    except GnocError as exc:
        return type(exc), str(exc)


def _late_stages(link, cfg, clk):
    """Clock violations straight from the MAX-corner clock walk, in token order."""
    clock = golden_clock_analyze(link, cfg, Corner.MAX)
    return [Violation(ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD,
                      f"tokens {a}..{b}",
                      f"clock stage delay {d:.6g} >= T/2 = {clk.period / 2.0:.6g}")
            for (a, b), d in zip(clock.stage_spans, clock.stage_delays)
            if d >= clk.period / 2.0]


def test_memoized_chain_equals_lookup_chain(cfg):
    """With a cold memo and again with a warm one, both analyses give the
    plain lookup chain's stages bit for bit, in every mode, and the clock
    violations of the single NOMINAL walk equal those of a MAX walk."""
    ts = build_tables(cfg)
    cs = clock_slew(cfg)
    rng = random.Random(71)
    links = [random_link(rng, rng.randint(1, 30), w_lo=0, w_hi=5, cb_prob=0.2)
             for _ in range(60)]
    clk = ClockSpec(period=20.0, jitter=1.0)
    for memo in ("cold", "warm"):
        for link in links:
            for mode in LookupMode:
                for launch in (None, 9.5, 4.0):
                    start = cs if launch is None else launch
                    for entry in (0, len(link) - 1):
                        rep = _outcome(analyze_link, link, ts, cfg, clk, mode,
                                       clock_entry=entry, launch_slew=launch)
                        chains = [_outcome(lookup_chain, link, ts, start, mode,
                                           purpose, relaunch_slew=cs)
                                  for purpose in LookupPurpose]
                        if isinstance(rep, tuple):
                            assert rep in chains, (memo, mode, launch)
                            continue
                        assert [rep.setup_stages, rep.hold_stages] \
                            == [stages for stages, _ in chains]
                        late = [v for v in rep.violations if v.kind
                                is ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD]
                        assert late == _late_stages(link, cfg, clk)
                    for purpose in LookupPurpose:
                        path = _outcome(analyze_path, link, ts, start, mode, purpose)
                        chain = _outcome(lookup_chain, link, ts, start, mode, purpose)
                        if isinstance(path, tuple):
                            assert path == chain
                        else:
                            assert (path.stages, path.arrivals) == chain
        assert any(ts.memo[p][s][d] for p in LookupPurpose
                   for s in range(3) for d in range(3))


@pytest.mark.parametrize("text, error", [
    ("S W W B " + "W " * 10 + "S", SegmentTooLong),     # 10 wires >= K
    ("S " + "W " * 8 + "B W W B W S", SlewOutOfRange),  # 8 wires: slew_out > 40
])
def test_memoized_chain_errors_every_call(cfg, text, error):
    """Failures after the first lookup are never memoized: they raise with a
    cold memo, and again once the memo is warm."""
    ts = build_tables(cfg)
    link = parse_link(text)
    for _ in range(2):
        with pytest.raises(error):
            analyze_link(link, ts, cfg, RELAXED)
        with pytest.raises(error):
            analyze_path(link, ts, 9.5, LookupMode.PESSIMISTIC,
                         LookupPurpose.HOLD_MIN)
        for warm in corpus(seed=5, count=20, seg_lo=1, seg_hi=20):
            analyze_link(warm, ts, cfg, RELAXED)
    assert any(ts.memo[p][s][d] for p in LookupPurpose
               for s in range(3) for d in range(3))


def test_first_lookup_from_clock_slew_reads_memo(cfg, monkeypatch):
    """A chain's first lookup from the clock slew reads through the memo and
    adds its (n_wires, clock slew) key; from a slew off the grid it looks up
    directly every time.  Reports are the same from a cold and a warm memo."""
    ts = build_tables(cfg)
    cs = clock_slew(cfg)
    lookup, calls = hasta.view_lookup, []

    def counted(view, n_wires, slew, *args):
        calls.append((n_wires, slew))
        return lookup(view, n_wires, slew, *args)

    monkeypatch.setattr(hasta, "view_lookup", counted)
    b, s = ACTIVE_KINDS.index(BlockKind.B), ACTIVE_KINDS.index(BlockKind.S)
    link = parse_link("S W W B W W W S")  # S->B only as the first segment
    cold = analyze_link(link, ts, cfg, RELAXED)
    assert calls.count((2, cs)) == 2
    for purpose in LookupPurpose:
        assert list(ts.memo[purpose][s][b]) == [(2, cs)]
    calls.clear()
    assert analyze_link(link, ts, cfg, RELAXED) == cold
    assert calls == []

    off_grid = 9.7
    assert off_grid not in slew_grid(cfg)
    for _ in range(2):  # the second time, the chained lookups are memoized
        calls.clear()
        analyze_link(link, ts, cfg, RELAXED, launch_slew=off_grid)
        assert calls.count((2, off_grid)) == 2
    assert calls == [(2, off_grid)] * 2
    for purpose in LookupPurpose:
        assert list(ts.memo[purpose][s][b]) == [(2, cs)]

    links = corpus(seed=17, count=40, seg_lo=1, seg_hi=20)
    fresh = build_tables(cfg)
    cold = [analyze_link(link, fresh, cfg, RELAXED, clock_entry=entry)
            for link in links for entry in (0, len(link) - 1)]
    warm = [analyze_link(link, fresh, cfg, RELAXED, clock_entry=entry)
            for link in links for entry in (0, len(link) - 1)]
    assert warm == cold


def test_memo_bounded_by_tables(cfg):
    """Memo keys are (n_wires, table slew_out cell or clock slew), at most
    K * (9 * L * K + 1) per pair and purpose.  INTERPOLATE and EXACT add
    none, and neither do new launch slews once the grid rows have run."""
    ts = build_tables(cfg)
    cs = clock_slew(cfg)
    links = corpus(seed=13, count=200, seg_lo=1, seg_hi=40, w_lo=0, w_hi=7)

    def sizes():
        return [len(d) for p in LookupPurpose for row in ts.memo[p] for d in row]

    for link in links:
        for launch in [None] + slew_grid(cfg):
            analyze_link(link, ts, cfg, RELAXED, launch_slew=launch)
        for launch in slew_grid(cfg):
            for purpose in LookupPurpose:
                analyze_path(link, ts, launch, LookupMode.PESSIMISTIC, purpose)
    warm = sizes()
    bound = cfg.K * (9 * cfg.L * cfg.K + 1)
    assert 0 < max(warm) <= bound
    for purpose in LookupPurpose:
        cells = {cs}.union(*(chain.from_iterable(table_view(ts, *pair, purpose).slew_out)
                             for pair in PAIRS))
        for row in ts.memo[purpose]:
            for d in row:
                assert all(0 <= n < cfg.K and s in cells for n, s in d)

    rng = random.Random(3)
    for link in links[:50]:
        for mode in (LookupMode.INTERPOLATE, LookupMode.EXACT):
            _outcome(analyze_link, link, ts, cfg, RELAXED, mode)
            _outcome(analyze_path, link, ts, 9.5, mode, LookupPurpose.SETUP_MAX)
    launches = [rng.uniform(4.0, 40.0) for _ in range(100)]
    for link, launch in zip(links, launches):
        analyze_link(link, ts, cfg, RELAXED, launch_slew=launch)
        analyze_path(link, ts, launch, LookupMode.PESSIMISTIC,
                     LookupPurpose.HOLD_MIN)
    assert sizes() == warm


def test_analyze_link_walks_clock_once(cfg, tables, monkeypatch):
    """One clock-model run per analysis, at NOMINAL, for either entry."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return clock_stage_delays(*args, **kwargs)

    monkeypatch.setattr(hasta, "clock_stage_delays", counted)
    link = parse_link("S W W B W.cb W W R W S")
    for entry in (0, len(link) - 1):
        calls.clear()
        analyze_link(link, tables, cfg, ClockSpec(period=8.0), clock_entry=entry)
        assert calls == [Corner.NOMINAL]


def test_fitting_clock_stages_cost_one_max_evaluation(cfg, tables, monkeypatch):
    """When the longest clock stage fits in T/2, analysis makes one MAX-corner
    stage evaluation, for that stage, and does not seek max_clock_run's limit."""
    corners = []

    def counted(n, cfg, corner):
        corners.append(corner)
        return clock_stage_delay(n, cfg, corner)

    monkeypatch.setattr(golden, "clock_stage_delay", counted)
    report = analyze_link(parse_link("S W W B W W R W W S"), tables, cfg,
                          ClockSpec(period=100.0))
    assert not any(v.kind is ViolationKind.CLOCK_UNBUFFERED_GT_HALF_PERIOD
                   for v in report.violations)
    assert corners.count(Corner.MAX) == 1


def test_analyze_link_walks_tokens_once(cfg, tables, monkeypatch):
    """One token walk per analysis, for either entry."""
    calls = []

    def counted(link):
        calls.append(link)
        return walk_link(link)

    monkeypatch.setattr(hasta, "walk_link", counted)
    link = parse_link("S W W B W.cb W W R W S")
    for entry in (0, len(link) - 1):
        calls.clear()
        analyze_link(link, tables, cfg, ClockSpec(period=8.0), clock_entry=entry)
        assert calls == [link]
