import hashlib
import math
import random
import time

import pytest

from conftest import corpus, random_link
from gnoc.characterize import (LookupMode, LookupPurpose, build_tables,
                               reconstruct_lookup, slew_grid, table_lookup)
from gnoc.errors import NotOnGrid, SegmentTooLong, SlewOutOfRange, TableMismatch
from gnoc.golden import Corner, golden_clock_analyze, golden_path_analyze
from gnoc.grammar import parse_link, segment_decompose
from gnoc.hasta import (PathDirection, ViolationKind, analyze_link,
                        analyze_path, clock_check, clock_slew,
                        hold_check, render_report, setup_check)
from gnoc.techlib import (BlockKind, ClockSpec, default_tech_config,
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
    and golden_clock_analyze exactly, with the clock at either end."""
    rng = random.Random(57)
    for _ in range(150):
        link = random_link(rng, rng.randint(1, 30), w_lo=2, w_hi=5, cb_prob=0.15)
        flops = [i for i, (kind, _) in enumerate(link.tokens)
                 if kind in (BlockKind.R, BlockKind.S)]
        segments = tuple(segment_decompose(link))
        for entry in (0, len(link) - 1):
            latencies = golden_clock_analyze(link, cfg, Corner.NOMINAL,
                                             entry_index=entry).latencies
            for clk in (ClockSpec(period=20.0, jitter=1.0), ClockSpec(period=170.0)):
                rep = analyze_link(link, tables, cfg, clk, clock_entry=entry)
                assert rep.segments == segments
                assert [(p.launch_index, p.capture_index) for p in rep.paths] \
                    == list(zip(flops, flops[1:]))
                for p in rep.paths:
                    assert p.skew == latencies[p.capture_index] - latencies[p.launch_index]
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
