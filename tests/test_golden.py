import csv
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corpus, random_link
from gnoc.golden import (Corner, clock_stage_delay, elmore_wire_delay,
                         golden_clock_analyze, golden_path_analyze,
                         golden_segment)
from gnoc.grammar import LinkSentence, parse_link
from gnoc.hasta import link_digest
from gnoc.techlib import BlockKind

DATA = Path(__file__).parent / "data"


def test_elmore_no_wire():
    assert elmore_wire_delay(0, 1.0, 1.0, 0.5, 1.0) == 0.5


def test_elmore_two_slots():
    assert elmore_wire_delay(2, 1.0, 1.0, 0.5, 1.0) == pytest.approx(6.5)


def test_elmore_nine_slots():
    assert elmore_wire_delay(9, 1.0, 1.0, 0.7, 1.0) == pytest.approx(61.0)


def test_segment_bb_n0_max(cfg):
    res = golden_segment(BlockKind.B, BlockKind.B, 0, 4.0, Corner.MAX, cfg)
    assert res.delay == pytest.approx(7.37, rel=1e-12)
    assert res.slew_out == pytest.approx(2.6, rel=1e-12)


def test_segment_bb_n2_nominal(cfg):
    res = golden_segment(BlockKind.B, BlockKind.B, 2, 4.0, Corner.NOMINAL, cfg)
    assert res.delay == pytest.approx(12.7, rel=1e-12)
    assert res.slew_out == pytest.approx(math.sqrt(3.0**2 + 5.0**2), rel=1e-12)


def test_segment_sr_n9_nominal(cfg):
    res = golden_segment(BlockKind.S, BlockKind.R, 9, 40.0, Corner.NOMINAL, cfg)
    assert res.delay == pytest.approx(85.0, rel=1e-12)
    assert res.slew_out == pytest.approx(math.sqrt(9.0**2 + 54.0**2), rel=1e-12)
    assert res.slew_out > cfg.slew_legal_max  # flagged downstream, not here


def test_register_source_uses_clock_to_output(cfg):
    r = golden_segment(BlockKind.R, BlockKind.B, 0, 4.0, Corner.NOMINAL, cfg)
    b = golden_segment(BlockKind.B, BlockKind.B, 0, 4.0, Corner.NOMINAL, cfg)
    assert r.delay - b.delay == pytest.approx(8.0 - 5.0, rel=1e-12)


@given(slew=st.floats(0.5, 60.0), n=st.integers(0, 12),
       src=st.sampled_from([BlockKind.B, BlockKind.R, BlockKind.S]),
       dst=st.sampled_from([BlockKind.B, BlockKind.R, BlockKind.S]))
@settings(max_examples=300, deadline=None)
def test_monotone_and_corner_ordered(cfg, slew, n, src, dst):
    lo = golden_segment(src, dst, n, slew, Corner.MIN, cfg)
    nom = golden_segment(src, dst, n, slew, Corner.NOMINAL, cfg)
    hi = golden_segment(src, dst, n, slew, Corner.MAX, cfg)
    assert lo.delay <= nom.delay <= hi.delay
    assert lo.slew_out == nom.slew_out == hi.slew_out  # corner-independent
    # nondecreasing in wires and in slew
    more_wire = golden_segment(src, dst, n + 1, slew, Corner.NOMINAL, cfg)
    more_slew = golden_segment(src, dst, n, slew + 1.0, Corner.NOMINAL, cfg)
    assert more_wire.delay >= nom.delay
    assert more_slew.delay >= nom.delay


@given(slew=st.floats(0.5, 60.0), n=st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_slew_out_at_least_driver_slew(cfg, slew, n):
    res = golden_segment(BlockKind.B, BlockKind.S, n, slew, Corner.NOMINAL, cfg)
    p = cfg.params[BlockKind.B]
    q = cfg.params[BlockKind.S]
    s_drv = p.s0 + p.k_sin * slew + p.k_sload * (n * cfg.pitch_c + q.c_in)
    assert res.slew_out >= s_drv - 1e-12
    if n == 0:
        assert res.slew_out == pytest.approx(s_drv, rel=1e-12)


def test_path_two_segments(cfg):
    link = parse_link("S B S")
    res = golden_path_analyze(link, 4.0, Corner.NOMINAL, cfg)
    first = golden_segment(BlockKind.S, BlockKind.B, 0, 4.0, Corner.NOMINAL, cfg)
    second = golden_segment(BlockKind.B, BlockKind.S, 0, first.slew_out,
                            Corner.NOMINAL, cfg)
    assert res.arrivals[-1] == pytest.approx(first.delay + second.delay, rel=1e-15)


def test_path_single_segment_identity(cfg):
    link = parse_link("S W W S")
    res = golden_path_analyze(link, 10.0, Corner.MAX, cfg)
    seg = golden_segment(BlockKind.S, BlockKind.S, 2, 10.0, Corner.MAX, cfg)
    assert res.arrivals == (seg.delay,)


def test_path_arrival_is_prefix_sum(cfg):
    rng = random.Random(3)
    for _ in range(50):
        link = random_link(rng, rng.randint(1, 20))
        res = golden_path_analyze(link, 10.0, Corner.MAX, cfg)
        total = 0.0
        for st_, arr in zip(res.stages, res.arrivals):
            total += st_.delay
            assert arr == pytest.approx(total, rel=1e-15)


def test_clock_sbs_stages(cfg):
    link = parse_link("S B S")
    res = golden_clock_analyze(link, cfg, Corner.NOMINAL)
    assert res.stage_delays == pytest.approx((4.32, 4.32))
    res_max = golden_clock_analyze(link, cfg, Corner.MAX)
    assert res_max.stage_delays == pytest.approx((4.752, 4.752))


def test_clock_swws_single_stage(cfg):
    res = golden_clock_analyze(parse_link("S W W S"), cfg, Corner.NOMINAL)
    assert len(res.stage_delays) == 1
    assert res.stage_delays[0] == pytest.approx(clock_stage_delay(2, cfg, Corner.NOMINAL))


def test_clock_cb_tokens_are_buffers(cfg):
    res = golden_clock_analyze(parse_link("S W.cb W S"), cfg, Corner.NOMINAL)
    assert len(res.stage_delays) == 2
    assert res.stage_spans == ((0, 1), (1, 3))


def test_clock_skew_nonnegative(cfg):
    rng = random.Random(4)
    for _ in range(50):
        link = random_link(rng, rng.randint(1, 20), cb_prob=0.2)
        res = golden_clock_analyze(link, cfg, Corner.MAX)
        assert res.latencies[-1] >= res.latencies[0]
        assert all(b >= a for a, b in zip(res.latencies, res.latencies[1:]))


def test_clock_far_end_entry_is_reversed_link(cfg):
    """Entering at the last token is entering at token 0 of the reversed link."""
    rng = random.Random(41)
    for _ in range(500):
        link = random_link(rng, rng.randint(1, 30), cb_prob=0.3)
        flipped = LinkSentence(link.tokens[::-1])
        for corner in Corner:
            far = golden_clock_analyze(link, cfg, corner, entry_index=len(link) - 1)
            near = golden_clock_analyze(flipped, cfg, corner)
            assert far.latencies == near.latencies[::-1]
            assert far.stage_delays == near.stage_delays


def test_clock_stages_match_per_stage_loop(cfg):
    """Each stage's delay is clock_stage_delay of its own span, bit for bit,
    and each token's latency is the running sum of the stages before its
    governing buffer, however many stages share a wire count."""
    rng = random.Random(43)
    for _ in range(200):
        link = random_link(rng, rng.randint(1, 30), w_hi=12, cb_prob=0.1)
        buffers = [i for i, (kind, sub) in enumerate(link.tokens)
                   if kind is not BlockKind.W or sub.clock_buffered]
        for entry in (0, len(link) - 1):
            order = buffers if entry == 0 else buffers[::-1]
            walk = range(len(link)) if entry == 0 else range(len(link) - 1, -1, -1)
            spans = tuple(zip(order, order[1:]))
            downstream = set(order[1:])
            for corner in Corner:
                res = golden_clock_analyze(link, cfg, corner, entry_index=entry)
                delays = tuple(clock_stage_delay(abs(b - a) - 1, cfg, corner)
                               for a, b in spans)
                assert res.stage_spans == spans
                assert res.stage_delays == delays
                latencies = [0.0] * len(link)
                lat, stage = 0.0, 0
                for i in walk:
                    if i in downstream:
                        lat += delays[stage]
                        stage += 1
                    latencies[i] = lat
                assert res.latencies == tuple(latencies)


def test_regression_corpus_digests(cfg):
    """Frozen arrivals over a seeded 1000-link corpus guard the oracle."""
    expected = {}
    rows = 0
    with open(DATA / "golden_regression.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            expected[(rec["link_hash"], rec["corner"])] = rec["arrival"]
            rows += 1
    links = corpus(seed=2024, count=1000, seg_lo=1, seg_hi=30)
    assert rows == 3 * len(links)
    for link in links:
        h = link_digest(link)
        for corner in Corner:
            res = golden_path_analyze(link, 10.0, corner, cfg)
            assert format(res.total_delay, ".12g") == expected[(h, corner.value)]
