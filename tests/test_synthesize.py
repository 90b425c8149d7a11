import enum
import hashlib
import math
import random
import sys
import time
from collections import Counter
from itertools import accumulate, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnoc import golden, grammar, hasta, synthesize
from gnoc.characterize import LookupMode, LookupPurpose, TableSet, build_tables
from gnoc.dse import dse_loop, random_candidates
from gnoc.errors import (ClockUnsatisfiable, GnocError, InvalidValue, SegmentTooLong,
                         SlewOutOfRange, TableMismatch)
from gnoc.golden import Corner, clock_stage_delay, clock_stage_delays
from gnoc.grammar import LinkSentence, parse_link, serialize_link, walk_link
from gnoc.hasta import analyze_link, clock_check
from gnoc.synthesize import (LinkSpec, SynthesisResult, _assemble,
                             _min_buffers_for_gap, _promote_clock_buffers,
                             _sub_run_tokens, assign_clock_subtypes,
                             insert_evenly, is_valid, link_cost, max_clock_run,
                             synthesize_link)
from gnoc.techlib import (BlockKind, ClockSpec, load_tech_config,
                          serialize_tech_config)

from conftest import random_link, tech_configs


def test_insert_evenly_examples():
    assert insert_evenly(5, 1) == [3]
    assert insert_evenly(9, 2) == [3, 7]
    assert insert_evenly(4, 0) == []
    assert insert_evenly(3, 3) == [1, 2, 3]


def test_insert_evenly_bounds():
    with pytest.raises(GnocError):
        insert_evenly(3, 4)
    with pytest.raises(GnocError):
        insert_evenly(3, -1)


@given(M=st.integers(0, 200), n=st.integers(0, 200))
@settings(max_examples=300, deadline=None)
def test_insert_evenly_gaps_balanced(M, n):
    if n > M:
        return
    pos = insert_evenly(M, n)
    assert pos == sorted(set(pos))
    assert all(1 <= p <= M for p in pos)
    fence = [0] + pos + [M + 1]
    gaps = [b - a - 1 for a, b in zip(fence, fence[1:])]
    assert max(gaps) - min(gaps) <= 1


def test_min_buffers_for_gap_closed_form():
    """The formula equals the fewest evenly placed buffers leaving runs <= K - 1."""
    K_MAX = 40
    for m in range(300):
        want = {}
        for b in range(m + 1):
            fence = [0] + insert_evenly(m, b) + [m + 1]
            longest = max(q - p - 1 for p, q in zip(fence, fence[1:]))
            for K in range(longest + 1, K_MAX + 1):
                want.setdefault(K, b)
            if len(want) == K_MAX:
                break
        assert [_min_buffers_for_gap(m, K) for K in range(1, K_MAX + 1)] \
            == [want[K] for K in range(1, K_MAX + 1)], m


def test_link_cost_example(cfg):
    assert link_cost(parse_link("S W W S"), cfg) == 42.0


def test_link_cost_cb_surcharge(cfg):
    plain = link_cost(parse_link("S W W S"), cfg)
    tagged = link_cost(parse_link("S W.cb W S"), cfg)
    assert tagged == plain + cfg.cb_surcharge


def test_spec_validation():
    with pytest.raises(GnocError):
        LinkSpec(length_slots=0, period=10.0)
    with pytest.raises(GnocError):
        LinkSpec(length_slots=3, period=10.0, jitter=10.0)
    with pytest.raises(GnocError):
        LinkSpec(length_slots=3, period=math.inf)
    for length in (2.7, math.nan, "3"):
        with pytest.raises(GnocError, match="length_slots must be an int"):
            LinkSpec(length, 100.0)


def test_max_clock_run_monotone_in_period(cfg):
    runs = [max_clock_run(cfg, T) for T in (15.0, 40.0, 100.0, 400.0)]
    assert runs == sorted(runs)
    assert runs[0] >= 0


def test_max_clock_run_unsatisfiable(cfg):
    # a zero-slot clock stage costs 4.752 at the slow corner
    with pytest.raises(ClockUnsatisfiable):
        max_clock_run(cfg, 9.5)
    assert max_clock_run(cfg, 9.6) == 0


def test_max_clock_run_checks_zero_slots_only_on_fallback(cfg, monkeypatch):
    """A confirmed guess costs two stage delays; below the clock floor the
    guess is 0, with no math domain error, and the refusal names T/2."""
    calls = []

    def counted(n, cfg, corner):
        calls.append(n)
        return clock_stage_delay(n, cfg, corner)

    monkeypatch.setattr(golden, "clock_stage_delay", counted)
    for T in (60.0, 177.31):
        calls.clear()
        n = max_clock_run(cfg, T)
        assert calls == [n, n + 1], T
    for T in (9.5, 1.0, 0.0, -1e6):
        assert golden._clock_run_guess(cfg, T) == 0, T
        with pytest.raises(ClockUnsatisfiable) as exc:
            max_clock_run(cfg, T)
        assert str(exc.value) == \
            f"clock stage with zero unbuffered slots already >= T/2 = {T / 2.0:.6g}", T


def test_assign_clock_subtypes_promotes_minimally(cfg):
    spec = LinkSpec(length_slots=8, period=22.0)
    limit = max_clock_run(cfg, spec.period)
    out = assign_clock_subtypes(parse_link("S W W W W W W W W S"), spec, cfg)
    run = 0
    for kind, sub in out.tokens:
        if kind is not BlockKind.W or sub.clock_buffered:
            assert run <= limit
            run = 0
        else:
            run += 1
    assert run <= limit
    # promotions are the greedy minimum: every stage is saturated except the last
    cbs = [i for i, (k, s) in enumerate(out.tokens) if s.clock_buffered]
    assert cbs  # the period forces at least one promotion
    assert cbs[0] == limit + 1


def test_assign_clock_subtypes_strips_existing_tags(cfg):
    spec = LinkSpec(length_slots=3, period=1000.0)
    out = assign_clock_subtypes(parse_link("S W.cb W W S"), spec, cfg)
    assert serialize_link(out) == "S W W W S"


def test_synthesize_trivial_length(cfg, tables):
    res = synthesize_link(LinkSpec(length_slots=2, period=100.0), tables, cfg)
    assert res.valid
    assert serialize_link(res.link) == "S W W S"
    assert res.cost == 42.0
    assert res.iterations == 1


def test_synthesize_needs_one_buffer(cfg, tables):
    res = synthesize_link(LinkSpec(length_slots=11, period=100.0), tables, cfg)
    assert res.valid
    assert res.counts == (10, 1, 0)
    assert res.link.kinds()[6] is BlockKind.B  # evenly placed


def test_synthesize_long_link_needs_registers(cfg, tables):
    res = synthesize_link(LinkSpec(length_slots=40, period=80.0), tables, cfg)
    assert res.valid
    assert res.counts[2] == 2
    ok, reasons = is_valid(res.link, LinkSpec(length_slots=40, period=80.0),
                           tables, cfg)
    assert ok, reasons


def test_synthesize_deterministic(cfg, tables):
    spec = LinkSpec(length_slots=17, period=90.0)
    a = synthesize_link(spec, tables, cfg)
    b = synthesize_link(spec, tables, cfg)
    assert a == b


def test_synthesize_unsatisfiable_clock(cfg, tables):
    res = synthesize_link(LinkSpec(length_slots=5, period=9.0), tables, cfg)
    assert not res.valid
    assert res.cost == float("inf")
    assert any("ClockUnsatisfiable" in r for r in res.reasons)
    # refused up front: no candidate is tried or logged
    assert res.iterations == 0 and res.log == ()
    # 30 slots at T = 9.5 enumerated 635,643 candidates before the refusal
    spec = LinkSpec(length_slots=30, period=9.5)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        res = synthesize_link(spec, tables, cfg)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.010
    assert res == SynthesisResult(
        link=None, cost=math.inf, counts=(0, 0, 0), iterations=0, valid=False,
        reasons=("ClockUnsatisfiable: clock stage with zero unbuffered slots "
                 "already >= T/2 = 4.75",))


def test_tighter_period_never_cheaper(cfg, tables):
    costs = [synthesize_link(LinkSpec(length_slots=20, period=T), tables, cfg).cost
             for T in (300.0, 120.0, 70.0)]
    assert costs[0] <= costs[1] <= costs[2]


def test_result_is_valid_post_hoc(cfg, tables):
    for slots, T in ((2, 100.0), (11, 100.0), (25, 90.0), (40, 80.0)):
        spec = LinkSpec(length_slots=slots, period=T)
        res = synthesize_link(spec, tables, cfg)
        assert res.valid
        ok, reasons = is_valid(res.link, spec, tables, cfg)
        assert ok, reasons
        assert len(res.link) == slots + 2


def test_synthesis_pinned(cfg, tables):
    """Every SynthesisResult field, log included, over 194 specs: lengths
    1..12 at eight periods (unsatisfiable at 9 and 9.5, which log nothing)
    with and without jitter, plus 30 slots at T = 90 and 34 at T = 50 (four
    registers)."""
    specs = [LinkSpec(length_slots=M, period=T, jitter=jitter)
             for M in range(1, 13)
             for T in (9.0, 9.5, 12.0, 20.0, 30.0, 45.0, 60.0, 90.0)
             for jitter in (0.0, 1.0)]
    specs += [LinkSpec(length_slots=30, period=90.0),
              LinkSpec(length_slots=34, period=50.0)]
    digest = hashlib.sha256()
    kinds = Counter()
    for spec in specs:
        res = synthesize_link(spec, tables, cfg)
        digest.update(repr(res).encode())
        for line in res.log:
            for reason in line.split(" -> ", 1)[1].split("; "):
                kinds[reason.split(" ", 1)[0].rstrip(":")] += 1
        kinds["ClockUnsatisfiable"] += any(
            reason.startswith("ClockUnsatisfiable: ") for reason in res.reasons)
        kinds["registers >= 3"] += res.valid and res.counts[2] >= 3
    assert set(kinds) == {"valid", "COMB_GT_PERIOD", "SETUP", "HOLD", "SLEW_RANGE",
                          "SlewOutOfRange", "ClockUnsatisfiable", "registers >= 3"}
    assert all(kinds.values())
    assert digest.hexdigest() == (
        "d9bd9a84577fc6552ac3c26e014e113ca43d9913f1c3c2955aa9f61cd36de7da")


def corpus_specs():
    """1,058 specs: lengths 1..34 at five periods with and without jitter,
    tighter periods on shorter links, five sweeps shaped like the
    benchmark's (lengths 8..34 by 2 at eight period levels 55..230, each
    plus a seeded offset below 2 tu), a light sample of short links at
    loose periods, and periods below the clock floor."""
    specs = [LinkSpec(length_slots=M, period=T, jitter=jitter) for M in range(1, 35)
             for T in (60.0, 90.0, 120.0, 177.31, 240.0) for jitter in (0.0, 1.0)]
    specs += [LinkSpec(length_slots=M, period=45.0) for M in range(1, 29)]
    specs += [LinkSpec(length_slots=M, period=30.0, jitter=0.5) for M in range(1, 21)]
    rng = random.Random(16)
    for _ in range(5):
        specs += [LinkSpec(length_slots=M,
                           period=round(55.0 + 25.0 * k + rng.uniform(0.0, 2.0), 2))
                  for M in range(8, 35, 2) for k in range(8)]
    specs += [LinkSpec(length_slots=M, period=round(140.0 + 110.0 * (k + rng.random()) / 8, 2))
              for M in range(8, 21) for k in range(8)]
    specs += [LinkSpec(length_slots=M, period=T) for M in (1, 17, 34) for T in (9.0, 9.5)]
    return specs


def test_synthesis_corpus_pinned(cfg, tables):
    """Every SynthesisResult field, log included, over 1,058 specs.  The
    digest predates the per-call verdict reuse: the search's order, log and
    results are unchanged by it.  A deliberate change to the search or its
    log re-pins it."""
    specs = corpus_specs()
    assert len(specs) == 1058
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(repr(synthesize_link(spec, tables, cfg)).encode())
    assert digest.hexdigest() == (
        "2463777d61ee8e4a1140a1fcc56b3487b89cf3c2e7a9984a623e81ed91be8f42")


def budget_vectors(bounds, minima):
    """Buffer-count vectors, one count per sub-run between minima and bounds, in
    increasing total order, lexicographic within a total."""
    for total in range(sum(minima), sum(bounds) + 1):
        yield from compositions(total, bounds, minima, 0)


def compositions(total, bounds, minima, j):
    if j == len(bounds) - 1:
        if minima[j] <= total <= bounds[j]:
            yield (total,)
        return
    rest_min = sum(minima[j + 1:])
    rest_max = sum(bounds[j + 1:])
    for b in range(max(minima[j], total - rest_max),
                   min(bounds[j], total - rest_min) + 1):
        for tail in compositions(total - b, bounds, minima, j + 1):
            yield (b,) + tail


def schedule(M, K):
    """(register slots, buffer counts) of every candidate, in search order."""
    for r in range(M + 1):
        reg_pos = insert_evenly(M, r)
        bounds = [0] + reg_pos + [M + 1]
        sub_lens = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        minima = [_min_buffers_for_gap(m, K) for m in sub_lens]
        for budgets in budget_vectors(sub_lens, minima):
            yield reg_pos, sub_lens, budgets


def reference_synthesize(spec, ts, cfg):
    """The search with one full analysis per candidate: _assemble, then
    assign_clock_subtypes, then is_valid.  A period no clock stage fits is
    refused before any candidate."""
    M = spec.length_slots
    try:
        max_clock_run(cfg, spec.period)
    except ClockUnsatisfiable as exc:
        return SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0),
                               iterations=0, valid=False,
                               reasons=(f"ClockUnsatisfiable: {exc}",))
    iterations, log, reasons = 0, [], ["no candidate attempted"]
    for reg_pos, _, budgets in schedule(M, ts.K):
        link = _assemble(M, reg_pos, budgets)
        iterations += 1
        try:
            link = assign_clock_subtypes(link, spec, cfg)
        except ClockUnsatisfiable as exc:
            reasons = [f"ClockUnsatisfiable: {exc}"]
            log.append(f"{serialize_link(link)} -> {reasons[0]}")
            continue
        ok, reasons = is_valid(link, spec, ts, cfg)
        if ok:
            log.append(f"{serialize_link(link)} -> valid")
            kinds = link.kinds()[1:-1]
            counts = tuple(sum(k is kind for k in kinds)
                           for kind in (BlockKind.W, BlockKind.B, BlockKind.R))
            return SynthesisResult(link=link, cost=link_cost(link, cfg),
                                   counts=counts, iterations=iterations,
                                   valid=True, log=tuple(log))
        log.append(f"{serialize_link(link)} -> {'; '.join(reasons)}")
    return SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0),
                           iterations=iterations, valid=False,
                           reasons=tuple(reasons), log=tuple(log))


@st.composite
def specs(draw):
    M = draw(st.integers(1, 24))
    # tight clocks multiply the candidates (63,919 at 24 slots and T <= 20),
    # so longer links draw looser ones
    lo = 9.0 if M <= 12 else 30.0 if M <= 20 else 45.0
    T = draw(st.one_of(st.sampled_from([9.0, 9.5, 9.51, 12.0, 20.0, 45.0]),
                       st.floats(9.0, 300.0)).filter(lambda T: T >= lo))
    jitter = draw(st.sampled_from([0.0, 0.5, 1.0, 4.0]))
    return LinkSpec(length_slots=M, period=T, jitter=jitter)


@given(spec=specs())
@settings(max_examples=40, deadline=None)
def test_synthesize_matches_reference_search(cfg, tables, spec):
    got = synthesize_link(spec, tables, cfg)
    want = reference_synthesize(spec, tables, cfg)
    for field in ("link", "cost", "counts", "iterations", "valid", "reasons", "log"):
        assert getattr(got, field) == getattr(want, field), field


@given(drawn=tech_configs(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_synthesize_matches_reference_under_random_configs(drawn, data):
    """Under random configs, where chain errors and SLEW_RANGE reasons are
    common, the search equals the reference field by field for one length
    up to 12 slots, at a tight and a loose period, with and without jitter."""
    ts = build_tables(drawn)
    floor = 2.0 * clock_stage_delay(0, drawn, Corner.MAX)
    M = data.draw(st.integers(1, 12), label="M")
    tight = floor * math.exp(data.draw(st.floats(0.0, 1.0), label="tight"))
    loose = floor * math.exp(data.draw(st.floats(2.0, 3.5), label="loose"))
    for T in (tight, loose):
        for jitter in (0.0, 0.1 * floor):
            spec = LinkSpec(length_slots=M, period=T, jitter=jitter)
            got, want = synthesize_link(spec, ts, drawn), reference_synthesize(spec, ts, drawn)
            for field in SynthesisResult._fields:
                assert getattr(got, field) == getattr(want, field), (spec, field)


def assert_scan_equals_enumeration(res, spec, cfg):
    """The scan's result is the one its log's enumeration gives, field by
    field: the winner is the log's one valid line and its last, or the log
    ends at S R ... R S with the result's reasons.  len() needs no read."""
    assert len(res.log) == res.iterations
    lines = tuple(res.log)
    if not lines:  # below the clock floor
        assert res.iterations == 0 and res.reasons[0].startswith("ClockUnsatisfiable: ")
        return
    tried = [line.split(" -> ", 1) for line in lines]
    won = [text for text, verdict in tried if verdict == "valid"]
    if won:
        assert tried[-1] == [won[0], "valid"] and len(won) == 1
        link = parse_link(won[0])
        kinds = link.kinds()[1:-1]
        counts = tuple(kinds.count(kind) for kind in (BlockKind.W, BlockKind.B, BlockKind.R))
        want = SynthesisResult(link=link, cost=link_cost(link, cfg), counts=counts,
                               iterations=len(lines), valid=True, log=lines)
    else:
        assert tried[-1] == [f"S{' R' * spec.length_slots} S", "; ".join(res.reasons)]
        want = SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0),
                               iterations=len(lines), valid=False, reasons=res.reasons,
                               log=lines)
    for field in SynthesisResult._fields:
        assert getattr(res, field) == getattr(want, field), (spec, field)


@given(spec=specs())
@settings(max_examples=40, deadline=None)
def test_scan_equals_enumeration(cfg, tables, spec):
    assert_scan_equals_enumeration(synthesize_link(spec, tables, cfg), spec, cfg)


@given(drawn=tech_configs(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_scan_equals_enumeration_under_random_configs(drawn, data):
    """Up to 20 slots, from the clock floor to 30 times it, with and
    without jitter; exhausted searches are common."""
    ts = build_tables(drawn)
    floor = 2.0 * clock_stage_delay(0, drawn, Corner.MAX)
    M = data.draw(st.integers(1, 20), label="M")
    T = floor * math.exp(data.draw(st.floats(0.0, 3.4), label="log T / floor"))
    for jitter in (0.0, 0.1 * floor):
        spec = LinkSpec(length_slots=M, period=T, jitter=jitter)
        assert_scan_equals_enumeration(synthesize_link(spec, ts, drawn), spec, drawn)


def test_results_need_no_enumeration(cfg, tables, monkeypatch):
    """With the enumeration made to raise, synthesize_link and dse_loop
    return what they return without it; only reading a log enumerates."""
    specs = [LinkSpec(length_slots=M, period=T) for M in (1, 12, 30, 60)
             for T in (9.0, 12.0, 60.0, 177.31)]
    candidates = random_candidates(seed=5, count=12)
    want = [synthesize_link(spec, tables, cfg) for spec in specs]
    want_dse = dse_loop(candidates, tables, cfg)

    def refuse(*args):
        raise AssertionError("enumerated")

    monkeypatch.setattr(synthesize, "_search_log", refuse)
    got = [synthesize_link(spec, tables, cfg) for spec in specs]
    assert [res[:-1] for res in got] == [res[:-1] for res in want]
    assert [len(res.log) for res in got] == [res.iterations for res in want]
    assert dse_loop(candidates, tables, cfg) == want_dse
    with pytest.raises(AssertionError, match="enumerated"):
        tuple(got[-1].log)


def test_scan_judges_each_part_once(cfg, tables, monkeypatch):
    """The scan probes each (source is S, destination is S, slots, buffers)
    with _fits at most once per call, from the sub-run's fewest buffers up,
    and builds no part until its log is read."""
    probed, built = [], []
    fits, part = synthesize._fits, synthesize._part

    def counted(src_s, dst_s, m, b, *args):
        probed.append((src_s, dst_s, m, b))
        return fits(src_s, dst_s, m, b, *args)

    def counted_part(*args):
        built.append(args[:4])
        return part(*args)

    monkeypatch.setattr(synthesize, "_fits", counted)
    monkeypatch.setattr(synthesize, "_part", counted_part)
    for M, T in ((30, 60.0), (60, 60.0), (17, 177.31), (12, 12.0)):
        probed.clear()
        res = synthesize_link(LinkSpec(length_slots=M, period=T), tables, cfg)
        assert probed and len(probed) == len(set(probed)), (M, T)
        assert built == [], (M, T)
        by_key = {}
        for *key, b in probed:
            by_key.setdefault(tuple(key), []).append(b)
        for (_, _, m), bs in by_key.items():
            least = _min_buffers_for_gap(m, tables.K)
            assert bs == list(range(least, least + len(bs))), (M, T)
            assert not synthesize._past_floor(m, tables, T), (M, T, m)
    tuple(res.log)
    assert built  # reading the log builds the parts


@pytest.mark.parametrize("M, T, digest", [
    (100, 60.0, "3062eac64a12464db89770b4542bc37a0c3d45a2e8195dd609b621deaf4e0a07"),
    (1000, 60.0, "084578b3ff450de26c3bb1e32f7c8d82f4e453e83d74eec9060b818f1bf71202"),
    (5000, 60.0, "0108f791df258356926d323b443162d71aee983b12ecd8b4bc14a2a15e18c23a"),
    (100, 100.0, "e30d7f69abdc201702557c9f80bac2825255b1424f2209e98d85a66015ed6522"),
    (1000, 100.0, "54ec64f91fccad5eee5be19810345dceddad7803378345be132e7a6c2f5dcc66"),
    (5000, 100.0, "eb4ab3dec65a52a0ee210087ab47c67c43c52423efb2bc07776d90939e779543"),
])
def test_long_links_pinned(cfg, tables, M, T, digest):
    """Every field but the log of long links, whose scans meet sub-run lengths
    far past the delay floor's cut; pinned before the scan skipped them."""
    res = synthesize_link(LinkSpec(length_slots=M, period=T), tables, cfg)
    assert hashlib.sha256(repr(res[:-1]).encode()).hexdigest() == digest


def test_delay_floor_margin(cfg, tables):
    """At T = fl(delay_floor * (m + 1)) and one ulp either side, the floor cuts
    no m-slot sub-run, and a relative 2e-9 below that T it does.  In floats
    3 * (13.97 / 3) is above 13.97, the least 2-wire cell, which a 2-wire
    segment can delay exactly."""
    views = tables.views[LookupPurpose.SETUP_MAX]
    least = [min(row[n] for line in views for view in line for row in view.delay)
             for n in range(tables.K)]
    floor = tables.delay_floor
    assert floor == min(d / (n + 1) for n, d in enumerate(least)) == least[2] / 3
    assert least[2] == 13.97 and floor * 3 > 13.97
    for m in (2, 10, 99, 4999):
        T = floor * (m + 1)
        for period in (math.nextafter(T, 0.0), T, math.nextafter(T, math.inf)):
            assert not synthesize._past_floor(m, tables, period), (m, period)
        assert synthesize._past_floor(m, tables, T * (1.0 - 2e-9)), m


def test_failing_long_sub_run_stops_early(cfg, tables):
    """A 200-slot sub-run at T = 60 fails its setup pass: judged on a fresh
    TableSet, it makes fewer setup lookups than it has segments and no hold
    lookup, counted by the memo dicts' reads."""
    ts = TableSet(tables.views, tables.cfg_digest)  # the same tables, an empty memo
    reads = Counter()

    class Counted(dict):
        def get(self, key):
            reads[self.purpose] += 1
            return super().get(key)

    for purpose, rows in ts.memo.items():
        for row in rows:
            for j in range(len(row)):
                row[j] = Counted()
                row[j].purpose = purpose
    m, clk = 200, ClockSpec(period=60.0)
    b, limit = _min_buffers_for_gap(m, ts.K), max_clock_run(cfg, clk.period)
    assert not synthesize._fits(True, False, m, b, limit, clk, ts, cfg, {})
    assert 0 < reads[LookupPurpose.SETUP_MAX] < b + 1
    assert reads[LookupPurpose.HOLD_MIN] == 0
    assert not any(cell for row in ts.memo[LookupPurpose.HOLD_MIN] for cell in row)
    assert any(synthesize._part(True, False, m, b, 0, limit, clk, ts, cfg, {})[1:])


def test_synthesize_1000_slots(cfg, tables):
    """A 1,000-slot link at T = 60 returns a link is_valid accepts.  Its
    iteration count, exact, is past sys.maxsize, so len() of its log
    overflows rather than enumerate."""
    spec = LinkSpec(length_slots=1000, period=60.0)
    res = synthesize_link(spec, tables, cfg)
    assert res.valid and len(res.link) == 1002
    assert is_valid(res.link, spec, tables, cfg) == (True, [])
    assert res.iterations > sys.maxsize and res.log
    with pytest.raises(OverflowError):
        len(res.log)


def test_rank_counts_vectors_before():
    """_rank equals a brute-force count over every box up to 4 levels of
    widths 0..3, at every vector of the box."""
    for levels in range(1, 5):
        for widths in product(range(4), repeat=levels):
            box = sorted(product(*(range(w + 1) for w in widths)), key=lambda x: (sum(x), x))
            for rank, vector in enumerate(box):
                assert synthesize._rank(list(widths), list(vector)) == rank, (widths, vector)


@pytest.mark.parametrize("edits, first", [
    ((), {"SETUP", "COMB_GT_PERIOD"}),
    # every candidate, S R ... R S included, has SLEW_RANGE before path reasons
    ((("slew_legal_min = 4.0", "slew_legal_min = 2.0"),
      ("slew_legal_max = 40.0", "slew_legal_max = 3.0")), {"SLEW_RANGE"}),
    # every chain raises: the clock slew is above the table grid
    ((("cb_s0 = 2.0", "cb_s0 = 50.0"),), {"SlewOutOfRange:"}),
])
def test_exhausted_searches_match_reference(cfg, tables, edits, first):
    """Searches that try candidates and find none valid, which no corpus spec
    is, equal the reference field by field: lengths 1..12 at periods just
    above the clock floor, with and without jitter, under the default config
    and two edited ones.  The reasons are the last candidate's, S R ... R S."""
    text = serialize_tech_config(cfg)
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    other = load_tech_config(text) if edits else cfg
    ts = build_tables(other) if edits else tables
    kinds = set()
    for M in range(1, 13):
        for T in (9.51, 10.0, 12.0, 15.0):
            for jitter in (0.0, 1.0):
                spec = LinkSpec(length_slots=M, period=T, jitter=jitter)
                got = synthesize_link(spec, ts, other)
                want = reference_synthesize(spec, ts, other)
                assert not want.valid and want.iterations > 0, spec
                assert want.log[-1] == f"S{' R' * M} S -> {'; '.join(want.reasons)}"
                kinds.add(want.reasons[0].split(" ", 1)[0])
                for field in SynthesisResult._fields:
                    assert getattr(got, field) == getattr(want, field), (spec, field)
    assert kinds == first


def linear_max_clock_run(cfg, period):
    half = period / 2.0
    if clock_stage_delay(0, cfg, Corner.MAX) >= half:
        return None
    n = 0
    while clock_stage_delay(n + 1, cfg, Corner.MAX) < half:
        n += 1
    return n


def test_max_clock_run_equals_linear_scan(cfg):
    """Periods across 9.5..400, and each T = 2 * clock_stage_delay(n) exactly
    and one ulp either side, where the stage of n slots just stops fitting."""
    periods = [9.5 + (400.0 - 9.5) * i / 997 for i in range(998)]
    for n in range(30):
        edge = 2.0 * clock_stage_delay(n, cfg, Corner.MAX)
        periods += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    assert 2.0 * clock_stage_delay(29, cfg, Corner.MAX) > 400.0
    for T in periods:
        want = linear_max_clock_run(cfg, T)
        if want is None:
            with pytest.raises(ClockUnsatisfiable):
                max_clock_run(cfg, T)
        else:
            assert max_clock_run(cfg, T) == want, T


def edge_periods(cfg):
    """Each T = 2 * clock_stage_delay(n) and one ulp either side, n < 30,
    where a stage of n unbuffered slots just stops fitting; satisfiable only."""
    periods = []
    for n in range(30):
        edge = 2.0 * clock_stage_delay(n, cfg, Corner.MAX)
        periods += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    return [T for T in periods if T > 2.0 * clock_stage_delay(0, cfg, Corner.MAX)]


def bisected_max_clock_run(cfg, period):
    """max_clock_run by doubling past the answer and bisecting, over
    clock_stage_delay; None below the clock floor."""
    def fits(n):
        return clock_stage_delay(n, cfg, Corner.MAX) < period / 2.0

    if not fits(0):
        return None
    lo, hi = 0, 1
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


def assert_max_clock_run_bisected(cfg, periods):
    for T in periods:
        want = bisected_max_clock_run(cfg, T)
        if want is None:
            with pytest.raises(ClockUnsatisfiable):
                max_clock_run(cfg, T)
        else:
            assert max_clock_run(cfg, T) == want, T


@given(drawn=tech_configs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_max_clock_run_equals_bisection_under_random_configs(drawn, data):
    """The closed form equals doubling and bisection at each edge period and
    one ulp either side, one ulp below the clock floor, at random periods
    and at T = 1e6..1e15."""
    floor = 2.0 * clock_stage_delay(0, drawn, Corner.MAX)
    periods = [math.nextafter(floor, 0.0), *edge_periods(drawn)]
    periods += data.draw(st.lists(st.floats(floor / 2.0, 1e4 * floor), max_size=20),
                         label="periods")
    periods += [10.0 ** k for k in range(6, 16)]
    assert_max_clock_run_bisected(drawn, periods)


@pytest.mark.parametrize("period", [math.inf, -math.inf, math.nan])
def test_max_clock_run_refuses_non_finite_period(cfg, period):
    with pytest.raises(InvalidValue, match="period must be finite"):
        max_clock_run(cfg, period)


def test_max_clock_run_falls_back_when_the_root_is_off(cfg, monkeypatch):
    """Should rounding put the closed form's answer a slot or more off, the
    check at n and n + 1 fails and doubling and bisection find the answer."""
    periods = edge_periods(cfg) + [60.0, 177.31, 1e6, 1e15]
    guess = golden._clock_run_guess
    for off in (-1, 1, -10 ** 9, 10 ** 9):
        monkeypatch.setattr(golden, "_clock_run_guess",
                            lambda cfg, T: max(guess(cfg, T) + off, 0))
        assert_max_clock_run_bisected(cfg, periods)


def test_clock_check_flags_stages_past_max_clock_run(cfg):
    """At each edge period and one below the clock floor, over one link whose
    stages span token distances 30 down to 1 and back up: clock_check flags a
    stage exactly when its distance - 1 exceeds max_clock_run, every stage
    below the floor, and exactly the stages whose MAX delay reaches T/2."""
    distances = [*range(30, 0, -1), *range(1, 31)]
    link = parse_link("S " + " ".join("W " * (n - 1) + "B" for n in distances[:-1])
                      + " W" * (distances[-1] - 1) + " S")
    buffers = [0, *accumulate(distances)]
    stages = [f"tokens {a}..{b}" for a, b in zip(buffers, buffers[1:])]
    below = math.nextafter(2.0 * clock_stage_delay(0, cfg, Corner.MAX), 0.0)
    with pytest.raises(ClockUnsatisfiable):
        max_clock_run(cfg, below)
    for T in [below, *edge_periods(cfg)]:
        limit = -1 if T == below else max_clock_run(cfg, T)
        want = [s for s, n in zip(stages, distances) if n - 1 > limit]
        assert want == [s for s, n in zip(stages, distances)
                        if clock_stage_delay(n - 1, cfg, Corner.MAX) >= T / 2.0]
        assert [v.location for v in clock_check(link, cfg, ClockSpec(period=T))] == want, T
        if T == below:
            assert want == stages


def test_promoted_sub_runs_have_no_late_clock_stage(cfg, tables):
    """Every sub-run synthesis forms (either end S or R, up to 3 K slots,
    every buffer count), promoted at a satisfiable period, has every clock
    stage below T/2, so no candidate can fail clock_check."""
    periods = edge_periods(cfg)
    assert len(periods) == 88
    by_limit = {}
    for T in periods:
        by_limit.setdefault(max_clock_run(cfg, T), []).append(ClockSpec(period=T))
    keys = [(src_s, dst_s, m, b) for src_s in (False, True) for dst_s in (False, True)
            for m in range(3 * tables.K + 1) for b in range(m + 1)]
    for key in keys:
        run = LinkSentence(tuple(_sub_run_tokens(*key)))
        for limit, clocks in by_limit.items():
            promoted = _promote_clock_buffers(run, limit)
            for clk in clocks:
                assert clock_check(promoted, cfg, clk) == [], (key, clk.period)


def walked_sub_run(key, limit, cfg):
    """walk_link's steps and the NOMINAL clock-stage delays in token order
    over the promoted tokens of sub-run key, and its text after the source."""
    run = _promote_clock_buffers(LinkSentence(tuple(_sub_run_tokens(*key))), limit)
    steps, buffers = walk_link(run)
    delay_of = clock_stage_delays(buffers, cfg, Corner.NOMINAL)
    delays = [delay_of[j - i] for i, j in zip(buffers, buffers[1:])]
    return steps, delays, serialize_link(LinkSentence(run.tokens[1:]))


def walked_part(steps, delays, text, launch, clk, tables, cfg):
    """synthesize._part's tuple for walked steps, stage delays and text: the
    chains from the clock slew, then the path judged from token launch."""
    cs = hasta.clock_slew(cfg)
    stages, errors = [], []
    for purpose in (LookupPurpose.SETUP_MAX, LookupPurpose.HOLD_MIN):
        try:
            stages.append(hasta._chain(steps, tables, LookupMode.PESSIMISTIC, purpose, cs, cs))
            errors.append(None)
        except (SegmentTooLong, SlewOutOfRange) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
    if len(stages) < 2:
        return (" " + text, *errors, "", "")
    paths = hasta.flop_paths(steps, *stages, delays, cfg)
    _, slews, found = hasta.judge_paths(paths, clk, cfg.slew_legal_max, launch)
    return (" " + text, None, None,
            *("".join(f"; {v.kind.value} at {v.location}: {v.detail}" for v in reasons)
              for reasons in (slews, found)))


def test_sub_run_parts_equal_walked_tokens(cfg, tables):
    """Every sub-run synthesis forms (either end S or R, up to 3 K slots,
    every buffer count), at every limit of the edge periods, 0 included: the
    steps, stage delays (bit for bit) and text built from block positions
    equal walk_link's over the promoted tokens, and the part equals those
    tokens chained and judged, launched at token 0 under even limits and at
    token 7 under odd ones.  _fits gives the part's verdict."""
    clocks = {}  # each limit at its loosest edge period
    for T in edge_periods(cfg):
        clocks[max_clock_run(cfg, T)] = ClockSpec(period=T, jitter=0.5)
    assert sorted(clocks) == list(range(30))
    keys = [(src_s, dst_s, m, b) for src_s in (False, True) for dst_s in (False, True)
            for m in range(3 * tables.K + 1) for b in range(m + 1)]
    outcomes = Counter()
    for limit, clk in clocks.items():
        pieces = {}  # shared by the keys, as in one synthesize_link call
        for key in keys:
            steps, delays, text = walked_sub_run(key, limit, cfg)
            got = synthesize._sub_run_steps(*key, limit, cfg, pieces)
            assert got[0] == steps, (key, limit)
            assert [d.hex() for d in got[1]] == [d.hex() for d in delays], (key, limit)
            assert got[2] == text, (key, limit)
            launch = 7 * (limit % 2)
            part = synthesize._part(*key, launch, limit, clk, tables, cfg, pieces)
            assert part == walked_part(steps, delays, text, launch, clk, tables, cfg), \
                (key, limit)
            assert synthesize._fits(*key, limit, clk, tables, cfg, pieces) == \
                (not any(part[1:])), (key, limit)
            outcomes["raised" if part[1] or part[2] else "refused" if part[4] else "valid"] += 1
    assert len(outcomes) == 3 and sum(outcomes.values()) == len(clocks) * len(keys)


@given(drawn=tech_configs(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_fits_equals_part_verdict_under_random_configs(drawn, data):
    """Under random configs, at a random period above the clock floor and a
    random jitter, _fits gives the part's verdict for both end kinds at each
    drawn slot and buffer count."""
    ts = build_tables(drawn)
    floor = 2.0 * clock_stage_delay(0, drawn, Corner.MAX)
    T = floor * math.exp(data.draw(st.floats(1e-6, 3.4), label="log T / floor"))
    clk = ClockSpec(period=T, jitter=T * data.draw(st.floats(0.0, 0.5), label="jitter / T"))
    limit = max_clock_run(drawn, T)
    slots = st.one_of(st.integers(0, 16), st.integers(17, 48))  # mostly valid, mostly not
    sizes = slots.flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m)))
    pieces = {}
    for m, b in data.draw(st.lists(sizes, min_size=1, max_size=12), label="(m, b)"):
        for src_s, dst_s in product((False, True), repeat=2):
            part = synthesize._part(src_s, dst_s, m, b, 0, limit, clk, ts, drawn, pieces)
            assert synthesize._fits(src_s, dst_s, m, b, limit, clk, ts, drawn, pieces) == \
                (not any(part[1:])), (src_s, dst_s, m, b)


@given(drawn=tech_configs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_delay_floor_cuts_only_sub_runs_that_never_fit(drawn, data):
    """Under random configs, at a random period above the clock floor: at
    each of the 11 lengths from the first that the delay floor cuts, no
    buffer count fits, for either end kind, by trying them all."""
    ts = build_tables(drawn)
    clock_floor = 2.0 * clock_stage_delay(0, drawn, Corner.MAX)
    T = clock_floor * math.exp(data.draw(st.floats(1e-6, 3.4), label="log T / clock floor"))
    clk, limit = ClockSpec(period=T), max_clock_run(drawn, T)
    first = max(int(T / ts.delay_floor) - 2, 0)
    while not synthesize._past_floor(first, ts, T):
        first += 1
    assert first == 0 or not synthesize._past_floor(first - 1, ts, T)
    pieces = {}
    for m in range(first, first + 11):
        assert synthesize._past_floor(m, ts, T), m
        for src_s, dst_s in product((False, True), repeat=2):
            for b in range(m + 1):
                assert not synthesize._fits(src_s, dst_s, m, b, limit, clk, ts, drawn,
                                            pieces), (src_s, dst_s, m, b)


def test_assign_clock_subtypes_leaves_no_late_clock_stage(cfg):
    """Random B/R/S links, .cb tags and all, at the edge periods and random
    satisfiable ones."""
    rng = random.Random(11)
    floor = 2.0 * clock_stage_delay(0, cfg, Corner.MAX)
    periods = edge_periods(cfg) + [rng.uniform(floor, 400.0) for _ in range(40)]
    for _ in range(300):
        link = random_link(rng, rng.randint(1, 12), 0, 40, cb_prob=0.2)
        T = rng.choice(periods)
        spec = LinkSpec(length_slots=len(link) - 2, period=T)
        out = assign_clock_subtypes(link, spec, cfg)
        assert out.kinds() == link.kinds()
        assert clock_check(out, cfg, spec.clock) == [], (serialize_link(link), T)


def candidate_keys(M, K, count):
    """The sub-run keys of the first count candidates of the search, one list
    per candidate: (source is S, destination is S, slots, buffers)."""
    for _, sub_lens, budgets in islice(schedule(M, K), count):
        last = len(sub_lens) - 1
        yield [(j == 0, j == last, m, b) for j, (m, b) in enumerate(zip(sub_lens, budgets))]


def test_parts_built_once_per_register_count(cfg, tables, monkeypatch):
    """Reading the log makes one setup-chain evaluation and one part per
    distinct (register count, level, buffers) of the candidates tried; the
    log of a second identical call repeats them all, so nothing is kept
    between calls, and a sub-run that recurs under two register counts is
    built under each."""
    calls = Counter()
    chain, part = synthesize._chain, synthesize._part

    def counting_chain(steps, ts, mode, purpose, *args):
        calls[purpose] += 1
        return chain(steps, ts, mode, purpose, *args)

    def counting_part(*args):
        calls["part"] += 1
        return part(*args)

    monkeypatch.setattr(synthesize, "_chain", counting_chain)
    monkeypatch.setattr(synthesize, "_part", counting_part)
    rebuilt = 0
    # at 9 slots and T = 20 some sub-runs recur, at one launch token, under two r
    for M, T in ((30, 60.0), (20, 30.0), (9, 20.0)):
        spec, results, counts = LinkSpec(length_slots=M, period=T), [], []
        for _ in range(2):
            results.append(synthesize_link(spec, tables, cfg))
            calls.clear()
            tuple(results[-1].log)
            counts.append((calls[LookupPurpose.SETUP_MAX], calls["part"]))
        first = results[0]
        assert results[1] == first
        keys = set().union(*candidate_keys(M, tables.K, first.iterations))
        parts = {(len(reg_pos), j, b)
                 for reg_pos, _, budgets in islice(schedule(M, tables.K), first.iterations)
                 for j, b in enumerate(budgets)}
        assert first.valid and first.counts[2] >= 2 and first.iterations > len(parts)
        # no chain raised: every part has a path to judge
        assert not any("Error: " in line or "Range: " in line for line in first.log)
        assert counts == [(len(parts), len(parts))] * 2
        rebuilt += len(parts) > len(keys)
    assert rebuilt  # some sub-run recurs under two register counts


def test_analysis_and_synthesis_hash_no_enum_member(cfg, tables, monkeypatch):
    """BlockKind, Corner, LookupMode and LookupPurpose hash by identity, so
    reading the table views, the memo, the block parameters and the area
    costs never runs Enum's own __hash__.  Results are the unpatched ones."""
    specs = [LinkSpec(length_slots=m, period=t)
             for m, t in ((1, 60.0), (4, 60.0), (12, 90.0), (30, 90.0), (34, 50.0))]
    links = [parse_link(text) for text in ("S W W B W W R W W S", "S W W.cb W B W W S")]
    clk = ClockSpec(period=60.0, jitter=1.0)

    def run():
        return ([analyze_link(link, tables, cfg, clk, mode, entry, launch)
                 for link in links for mode in LookupMode
                 for entry in (0, len(link) - 1) for launch in (None, 4.0)],
                [synthesize_link(spec, tables, cfg) for spec in specs])

    def refuse(member):
        raise AssertionError(f"hashed {member!r}")

    expected = run()
    with monkeypatch.context() as patched:
        patched.setattr(enum.Enum, "__hash__", refuse)
        got = run()
    assert got == expected


def test_stage_delays_evaluated_once_per_distance(cfg, tables, monkeypatch):
    """Reading the log evaluates the NOMINAL clock-stage delay once per
    distinct stage distance of the sub-runs it builds and builds each wire
    count's segment piece once; so does the scan before it, and neither
    walks a link's tokens."""
    def no_walk(link):
        raise AssertionError("walk_link called")

    for module in (grammar, golden, hasta):
        monkeypatch.setattr(module, "walk_link", no_walk)
    calls, pieces = Counter(), Counter()
    segment = synthesize._segment

    def counted(n, cfg, corner):
        calls[n, corner] += 1
        return clock_stage_delay(n, cfg, corner)

    def counted_segment(n, *args):
        pieces[n] += 1
        return segment(n, *args)

    monkeypatch.setattr(synthesize, "clock_stage_delay", counted)
    monkeypatch.setattr(synthesize, "_segment", counted_segment)
    spec = LinkSpec(length_slots=30, period=60.0)
    res = synthesize_link(spec, tables, cfg)
    assert set(pieces.values()) == {1}
    calls.clear()
    pieces.clear()
    tuple(res.log)
    monkeypatch.undo()
    assert res.valid and res.counts[2] >= 2
    limit = max_clock_run(cfg, spec.period)
    keys = set().union(*candidate_keys(30, tables.K, res.iterations))
    distances, wires = set(), set()
    for key in keys:
        run = _promote_clock_buffers(LinkSentence(tuple(_sub_run_tokens(*key))), limit)
        steps, buffers = walk_link(run)
        distances.update(j - i for i, j in zip(buffers, buffers[1:]))
        wires.update(step[2] for step in steps)
    assert limit + 1 in distances and len(distances) > 1
    assert wires <= set(pieces) and max(wires) > limit
    assert set(pieces.values()) == {1}
    nominal = Counter({n + 1: count for (n, corner), count in calls.items()
                       if corner is Corner.NOMINAL})
    assert nominal == Counter(distances)


def test_synthesize_refuses_other_config(cfg, tables):
    """Tables built for one config refuse another before any candidate."""
    other = load_tech_config(
        serialize_tech_config(cfg).replace("pitch_r = 1.0", "pitch_r = 2.0"))
    with pytest.raises(TableMismatch):
        synthesize_link(LinkSpec(length_slots=12, period=60.0), tables, other)


def test_judged_slacks_equal_analyze_link(cfg, tables):
    """The winner's path checks, judged from path records rebuilt per sub-run
    from its block positions, equal analyze_link's on the whole link to the
    last bit."""
    spec = LinkSpec(length_slots=40, period=80.0, jitter=0.5)
    res = synthesize_link(spec, tables, cfg)
    assert res.valid and res.counts[2] >= 2
    *_, keys = candidate_keys(40, tables.K, res.iterations)
    limit = max_clock_run(cfg, spec.period)
    cs = hasta.clock_slew(cfg)
    pieces, texts, paths = {}, [], []
    for key in keys:
        steps, delays, text = synthesize._sub_run_steps(*key, limit, cfg, pieces)
        stages = [hasta._chain(steps, tables, LookupMode.PESSIMISTIC, purpose, cs, cs)
                  for purpose in (LookupPurpose.SETUP_MAX, LookupPurpose.HOLD_MIN)]
        texts.append(text)
        paths += hasta.flop_paths(steps, *stages, delays, cfg)
    assert "S " + " ".join(texts) == serialize_link(res.link)
    checks, slews, found = hasta.judge_paths(paths, spec.clock, cfg.slew_legal_max)
    report = analyze_link(res.link, tables, cfg, spec.clock)
    assert checks == list(map(tuple, report.paths))
    assert slews + found == list(report.violations) == []


def test_raising_sub_run_needs_no_analyze_link(cfg, tables, monkeypatch):
    """A candidate refused for a sub-run's chain error is judged from the
    record: the error text is analyze_link's, but analyze_link never runs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return analyze_link(*args, **kwargs)

    monkeypatch.setattr(synthesize, "analyze_link", counted)
    spec = LinkSpec(length_slots=17, period=177.31)
    res = synthesize_link(spec, tables, cfg)
    first = res.log[0].split(" -> ")
    assert first[1].startswith("SlewOutOfRange: ") and res.valid
    assert calls == []
    assert is_valid(parse_link(first[0]), spec, tables, cfg) == (False, [first[1]])
