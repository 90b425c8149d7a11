import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnoc.errors import ClockUnsatisfiable, GnocError
from gnoc.grammar import parse_link, serialize_link
from gnoc.synthesize import (LinkSpec, _min_buffers_for_gap,
                             assign_clock_subtypes, insert_evenly, is_valid,
                             link_cost, max_clock_run, synthesize_link)
from gnoc.techlib import BlockKind


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


def test_max_clock_run_monotone_in_period(cfg):
    runs = [max_clock_run(cfg, T) for T in (15.0, 40.0, 100.0, 400.0)]
    assert runs == sorted(runs)
    assert runs[0] >= 0


def test_max_clock_run_unsatisfiable(cfg):
    # a zero-slot clock stage costs 4.752 at the slow corner
    with pytest.raises(ClockUnsatisfiable):
        max_clock_run(cfg, 9.5)
    assert max_clock_run(cfg, 9.6) == 0


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
