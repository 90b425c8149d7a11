import math

import pytest

from gnoc.dse import (Candidate, dse_loop, evaluate_candidate,
                      parse_candidates, random_candidates)
from gnoc.errors import GnocError, NoValidCandidate, ParseError
from gnoc.synthesize import LinkSpec, is_valid, synthesize_link


def cand(name, island_costs, links):
    islands = tuple((f"i{j}", c) for j, c in enumerate(island_costs))
    return Candidate(name, islands, tuple(links))


def test_evaluate_example(cfg, tables):
    c = cand("a", [100.0, 200.0], [LinkSpec(length_slots=2, period=100.0)])
    ev = evaluate_candidate(c, tables, cfg)
    assert ev.valid
    assert ev.island_cost == 300.0
    assert ev.link_costs == (("link", 42.0),)
    assert ev.cost == 342.0


def test_evaluate_long_link(cfg, tables):
    """A candidate holding one 100-slot link at T = 60, whose enumeration
    would try over 10^9 candidates, is costed by the register-count scan;
    the link it costs passes is_valid."""
    spec = LinkSpec(length_slots=100, period=60.0)
    ev = evaluate_candidate(cand("a", [10.0], [spec]), tables, cfg)
    res = synthesize_link(spec, tables, cfg)
    assert ev.valid and ev.link_costs == (("link", res.cost),) and ev.cost == 10.0 + res.cost
    assert res.valid and len(res.link) == 102 and res.iterations > 10 ** 9
    assert is_valid(res.link, spec, tables, cfg) == (True, [])


def test_evaluate_no_links(cfg, tables):
    ev = evaluate_candidate(cand("a", [50.0], []), tables, cfg)
    assert ev.valid and ev.cost == 50.0


def test_evaluate_invalid_link(cfg, tables):
    c = cand("a", [100.0], [LinkSpec(length_slots=5, period=9.0)])
    ev = evaluate_candidate(c, tables, cfg)
    assert not ev.valid
    assert ev.cost == math.inf
    assert ev.reasons


def test_candidate_validation():
    with pytest.raises(GnocError):
        Candidate("a", (("i0", -1.0),), ())
    with pytest.raises(GnocError):
        Candidate("a", (), (LinkSpec(length_slots=2, period=10.0, name="x"),
                            LinkSpec(length_slots=3, period=10.0, name="x")))


@pytest.mark.parametrize("cost, message", [
    (-1.0, "negative"), (-math.inf, "negative"),
    (math.nan, "non-finite"), (math.inf, "non-finite"),
])
def test_candidate_refuses_island_cost(cost, message):
    """The constructor refuses every island cost that parse_candidates does."""
    with pytest.raises(GnocError, match=f"island 'i0' has {message} cost"):
        Candidate("a", (("core", 1.0), ("i0", cost)),
                  (LinkSpec(length_slots=2, period=10.0),))
    assert Candidate("a", (("i0", 0.0),), ()).islands == (("i0", 0.0),)


def test_loop_keeps_strictly_cheapest(cfg, tables):
    cs = [cand("a", [300.0], [LinkSpec(length_slots=2, period=100.0)]),   # 342
          cand("b", [300.0], [LinkSpec(length_slots=2, period=100.0)]),   # 342
          cand("c", [258.0], [LinkSpec(length_slots=2, period=100.0)])]   # 300
    res = dse_loop(cs, tables, cfg)
    assert res.best_name == "c"
    assert res.best_cost == 300.0
    assert res.evaluated == 3
    # ties keep the earlier candidate
    res2 = dse_loop(cs[:2], tables, cfg)
    assert res2.best_name == "a"


def test_loop_skips_invalid(cfg, tables):
    cs = [cand("bad", [10.0], [LinkSpec(length_slots=5, period=9.0)]),
          cand("ok", [10.0], [LinkSpec(length_slots=2, period=100.0)])]
    res = dse_loop(cs, tables, cfg)
    assert res.best_name == "ok"
    assert not res.ledger[0].valid


def test_loop_empty_stream(cfg, tables):
    with pytest.raises(NoValidCandidate):
        dse_loop([], tables, cfg)


def test_loop_all_invalid(cfg, tables):
    cs = [cand("bad", [10.0], [LinkSpec(length_slots=5, period=9.0)])]
    with pytest.raises(NoValidCandidate):
        dse_loop(cs, tables, cfg)


def test_best_cost_permutation_invariant(cfg, tables):
    cs = random_candidates(seed=7, count=8, length_range=(2, 12))
    fwd = dse_loop(cs, tables, cfg)
    rev = dse_loop(list(reversed(cs)), tables, cfg)
    assert fwd.best_cost == rev.best_cost


def test_parse_candidates_round_trip():
    text = """
    # chip floorplan sweep
    candidate a
      island core 100
      island mem 200
      link north 2 100
      link south 4 80 5
    end
    candidate b
      island core 90
    end
    """
    out = parse_candidates(text)
    assert [c.name for c in out] == ["a", "b"]
    assert out[0].islands == (("core", 100.0), ("mem", 200.0))
    north, south = out[0].links
    assert (north.name, north.length_slots, north.period, north.jitter) == \
        ("north", 2, 100.0, 0.0)
    assert south.jitter == 5.0
    assert out[1].links == ()


@pytest.mark.parametrize("text", [
    "island core 100\n",
    "candidate a\nisland core\nend\n",
    "candidate a\nlink l 2 ten\nend\n",
    "candidate a\nlink l 2.7 100\nend\n",
    "candidate a\nlink l nan 100\nend\n",
    "candidate a\nlink l inf 100\nend\n",
    "candidate a\nlink l -inf 100\nend\n",
    "candidate a\nisland i nan\nend\n",
    "candidate a\nisland i inf\nend\n",
    "candidate a\nisland i -1\nend\n",
    "candidate a\ncandidate b\nend\n",
    "candidate a\nisland core 100\n",
    "candidate a\nbogus 1\nend\n",
])
def test_parse_candidates_rejects(text):
    with pytest.raises(ParseError):
        parse_candidates(text)


@pytest.mark.parametrize("link, message", [
    ("link l 0 100", "length_slots must be an int >= 1, got 0"),
    ("link l -2 100", "length_slots must be an int >= 1, got -2"),
    ("link l 5 10 10", "clock requires period > jitter >= 0, got T=10.0 jitter=10.0"),
    ("link l 5 0", "clock requires period > jitter >= 0, got T=0.0 jitter=0.0"),
    ("link l 5 100 -1", "clock requires period > jitter >= 0, got T=100.0 jitter=-1.0"),
    ("link l 5 nan", "clock requires period > jitter >= 0, got T=nan jitter=0.0"),
    ("link l 5 100 nan", "clock requires period > jitter >= 0, got T=100.0 jitter=nan"),
    ("link l 5 inf", "clock period must be finite, got T=inf"),
])
def test_parse_candidates_names_the_line_of_a_refused_link(link, message):
    """A link whose spec LinkSpec or ClockSpec refuses is a ParseError that
    names its line, like every other refusal of the format."""
    text = f"candidate a\n  island core 1\n  {link}\nend\n"
    with pytest.raises(ParseError) as caught:
        parse_candidates(text)
    assert str(caught.value) == f"line 3: {message}"


def test_random_candidates_seeded():
    a = random_candidates(seed=3, count=5)
    b = random_candidates(seed=3, count=5)
    assert a == b
    assert a != random_candidates(seed=4, count=5)
