import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_link
from gnoc.errors import GrammarError, LexError, SubtypeError
from gnoc.grammar import (LinkSentence, parse_link, segment_decompose, serialize_link,
                          walk_link)
from gnoc.techlib import ACTIVE_KINDS, BlockKind, SubtypeTag


def kinds_of(link):
    return " ".join(k.value for k in link.kinds())


def test_parse_listing_example():
    link = parse_link("S W W B W R W S")
    assert len(link) == 8
    assert kinds_of(link) == "S W W B W R W S"


def test_parse_cb_tag():
    link = parse_link("S W.cb W B S")
    assert link.tokens[1][1].clock_buffered
    assert not link.tokens[2][1].clock_buffered


def test_comments_and_whitespace():
    link = parse_link("S  W   W  S  # trailing comment\n")
    assert serialize_link(link) == "S W W S"


@pytest.mark.parametrize("text,exc,pos", [
    ("S S", GrammarError, 1),
    ("S", GrammarError, 0),
    ("W S", GrammarError, 0),
    ("S W", GrammarError, 1),
    ("", GrammarError, 0),
    ("# only a comment", GrammarError, 0),
    ("S Q S", LexError, 1),
    ("S W.x S", LexError, 1),
    ("S B.cb S", SubtypeError, 1),
    ("S W W S S", GrammarError, 4),
])
def test_rejection_with_position(text, exc, pos):
    with pytest.raises(exc) as err:
        parse_link(text)
    assert err.value.position == pos


def test_round_trip_preserves_cb():
    text = "S W.cb W B S"
    assert serialize_link(parse_link(text)) == text


def test_segment_decompose_example():
    segs = segment_decompose(parse_link("S W W B W R W W S"))
    shape = [(s.src_kind.value, s.dst_kind.value, s.n_wires) for s in segs]
    assert shape == [("S", "B", 2), ("B", "R", 1), ("R", "S", 2)]


def test_segment_decompose_zero_wires():
    segs = segment_decompose(parse_link("S B S"))
    assert [(s.n_wires) for s in segs] == [0, 0]


def test_segment_decompose_single_segment():
    segs = segment_decompose(parse_link("S W W W S"))
    assert len(segs) == 1
    assert segs[0].n_wires == 3


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_round_trip_random(seed, n):
    link = random_link(random.Random(seed), n, cb_prob=0.2)
    assert parse_link(serialize_link(link)) == link


def test_round_trip_thousand_random_sentences():
    rng = random.Random(99)
    for _ in range(1000):
        link = random_link(rng, rng.randint(1, 30), cb_prob=0.15)
        assert parse_link(serialize_link(link)) == link


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_segment_coverage(seed, n):
    link = random_link(random.Random(seed), n)
    segs = segment_decompose(link)
    # adjacent segments share endpoints and wires sum to the W count
    for a, b in zip(segs, segs[1:]):
        assert a.dst_index == b.src_index
    kinds = link.kinds()
    actives = sum(k is not BlockKind.W for k in kinds)
    assert len(segs) == actives - 1
    assert sum(s.n_wires for s in segs) == sum(k is BlockKind.W for k in kinds)
    # reconstruction: walking the segments reproduces the token sequence
    rebuilt = [segs[0].src_kind]
    for s in segs:
        rebuilt.extend([BlockKind.W] * s.n_wires)
        rebuilt.append(s.dst_kind)
    assert tuple(rebuilt) == kinds


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       cb_prob=st.sampled_from([0.0, 0.3, 0.8]))
@settings(max_examples=200, deadline=None)
def test_walk_link_steps_and_buffers(seed, n, cb_prob):
    """Zero-wire segments and runs of W.cb: the buffers are the active and
    W.cb tokens, the steps are the segments, and each step's buffer index
    points at its destination token."""
    link = random_link(random.Random(seed), n, w_lo=0, w_hi=6, cb_prob=cb_prob)
    steps, buffers = walk_link(link)
    assert buffers == [i for i, (kind, sub) in enumerate(link.tokens)
                       if kind is not BlockKind.W or sub.clock_buffered]
    actives = [i for i, (kind, _) in enumerate(link.tokens) if kind is not BlockKind.W]
    segments = segment_decompose(link)
    assert [(s.src_index, s.dst_index) for s in segments] == list(zip(actives, actives[1:]))
    assert len(steps) == len(segments)
    for (src, dst, n_wires, sequential, at, dst_buffer), seg in zip(steps, segments):
        assert (ACTIVE_KINDS[src], ACTIVE_KINDS[dst], n_wires, at, at + n_wires + 1) \
            == seg
        assert sequential == (seg.src_kind is not BlockKind.B)
        assert buffers[dst_buffer] == seg.dst_index
    # the same from sub-types built apart from the shared DEFAULT_SUBTYPE and CB_SUBTYPE
    fresh = LinkSentence(tuple((kind, SubtypeTag(sub.clock_buffered))
                               for kind, sub in link.tokens))
    assert walk_link(fresh) == (steps, buffers)
