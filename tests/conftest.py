import math
import random
from itertools import chain, product

import pytest
from hypothesis import strategies as st

from gnoc.characterize import PAIRS, LookupPurpose, TableSet, build_tables, table_view
from gnoc.grammar import LinkSentence
from gnoc.techlib import (CB_SUBTYPE, DEFAULT_SUBTYPE, BlockKind, TechConfig,
                          _validate, default_tech_config, load_tech_config,
                          serialize_tech_config)

ACTIVE = [BlockKind.B, BlockKind.R, BlockKind.S]


@pytest.fixture(scope="session")
def cfg():
    return default_tech_config()


@pytest.fixture(scope="session")
def tables(cfg):
    return build_tables(cfg)


def with_slew_grid(cfg: TechConfig, L: int) -> TechConfig:
    """Same technology with a finer/coarser characterization slew grid."""
    out = cfg._replace(L=L)
    _validate(out)
    return out


def tables_equal(a: TableSet, b: TableSet, rtol: float = 0.0) -> bool:
    """Structural comparison; rtol > 0 tolerates file-precision rounding."""
    if (a.cfg_digest, a.K, a.L) != (b.cfg_digest, b.K, b.L):
        return False
    for pair, purpose in product(PAIRS, LookupPurpose):
        va, vb = table_view(a, *pair, purpose), table_view(b, *pair, purpose)
        if not _allclose(chain(va.rows, *va.delay, *va.slew_out),
                         chain(vb.rows, *vb.delay, *vb.slew_out), rtol):
            return False
    return True


def _allclose(xs, ys, rtol: float) -> bool:
    """|x - y| <= rtol * |y| for every pair (asymmetric: relative to ys).

    Equal infinities are close; any other pair with a non-finite value,
    NaN included, is not.
    """
    return all(x == y or (math.isfinite(y) and abs(x - y) <= rtol * abs(y))
               for x, y in zip(xs, ys, strict=True))


def random_link(rng: random.Random, n_segments: int,
                w_lo: int = 0, w_hi: int = 5, cb_prob: float = 0.0) -> LinkSentence:
    """A random valid sentence with the given segment count."""
    tokens = [(BlockKind.S, DEFAULT_SUBTYPE)]
    for i in range(n_segments):
        last = i == n_segments - 1
        kind = BlockKind.S if last else rng.choice(ACTIVE)
        lo = w_lo
        if kind is BlockKind.S and tokens[-1][0] is BlockKind.S:
            lo = max(lo, 1)  # no adjacent S
        for _ in range(rng.randint(lo, w_hi)):
            sub = CB_SUBTYPE if rng.random() < cb_prob else DEFAULT_SUBTYPE
            tokens.append((BlockKind.W, sub))
        tokens.append((kind, DEFAULT_SUBTYPE))
    return LinkSentence(tuple(tokens))


def corpus(seed: int, count: int, seg_lo: int = 1, seg_hi: int = 50,
           w_lo: int = 0, w_hi: int = 5):
    rng = random.Random(seed)
    return [random_link(rng, rng.randint(seg_lo, seg_hi), w_lo, w_hi)
            for _ in range(count)]


# keys tech_configs draws itself rather than scaling the default's value
_DRAWN_KEYS = ("K", "L", "derate_min", "derate_max", "slew_grid_min", "slew_grid_max",
               "slew_legal_min", "slew_legal_max")


@st.composite
def tech_configs(draw):
    """A valid tech config around the default: each positive parameter scaled
    by exp(U(-1, 1)), K in 4..16, L in 3..12, both derates 0.1 e^U(-1, 1) from
    1, a slew grid scaled from the default's or narrow enough that chained
    slews leave it, and a slew legality range that is the grid's, scaled
    from the default's, or low enough that many output slews break it."""
    def scaled(x):
        return x * math.exp(draw(st.floats(-1.0, 1.0)))

    lines = [f"K = {draw(st.integers(4, 16))}", f"L = {draw(st.integers(3, 12))}",
             f"derate_min = {1.0 - scaled(0.1)!r}", f"derate_max = {1.0 + scaled(0.1)!r}"]
    low = scaled(4.0)
    high = low * math.exp(draw(st.floats(0.5, 1.5))) if draw(st.booleans()) else scaled(40.0)
    lines += [f"slew_grid_min = {low!r}", f"slew_grid_max = {high!r}"]
    legal = draw(st.sampled_from(["grid", "scaled", "low"]))
    if legal == "scaled":
        lines += [f"slew_legal_min = {scaled(4.0)!r}", f"slew_legal_max = {scaled(40.0)!r}"]
    elif legal == "low":
        top = scaled(12.0)
        lines += [f"slew_legal_min = {top / 4.0!r}", f"slew_legal_max = {top!r}"]
    for line in serialize_tech_config(default_tech_config()).splitlines():
        key, eq, value = line.partition(" = ")
        if key not in _DRAWN_KEYS:
            lines.append(f"{key} = {scaled(float(value))!r}" if eq and float(value) > 0.0
                         else line)
    return load_tech_config("\n".join(lines))
