import hashlib
import io
import math
import random
from itertools import product

import pytest

from conftest import ACTIVE
from gnoc.characterize import (LookupMode, LookupPurpose, build_tables,
                               load_tables, reconstruct_lookup, save_tables,
                               slew_grid, table_lookup, tables_equal,
                               validate_tables)
from gnoc.errors import (CornerOrderError, DigestMismatch, FormatError,
                         MonotonicityError, NotOnGrid, SegmentTooLong,
                         SlewOutOfRange)
from gnoc.golden import Corner, golden_segment
from gnoc.techlib import BlockKind, load_tech_config, serialize_tech_config, with_slew_grid

# sha256 and size of save_tables(build_tables(cfg)) per slew grid size L
TABLE_FILE_SHA256 = {
    10: ("8b43881030cd9328974deb978065e69a9f9a4d401eefc2d604981690786375dc", 60747),
    20: ("3ecb1f4ead7e2d9d940a2537afca3691ca60859d1aab6cb80583567f7acc963d", 188483),
}


def small_cfg(cfg, K=1, L=2):
    text = serialize_tech_config(cfg).replace(f"K = {cfg.K}", f"K = {K}") \
                                     .replace(f"L = {cfg.L}", f"L = {L}")
    return load_tech_config(text)


def test_build_default_dimensions(cfg, tables):
    assert len(tables.tables) == 9
    assert tables.cell_count == 900
    for t in tables.tables.values():
        assert t.delay[Corner.MAX].shape == (10, 10)


def test_build_degenerate_dimensions(cfg):
    ts = build_tables(small_cfg(cfg))
    assert ts.cell_count == 18


def test_known_cell_value(tables):
    t = tables.tables[(BlockKind.B, BlockKind.B)]
    assert t.delay[Corner.MAX][0, 2] == pytest.approx(13.97, rel=1e-12)


def test_build_deterministic(cfg):
    a = build_tables(cfg)
    b = build_tables(cfg)
    assert tables_equal(a, b)  # bit-identical


def test_save_load_round_trip(cfg, tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    buf.seek(0)
    again = load_tables(buf)
    assert again.cfg_digest == tables.cfg_digest
    assert tables_equal(tables, again, rtol=1e-11)
    # a second write of the loaded set is byte-identical
    buf2 = io.StringIO()
    save_tables(again, buf2)
    buf3 = io.StringIO()
    buf2.seek(0)
    save_tables(load_tables(io.StringIO(buf2.getvalue())), buf3)
    assert buf2.getvalue() == buf3.getvalue()


@pytest.mark.parametrize("L", sorted(TABLE_FILE_SHA256))
def test_table_file_bytes_pinned(cfg, L):
    buf = io.StringIO()
    save_tables(build_tables(with_slew_grid(cfg, L)), buf)
    data = buf.getvalue().encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == TABLE_FILE_SHA256[L]


def test_tables_equal_tolerance(tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    other = load_tables(io.StringIO(buf.getvalue()))
    cells = other.tables[(BlockKind.B, BlockKind.R)].delay[Corner.MAX].cells
    cells[3][4] *= 1.0 + 1e-12
    assert tables_equal(tables, other, rtol=1e-11)
    assert not tables_equal(tables, other)
    cells[3][4] = math.nan
    assert not tables_equal(other, other, rtol=1e-11)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["slew_in", "delay", "slew_out"])
def test_non_finite_record_rejected(tables, column, value):
    buf = io.StringIO()
    save_tables(tables, buf)
    lines = buf.getvalue().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("B,B,max,3,4,"):
            parts = line.split(",")
            parts[5 + ("slew_in", "delay", "slew_out").index(column)] = value
            lines[i] = ",".join(parts)
            break
    with pytest.raises(FormatError) as err:
        load_tables(io.StringIO("\n".join(lines) + "\n"))
    assert "non-finite" in str(err.value) and repr(parts) in str(err.value)


def test_digest_mismatch(tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    buf.seek(0)
    with pytest.raises(DigestMismatch):
        load_tables(buf, expect_digest="deadbeef")


def test_corner_order_error_names_cell(cfg, tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    lines = buf.getvalue().splitlines()
    # find a MAX record and shrink it below the matching MIN value
    for i, line in enumerate(lines):
        if line.startswith("B,B,max,3,4,"):
            parts = line.split(",")
            parts[6] = "0.001"
            lines[i] = ",".join(parts)
            break
    with pytest.raises(CornerOrderError) as err:
        load_tables(io.StringIO("\n".join(lines) + "\n"))
    assert "row 3" in str(err.value) and "col 4" in str(err.value)


def test_monotonicity_error(cfg, tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    lines = buf.getvalue().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("B,B,max,3,4,"):
            parts = line.split(",")
            parts[6] = "1e6"  # way above the row-4 neighbour, keeps corner order
            lines[i] = ",".join(parts)
            break
    with pytest.raises(MonotonicityError):
        load_tables(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("L", [2, 10, 37])
def test_built_tables_pass_validation(cfg, L):
    """Oracle-built tables are monotone in slew, which PESSIMISTIC lookups rely on."""
    validate_tables(build_tables(with_slew_grid(cfg, L)))


def test_version_gate(tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    text = buf.getvalue().replace("HASTA-TABLES v1", "HASTA-TABLES v2", 1)
    with pytest.raises(FormatError):
        load_tables(io.StringIO(text))


def test_not_a_table_file():
    with pytest.raises(FormatError):
        load_tables(io.StringIO("hello world\n"))


def test_lookup_exact_cell(tables):
    res = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 4.0,
                       LookupMode.EXACT, LookupPurpose.SETUP_MAX)
    assert res.delay == pytest.approx(13.97, rel=1e-12)


def test_lookup_exact_off_grid_rejected(tables):
    with pytest.raises(NotOnGrid):
        table_lookup(tables, BlockKind.B, BlockKind.B, 2, 6.0,
                     LookupMode.EXACT, LookupPurpose.SETUP_MAX)


def test_lookup_interpolate_midpoint(cfg, tables):
    res = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 6.0,
                       LookupMode.INTERPOLATE, LookupPurpose.SETUP_MAX)
    lo = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 4.0,
                      LookupMode.EXACT, LookupPurpose.SETUP_MAX)
    hi = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 8.0,
                      LookupMode.EXACT, LookupPurpose.SETUP_MAX)
    assert res.delay == pytest.approx((lo.delay + hi.delay) / 2, rel=1e-12)
    # golden delay is linear in slew, so interpolation is exact
    g = golden_segment(BlockKind.B, BlockKind.B, 2, 6.0, Corner.MAX, cfg)
    assert res.delay == pytest.approx(g.delay, rel=1e-9)
    assert min(lo.slew_out, hi.slew_out) <= res.slew_out <= max(lo.slew_out, hi.slew_out)


def test_lookup_pessimistic_brackets(cfg, tables):
    up = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 6.0,
                      LookupMode.PESSIMISTIC, LookupPurpose.SETUP_MAX)
    down = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 6.0,
                        LookupMode.PESSIMISTIC, LookupPurpose.HOLD_MIN)
    g_max = golden_segment(BlockKind.B, BlockKind.B, 2, 6.0, Corner.MAX, cfg)
    g_min = golden_segment(BlockKind.B, BlockKind.B, 2, 6.0, Corner.MIN, cfg)
    assert up.delay >= g_max.delay
    assert down.delay <= g_min.delay


def test_lookup_segment_too_long(tables):
    with pytest.raises(SegmentTooLong):
        table_lookup(tables, BlockKind.B, BlockKind.B, 10, 4.0,
                     LookupMode.EXACT, LookupPurpose.SETUP_MAX)


@pytest.mark.parametrize("slew", [41.0, math.nan])
def test_lookup_slew_above_grid(tables, slew):
    with pytest.raises(SlewOutOfRange):
        table_lookup(tables, BlockKind.B, BlockKind.B, 2, slew,
                     LookupMode.INTERPOLATE, LookupPurpose.SETUP_MAX)


def test_lookup_below_grid_clamps_with_flag(tables):
    res = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 1.0,
                       LookupMode.INTERPOLATE, LookupPurpose.SETUP_MAX)
    at_min = table_lookup(tables, BlockKind.B, BlockKind.B, 2, 4.0,
                          LookupMode.EXACT, LookupPurpose.SETUP_MAX)
    assert res.clamped
    assert not at_min.clamped
    assert res.delay == at_min.delay


def test_exact_grid_equivalence_all_cells(cfg, tables):
    """Every stored corner cell equals a fresh oracle evaluation to 1e-12."""
    rows = slew_grid(cfg)
    for (src, dst), table in tables.tables.items():
        for (i, s), n in product(enumerate(rows), range(cfg.K)):
            for corner, purpose in ((Corner.MIN, LookupPurpose.HOLD_MIN),
                                    (Corner.MAX, LookupPurpose.SETUP_MAX)):
                got = table_lookup(tables, src, dst, n, float(s),
                                   LookupMode.EXACT, purpose)
                ref = golden_segment(src, dst, n, float(s), corner, cfg)
                assert got.delay == pytest.approx(ref.delay, rel=1e-12)
                assert got.slew_out == pytest.approx(ref.slew_out, rel=1e-12)


def test_pessimism_property(cfg, tables):
    rng = random.Random(5)
    for _ in range(300):
        src, dst = rng.choice(ACTIVE), rng.choice(ACTIVE)
        n = rng.randrange(cfg.K)
        s = rng.uniform(cfg.slew_grid_min, cfg.slew_grid_max)
        up = table_lookup(tables, src, dst, n, s, LookupMode.PESSIMISTIC,
                          LookupPurpose.SETUP_MAX)
        down = table_lookup(tables, src, dst, n, s, LookupMode.PESSIMISTIC,
                            LookupPurpose.HOLD_MIN)
        assert up.delay >= golden_segment(src, dst, n, s, Corner.MAX, cfg).delay - 1e-12
        assert down.delay <= golden_segment(src, dst, n, s, Corner.MIN, cfg).delay + 1e-12


def test_interpolation_exact_for_delay(cfg, tables):
    rng = random.Random(6)
    for _ in range(300):
        src, dst = rng.choice(ACTIVE), rng.choice(ACTIVE)
        n = rng.randrange(cfg.K)
        s = rng.uniform(cfg.slew_grid_min, cfg.slew_grid_max)
        res = table_lookup(tables, src, dst, n, s, LookupMode.INTERPOLATE,
                           LookupPurpose.SETUP_MAX)
        ref = golden_segment(src, dst, n, s, Corner.MAX, cfg)
        assert res.delay == pytest.approx(ref.delay, rel=1e-9)


def test_reconstruct_lookup_is_golden_exact(cfg, tables):
    rng = random.Random(8)
    for _ in range(300):
        src, dst = rng.choice(ACTIVE), rng.choice(ACTIVE)
        n = rng.randrange(cfg.K)
        s = rng.uniform(cfg.slew_grid_min, cfg.slew_grid_max)
        for purpose, corner in ((LookupPurpose.SETUP_MAX, Corner.MAX),
                                (LookupPurpose.HOLD_MIN, Corner.MIN)):
            res = reconstruct_lookup(tables, src, dst, n, s, purpose)
            ref = golden_segment(src, dst, n, s, corner, cfg)
            assert res.delay == pytest.approx(ref.delay, rel=1e-12)
            assert res.slew_out == pytest.approx(ref.slew_out, rel=1e-12)


def test_finer_grid_shrinks_slew_interp_error(cfg):
    cfg20 = with_slew_grid(cfg, 20)
    ts10 = build_tables(cfg)
    ts20 = build_tables(cfg20)
    s = 10.0
    g = golden_segment(BlockKind.B, BlockKind.B, 5, s, Corner.MAX, cfg)
    e10 = abs(table_lookup(ts10, BlockKind.B, BlockKind.B, 5, s,
                           LookupMode.INTERPOLATE, LookupPurpose.SETUP_MAX).slew_out
              - g.slew_out)
    e20 = abs(table_lookup(ts20, BlockKind.B, BlockKind.B, 5, s,
                           LookupMode.INTERPOLATE, LookupPurpose.SETUP_MAX).slew_out
              - g.slew_out)
    assert e20 < e10
