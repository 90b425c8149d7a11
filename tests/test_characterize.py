import hashlib
import io
import math
import random
from bisect import bisect_left
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ACTIVE, tables_equal, tech_configs, with_slew_grid
from gnoc.characterize import (LookupMode, LookupPurpose, TableView, build_tables,
                               load_tables, reconstruct_lookup, save_tables,
                               slew_grid, table_lookup, table_view, validate_tables)
from gnoc.cli import main
from gnoc.errors import (CornerOrderError, DigestMismatch, FormatError,
                         MonotonicityError, NotOnGrid, SegmentTooLong,
                         SlewOutOfRange, TableMismatch)
from gnoc.golden import Corner, golden_segment
from gnoc.grammar import parse_link
from gnoc.hasta import analyze_path
from gnoc.techlib import BlockKind, load_tech_config, serialize_tech_config

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
    assert tables.cell_count == 900
    for (src, dst), purpose in product(product(ACTIVE, ACTIVE), LookupPurpose):
        view = table_view(tables, src, dst, purpose)
        assert (len(view.delay), len(view.delay[0])) == (10, 10)


def test_build_degenerate_dimensions(cfg):
    ts = build_tables(small_cfg(cfg))
    assert ts.cell_count == 18


def test_known_cell_value(tables):
    view = table_view(tables, BlockKind.B, BlockKind.B, LookupPurpose.SETUP_MAX)
    assert view.delay[0][2] == pytest.approx(13.97, rel=1e-12)


def test_build_deterministic(cfg):
    a = build_tables(cfg)
    b = build_tables(cfg)
    assert tables_equal(a, b)  # bit-identical


def test_save_load_round_trip(cfg, tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    buf.seek(0)
    again = load_tables(buf, cfg)
    assert again.cfg_digest == tables.cfg_digest
    assert tables_equal(tables, again, rtol=1e-11)
    # a second write of the loaded set is byte-identical
    buf2 = io.StringIO()
    save_tables(again, buf2)
    buf3 = io.StringIO()
    buf2.seek(0)
    save_tables(load_tables(io.StringIO(buf2.getvalue()), cfg), buf3)
    assert buf2.getvalue() == buf3.getvalue()


@given(drawn=tech_configs())
@settings(max_examples=20, deadline=None)
def test_random_config_tables_round_trip(drawn):
    """Under random configs, tables written and read back on their config's
    grid equal the built ones to file precision, and write the same bytes."""
    tables = build_tables(drawn)
    buf = io.StringIO()
    save_tables(tables, buf)
    again = load_tables(io.StringIO(buf.getvalue()), drawn)
    assert again.cfg_digest == tables.cfg_digest == drawn.digest()
    assert tables_equal(tables, again, rtol=1e-11)
    buf2 = io.StringIO()
    save_tables(again, buf2)
    assert buf2.getvalue() == buf.getvalue()


@pytest.mark.parametrize("L", sorted(TABLE_FILE_SHA256))
def test_table_file_bytes_pinned(cfg, L):
    buf = io.StringIO()
    save_tables(build_tables(with_slew_grid(cfg, L)), buf)
    data = buf.getvalue().encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == TABLE_FILE_SHA256[L]


def test_tables_equal_tolerance(cfg, tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    other = load_tables(io.StringIO(buf.getvalue()), cfg)
    cells = table_view(other, BlockKind.B, BlockKind.R, LookupPurpose.SETUP_MAX).delay
    cells[3][4] *= 1.0 + 1e-12
    assert tables_equal(tables, other, rtol=1e-11)
    assert not tables_equal(tables, other)
    cells[3][4] = math.nan
    assert not tables_equal(other, other, rtol=1e-11)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["slew_in", "delay", "slew_out"])
def test_non_finite_record_rejected(cfg, tables, column, value):
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
        load_tables(io.StringIO("\n".join(lines) + "\n"), cfg)
    assert type(err.value) is FormatError
    assert str(err.value) == f"non-finite value in table record {parts!r}"


def _saved_lines(tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    return buf.getvalue().splitlines()


# stray record inserted after the B,B,max row 3 col 4 record
STRAY = ("duplicate", "nominal", "passive")


@pytest.mark.parametrize("stray", STRAY)
def test_stray_record_rejected(cfg, tables, tmp_path, capsys, stray):
    """A second record for a cell, even with another value, a record at a
    corner the tables do not hold and a record of a passive kind's table are
    refused where the next cell's record belongs, naming that cell and the
    record."""
    lines = _saved_lines(tables)
    i = next(i for i, line in enumerate(lines) if line.startswith("B,B,max,3,4,"))
    parts = lines[i].split(",")
    if stray == "duplicate":
        parts[6] = repr(float(parts[6]) * (1.0 + 1e-7))
    elif stray == "nominal":
        parts[2] = "nominal"
    else:
        parts[0] = "W"
    lines.insert(i + 1, ",".join(parts))
    text = "\n".join(lines) + "\n"
    with pytest.raises(FormatError) as err:
        load_tables(io.StringIO(text), cfg)
    assert type(err.value) is FormatError
    assert str(err.value) == f"expected the record of cell B,B,max,3,5, found {parts!r}"
    tech, path = tmp_path / "tech.cfg", tmp_path / "tables.csv"
    tech.write_text(serialize_tech_config(cfg))
    path.write_text(text)
    assert main(["dse", "--tech", str(tech), "--tables", str(path), "--count", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and repr(parts) in err


def test_swapped_records_refused(cfg, tables, tmp_path, capsys):
    """A file that holds every cell once, but not in the order save_tables
    writes them, is refused at the first record out of place."""
    lines = _saved_lines(tables)
    i = next(i for i, line in enumerate(lines) if line.startswith("B,B,max,3,4,"))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    parts = lines[i].split(",")
    assert parts[:5] == ["B", "B", "max", "3", "5"]
    text = "\n".join(lines) + "\n"
    with pytest.raises(FormatError) as err:
        load_tables(io.StringIO(text), cfg)
    assert type(err.value) is FormatError
    assert str(err.value) == f"expected the record of cell B,B,max,3,4, found {parts!r}"
    tech, path = tmp_path / "tech.cfg", tmp_path / "tables.csv"
    tech.write_text(serialize_tech_config(cfg))
    path.write_text(text)
    link = tmp_path / "link.gnoc"
    link.write_text("S W W B W W R W W S\n")
    assert main(["analyze", "--tech", str(tech), "--tables", str(path),
                 "--link", str(link), "--period", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and repr(parts) in err


def _edit_record(lines, field, value):
    """Set one field of the B,B,max row 3 col 4 record (None deletes it); its fields
    after the edit."""
    i = next(i for i, line in enumerate(lines) if line.startswith("B,B,max,3,4,"))
    parts = lines[i].split(",")
    if value is None:
        del parts[field]
    else:
        parts[field] = value
    lines[i] = ",".join(parts)
    return parts


def _append_field(lines):
    i = next(i for i, line in enumerate(lines) if line.startswith("B,B,max,3,4,"))
    lines[i] += ",1.0"
    return lines[i].split(",")


def _drop_lines(prefix):
    """Drop every record that starts with prefix; the fields of the record that
    now stands where the first one stood."""
    def drop(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[:] = [line for line in lines if not line.startswith(prefix)]
        return lines[i].split(",")
    return drop


def _drop_last(lines):
    lines.pop()


def _append_last(lines):
    lines.append(lines[-1])
    return lines[-1].split(",")


def _set_column_header(text):
    def edit(lines):
        lines[1:] = [] if text is None else [text, *lines[2:]]
    return edit


# the refusal of a record other than the B,B,max row 3 col 4 one the file order expects
AT_B_B_MAX_3_4 = "expected the record of cell B,B,max,3,4, found {rec}"

# case -> (edit of the saved default file's lines, message; {rec} stands for
# the repr of the fields that the edit returns).  Every refusal is a FormatError.
# Non-finite values, duplicates, the nominal corner, inserted passive-kind
# records and swapped records are the cases of the three tests above.
REFUSALS = {
    "unknown src": (lambda lines: _edit_record(lines, 0, "X"), AT_B_B_MAX_3_4),
    "unknown dst": (lambda lines: _edit_record(lines, 1, "b"), AT_B_B_MAX_3_4),
    "unknown corner": (lambda lines: _edit_record(lines, 2, "typ"), AT_B_B_MAX_3_4),
    "passive dst": (lambda lines: _edit_record(lines, 1, "W"), AT_B_B_MAX_3_4),
    "row not an integer": (lambda lines: _edit_record(lines, 3, "3.0"), AT_B_B_MAX_3_4),
    "row above range": (lambda lines: _edit_record(lines, 3, "10"), AT_B_B_MAX_3_4),
    "row below range": (lambda lines: _edit_record(lines, 3, "-1"), AT_B_B_MAX_3_4),
    "col not an integer": (lambda lines: _edit_record(lines, 4, "four"), AT_B_B_MAX_3_4),
    "col above range": (lambda lines: _edit_record(lines, 4, "10"), AT_B_B_MAX_3_4),
    "slew not a number": (lambda lines: _edit_record(lines, 5, "fast"),
                          "malformed table record {rec}"),
    "inconsistent row slew": (lambda lines: _edit_record(lines, 5, "16.5"),
                              "inconsistent row slew for B->B row 3"),
    "negative delay": (lambda lines: _edit_record(lines, 6, "-0.5"),
                       "negative delay in table cell B,B,max,3,4"),
    "negative slew_out": (lambda lines: _edit_record(lines, 7, "-0.5"),
                          "negative slew_out in table cell B,B,max,3,4"),
    "short record": (lambda lines: _edit_record(lines, 7, None), AT_B_B_MAX_3_4),
    "extra field": (_append_field, AT_B_B_MAX_3_4),
    "missing record": (_drop_lines("B,B,max,3,4,"), AT_B_B_MAX_3_4),
    "missing pair": (_drop_lines("B,R,"),
                     "expected the record of cell B,R,max,0,0, found {rec}"),
    "missing corner": (_drop_lines("B,R,min,"),
                       "expected the record of cell B,R,min,0,0, found {rec}"),
    "missing last record": (_drop_last, "expected the record of cell S,S,min,9,9, "
                                        "found the end of the file"),
    "record after the last cell": (_append_last, "table record {rec} after the last cell"),
    "bad column header": (_set_column_header("src,dst,corner,row,col,slew_in,delay,slew_out"),
                          "bad CSV column header ['src', 'dst', 'corner', 'row', 'col', "
                          "'slew_in', 'delay', 'slew_out']"),
    "no column header": (_set_column_header(None), "bad CSV column header None"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_table_file_refusal_pinned(cfg, tables, case):
    """A mutated saved file is refused with a FormatError and this message."""
    edit, message = REFUSALS[case]
    lines = _saved_lines(tables)
    rec = edit(lines)
    with pytest.raises(FormatError) as err:
        load_tables(io.StringIO("\n".join(lines) + "\n"), cfg)
    assert type(err.value) is FormatError
    assert str(err.value) == message.format(rec=rec)


def test_blank_lines_are_skipped(cfg, tables):
    lines = _saved_lines(tables)
    lines[5:5] = ["", ""]
    assert tables_equal(load_tables(io.StringIO("\n".join(lines) + "\n\n"), cfg), tables,
                        rtol=1e-11)


def test_rows_off_the_config_grid_are_refused(cfg, tables):
    """Each record's slew_in must be its row of the config's grid: a file whose
    row 0 reads 3 instead of 4 in every pair is refused, naming the first such
    row.  Built or loaded, a set's 18 views share one rows list and one
    intervals list."""
    lines = _saved_lines(tables)
    for i, line in enumerate(lines[2:], 2):
        parts = line.split(",")
        if parts[3] == "0":
            assert parts[5] == "4"
            parts[5] = "3"
            lines[i] = ",".join(parts)
    with pytest.raises(FormatError) as err:
        load_tables(io.StringIO("\n".join(lines) + "\n"), cfg)
    assert type(err.value) is FormatError
    assert str(err.value) == "inconsistent row slew for B->B row 0"
    loaded = load_tables(io.StringIO("\n".join(_saved_lines(tables)) + "\n"), cfg)
    for ts in (tables, loaded):
        views = [view for grid in ts.views.values() for row in grid for view in row]
        assert len(views) == 18
        assert all(view.rows is views[0].rows for view in views)
        assert all(view.intervals is views[0].intervals for view in views)


def test_oversized_header_refused_before_records(cfg, tables):
    """A header on another grid is refused before any record is read, so a
    K of a million allocates nothing, though the digest is the config's."""
    head, columns, first = _saved_lines(tables)[:3]
    text = "\n".join([head.replace(" K=10 ", " K=1000000 "), columns, first]) + "\n"
    with pytest.raises(TableMismatch) as err:
        load_tables(io.StringIO(text), cfg)
    assert str(err.value) == "tables hold a K=1000000 L=10 grid, analysis cfg has K=10 L=10"


def test_digest_mismatch(cfg, tables):
    other = load_tech_config(
        serialize_tech_config(cfg).replace("pitch_r = 1.0", "pitch_r = 2.0"))
    buf = io.StringIO()
    save_tables(tables, buf)
    buf.seek(0)
    with pytest.raises(DigestMismatch) as err:
        load_tables(buf, other)
    assert str(err.value) == (f"tables built for cfg {cfg.digest()}, "
                              f"expected {other.digest()}")


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
        load_tables(io.StringIO("\n".join(lines) + "\n"), cfg)
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
        load_tables(io.StringIO("\n".join(lines) + "\n"), cfg)


@pytest.mark.parametrize("L", [2, 10, 37])
def test_built_tables_pass_validation(cfg, L):
    """Oracle-built tables are monotone in slew, which PESSIMISTIC lookups rely on."""
    validate_tables(build_tables(with_slew_grid(cfg, L)))


def test_version_gate(cfg, tables):
    buf = io.StringIO()
    save_tables(tables, buf)
    text = buf.getvalue().replace("HASTA-TABLES v1", "HASTA-TABLES v2", 1)
    with pytest.raises(FormatError):
        load_tables(io.StringIO(text), cfg)


def test_not_a_table_file(cfg):
    with pytest.raises(FormatError):
        load_tables(io.StringIO("hello world\n"), cfg)


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
    for src, dst in product(ACTIVE, ACTIVE):
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


def test_off_grid_lookups_pinned(cfg, tables):
    """reconstruct_lookup and INTERPOLATE table_lookup for every pair, column
    and purpose at every 1/16 slew step across the grid, and just outside
    and inside the grid-row tolerance around each row.  The digest was
    recorded before the lookup core read per-interval constants."""
    rows = slew_grid(cfg)
    slews = [rows[0] + k / 16 for k in range(int((rows[-1] - rows[0]) * 16) + 1)]
    for r in rows:
        slews += [math.nextafter(r, -math.inf), math.nextafter(r, math.inf),
                  r - 5e-8, r + 5e-8]
    slews = [s for s in slews if rows[0] <= s <= rows[-1]]
    digest = hashlib.sha256()
    for (src, dst), n, purpose in product(product(ACTIVE, ACTIVE), range(cfg.K),
                                          LookupPurpose):
        for s in slews:
            digest.update(repr((reconstruct_lookup(tables, src, dst, n, s, purpose),
                                table_lookup(tables, src, dst, n, s,
                                             LookupMode.INTERPOLATE, purpose))).encode())
    assert digest.hexdigest() == (
        "d4b1d15d5a8d0308dd4f273058e9317595674e1ab8db99c8177cab54e7fbcdf8")


def reference_reconstruct_slew(rows, slew, n_wires, slew_in, lo):
    """Output slew between rows lo and lo + 1, differencing the rows per call:
    the arithmetic that the per-interval constants must reproduce bit for bit."""
    i0 = min(max(lo - 1, 0), len(rows) - 3)
    xs = rows[i0:i0 + 3]
    ys = [slew[i0 + j][n_wires] ** 2 for j in range(3)]
    s2 = 0.0
    for j in range(3):
        term = ys[j]
        for m in range(3):
            if m != j:
                term *= (slew_in - xs[m]) / (xs[j] - xs[m])
        s2 += term
    return math.sqrt(max(s2, 0.0))


def reference_blend(rows, cells, n_wires, slew_in, lo):
    """Linear blend of rows lo and lo + 1, differencing the rows per call."""
    frac = (slew_in - rows[lo]) / (rows[lo + 1] - rows[lo])
    return (1.0 - frac) * cells[lo][n_wires] + frac * cells[lo + 1][n_wires]


@pytest.fixture(scope="module")
def tables20(cfg):
    """A 20-row grid, whose row spacing (36/19) is not a power of two."""
    return build_tables(with_slew_grid(cfg, 20))


@given(fine=st.booleans(), pair=st.sampled_from(list(product(ACTIVE, ACTIVE))),
       n=st.integers(0, 9), purpose=st.sampled_from(list(LookupPurpose)),
       slew=st.floats(4.0, 40.0))
@settings(max_examples=400, deadline=None)
def test_off_grid_lookups_equal_reference_arithmetic(tables, tables20, fine, pair, n,
                                                     purpose, slew):
    tables = tables20 if fine else tables
    rows, delay, slews, _, _ = table_view(tables, *pair, purpose)
    lo = bisect_left(rows, slew) - 1
    assume(lo >= 0 and min(slew - rows[lo], rows[lo + 1] - slew) > 1e-6)
    d = reference_blend(rows, delay, n, slew, lo)
    got = reconstruct_lookup(tables, *pair, n, slew, purpose)
    assert got == (d, reference_reconstruct_slew(rows, slews, n, slew, lo), False)
    got = table_lookup(tables, *pair, n, slew, LookupMode.INTERPOLATE, purpose)
    assert got == (d, reference_blend(rows, slews, n, slew, lo), False)


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_views_hold_one_copy_of_each_table(cfg, tables, source):
    """ts.views holds one TableView per pair and purpose, and both purposes'
    views of a pair share one rows list and one per-interval list of
    constants taken from the rows."""
    if source == "loaded":
        buf = io.StringIO()
        save_tables(tables, buf)
        tables = load_tables(io.StringIO(buf.getvalue()), cfg)
    for (s, src), (d, dst) in product(enumerate(ACTIVE), repeat=2):
        views = [table_view(tables, src, dst, purpose) for purpose in LookupPurpose]
        for purpose, view in zip(LookupPurpose, views):
            assert type(view) is TableView
            assert tables.views[purpose][s][d] is view
        setup, hold = views
        assert hold.rows is setup.rows and hold.intervals is setup.intervals
        rows, intervals = setup.rows, setup.intervals
        assert len(intervals) == tables.L - 1
        for lo, consts in enumerate(intervals):
            assert all(type(x) in (int, float) for x in consts)
            i0, x0, x1, x2, *diffs, width = consts
            assert [x0, x1, x2] == rows[i0:i0 + 3] and i0 in (lo - 1, lo, tables.L - 3)
            assert diffs == [x0 - x1, x0 - x2, x1 - x0, x1 - x2, x2 - x0, x2 - x1]
            assert width == rows[lo + 1] - rows[lo]


def test_two_row_grid_reconstructs_only_grid_rows(cfg):
    """With L = 2 the grid rows and INTERPOLATE still work, but a slew between
    the rows cannot be reconstructed: NotOnGrid, naming the rows it needs."""
    ts = build_tables(with_slew_grid(cfg, 2))
    rows = slew_grid(with_slew_grid(cfg, 2))
    assert table_view(ts, BlockKind.B, BlockKind.B, LookupPurpose.SETUP_MAX).intervals \
        == [(rows[1] - rows[0],)]
    for purpose, (i, s) in product(LookupPurpose, enumerate(rows)):
        view = table_view(ts, BlockKind.B, BlockKind.B, purpose)
        res = reconstruct_lookup(ts, BlockKind.B, BlockKind.B, 3, s, purpose)
        assert res == (view.delay[i][3], view.slew_out[i][3], False)
    mid = (rows[0] + rows[1]) / 2
    res = table_lookup(ts, BlockKind.B, BlockKind.B, 3, mid, LookupMode.INTERPOLATE,
                       LookupPurpose.HOLD_MIN)
    assert res.delay == pytest.approx(golden_segment(BlockKind.B, BlockKind.B, 3, mid,
                                                     Corner.MIN, cfg).delay, rel=1e-12)
    for purpose in LookupPurpose:
        with pytest.raises(NotOnGrid, match=r"L >= 3 .*L = 2"):
            reconstruct_lookup(ts, BlockKind.B, BlockKind.B, 3, mid, purpose)
        with pytest.raises(NotOnGrid, match=r"L >= 3 .*L = 2"):
            analyze_path(parse_link("S W W B W W B W W S"), ts, rows[0],
                         LookupMode.EXACT, purpose)


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
