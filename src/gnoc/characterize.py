"""Segment characterization tables: build, persist, and query.

One table per (src, dst) pair of active block kinds -- 9 in total -- with L
input-slew rows and K load columns (0..K-1 intervening wire blocks), each cell
holding delay and output slew at the MIN and MAX corners.  Building the set
evaluates the golden oracle once per (pair, row, col) and corner; afterwards
any segment costs a single lookup.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, product

from .errors import (CornerOrderError, DigestMismatch, FormatError,
                     MonotonicityError, NotOnGrid, SegmentTooLong, SlewOutOfRange)
from .golden import Corner, StageResult, golden_segment
from .techlib import ACTIVE_KINDS, BlockKind, TechConfig

FILE_MAGIC = "HASTA-TABLES"
FILE_VERSION = "v1"

TABLE_CORNERS = (Corner.MIN, Corner.MAX)


class LookupMode(Enum):
    EXACT = "exact"
    PESSIMISTIC = "pessimistic"
    INTERPOLATE = "interpolate"


class LookupPurpose(Enum):
    SETUP_MAX = "setup_max"   # worst-case delay, MAX corner
    HOLD_MIN = "hold_min"     # best-case delay, MIN corner

    @property
    def corner(self) -> Corner:
        return Corner.MAX if self is LookupPurpose.SETUP_MAX else Corner.MIN


class Grid:
    """L x K table cells held as L row lists of K floats; grid[i, n] reads one cell."""

    __slots__ = ("cells",)

    def __init__(self, cells: list):
        self.cells = cells

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.cells), len(self.cells[0])

    def __getitem__(self, index: tuple[int, int]) -> float:
        i, n = index
        return self.cells[i][n]


@dataclass
class SegmentTable:
    src_kind: BlockKind
    dst_kind: BlockKind
    rows: list                                    # L ascending slew grid values
    delay: dict = field(default_factory=dict)     # Corner -> (L, K) Grid
    slew_out: dict = field(default_factory=dict)  # Corner -> (L, K) Grid

    def __post_init__(self):
        # the views share the grids' row lists, so lookups index plain lists;
        # near bounds the grid-row tolerance (1e-9 relative) over every
        # in-range slew, so view_lookup rules most off-grid slews out in one
        # comparison
        near = 1e-9 * max(abs(self.rows[0]), abs(self.rows[-1]), 1.0)
        self._views = {c: (self.rows, self.delay[c].cells, self.slew_out[c].cells, near)
                       for c in self.delay}


@dataclass(frozen=True)
class TableSet:
    tables: dict                 # (src, dst) -> SegmentTable
    cfg_digest: str
    K: int
    L: int

    @property
    def cell_count(self) -> int:
        """Distinct (pair, row, col) cells; each is stored at both corners."""
        return len(self.tables) * self.L * self.K

    @cached_property
    def views(self) -> dict:
        """LookupPurpose -> table_view of every pair, indexed [src][dst] like ACTIVE_KINDS."""
        return {purpose: [[table_view(self, src, dst, purpose) for dst in ACTIVE_KINDS]
                          for src in ACTIVE_KINDS]
                for purpose in LookupPurpose}


def slew_grid(cfg: TechConfig) -> list[float]:
    """L evenly spaced slews: row i is i * step + slew_grid_min, the last is slew_grid_max.

    Table files pin this arithmetic to the last bit.
    """
    lo, hi, L = cfg.slew_grid_min, cfg.slew_grid_max, cfg.L
    step = (hi - lo) / (L - 1)
    return [i * step + lo for i in range(L - 1)] + [hi]


def build_tables(cfg: TechConfig) -> TableSet:
    """Characterize all 9 segment types over the full slew x load grid."""
    rows = slew_grid(cfg)
    tables = {}
    for src, dst in product(ACTIVE_KINDS, ACTIVE_KINDS):
        delay, slew = {}, {}
        for corner in TABLE_CORNERS:
            cells = [[golden_segment(src, dst, n, s, corner, cfg) for n in range(cfg.K)]
                     for s in rows]
            delay[corner] = Grid([[res.delay for res in row] for row in cells])
            slew[corner] = Grid([[res.slew_out for res in row] for row in cells])
        tables[(src, dst)] = SegmentTable(src, dst, rows, delay, slew)
    return TableSet(tables=tables, cfg_digest=cfg.digest(), K=cfg.K, L=cfg.L)


def _fmt(x: float) -> str:
    return format(x, ".12g")


def save_tables(ts: TableSet, destination) -> None:
    """Write the table file (text stream or path)."""
    if hasattr(destination, "write"):
        _write(ts, destination)
    else:
        with open(destination, "w", newline="") as fh:
            _write(ts, fh)


def _write(ts: TableSet, fh) -> None:
    fh.write(f"{FILE_MAGIC} {FILE_VERSION} cfg={ts.cfg_digest} K={ts.K} L={ts.L}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["src", "dst", "corner", "row_index", "col_index",
                     "slew_in", "delay", "slew_out"])
    for (src, dst), table in sorted(ts.tables.items(),
                                    key=lambda kv: (kv[0][0].value, kv[0][1].value)):
        for corner in sorted(table.delay, key=lambda c: c.value):
            for i, (s, delays, slews) in enumerate(zip(table.rows, table.delay[corner].cells,
                                                       table.slew_out[corner].cells)):
                for n, (d, so) in enumerate(zip(delays, slews)):
                    writer.writerow([src.value, dst.value, corner.value, i, n,
                                     _fmt(s), _fmt(d), _fmt(so)])


def load_tables(source, expect_digest: str | None = None) -> TableSet:
    """Read and validate a table file; strict digest check when requested."""
    if hasattr(source, "read"):
        return _read(source, expect_digest)
    with open(source, newline="") as fh:
        return _read(fh, expect_digest)


def _read(fh, expect_digest) -> TableSet:
    header = fh.readline().strip()
    words = header.split()
    if len(words) != 5 or words[0] != FILE_MAGIC:
        raise FormatError(f"not a table file (header {header!r})")
    if words[1] != FILE_VERSION:
        raise FormatError(f"unsupported table file version {words[1]!r}")
    try:
        fields = dict(w.split("=", 1) for w in words[2:])
        digest = fields["cfg"]
        K, L = int(fields["K"]), int(fields["L"])
    except (ValueError, KeyError) as exc:
        raise FormatError(f"malformed table header {header!r}") from exc
    if expect_digest is not None and digest != expect_digest:
        raise DigestMismatch(f"tables built for cfg {digest}, expected {expect_digest}")

    reader = csv.reader(fh)
    head = next(reader, None)
    if head != ["src", "dst", "corner", "row_index", "col_index",
                "slew_in", "delay", "slew_out"]:
        raise FormatError(f"bad CSV column header {head!r}")

    rows_by_pair: dict = {}
    data: dict = {}
    for rec in reader:
        if not rec:
            continue
        try:
            src, dst = BlockKind(rec[0]), BlockKind(rec[1])
            corner = Corner(rec[2])
            i, n = int(rec[3]), int(rec[4])
            slew_in, delay, slew_out = map(float, rec[5:8])
        except (ValueError, IndexError) as exc:
            raise FormatError(f"malformed table record {rec!r}") from exc
        if not (0 <= i < L and 0 <= n < K):
            raise FormatError(f"cell index out of range in record {rec!r}")
        if not all(map(math.isfinite, (slew_in, delay, slew_out))):
            raise FormatError(f"non-finite value in table record {rec!r}")
        pair = (src, dst)
        # None marks a cell or row no record has filled yet
        delays, slews = data.setdefault((pair, corner),
                                        ([[None] * K for _ in range(L)],
                                         [[None] * K for _ in range(L)]))
        delays[i][n] = delay
        slews[i][n] = slew_out
        rows = rows_by_pair.setdefault(pair, [None] * L)
        if rows[i] is not None and rows[i] != slew_in:
            raise FormatError(f"inconsistent row slew for {src}->{dst} row {i}")
        rows[i] = slew_in

    pairs = set(product(ACTIVE_KINDS, ACTIVE_KINDS))
    tables = {}
    for pair in sorted(pairs, key=lambda p: (p[0].value, p[1].value)):
        rows = rows_by_pair.get(pair)
        if rows is None or None in rows:
            raise FormatError(f"table {pair[0]}->{pair[1]} missing or incomplete")
        delay, slew = {}, {}
        for corner in TABLE_CORNERS:
            entry = data.get((pair, corner))
            if entry is None or any(None in row for row in entry[0]):
                raise FormatError(f"table {pair[0]}->{pair[1]} missing corner "
                                  f"{corner.value}")
            delay[corner], slew[corner] = Grid(entry[0]), Grid(entry[1])
        tables[pair] = SegmentTable(pair[0], pair[1], rows, delay, slew)

    ts = TableSet(tables=tables, cfg_digest=digest, K=K, L=L)
    validate_tables(ts)
    return ts


def validate_tables(ts: TableSet) -> None:
    """Enforce structural invariants: ascending rows, corner order, monotonicity."""
    for (src, dst), t in ts.tables.items():
        name = f"{src}->{dst}"
        if not all(a < b for a, b in zip(t.rows, t.rows[1:])):
            raise MonotonicityError(f"{name}: slew rows not strictly ascending")
        dmin, dmax = t.delay[Corner.MIN].cells, t.delay[Corner.MAX].cells
        for i, (lo_row, hi_row) in enumerate(zip(dmin, dmax)):
            for n, (lo, hi) in enumerate(zip(lo_row, hi_row)):
                if hi < lo:
                    raise CornerOrderError(f"{name}: MAX delay < MIN delay at cell "
                                           f"(row {i}, col {n})")
        for corner in TABLE_CORNERS:
            d = t.delay[corner].cells
            if any(b < a for r0, r1 in zip(d, d[1:]) for a, b in zip(r0, r1)):
                raise MonotonicityError(f"{name}/{corner.value}: delay decreases "
                                        f"along slew rows")
            if any(b < a for r in d for a, b in zip(r, r[1:])):
                raise MonotonicityError(f"{name}/{corner.value}: delay decreases "
                                        f"along load columns")


def tables_equal(a: TableSet, b: TableSet, rtol: float = 0.0) -> bool:
    """Structural comparison; rtol > 0 tolerates file-precision rounding."""
    if (a.cfg_digest, a.K, a.L) != (b.cfg_digest, b.K, b.L):
        return False
    if set(a.tables) != set(b.tables):
        return False
    for pair, ta in a.tables.items():
        tb = b.tables[pair]
        if not _allclose(ta.rows, tb.rows, rtol):
            return False
        for corner in TABLE_CORNERS:
            for ga, gb in ((ta.delay[corner], tb.delay[corner]),
                           (ta.slew_out[corner], tb.slew_out[corner])):
                if not _allclose(chain(*ga.cells), chain(*gb.cells), rtol):
                    return False
    return True


def _allclose(xs, ys, rtol: float) -> bool:
    """|x - y| <= rtol * |y| for every pair (asymmetric: relative to ys).

    Equal infinities are close; any other pair with a non-finite value,
    NaN included, is not.
    """
    return all(x == y or (math.isfinite(y) and abs(x - y) <= rtol * abs(y))
               for x, y in zip(xs, ys, strict=True))


def table_view(ts: TableSet, src: BlockKind, dst: BlockKind,
               purpose: LookupPurpose) -> tuple[list, list, list, float]:
    """One table at the purpose's corner: (slew rows, delay rows, slew-out rows, near)."""
    return ts.tables[(src, dst)]._views[purpose.corner]


def view_lookup(view: tuple, n_wires: int, slew_in: float, mode: LookupMode,
                purpose: LookupPurpose,
                reconstruct: bool = False) -> StageResult:
    """The lookup core behind table_lookup, reconstruct_lookup and link chaining.

    view is a table_view.  The column is checked, a slew below the grid
    clamps up to the first row (flagged) and one above it is refused.  A grid
    row (within 1e-9 relative) is read directly.  Between two rows,
    reconstruct selects reconstruct_lookup's quantization-free values;
    otherwise the mode resolves the slew as table_lookup describes.
    """
    rows, delay, slew, near = view
    n_cols = len(delay[0])
    if n_wires >= n_cols:
        raise SegmentTooLong(f"{n_wires} intervening wires exceeds table range "
                             f"0..{n_cols - 1}")
    if n_wires < 0:
        raise SegmentTooLong(f"n_wires must be >= 0, got {n_wires}")
    clamped = slew_in < rows[0]
    if clamped:
        slew_in = rows[0]
    elif not slew_in <= rows[-1]:  # NaN too
        if math.isnan(slew_in):
            raise SlewOutOfRange(f"input slew {slew_in} is not a number")
        raise SlewOutOfRange(f"input slew {slew_in} above table grid max {rows[-1]}")

    # rows[lo] < slew_in <= rows[hi]
    hi = bisect_left(rows, slew_in)
    lo = hi - 1
    gap = rows[hi] - slew_in
    if gap <= near and gap <= 1e-9 * max(abs(rows[hi]), abs(slew_in), 1.0):
        return StageResult(delay[hi][n_wires], slew[hi][n_wires], clamped)
    if hi > 0:
        gap = slew_in - rows[lo]
        if gap <= near and gap <= 1e-9 * max(abs(rows[lo]), abs(slew_in), 1.0):
            return StageResult(delay[lo][n_wires], slew[lo][n_wires], clamped)

    d_lo, d_hi = delay[lo][n_wires], delay[hi][n_wires]
    if not reconstruct:
        if mode is LookupMode.EXACT:
            raise NotOnGrid(f"slew {slew_in} is not a grid row (EXACT mode)")
        if mode is LookupMode.PESSIMISTIC:
            # delay is non-decreasing along slew rows (validate_tables)
            pick = hi if purpose is LookupPurpose.SETUP_MAX else lo
            return StageResult(delay[pick][n_wires], slew[pick][n_wires], clamped)

    frac = (slew_in - rows[lo]) / (rows[hi] - rows[lo])
    d = (1.0 - frac) * d_lo + frac * d_hi
    if reconstruct:
        s = _reconstruct_slew(rows, slew, n_wires, slew_in, lo)
    else:
        s = (1.0 - frac) * slew[lo][n_wires] + frac * slew[hi][n_wires]
    return StageResult(d, s, clamped)


def _reconstruct_slew(rows: list, slew: list, n_wires: int, slew_in: float,
                      lo: int) -> float:
    """Output slew between grid rows: three adjacent rows pin the quadratic in slew^2."""
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


def table_lookup(ts: TableSet, src: BlockKind, dst: BlockKind, n_wires: int,
                 slew_in: float, mode: LookupMode,
                 purpose: LookupPurpose) -> StageResult:
    """One segment lookup: pick the table, the column by wire count, the row by slew.

    Off-grid slews resolve per mode: EXACT refuses, PESSIMISTIC takes the
    conservative bracketing row for the given purpose, INTERPOLATE blends the
    two bracketing rows linearly.  Slews below the grid clamp to the first row
    (flagged); slews above it are a hard error.
    """
    return view_lookup(table_view(ts, src, dst, purpose), n_wires, slew_in,
                       mode, purpose)


def reconstruct_lookup(ts: TableSet, src: BlockKind, dst: BlockKind,
                       n_wires: int, slew_in: float,
                       purpose: LookupPurpose) -> StageResult:
    """Quantization-free lookup at an arbitrary in-range slew, from table data only.

    Per column the tabulated delay is linear in input slew and the squared
    output slew is quadratic in it, so two-row linear (delay) plus three-row
    quadratic (slew^2) reconstruction recovers the characterized values
    exactly between grid rows.  This is what EXACT-mode path chaining uses
    once slews leave the grid.
    """
    return view_lookup(table_view(ts, src, dst, purpose), n_wires, slew_in,
                       LookupMode.EXACT, purpose, reconstruct=True)
