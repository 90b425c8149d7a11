"""Segment characterization tables: build, persist, and query.

One table per (src, dst) pair of active block kinds -- 9 in total -- with L
input-slew rows and K load columns (0..K-1 intervening wire blocks), each cell
holding delay and output slew at the MIN and MAX corners.  Building the set
evaluates the golden oracle once per (pair, row, col) and corner; afterwards
any segment costs a single lookup.

A TableView is the one in-memory layout of a table: one pair at one
purpose's corner, as its slew rows, delay rows, slew-out rows and, per
interval between two adjacent slew rows, the constants that a lookup between
those rows needs: the interval's width for the linear blend and, when L >= 3,
the three rows of the quadratic reconstruction with their six pairwise
differences.  Every table of a set lies on its config's slew grid, so all 18
views share one rows list and one intervals list: building and loading end in
one constructor, and loading refuses a file off that grid.  Between grid rows,
EXACT chaining needs L >= 3.

A table file holds each cell's record, naming its cell, in save_tables' order
(FILE_TABLES, then rows, then columns); load_tables refuses any other line,
and a non-finite or negative value.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from functools import cached_property
from itertools import chain, product
from typing import NamedTuple

from .errors import (CornerOrderError, DigestMismatch, FormatError, InvalidValue,
                     MonotonicityError, NotOnGrid, SegmentTooLong, SlewOutOfRange,
                     TableMismatch)
from .golden import Corner, StageResult, golden_segment
from .techlib import ACTIVE_KINDS, BlockKind, TechConfig

FILE_MAGIC = "HASTA-TABLES"
FILE_VERSION = "v1"

TABLE_CORNERS = (Corner.MIN, Corner.MAX)

# the 9 (src, dst) pairs of active kinds, in table file order
PAIRS = tuple(product(ACTIVE_KINDS, repeat=2))

# the table file's column header, after its one-line file header
COLUMNS = "src,dst,corner,row_index,col_index,slew_in,delay,slew_out"


class LookupMode(Enum):
    EXACT = "exact"
    PESSIMISTIC = "pessimistic"
    INTERPOLATE = "interpolate"
    __hash__ = object.__hash__  # members are singletons; Enum's hash is Python code


class LookupPurpose(Enum):
    SETUP_MAX = "setup_max"   # worst-case delay, MAX corner
    HOLD_MIN = "hold_min"     # best-case delay, MIN corner
    __hash__ = object.__hash__  # members are singletons; Enum's hash is Python code

    @property
    def corner(self) -> Corner:
        return Corner.MAX if self is LookupPurpose.SETUP_MAX else Corner.MIN


# the table file's tables in record order, each over its rows, then its columns
FILE_TABLES = tuple(product(PAIRS, LookupPurpose))


class TableView(NamedTuple):
    """One table at one purpose's corner: the only in-memory form of a table.

    Every view of a set shares one rows list and one intervals list.
    """
    rows: list          # L ascending slew grid values
    delay: list         # L rows of K delays, column n = n intervening wires
    slew_out: list      # L rows of K output slews
    near: float         # bound on the grid-row tolerance over every in-range slew
    intervals: list     # per interval between adjacent rows: see _interval


def _interval(rows: list, lo: int) -> tuple:
    """Lookup constants of the interval rows[lo]..rows[lo + 1].

    (i0, x0, x1, x2, x0 - x1, x0 - x2, x1 - x0, x1 - x2, x2 - x0, x2 - x1,
    width): the three rows x0..x2 from row i0 that reconstruct the squared
    output slew, their Lagrange denominators and the interval's width.  With
    fewer than three rows there is no reconstruction: (width,).
    """
    width = rows[lo + 1] - rows[lo]
    if len(rows) < 3:
        return (width,)
    i0 = min(max(lo - 1, 0), len(rows) - 3)
    x0, x1, x2 = rows[i0:i0 + 3]
    return (i0, x0, x1, x2, x0 - x1, x0 - x2, x1 - x0, x1 - x2, x2 - x0, x2 - x1, width)


class _TableFields(NamedTuple):
    views: dict                  # LookupPurpose -> [src][dst] TableView, like ACTIVE_KINDS
    cfg_digest: str


class TableSet(_TableFields):
    @property
    def K(self) -> int:
        return len(self.views[LookupPurpose.SETUP_MAX][0][0].delay[0])

    @property
    def L(self) -> int:
        return len(self.views[LookupPurpose.SETUP_MAX][0][0].rows)

    @property
    def cell_count(self) -> int:
        """Distinct (pair, row, col) cells; each is stored at both corners."""
        return len(PAIRS) * self.L * self.K

    @cached_property
    def memo(self) -> dict:
        """LookupPurpose -> [src][dst] dict: (n_wires, slew_in) -> PESSIMISTIC StageResult.

        Filled by hasta's chaining loop (see there); one per set, so TableSet is not slotted.
        """
        return {purpose: [[{} for _ in ACTIVE_KINDS] for _ in ACTIVE_KINDS]
                for purpose in LookupPurpose}


def _table_set(rows: list, cells: dict, digest: str) -> TableSet:
    """The TableSet over the slew rows and cells[pair, corner] = (delay rows,
    slew-out rows), for every pair of PAIRS; its 18 views share rows and intervals."""
    # near bounds the grid-row tolerance (1e-9 relative) over every in-range
    # slew, so view_lookup rules most off-grid slews out in one comparison
    near = 1e-9 * max(abs(rows[0]), abs(rows[-1]), 1.0)
    intervals = [_interval(rows, lo) for lo in range(len(rows) - 1)]
    return TableSet({purpose: [[TableView(rows, *cells[(src, dst), purpose.corner], near,
                                          intervals) for dst in ACTIVE_KINDS]
                               for src in ACTIVE_KINDS]
                     for purpose in LookupPurpose}, digest)


def check_tables(ts: TableSet, cfg: TechConfig) -> None:
    """Raise TableMismatch unless ts was built for cfg: a digest fixes K, L and the
    slew grid, and build_tables and load_tables make sets on their config's grid."""
    if ts.cfg_digest != cfg.digest():
        raise TableMismatch(f"tables built for cfg {ts.cfg_digest}, "
                            f"analysis cfg is {cfg.digest()}")


def slew_grid(cfg: TechConfig) -> list[float]:
    """L evenly spaced slews: row i is i * step + slew_grid_min, the last is slew_grid_max.

    Table files pin this arithmetic to the last bit; InvalidValue when two rows
    coincide at the file's 12 significant digits, which could not tell them apart.
    """
    lo, hi, L = cfg.slew_grid_min, cfg.slew_grid_max, cfg.L
    step = (hi - lo) / (L - 1)
    rows = [i * step + lo for i in range(L - 1)] + [hi]
    for i, (a, b) in enumerate(zip(rows, rows[1:])):
        if not float(f"{a:.12g}") < float(f"{b:.12g}"):
            raise InvalidValue(f"slew grid rows {i}, {i + 1} coincide at 12 significant digits")
    return rows


def build_tables(cfg: TechConfig) -> TableSet:
    """Characterize all 9 segment types over the full slew x load grid, every cell finite."""
    rows = slew_grid(cfg)
    cells = {}
    for (src, dst), corner in product(PAIRS, TABLE_CORNERS):
        results = [[golden_segment(src, dst, n, s, corner, cfg) for n in range(cfg.K)]
                   for s in rows]
        delays, slews = cells[(src, dst), corner] = (
            [[res.delay for res in row] for row in results],
            [[res.slew_out for res in row] for row in results])
        if not all(map(math.isfinite, chain(*delays, *slews))):
            raise InvalidValue(f"{src}->{dst}/{corner.value}: non-finite table cell")
    return _table_set(rows, cells, cfg.digest())


def save_tables(ts: TableSet, destination) -> None:
    """Write the table file (text stream or path)."""
    if hasattr(destination, "write"):
        _write(ts, destination)
    else:
        with open(destination, "w", newline="") as fh:
            _write(ts, fh)


def _write(ts: TableSet, fh) -> None:
    lines = [f"{FILE_MAGIC} {FILE_VERSION} cfg={ts.cfg_digest} K={ts.K} L={ts.L}\n",
             f"{COLUMNS}\n"]
    for (src, dst), purpose in FILE_TABLES:
        view = table_view(ts, src, dst, purpose)
        table = f"{src.value},{dst.value},{purpose.corner.value}"
        for i, (s, delays, slews) in enumerate(zip(view.rows, view.delay, view.slew_out)):
            for n, (d, so) in enumerate(zip(delays, slews)):
                lines.append(f"{table},{i},{n},{s:.12g},{d:.12g},{so:.12g}\n")
    fh.write("".join(lines))


def load_tables(source, cfg: TechConfig) -> TableSet:
    """Read and validate a table file (text stream or path) on cfg's grid, refusing
    another digest, K or L at the header and any line but the next cell's record."""
    if hasattr(source, "read"):
        return _read(source, cfg)
    with open(source) as fh:
        return _read(fh, cfg)


def _read(fh, cfg: TechConfig) -> TableSet:
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
    if digest != cfg.digest():
        raise DigestMismatch(f"tables built for cfg {digest}, expected {cfg.digest()}")
    if K != cfg.K or L != cfg.L:
        raise TableMismatch(f"tables hold a K={K} L={L} grid, "
                            f"analysis cfg has K={cfg.K} L={cfg.L}")
    # the grid as _write prints it, so loaded tables look up on the file's bits
    rows = [float(f"{s:.12g}") for s in slew_grid(cfg)]

    head = fh.readline()
    head = head.strip().split(",") if head else None
    if head != COLUMNS.split(","):
        raise FormatError(f"bad CSV column header {head!r}")
    lines = filter(None, map(str.strip, fh))

    def read_table(src: BlockKind, dst: BlockKind, purpose: LookupPurpose) -> tuple:
        """The next L * K records, as one table's delay rows and slew-out rows."""
        table = f"{src.value},{dst.value},{purpose.corner.value},"
        delays, slews = [[] for _ in rows], [[] for _ in rows]
        for i, n in product(range(L), range(K)):
            cell = f"{table}{i},{n},"
            line = next(lines, "")
            if not line.startswith(cell) or line.count(",") != 7:
                found = repr(line.split(",")) if line else "the end of the file"
                raise FormatError(f"expected the record of cell {cell[:-1]}, found {found}")
            try:
                slew_in, delay, slew_out = map(float, line[len(cell):].split(","))
            except ValueError as exc:
                raise FormatError(f"malformed table record {line.split(',')!r}") from exc
            if not (math.isfinite(slew_in) and math.isfinite(delay) and math.isfinite(slew_out)):
                raise FormatError(f"non-finite value in table record {line.split(',')!r}")
            # synthesis stops a sub-run once its running delay sum passes the period
            if delay < 0.0 or slew_out < 0.0:
                raise FormatError(f"negative {'delay' if delay < 0.0 else 'slew_out'} "
                                  f"in table cell {cell[:-1]}")
            if slew_in != rows[i]:
                raise FormatError(f"inconsistent row slew for {src}->{dst} row {i}")
            delays[i].append(delay)
            slews[i].append(slew_out)
        return delays, slews

    ts = _table_set(rows, {(pair, purpose.corner): read_table(*pair, purpose)
                           for pair, purpose in FILE_TABLES}, digest)
    if extra := next(lines, ""):
        raise FormatError(f"table record {extra.split(',')!r} after the last cell")
    validate_tables(ts)
    return ts


def validate_tables(ts: TableSet) -> None:
    """Enforce corner order and monotonicity; slew_grid checks the rows."""
    for src, dst in PAIRS:
        name = f"{src}->{dst}"
        setup, hold = (table_view(ts, src, dst, purpose) for purpose in LookupPurpose)
        dmin, dmax = hold.delay, setup.delay
        for i, (lo_row, hi_row) in enumerate(zip(dmin, dmax)):
            for n, (lo, hi) in enumerate(zip(lo_row, hi_row)):
                if hi < lo:
                    raise CornerOrderError(f"{name}: MAX delay < MIN delay at cell "
                                           f"(row {i}, col {n})")
        for corner, d in zip(TABLE_CORNERS, (dmin, dmax)):
            if any(b < a for r0, r1 in zip(d, d[1:]) for a, b in zip(r0, r1)):
                raise MonotonicityError(f"{name}/{corner.value}: delay decreases "
                                        f"along slew rows")
            if any(b < a for r in d for a, b in zip(r, r[1:])):
                raise MonotonicityError(f"{name}/{corner.value}: delay decreases "
                                        f"along load columns")


def table_view(ts: TableSet, src: BlockKind, dst: BlockKind,
               purpose: LookupPurpose) -> TableView:
    """The (src, dst) table at the purpose's corner."""
    return ts.views[purpose][ACTIVE_KINDS.index(src)][ACTIVE_KINDS.index(dst)]


def view_lookup(view: TableView, n_wires: int, slew_in: float, mode: LookupMode,
                purpose: LookupPurpose,
                reconstruct: bool = False) -> StageResult:
    """The lookup core behind table_lookup, reconstruct_lookup and link chaining.

    view is a table_view.  The column is checked, a slew below the grid
    clamps up to the first row (flagged) and one above it is refused.  A grid
    row (within 1e-9 relative) is read directly.  Between two rows,
    reconstruct selects reconstruct_lookup's quantization-free values, which
    need L >= 3 (NotOnGrid otherwise); otherwise the mode resolves the slew
    as table_lookup describes.  Both blends read the interval's constants
    from the view instead of differencing the rows.
    """
    rows, delay, slew, near, intervals = view
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

    if not reconstruct:
        if mode is LookupMode.EXACT:
            raise NotOnGrid(f"slew {slew_in} is not a grid row (EXACT mode)")
        if mode is LookupMode.PESSIMISTIC:
            # delay is non-decreasing along slew rows (validate_tables)
            pick = hi if purpose is LookupPurpose.SETUP_MAX else lo
            return StageResult(delay[pick][n_wires], slew[pick][n_wires], clamped)

    consts = intervals[lo]
    frac = (slew_in - rows[lo]) / consts[-1]
    d = (1.0 - frac) * delay[lo][n_wires] + frac * delay[hi][n_wires]
    if not reconstruct:
        return StageResult(d, (1.0 - frac) * slew[lo][n_wires] + frac * slew[hi][n_wires],
                           clamped)
    if len(consts) == 1:
        raise NotOnGrid(f"slew {slew_in} is not a grid row, and reconstruction between "
                        f"rows needs L >= 3 slew rows; the table has L = {len(rows)}")
    # the squared output slew is quadratic in slew_in: Lagrange through three rows,
    # the terms summed from 0.0 in row order
    i0, x0, x1, x2, d01, d02, d10, d12, d20, d21, _ = consts
    s2 = (0.0
          + slew[i0][n_wires] ** 2 * ((slew_in - x1) / d01) * ((slew_in - x2) / d02)
          + slew[i0 + 1][n_wires] ** 2 * ((slew_in - x0) / d10) * ((slew_in - x2) / d12)
          + slew[i0 + 2][n_wires] ** 2 * ((slew_in - x0) / d20) * ((slew_in - x1) / d21))
    return StageResult(d, math.sqrt(max(s2, 0.0)), clamped)


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
