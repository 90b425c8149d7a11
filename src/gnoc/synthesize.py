"""Minimal-cost link synthesis by staged buffer and register insertion.

Candidates start as all plain wire; buffers are added one at a time, evenly
placed, and when no all-wire/buffer mix can close timing the search switches
to registers (again evenly placed), re-buffering each registered sub-run.
The first valid candidate under this schedule is the cheapest even-placement
solution: register count first, then total buffer count, then
lexicographically by each sub-run's buffer count.

Clock-buffer sub-types follow a greedy rule: no clock stage may span more
than golden.max_clock_run(T) unbuffered slots.  The limit depends only on the
period, so it is found once per call; when even a zero-slot stage reaches T/2
no candidate can be valid, and the spec is refused for ClockUnsatisfiable
before any is tried.  Otherwise no promoted candidate has a clock stage at
T/2, since the stage delay grows with the slot count.

A candidate with r registers is S + run_0 + R + ... + R + run_r + S, where a
sub-run is the wires and buffers between two consecutive R/S blocks.  For one
r the sub-run lengths and launch tokens are fixed, so each (sub-run, buffer
count) is a part, built from its block positions, with no tokens: a segment
of n wires holds k, rest = divmod(n, limit + 1) W.cb, and the text,
clock-stage delays and buffer count of each n are built once per call.  A
part is the sub-run's text and each raising chain's error, or else the
SLEW_RANGE and path reasons of its one flop-to-flop path, chained from the
clock slew as analyze_link relaunches every PESSIMISTIC path and judged by
hasta.judge_paths at its launch token.  The path record carries its own skew,
so the verdicts are is_valid's bit for bit.

The search is a register-count scan.  A candidate is valid exactly when each
of its parts is, so the first valid one in schedule order gives every sub-run
its own smallest valid buffer count b.  For r = 0..M the scan takes each
sub-run's first valid b, found once per call for each (source is S,
destination is S, slots) from the fewest buffers up.  No b is valid, or
probed, once TableSet.delay_floor * (m + 1) > T (1 + 1e-9) for m slots: a
PESSIMISTIC SETUP_MAX lookup of n < K wires (more raise) reads a cell of at
least (n + 1) * delay_floor, and b + 1 segments hold m - b wires, so their
delays sum past T whatever b and skew; the margin covers rounding in sums of
up to 10^6 delays.  Each other b is judged by _fits, an early-stopping
verdict equal to its part's at launch token 0 (the launch token moves only
the positions printed in reasons): it stops at the first chain error, slew
past the legal max or running delay past the period, and chains the hold pass
only once the setup check passes.  So the scan builds no part: reasons are
built only for the log.  It stops at the first sub-run with no valid b; the
first r at which every sub-run has one wins, and the winner's text is the
join of those sub-runs' texts, its tokens grammar.TOKENS of its words.
iterations, the number of candidates the schedule tries, is counted rather
than walked: every vector of each failed r, then the vectors before the
winner in (total, lexicographic) order, then the winner.  An exhausted search
ends at S R ... R S, and is_valid gives its reasons.

The log, one "<candidate> -> <verdict>" line per candidate tried, is a
SearchLog: its len() is iterations, and the schedule is enumerated only when
its lines are read.  The enumeration walks the budget vectors depth first,
by total then lexicographically, each level carrying its prefix's text,
first setup and hold errors and reasons, each part built once per r: a
candidate costs a few string joins.  analyze_link chains the whole setup
pass before the hold pass, so a candidate is refused for its first
setup-pass error in sub-run order, else its first hold-pass one, else for
all its SLEW_RANGE reasons, then all its path reasons, as judge_paths orders
them.  Past sys.maxsize candidates len() overflows; iterations holds the
exact count.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import partial
from itertools import accumulate
from typing import NamedTuple

from .characterize import LookupMode, LookupPurpose, TableSet, check_tables, view_lookup
from .errors import ClockUnsatisfiable, GnocError, SegmentTooLong, SlewOutOfRange
from .golden import Corner, clock_stage_delay, max_clock_run
from .grammar import TOKENS, LinkSentence, Step, Token
from .hasta import (Violation, _chain, analyze_link, clock_slew, flop_paths, judge_paths,
                    meets_hold, meets_setup)
from .techlib import (ACTIVE_KINDS, DEFAULT_SUBTYPE, BlockKind, ClockSpec, TechConfig,
                      block_params)


class _SpecFields(NamedTuple):
    length_slots: int
    period: float
    jitter: float = 0.0
    name: str = "link"


class LinkSpec(_SpecFields):
    """What a link must achieve: its span in pitch slots and target clock."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        spec = super().__new__(cls, *args, **kwargs)
        if not isinstance(spec.length_slots, int) or spec.length_slots < 1:
            raise GnocError(f"length_slots must be an int >= 1, got {spec.length_slots!r}")
        spec.clock  # ClockSpec checks period > jitter >= 0
        return spec

    @property
    def clock(self) -> ClockSpec:
        return ClockSpec(period=self.period, jitter=self.jitter)


class SearchLog(Sequence):
    """A search's log lines, one per candidate tried, in search order.

    Its length is the search's iteration count, known without the lines.
    The first read builds them, by calling make, and keeps them.  It
    compares, hashes and prints as the tuple of its lines.
    """

    __slots__ = ("_count", "_make", "_lines")

    def __init__(self, count: int, make):
        self._count, self._make, self._lines = count, make, None

    def _read(self) -> tuple[str, ...]:
        if self._lines is None:
            self._lines, self._make = tuple(self._make()), None
        return self._lines

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:  # len() overflows past sys.maxsize
        return self._count > 0

    def __getitem__(self, index):
        return self._read()[index]

    def __iter__(self):
        return iter(self._read())

    def __eq__(self, other):
        return self._read() == other

    def __hash__(self) -> int:
        return hash(self._read())

    def __repr__(self) -> str:
        return repr(self._read())


class SynthesisResult(NamedTuple):
    link: LinkSentence | None
    cost: float
    counts: tuple[int, int, int]   # (#W, #B, #R) over interior slots
    iterations: int
    valid: bool
    reasons: tuple[str, ...] = ()
    log: Sequence[str] = ()        # a SearchLog, or () when no candidate was tried


def insert_evenly(M: int, n: int) -> list[int]:
    """Evenly spread n block positions over M slots (1-based slot indices)."""
    if not 0 <= n <= M:
        raise GnocError(f"cannot place {n} blocks in {M} slots")
    return [int(math.floor(i * (M + 1) / (n + 1) + 0.5)) for i in range(1, n + 1)]


def link_cost(link: LinkSentence, cfg: TechConfig) -> float:
    """Total area in pitch units; the clock-buffered wire pays a surcharge."""
    area, surcharge, total = cfg.area_cost, cfg.cb_surcharge, 0.0
    for kind, sub in link.tokens:
        total += area[kind]
        if sub is not DEFAULT_SUBTYPE and sub.clock_buffered:
            total += surcharge
    return total


def assign_clock_subtypes(link: LinkSentence, spec: LinkSpec,
                          cfg: TechConfig) -> LinkSentence:
    """Promote the fewest W tokens to W.cb so every clock stage fits in T/2.

    Greedy left-to-right: runs of unbuffered slots grow until one more slot
    would breach the half-period bound, then the current wire takes a clock
    buffer.  Existing .cb tags are discarded and re-derived.
    """
    return _promote_clock_buffers(link, max_clock_run(cfg, spec.period))


def _promote_clock_buffers(link: LinkSentence, limit: int) -> LinkSentence:
    """assign_clock_subtypes for a known max_clock_run limit."""
    tokens = []
    run = 0
    for token in link.tokens:
        if token[0] in ACTIVE_KINDS:
            tokens.append(token)
            run = 0
        elif run + 1 > limit:
            tokens.append(TOKENS["W.cb"])
            run = 0
        else:
            tokens.append(TOKENS["W"])
            run += 1
    return LinkSentence(tuple(tokens))


def is_valid(link: LinkSentence, spec: LinkSpec, ts: TableSet,
             cfg: TechConfig) -> tuple[bool, list[str]]:
    """Pessimistic-mode validity: no timing, slew, or clock violations."""
    if len(link) != spec.length_slots + 2:
        return False, [f"token count {len(link)} does not match "
                       f"{spec.length_slots} slots"]
    try:
        report = analyze_link(link, ts, cfg, spec.clock, mode=LookupMode.PESSIMISTIC)
    except (SegmentTooLong, SlewOutOfRange) as exc:
        return False, [_error_reason(exc)]
    if report.violations:
        return False, [_reason(v) for v in report.violations]
    return True, []


def _reason(v: Violation) -> str:
    return f"{v.kind.value} at {v.location}: {v.detail}"


def _error_reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sub_run_tokens(src_s: bool, dst_s: bool, m: int, b: int) -> list[Token]:
    """R/S, m slots holding b evenly placed buffers, R/S; no .cb tags."""
    tokens = [TOKENS["RS"[src_s]], *[TOKENS["W"]] * m, TOKENS["RS"[dst_s]]]
    for p in insert_evenly(m, b):
        tokens[p] = TOKENS["B"]
    return tokens


def _assemble(M: int, reg_pos: list[int], budgets: tuple[int, ...]) -> LinkSentence:
    """Build S <interior> S with registers at reg_pos and per-sub-run buffers."""
    bounds = [0] + reg_pos + [M + 1]
    last = len(budgets) - 1
    tokens = [TOKENS["S"]]
    for j, b in enumerate(budgets):
        tokens += _sub_run_tokens(j == 0, j == last, bounds[j + 1] - bounds[j] - 1, b)[1:]
    return LinkSentence(tuple(tokens))


def _min_buffers_for_gap(m: int, K: int) -> int:
    """Fewest evenly-placed buffers so no segment exceeds K-1 intervening wires.

    b buffers split m wires into b + 1 runs of at most ceil((m - b) / (b + 1))
    wires, which is at most K - 1 exactly when b + 1 >= (m + 1) / K.
    """
    return -(-(m + 1) // K) - 1


_B_INDEX, *_END_INDEX = map(ACTIVE_KINDS.index, (BlockKind.B, BlockKind.R, BlockKind.S))


def _segment(n: int, limit: int, cfg: TechConfig, pieces: dict) -> tuple[str, list, int]:
    """A promoted segment of n wires: its text up to its destination, the NOMINAL
    delays of the clock stages it closes and its clock-buffer count, each W.cb and
    the destination.  pieces holds them by n for one limit."""
    if n <= limit:
        piece = ("W " * n, [clock_stage_delay(n, cfg, Corner.NOMINAL)], 1)
    else:  # k full stages, each closed by a W.cb, then the rest
        k, rest = divmod(n, limit + 1)
        text, delays, _ = pieces.get(limit) or _segment(limit, limit, cfg, pieces)
        tail = pieces.get(rest) or _segment(rest, limit, cfg, pieces)
        piece = ((text + "W.cb ") * k + tail[0], delays * k + tail[1], k + 1)
    pieces[n] = piece
    return piece


def _sub_run_steps(src_s: bool, dst_s: bool, m: int, b: int, limit: int, cfg: TechConfig,
                   pieces: dict) -> tuple[list[Step], list[float], str]:
    """Over a promoted sub-run: walk_link's steps, the NOMINAL clock-stage delays in
    token order and the text after the source; pieces as for _segment."""
    at = [0, *insert_evenly(m, b), m + 1]
    kinds = [_END_INDEX[src_s], *[_B_INDEX] * b, _END_INDEX[dst_s]]
    steps, delays, texts, buffers = [], [], [], 0
    for j in range(b + 1):
        n = at[j + 1] - at[j] - 1
        text, stage_delays, count = pieces.get(n) or _segment(n, limit, cfg, pieces)
        buffers += count
        steps.append((kinds[j], kinds[j + 1], n, j == 0, at[j], buffers))
        delays += stage_delays
        texts.append(text + ("B" if j < b else "RS"[dst_s]))
    return steps, delays, " ".join(texts)


def _chain_from_clock(steps: list, ts: TableSet, purpose: LookupPurpose,
                      cs: float) -> tuple[list, str | None]:
    """A sub-run's PESSIMISTIC stages from the clock slew, or no stages and the
    chain's error reason."""
    try:
        return _chain(steps, ts, LookupMode.PESSIMISTIC, purpose, cs, cs), None
    except (SegmentTooLong, SlewOutOfRange) as exc:
        return [], _error_reason(exc)


def _part(src_s: bool, dst_s: bool, m: int, b: int, launch: int, limit: int,
          clk: ClockSpec, ts: TableSet, cfg: TechConfig, pieces: dict) -> tuple:
    """A sub-run of m slots and b buffers launched at token launch: (" " and its
    text, setup error, hold error, SLEW_RANGE and path reasons, each led by "; ").
    When a chain raised there are no reasons: a candidate holding the sub-run is
    refused for the error."""
    steps, stage_delays, text = _sub_run_steps(src_s, dst_s, m, b, limit, cfg, pieces)
    cs = clock_slew(cfg)
    setup, setup_error = _chain_from_clock(steps, ts, LookupPurpose.SETUP_MAX, cs)
    hold, hold_error = _chain_from_clock(steps, ts, LookupPurpose.HOLD_MIN, cs)
    if setup_error or hold_error:
        return " " + text, setup_error, hold_error, "", ""
    paths = flop_paths(steps, setup, hold, stage_delays, cfg)
    _, slews, found = judge_paths(paths, clk, cfg.slew_legal_max, launch)
    return (" " + text, None, None, "".join("; " + _reason(v) for v in slews),
            "".join("; " + _reason(v) for v in found))


_SETUP, _HOLD = LookupPurpose.SETUP_MAX, LookupPurpose.HOLD_MIN


def _fits(src_s: bool, dst_s: bool, m: int, b: int, limit: int, clk: ClockSpec,
          ts: TableSet, cfg: TechConfig, pieces: dict) -> bool:
    """not any(_part(src_s, dst_s, m, b, 0, ...)[1:]), decided as soon as it is known.

    The setup pass walks the segments from insert_evenly's positions through
    ts.memo, as _chain does from the clock slew, and stops at the first error,
    slew past the legal max or running delay past the period: delays are never
    negative, so a running sum never decreases.  The skew then folds the pieces'
    stage delays from 0.0 as flop_paths does, and only a setup pass that meets
    setup chains the hold pass, both judged as hasta.judge_paths judges."""
    period, slew_max, cs = clk.period, cfg.slew_legal_max, clock_slew(cfg)
    views, memo = ts.views[_SETUP], ts.memo[_SETUP]
    src, dst_end = _END_INDEX[src_s], _END_INDEX[dst_s]
    at, slew, d_max, segments = 0, cs, 0.0, []
    try:
        for j in range(1, b + 2):  # buffer j at insert_evenly's position, then the end
            dst, to = ((_B_INDEX, int(math.floor(j * (m + 1) / (b + 1) + 0.5))) if j <= b
                       else (dst_end, m + 1))
            n, cell = to - at - 1, memo[src][dst]
            stage = cell.get((n, slew))
            if stage is None:
                stage = cell[n, slew] = view_lookup(views[src][dst], n, slew,
                                                    LookupMode.PESSIMISTIC, _SETUP)
            delay, slew, _ = stage
            d_max += delay
            if slew > slew_max or d_max > period:
                return False
            segments.append((src, dst, n))
            src, at = _B_INDEX, to
        skew = 0.0
        for _, _, n in segments:
            for delay in (pieces.get(n) or _segment(n, limit, cfg, pieces))[1]:
                skew += delay
        params = block_params(cfg, ACTIVE_KINDS[dst_end])
        if not meets_setup(clk, skew, d_max, params.t_su):
            return False
        views, memo = ts.views[_HOLD], ts.memo[_HOLD]
        slew, d_min = cs, 0.0
        for src, dst, n in segments:
            cell = memo[src][dst]
            stage = cell.get((n, slew))
            if stage is None:
                stage = cell[n, slew] = view_lookup(views[src][dst], n, slew,
                                                    LookupMode.PESSIMISTIC, _HOLD)
            delay, slew, _ = stage
            d_min += delay
    except (SegmentTooLong, SlewOutOfRange):
        return False
    return meets_hold(d_min, skew, params.t_h)


def _past_floor(m: int, ts: TableSet, period: float) -> bool:
    """Whether no b fits an m-slot sub-run by the delay floor: see the module docstring."""
    return ts.delay_floor * (m + 1) > period * (1.0 + 1e-9)


def synthesize_link(spec: LinkSpec, ts: TableSet, cfg: TechConfig) -> SynthesisResult:
    """The first valid candidate of the (registers, buffers) schedule, found by a
    register-count scan that judges each sub-run by _fits' early-stopping verdict;
    reasons are built only for the log, which enumerates the candidates on first
    read."""
    M = spec.length_slots
    try:
        limit = max_clock_run(cfg, spec.period)
    except ClockUnsatisfiable as exc:  # no candidate can be valid: try none
        return SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0),
                               iterations=0, valid=False,
                               reasons=(f"ClockUnsatisfiable: {exc}",))
    check_tables(ts, cfg)
    clk = spec.clock
    pieces: dict = {}  # wire count -> _segment
    first: dict = {}   # (source is S, destination is S, m) -> (b, text) of its first valid part

    def first_valid(src_s, dst_s, m, least):
        if _past_floor(m, ts, clk.period):
            return None
        for b in range(least, m + 1):
            if _fits(src_s, dst_s, m, b, limit, clk, ts, cfg, pieces):
                return b, " " + _sub_run_steps(src_s, dst_s, m, b, limit, cfg, pieces)[2]
        return None

    search = partial(_search_log, M, limit, clk, ts, cfg)
    tried = 0
    for r in range(M + 1):
        bounds = [0, *insert_evenly(M, r), M + 1]
        lens = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        minima = [_min_buffers_for_gap(m, ts.K) for m in lens]
        parts = []
        for j, (m, least) in enumerate(zip(lens, minima)):
            key = (j == 0, j == r, m)
            if key not in first:
                first[key] = first_valid(*key, least)
            if first[key] is None:
                break
            parts.append(first[key])
        else:  # the winner: each sub-run at its own smallest valid b
            text = "S" + "".join(t for _, t in parts)
            iterations = tried + 1 + _rank([m - least for m, least in zip(lens, minima)],
                                           [b - least for (b, _), least in zip(parts, minima)])
            link = LinkSentence(tuple(map(TOKENS.__getitem__, text.split())))
            counts = (text.count("W"), text.count("B"), text.count("R"))  # W.cb is a W
            return SynthesisResult(link=link, cost=link_cost(link, cfg), counts=counts,
                                   iterations=iterations, valid=True,
                                   log=SearchLog(iterations, search))
        tried += math.prod(m - least + 1 for m, least in zip(lens, minima))
    # exhausted: the last candidate tried is S R ... R S, and its reasons are the result's
    _, reasons = is_valid(LinkSentence((TOKENS["S"], *[TOKENS["R"]] * M, TOKENS["S"])),
                          spec, ts, cfg)
    return SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0), iterations=tried,
                           valid=False, reasons=tuple(reasons), log=SearchLog(tried, search))


def _rank(widths: list[int], offsets: list[int]) -> int:
    """How many vectors x with 0 <= x[j] <= widths[j] come before offsets in
    (total, lexicographic) order."""
    total = sum(offsets)
    if not total:
        return 0
    ways = [1] + [0] * total  # ways[s]: vectors over the levels after j summing to s
    rank = rest = 0
    for w, y in zip(reversed(widths), reversed(offsets)):
        rest += y  # offsets from level j on
        rank += sum(ways[rest - y + 1:rest + 1])  # x[j] < y, the later levels the rest
        sums = [0, *accumulate(ways)]
        ways = [sums[s + 1] - sums[max(s - w, 0)] for s in range(total + 1)]
    return rank + sum(ways[:total])


def _search_log(M: int, limit: int, clk: ClockSpec, ts: TableSet,
                cfg: TechConfig) -> Iterator[str]:
    """The schedule enumerated: each candidate's text and verdict, in search order,
    up to the first valid one."""
    pieces: dict = {}  # wire count -> _segment
    log: list[str] = []

    def walk(j, left, text, setup, hold, slews, found):
        """Try and log, in search order, the candidates whose levels before j make the
        prefix and whose levels from j on hold left buffers; the winner's text, or None."""
        row = rows[j]
        for b in range(max(minima[j], left - most[j + 1]), min(lens[j], left - least[j + 1]) + 1):
            t, s, h, sl, fd = row[b] or part(j, b)
            t, s, h, sl, fd = text + t, setup or s, hold or h, slews + sl, found + fd
            if j + 1 < last:
                won = walk(j + 1, left - b, t, s, h, sl, fd)
                if won is not None:
                    return won
                continue
            # the last level holds what is left
            t2, s2, h2, sl2, fd2 = rows[last][left - b] or part(last, left - b)
            t += t2
            why = s or s2 or h or h2 or (sl + sl2 + fd + fd2)[2:]  # less the first "; "
            log.append(f"{t} -> {why or 'valid'}")
            if not why:
                return t
        return None

    def part(j, b):
        """Level j's part of b buffers, kept for the rest of this r."""
        p = rows[j][b] = _part(j == 1, j == last, lens[j], b, bounds[j - 1], limit, clk,
                               ts, cfg, pieces)
        return p

    for r in range(M + 1):
        # level 0 is the source S, levels 1..r + 1 the sub-runs between R/S blocks
        bounds = [0, *insert_evenly(M, r), M + 1]
        lens = [0] + [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        minima = [0] + [_min_buffers_for_gap(m, ts.K) for m in lens[1:]]
        least = [*accumulate(reversed(minima), initial=0)][::-1]  # level j on
        most = [*accumulate(reversed(lens), initial=0)][::-1]
        last = r + 1
        rows = [[("S", None, None, "", "")]]
        rows += [[None] * (m + 1) for m in lens[1:]]
        for total in range(least[0], most[0] + 1):  # by total, then lexicographically
            won = walk(0, total, "", None, None, "", "")
            yield from log
            if won is not None:
                return
            log.clear()
