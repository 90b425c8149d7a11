"""Minimal-cost link synthesis by staged buffer and register insertion.

Candidates start as all plain wire; buffers are added one at a time, evenly
placed, and when no all-wire/buffer mix can close timing the search switches
to registers (again evenly placed), re-buffering each registered sub-run.
The first valid candidate under this schedule is the cheapest even-placement
solution: register count first, then total buffer count.  Every candidate
tried is logged with its verdict.

Clock-buffer sub-types follow a greedy rule: no clock stage may span more
than max_clock_run(T) unbuffered slots, the most whose MAX-corner delay stays
below T/2.  The limit depends only on the period, so it is found once per
call; when even a zero-slot stage reaches T/2 no candidate can be valid, and
the spec is refused for ClockUnsatisfiable before any is tried.  Otherwise no
promoted candidate has a clock stage at T/2, since the stage delay grows with
the slot count.

A candidate with r registers is S + run_0 + R + ... + R + run_r + S, where a
sub-run is the wires and buffers between two consecutive R/S blocks.  Inside
one synthesize_link call each sub-run is analyzed once, keyed by (its source
is S, its destination is S, its slot count, its buffer count).  Its record is
built from its block positions, with no tokens: a segment of n wires holds
k, rest = divmod(n, limit + 1) W.cb, so its steps, clock stages and text
follow by arithmetic.  A record keeps the text, and each raising chain's
error or else the one flop-to-flop path as a hasta.flop_paths record, chained
from the clock slew as analyze_link relaunches every PESSIMISTIC path.  The
winner is parse_link of its text.  Records and stage delays are per call.

The clock is fixed inside a call, so each (sub-run key, launch token) is
judged once by hasta.judge_paths and its reasons are formatted once.  A
candidate's reasons are all its sub-runs' SLEW_RANGE reasons, then all their
path reasons: the order judge_paths gives over the whole candidate.  A record
holds all its verdict needs, skew included, so the verdicts are is_valid's
bit for bit.  analyze_link chains the whole setup pass before the hold pass,
so a candidate holding a raising sub-run is refused for the first setup-pass
error in sub-run order, else the first hold-pass one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .characterize import LookupMode, LookupPurpose, TableSet
from .errors import ClockUnsatisfiable, GnocError, SegmentTooLong, SlewOutOfRange
from .golden import Corner, clock_stage_delay
from .grammar import LinkSentence, Step, Token, parse_link
from .hasta import (FlopPath, Violation, _chain, analyze_link, check_tables,
                    clock_slew, flop_paths, judge_paths)
from .techlib import (ACTIVE_KINDS, CB_SUBTYPE, DEFAULT_SUBTYPE, BlockKind,
                      ClockSpec, TechConfig)


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


class SynthesisResult(NamedTuple):
    link: LinkSentence | None
    cost: float
    counts: tuple[int, int, int]   # (#W, #B, #R) over interior slots
    iterations: int
    valid: bool
    reasons: tuple[str, ...] = ()
    log: tuple[str, ...] = ()


def insert_evenly(M: int, n: int) -> list[int]:
    """Evenly spread n block positions over M slots (1-based slot indices)."""
    if not 0 <= n <= M:
        raise GnocError(f"cannot place {n} blocks in {M} slots")
    return [int(math.floor(i * (M + 1) / (n + 1) + 0.5)) for i in range(1, n + 1)]


def link_cost(link: LinkSentence, cfg: TechConfig) -> float:
    """Total area in pitch units; the clock-buffered wire pays a surcharge."""
    total = 0.0
    for kind, sub in link.tokens:
        total += cfg.area_cost[kind]
        if sub.clock_buffered:
            total += cfg.cb_surcharge
    return total


def max_clock_run(cfg: TechConfig, period: float) -> int:
    """Largest unbuffered slot count a clock stage tolerates at MAX corner.

    Raises ClockUnsatisfiable when even back-to-back buffers (zero slots)
    breach the half-period bound.
    """
    half = period / 2.0
    if clock_stage_delay(0, cfg, Corner.MAX) >= half:
        raise ClockUnsatisfiable(
            f"clock stage with zero unbuffered slots already >= T/2 = {half:.6g}")
    # the stage delay grows with n (techlib._validate), so the n that fit are
    # 0..answer: double past the answer, then bisect, lo fitting and hi not
    lo, hi = 0, 1
    while clock_stage_delay(hi, cfg, Corner.MAX) < half:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clock_stage_delay(mid, cfg, Corner.MAX) < half:
            lo = mid
        else:
            hi = mid
    return lo


def assign_clock_subtypes(link: LinkSentence, spec: LinkSpec,
                          cfg: TechConfig) -> LinkSentence:
    """Promote the fewest W tokens to W.cb so every clock stage fits in T/2.

    Greedy left-to-right: runs of unbuffered slots grow until one more slot
    would breach the half-period bound, then the current wire takes a clock
    buffer.  Existing .cb tags are discarded and re-derived.
    """
    return _promote_clock_buffers(link, max_clock_run(cfg, spec.period))


_W, _CB_WIRE = (BlockKind.W, DEFAULT_SUBTYPE), (BlockKind.W, CB_SUBTYPE)
_B, _R, _S = ((kind, DEFAULT_SUBTYPE) for kind in (BlockKind.B, BlockKind.R, BlockKind.S))


def _promote_clock_buffers(link: LinkSentence, limit: int) -> LinkSentence:
    """assign_clock_subtypes for a known max_clock_run limit."""
    tokens = []
    run = 0
    for token in link.tokens:
        if token[0] in ACTIVE_KINDS:
            tokens.append(token)
            run = 0
        elif run + 1 > limit:
            tokens.append(_CB_WIRE)
            run = 0
        else:
            tokens.append(_W)
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
    tokens = [(_R, _S)[src_s], *[_W] * m, (_R, _S)[dst_s]]
    for p in insert_evenly(m, b):
        tokens[p] = _B
    return tokens


def _assemble(M: int, reg_pos: list[int], budgets: tuple[int, ...]) -> LinkSentence:
    """Build S <interior> S with registers at reg_pos and per-sub-run buffers."""
    bounds = [0] + reg_pos + [M + 1]
    last = len(budgets) - 1
    tokens = [(BlockKind.S, DEFAULT_SUBTYPE)]
    for j, b in enumerate(budgets):
        tokens += _sub_run_tokens(j == 0, j == last, bounds[j + 1] - bounds[j] - 1, b)[1:]
    return LinkSentence(tuple(tokens))


def _budget_vectors(bounds: list[int], minima: list[int]):
    """Yield buffer-count vectors in increasing total order, lexicographic within."""
    for total in range(sum(minima), sum(bounds) + 1):
        yield from _compositions(total, bounds, minima, 0)


def _compositions(total, bounds, minima, j):
    if j == len(bounds) - 1:
        if minima[j] <= total <= bounds[j]:
            yield (total,)
        return
    rest_min = sum(minima[j + 1:])
    rest_max = sum(bounds[j + 1:])
    for b in range(max(minima[j], total - rest_max),
                   min(bounds[j], total - rest_min) + 1):
        for tail in _compositions(total - b, bounds, minima, j + 1):
            yield (b,) + tail


def _min_buffers_for_gap(m: int, K: int) -> int:
    """Fewest evenly-placed buffers so no segment exceeds K-1 intervening wires.

    b buffers split m wires into b + 1 runs of at most ceil((m - b) / (b + 1))
    wires, which is at most K - 1 exactly when b + 1 >= (m + 1) / K.
    """
    return -(-(m + 1) // K) - 1


class _SubRun(NamedTuple):
    """What a candidate reads of one of its sub-runs, wherever the sub-run sits."""

    text: str                  # its tokens after the source, .cb promoted
    setup_error: str | None    # the setup chain's error reason, None when it ran
    hold_error: str | None     # the hold chain's
    path: FlopPath | None      # hasta.flop_paths record; None when a chain raised


_B_INDEX, *_END_INDEX = map(ACTIVE_KINDS.index, (BlockKind.B, BlockKind.R, BlockKind.S))


def _sub_run_steps(src_s: bool, dst_s: bool, m: int, b: int, limit: int, cfg: TechConfig,
                   delay_of: dict) -> tuple[list[Step], list[float], str]:
    """Over a promoted sub-run: walk_link's steps, the NOMINAL clock-stage delays in
    token order (delay_of by token distance, filled as met), the text after the source."""
    limit = min(limit, m)  # a longer run promotes nothing here either
    span, promoted = limit + 1, "W " * limit + "W.cb "
    at = [0, *insert_evenly(m, b), m + 1]
    kinds = [_END_INDEX[src_s], *[_B_INDEX] * b, _END_INDEX[dst_s]]
    steps, delays, texts, buffers = [], [], [], 0
    for j in range(b + 1):
        n = at[j + 1] - at[j] - 1
        k, rest = divmod(n, span)
        buffers += k + 1  # the segment's W.cb and its destination
        steps.append((kinds[j], kinds[j + 1], n, j == 0, at[j], buffers))
        for d, count in ((span, k), (rest + 1, 1)) if k else ((rest + 1, 1),):
            if d not in delay_of:
                delay_of[d] = clock_stage_delay(d - 1, cfg, Corner.NOMINAL)
            delays += [delay_of[d]] * count
        texts.append(promoted * k + "W " * rest + ("B" if j < b else "RS"[dst_s]))
    return steps, delays, " ".join(texts)


def _chain_from_clock(steps: list, ts: TableSet, purpose: LookupPurpose,
                      cs: float) -> tuple[list, str | None]:
    """A sub-run's PESSIMISTIC stages from the clock slew, or no stages and the
    chain's error reason."""
    try:
        return _chain(steps, ts, LookupMode.PESSIMISTIC, purpose, cs, cs), None
    except (SegmentTooLong, SlewOutOfRange) as exc:
        return [], _error_reason(exc)


def _analyze_sub_run(src_s: bool, dst_s: bool, m: int, b: int, limit: int,
                     ts: TableSet, cfg: TechConfig, delay_of: dict) -> _SubRun:
    """The record of a sub-run.  When a chain raised it has no path: a
    candidate holding the sub-run is refused for the error."""
    steps, stage_delays, text = _sub_run_steps(src_s, dst_s, m, b, limit, cfg, delay_of)
    cs = clock_slew(cfg)
    setup, setup_error = _chain_from_clock(steps, ts, LookupPurpose.SETUP_MAX, cs)
    hold, hold_error = _chain_from_clock(steps, ts, LookupPurpose.HOLD_MIN, cs)
    path = (flop_paths(steps, setup, hold, stage_delays, cfg)[0]
            if setup_error is None and hold_error is None else None)
    return _SubRun(text, setup_error, hold_error, path)


def _verdict(path: FlopPath, launch: int, clk: ClockSpec,
             slew_max: float) -> tuple[list[str], list[str]]:
    """The SLEW_RANGE reasons and the path reasons of a sub-run launched at
    token launch."""
    _, slews, found = judge_paths([path], clk, slew_max, launch)
    return [_reason(v) for v in slews], [_reason(v) for v in found]


def _chain_error(runs: list[_SubRun]) -> str:
    """analyze_link's chain error for a candidate of runs, one of which raised:
    the whole setup pass runs before the hold pass, each relaunching at every R/S."""
    errors = [run.setup_error for run in runs] + [run.hold_error for run in runs]
    return next(error for error in errors if error is not None)


def _schedule(M: int, K: int):
    """The candidates in search order, each as its sub-run keys, a key being
    (source is S, destination is S, slots, buffers)."""
    for r in range(0, M + 1):
        reg_pos = insert_evenly(M, r)
        bounds = [0] + reg_pos + [M + 1]
        sub_lens = [hi - lo - 1 for lo, hi in zip(bounds, bounds[1:])]
        minima = [_min_buffers_for_gap(m, K) for m in sub_lens]
        ends = [True] + [False] * r + [True]
        for budgets in _budget_vectors(sub_lens, minima):
            yield list(zip(ends, ends[1:], sub_lens, budgets))


def synthesize_link(spec: LinkSpec, ts: TableSet, cfg: TechConfig) -> SynthesisResult:
    """Search the (registers, buffers) schedule for the first valid candidate."""
    M = spec.length_slots
    try:
        limit = max_clock_run(cfg, spec.period)
    except ClockUnsatisfiable as exc:  # no candidate can be valid: try none
        return SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0),
                               iterations=0, valid=False,
                               reasons=(f"ClockUnsatisfiable: {exc}",))
    check_tables(ts, cfg)
    clk = spec.clock
    slew_max = cfg.slew_legal_max
    records: dict = {}  # sub-run key -> _SubRun
    delay_of: dict = {}  # clock-stage token distance -> NOMINAL delay
    verdicts: dict = {}  # (sub-run key, launch token) -> _verdict
    iterations = 0
    log: list[str] = []
    reasons: list[str] = ["no candidate attempted"]
    for keys in _schedule(M, ts.K):
        iterations += 1
        runs = []
        for key in keys:
            run = records.get(key)
            if run is None:
                run = records[key] = _analyze_sub_run(*key, limit, ts, cfg, delay_of)
            runs.append(run)
        text = "S " + " ".join([run.text for run in runs])
        slews, found, launch = [], [], 0
        for key, run in zip(keys, runs):
            if run.path is None:
                reasons = [_chain_error(runs)]
                break
            verdict = verdicts.get((key, launch))
            if verdict is None:
                verdict = verdicts[key, launch] = _verdict(run.path, launch, clk, slew_max)
            slews += verdict[0]
            found += verdict[1]
            launch += run.path[0]
        else:
            reasons = slews + found
        if not reasons:
            log.append(f"{text} -> valid")
            link = parse_link(text)
            kinds = link.kinds()[1:-1]
            counts = (kinds.count(BlockKind.W), kinds.count(BlockKind.B),
                      kinds.count(BlockKind.R))
            return SynthesisResult(link=link, cost=link_cost(link, cfg),
                                   counts=counts, iterations=iterations,
                                   valid=True, log=tuple(log))
        log.append(f"{text} -> {'; '.join(reasons)}")

    return SynthesisResult(link=None, cost=math.inf, counts=(0, 0, 0),
                           iterations=iterations, valid=False,
                           reasons=tuple(reasons), log=tuple(log))
