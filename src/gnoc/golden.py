"""Analytical delay/slew oracle used as the characterization ground truth.

Wire delay follows a discrete uniform RC ladder (Elmore), block delay is
linear in input slew and load, and output slew combines the driver slew with
wire degradation in quadrature.  Deterministic and corner-derated, so it
doubles as the reference when validating table-based analysis.

The clock model works per buffer, not per token: clock_stage_delays takes
the clock-buffer tokens that grammar.walk_link collects in its one walk over
a link and evaluates each distinct stage length once.  golden_clock_analyze
sums those delays into a latency at every token and lists every stage span;
link analysis reads the stage delays alone and builds spans only for late
stages.  The half-period limit lives here too: clock_stage_fits(n, T) compares
an n-slot stage's MAX delay with T/2, and max_clock_run(T) finds the largest n
from the root of that delay's quadratic in n.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import sub
from typing import NamedTuple

from .errors import ClockUnsatisfiable, InvalidValue
from .grammar import Frozen, LinkSentence, segment_decompose, walk_link
from .techlib import ACTIVE_KINDS, BlockKind, TechConfig, block_params


class Corner(Enum):
    MIN = "min"
    NOMINAL = "nominal"
    MAX = "max"
    __hash__ = object.__hash__  # members are singletons; Enum's hash is Python code


def derate(cfg: TechConfig, corner: Corner) -> float:
    if corner is Corner.MIN:
        return cfg.derate_min
    if corner is Corner.MAX:
        return cfg.derate_max
    return 1.0


class StageResult(NamedTuple):
    """Delay through one segment and the slew at the destination input pin."""

    delay: float
    slew_out: float
    clamped: bool = False  # input slew was below the table grid (lookup paths only)


def elmore_wire_delay(n: int, r_w: float, c_w: float,
                      r_drv: float, c_load: float) -> float:
    """Elmore delay of a driver plus n identical RC slots into c_load."""
    if n < 0:
        raise InvalidValue(f"slot count must be >= 0, got {n}")
    return r_drv * (n * c_w + c_load) + r_w * c_w * n * (n + 1) / 2 + r_w * n * c_load


def golden_segment(src: BlockKind, dst: BlockKind, n_wires: int, slew_in: float,
                   corner: Corner, cfg: TechConfig) -> StageResult:
    """Exact delay/slew of one segment: src block driving n_wires slots into dst."""
    if src not in ACTIVE_KINDS or dst not in ACTIVE_KINDS:
        raise InvalidValue(f"segment endpoints must be active, got {src}->{dst}")
    if n_wires < 0:
        raise InvalidValue(f"n_wires must be >= 0, got {n_wires}")
    p = block_params(cfg, src)
    q = block_params(cfg, dst)
    # Registers launch from the clock edge: intrinsic delay is clock-to-output.
    d0 = p.d_cq if src is BlockKind.R else p.d0
    c_tot = n_wires * cfg.pitch_c + q.c_in
    d_wire = (cfg.pitch_r * cfg.pitch_c * n_wires * (n_wires + 1) / 2
              + cfg.pitch_r * n_wires * q.c_in)
    delay = derate(cfg, corner) * (d0 + p.k_sl * slew_in + p.r_drv * c_tot + d_wire)
    s_drv = p.s0 + p.k_sin * slew_in + p.k_sload * c_tot
    slew_out = math.hypot(s_drv, cfg.beta * d_wire)
    return StageResult(delay=delay, slew_out=slew_out)


class PathResult(Frozen):
    """A chained path analysis, from the oracle or from the tables: its stages
    and arrivals, the cumulative delay at each active block after the first."""

    __slots__ = ("stages", "arrivals")

    def __init__(self, stages: tuple[StageResult, ...], arrivals: tuple[float, ...]):
        self._set(stages, arrivals)

    @property
    def total_delay(self) -> float:
        return self.arrivals[-1] if self.arrivals else 0.0

    @property
    def lookup_count(self) -> int:
        return len(self.stages)

    @property
    def clamped(self) -> bool:
        """Whether any table lookup clamped its input slew (never for the oracle)."""
        return any(st.clamped for st in self.stages)


def golden_path_analyze(link: LinkSentence, launch_slew: float, corner: Corner,
                        cfg: TechConfig) -> PathResult:
    """Chain golden_segment over the link's segments, slew feeding forward."""
    stages = []
    arrivals = []
    slew = launch_slew
    total = 0.0
    for seg in segment_decompose(link):
        res = golden_segment(seg.src_kind, seg.dst_kind, seg.n_wires, slew, corner, cfg)
        stages.append(res)
        total += res.delay
        arrivals.append(total)
        slew = res.slew_out
    return PathResult(stages=tuple(stages), arrivals=tuple(arrivals))


class ClockResult(NamedTuple):
    latencies: tuple[float, ...]      # per token, at its governing clock buffer
    stage_delays: tuple[float, ...]   # between consecutive clock buffers
    stage_spans: tuple[tuple[int, int], ...]  # (buffer token, next buffer token)


def clock_buffer_indices(link: LinkSentence) -> list[int]:
    """Tokens carrying a clock buffer: every active block plus every W.cb."""
    return walk_link(link)[1]


def clock_stage_delay(n: int, cfg: TechConfig, corner: Corner) -> float:
    """Delay of one clock stage: buffer plus n unbuffered slots to the next buffer."""
    p = block_params(cfg, BlockKind.B)  # cb_* fields are shared across kinds
    wire = elmore_wire_delay(n, cfg.pitch_r, cfg.pitch_c, p.cb_r_drv, p.cb_c_in)
    return derate(cfg, corner) * (p.cb_d0 + wire)


def clock_stage_fits(n: int, cfg: TechConfig, period: float) -> bool:
    """Whether a clock stage over n unbuffered slots has its MAX-corner delay below T/2."""
    return clock_stage_delay(n, cfg, Corner.MAX) < period / 2.0


def max_clock_run(cfg: TechConfig, period: float) -> int:
    """Most unbuffered slots a clock stage may span with its MAX-corner delay below
    T/2; ClockUnsatisfiable when even back-to-back buffers (zero slots) reach it,
    InvalidValue when T is not finite.

    The stage delay grows with n (techlib._validate), so the n that fit are
    0..answer.  The answer is read off the root of the delay's quadratic in n
    and confirmed at n and n + 1; should rounding put it a slot off, doubling
    and bisection find it.
    """
    if not math.isfinite(period):
        raise InvalidValue(f"period must be finite, got {period!r}")
    if not clock_stage_fits(0, cfg, period):
        raise ClockUnsatisfiable(
            f"clock stage with zero unbuffered slots already >= T/2 = {period / 2.0:.6g}")
    n = _clock_run_guess(cfg, period)
    if clock_stage_fits(n, cfg, period) and not clock_stage_fits(n + 1, cfg, period):
        return n
    # double past the answer, then bisect, lo fitting and hi not
    lo, hi = 0, 1
    while clock_stage_fits(hi, cfg, period):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clock_stage_fits(mid, cfg, period):
            lo = mid
        else:
            hi = mid
    return lo


def _clock_run_guess(cfg: TechConfig, period: float) -> int:
    """max_clock_run up to rounding: the MAX-corner stage delay over its derate is
    a n^2 + b n + c + T/2 over the derate, so the answer lies just below the root."""
    p = block_params(cfg, BlockKind.B)
    a = cfg.pitch_r * cfg.pitch_c / 2.0
    b = p.cb_r_drv * cfg.pitch_c + a + cfg.pitch_r * p.cb_c_in
    c = p.cb_d0 + p.cb_r_drv * p.cb_c_in - period / 2.0 / cfg.derate_max
    root = -2.0 * c / (b + math.sqrt(b * b - 4.0 * a * c))  # no cancellation: c < 0
    return max(math.ceil(root) - 1, 0)


def clock_stage_delays(buffers: list[int], cfg: TechConfig, corner: Corner,
                       entry_index: int = 0) -> dict[int, float]:
    """Delay of each distinct clock stage of a link, by its token distance.

    buffers are clock_buffer_indices(link), in token order.  A stage's token
    distance is its wire count plus one; each distinct one is evaluated once.
    The clock enters at the first token (entry_index 0) or at the last
    (len(link) - 1), which reverses the propagation order but not the delays;
    any other entry raises ValueError.
    """
    if entry_index not in (0, buffers[-1]):
        raise ValueError(f"clock must enter at a link end, got token {entry_index}")
    return {n: clock_stage_delay(n - 1, cfg, corner)
            for n in set(map(sub, buffers[1:], buffers))}


def golden_clock_analyze(link: LinkSentence, cfg: TechConfig, corner: Corner,
                         entry_index: int = 0) -> ClockResult:
    """Clock latency at every token, for a clock entering at either link end.

    A token's latency is the one at its governing buffer, the last buffer at
    or before it in propagation order: the running sum of the stage delays
    before that buffer, zero at the entry.  Stage delays and spans run in
    propagation order.
    """
    buffers = clock_buffer_indices(link)
    delay_of = clock_stage_delays(buffers, cfg, corner, entry_index)
    far = entry_index != 0
    if far:  # propagation order runs against token order
        buffers.reverse()
    spans = tuple(zip(buffers, buffers[1:]))
    stage_delays = tuple(delay_of[abs(b - a)] for a, b in spans)
    latencies = []  # in propagation order
    lat = 0.0
    for (a, b), delay in zip(spans, stage_delays):
        latencies += [lat] * abs(b - a)  # the stage's buffer and its wires
        lat += delay
    latencies.append(lat)
    if far:
        latencies.reverse()
    return ClockResult(latencies=tuple(latencies), stage_delays=stage_delays,
                       stage_spans=spans)
