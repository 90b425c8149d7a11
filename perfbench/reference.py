"""Independent, linear-time recomputation of analyze_link's path checks.

It re-derives what a PESSIMISTIC, clock-at-token-0 analysis must report --
per-path setup/hold slacks and the set of violation kinds -- from the public
building blocks (one table lookup per segment, the clock-stage delay, block
parameters) instead of from hasta's own loops.  The benchmark compares the
two on every generated link, so a faster analyze_link must still agree.
"""

from __future__ import annotations

from collections import Counter

from gnoc.characterize import LookupMode, LookupPurpose, table_lookup
from gnoc.golden import Corner, clock_stage_delay
from gnoc.techlib import BlockKind, block_params

FLOPS = (BlockKind.R, BlockKind.S)


def _stage_delays(link, active, ts, cfg, purpose):
    """Per-segment delays and output slews, relaunching at every flop."""
    clock_slew = block_params(cfg, BlockKind.B).cb_s0
    slew = clock_slew
    delays, slews = [], []
    for a, b in zip(active, active[1:]):
        src, dst = link.tokens[a][0], link.tokens[b][0]
        slew_in = clock_slew if src in FLOPS else slew
        res = table_lookup(ts, src, dst, b - a - 1, slew_in,
                           LookupMode.PESSIMISTIC, purpose)
        delays.append(res.delay)
        slews.append(res.slew_out)
        slew = res.slew_out
    return delays, slews


def _clock_latencies(link, cfg):
    """Latency per token for a clock entering at token 0 (NOMINAL corner)."""
    latencies = []
    lat = 0.0
    last_buffer = None
    for i, (kind, sub) in enumerate(link.tokens):
        if kind is not BlockKind.W or sub.clock_buffered:
            if last_buffer is not None:
                lat += clock_stage_delay(i - last_buffer - 1, cfg, Corner.NOMINAL)
            last_buffer = i
        latencies.append(lat)
    return latencies


def link_checks(link, ts, cfg, period: float, jitter: float = 0.0):
    """Return ([(launch, capture, setup_slack, hold_slack)], Counter of violation kinds)."""
    active = [i for i, (k, _) in enumerate(link.tokens) if k is not BlockKind.W]
    d_max, slews = _stage_delays(link, active, ts, cfg, LookupPurpose.SETUP_MAX)
    d_min, _ = _stage_delays(link, active, ts, cfg, LookupPurpose.HOLD_MIN)
    lat = _clock_latencies(link, cfg)
    kinds = Counter()
    kinds["SLEW_RANGE"] += sum(s > cfg.slew_legal_max for s in slews)

    paths = []
    first = 0                      # first segment of the current flop-to-flop run
    for j, b in enumerate(active[1:]):
        capture_kind = link.tokens[b][0]
        if capture_kind not in FLOPS:
            continue
        launch = active[first]
        path_max = sum(d_max[first:j + 1])
        path_min = sum(d_min[first:j + 1])
        skew = lat[b] - lat[launch]
        q = block_params(cfg, capture_kind)
        setup = (period - jitter) + skew - (path_max + q.t_su)
        hold = path_min - skew - q.t_h
        paths.append((launch, b, setup, hold))
        kinds["SETUP"] += setup < 0.0
        kinds["HOLD"] += hold < 0.0
        kinds["COMB_GT_PERIOD"] += path_max > period
        first = j + 1

    buffers = [i for i, (k, sub) in enumerate(link.tokens)
               if k is not BlockKind.W or sub.clock_buffered]
    kinds["CLOCK_UNBUFFERED_GT_HALF_PERIOD"] += sum(
        clock_stage_delay(b - a - 1, cfg, Corner.MAX) >= period / 2.0
        for a, b in zip(buffers, buffers[1:]))
    return paths, +kinds
