"""Technology configuration: per-block electrical/timing parameters and grid constants.

All quantities are in abstract units: tu (time), ru (resistance), cu
(capacitance), su (slew).  The config file is line-oriented ``key = value``
text with ``[kind X]`` sections; see ``data/default_tech.cfg`` for the
shipped defaults.  A key given twice in one scope, or a section given twice,
is refused (ParseError) rather than letting the last one win.
``slew_legal_min`` is parsed, validated and digested, but no check reads it:
SLEW_RANGE compares slews with ``slew_legal_max`` only.
"""

from __future__ import annotations

import hashlib
import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import InvalidValue, MissingKey, ParseError


class BlockKind(Enum):
    """The four link block kinds.  W is passive; B, R, S are active."""

    W = "W"  # plain wire
    B = "B"  # buffered wire
    R = "R"  # registered (pipelining) wire
    S = "S"  # switch/router
    __hash__ = object.__hash__  # members are singletons; Enum's hash is Python code

    def __str__(self):
        return self.value


ACTIVE_KINDS = (BlockKind.B, BlockKind.R, BlockKind.S)

# the largest K and L: build_tables makes and keeps 2 x 9 x L x K oracle cells,
# which at K = L = 256 take seconds and over 100 MB
GRID_MAX = 256


class SubtypeTag(NamedTuple):
    """Block sub-type selector.

    clock_buffered selects the clock-buffered wire variant (written ``.cb``);
    it is only meaningful for kind W since active blocks always buffer the
    clock.
    """

    clock_buffered: bool = False


DEFAULT_SUBTYPE = SubtypeTag()
CB_SUBTYPE = SubtypeTag(clock_buffered=True)


class BlockParams(NamedTuple):
    """Electrical/timing parameters of one block kind.

    d0: intrinsic delay (tu); k_sl: delay sensitivity to input slew;
    r_drv: driver resistance (ru); c_in: input pin capacitance (cu);
    s0/k_sin/k_sload: output-slew model coefficients.  Sequential kinds
    additionally carry d_cq / t_su / t_h.  The cb_* fields describe the
    clock-buffer fragment shared by W.cb and the active kinds.
    """

    d0: float = 0.0
    k_sl: float = 0.0
    r_drv: float = 0.0
    c_in: float = 0.0
    s0: float = 0.0
    k_sin: float = 0.0
    k_sload: float = 0.0
    d_cq: float = 0.0
    t_su: float = 0.0
    t_h: float = 0.0
    cb_d0: float = 4.0
    cb_r_drv: float = 0.4
    cb_c_in: float = 0.8
    cb_s0: float = 2.0


class _TechFields(NamedTuple):
    pitch_r: float
    pitch_c: float
    K: int
    L: int
    slew_grid_min: float
    slew_grid_max: float
    slew_legal_min: float = None  # None: slew_grid_min
    slew_legal_max: float = None  # None: slew_grid_max
    beta: float = 1.0
    derate_min: float = 0.9
    derate_max: float = 1.1
    cb_surcharge: float = 1.0
    params: dict = None      # BlockKind -> BlockParams; if empty, each config gets its own {}
    area_cost: dict = None   # BlockKind -> float; likewise


class TechConfig(_TechFields):
    """Immutable technology parameter set shared by every analysis stage."""

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        lo, hi = cfg.slew_legal_min, cfg.slew_legal_max
        return cfg._replace(slew_legal_min=cfg.slew_grid_min if lo is None else lo,
                            slew_legal_max=cfg.slew_grid_max if hi is None else hi,
                            params=cfg.params or {}, area_cost=cfg.area_cost or {})

    def digest(self) -> str:
        """Hex digest of the canonical serialization; identifies table provenance."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # cached per config (so not slotted): analysis checks it on every call
        return hashlib.sha256(serialize_tech_config(self).encode()).hexdigest()[:16]


class _ClockFields(NamedTuple):
    period: float
    jitter: float = 0.0


class ClockSpec(_ClockFields):
    """Global clock: period and jitter in tu."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        clk = super().__new__(cls, *args, **kwargs)
        if not clk.period > clk.jitter >= 0.0:
            raise InvalidValue(f"clock requires period > jitter >= 0, "
                               f"got T={clk.period} jitter={clk.jitter}")
        if not math.isfinite(clk.period):
            raise InvalidValue(f"clock period must be finite, got T={clk.period}")
        return clk


# The config text's keys, order and defaults are those of the records it
# fills.  Global scope holds TechConfig's scalar fields, then BlockParams'
# cb_* fields, the clock-buffer fragment every kind shares; a field without
# a default is a required key.  A [kind X] section holds area_cost and
# BlockParams' other fields, of which only sequential kinds need the last
# three (d_cq, t_su, t_h).
_CB_KEYS = tuple(key for key in BlockParams._fields if key.startswith("cb_"))
_BLOCK_KEYS = BlockParams._fields[:-len(_CB_KEYS)]
_CORE_KEYS = _BLOCK_KEYS[:-3]
_GLOBAL_KEYS = _TechFields._fields[:-2] + _CB_KEYS  # less params and area_cost
_DEFAULT_AREA_COST = {BlockKind.W: 1.0, BlockKind.B: 2.0,
                      BlockKind.R: 4.0, BlockKind.S: 20.0}


def load_tech_config(text: str) -> TechConfig:
    """Parse a tech-config document, apply defaults, and validate invariants."""
    glob: dict = {}
    sections: dict = {}
    current = glob
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header {raw!r}")
            words = line[1:-1].split()
            if len(words) != 2 or words[0] != "kind":
                raise ParseError(f"line {lineno}: bad section header {line!r}")
            try:
                kind = BlockKind(words[1])
            except ValueError:
                raise ParseError(f"line {lineno}: unknown block kind {words[1]!r}") from None
            if kind in sections:
                raise ParseError(f"line {lineno}: repeated section [kind {kind}]")
            current = sections[kind] = {}
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is glob and key not in _GLOBAL_KEYS:
            raise ParseError(f"line {lineno}: unknown global key {key!r}")
        if current is not glob and key not in _BLOCK_KEYS + ("area_cost",):
            raise ParseError(f"line {lineno}: unknown block parameter {key!r}")
        if key in current:
            raise ParseError(f"line {lineno}: repeated key {key!r}")
        try:
            num = int(val) if key in ("K", "L") else float(val)
        except ValueError:
            raise ParseError(f"line {lineno}: {key!r} is not a number: {val!r}") from None
        current[key] = num

    for key in _TechFields._fields:
        if key not in glob and key not in _TechFields._field_defaults:
            raise MissingKey(f"required global key {key!r} missing")

    cb = {key: glob.pop(key) for key in _CB_KEYS if key in glob}
    params = {}
    area_cost = {}
    for kind in BlockKind:
        sec = sections.get(kind, {})
        area_cost[kind] = float(sec.pop("area_cost", _DEFAULT_AREA_COST[kind]))
        if kind is BlockKind.W:
            params[kind] = BlockParams(**cb)
            if sec:
                raise ParseError(f"kind W takes no electrical parameters, got {sorted(sec)}")
            continue
        for key in _BLOCK_KEYS if kind is BlockKind.R else _CORE_KEYS:
            if key not in sec:
                raise MissingKey(f"[kind {kind}] missing required parameter {key!r}")
        params[kind] = BlockParams(**sec, **cb)

    # the cb_* keys are popped: the rest are TechConfig's scalar fields, and
    # the records supply the defaults of those omitted
    cfg = TechConfig(**glob, params=params, area_cost=area_cost)
    _validate(cfg)
    return cfg


def _validate(cfg: TechConfig):
    if not 1 <= cfg.K <= GRID_MAX:
        raise InvalidValue(f"K must be in 1..{GRID_MAX}, got {cfg.K}")
    if not 2 <= cfg.L <= GRID_MAX:
        raise InvalidValue(f"L must be in 2..{GRID_MAX}, got {cfg.L}")
    for name in ("slew_grid_min", "slew_grid_max", "slew_legal_min", "slew_legal_max",
                 "derate_min", "derate_max"):
        if not math.isfinite(getattr(cfg, name)):
            raise InvalidValue(f"{name} must be finite, got {getattr(cfg, name)}")
    if not cfg.slew_grid_min < cfg.slew_grid_max:
        raise InvalidValue("slew grid requires slew_grid_min < slew_grid_max")
    if not 0.0 < cfg.derate_min <= 1.0 <= cfg.derate_max:
        raise InvalidValue(f"derates must satisfy 0 < derate_min <= 1 <= derate_max, "
                           f"got [{cfg.derate_min}, {cfg.derate_max}]")
    if not cfg.slew_legal_min < cfg.slew_legal_max:
        raise InvalidValue("slew legality range is empty")
    for name in ("pitch_r", "pitch_c", "beta", "cb_surcharge"):
        if not 0.0 <= getattr(cfg, name) < math.inf:  # NaN fails too
            raise InvalidValue(f"{name} must be nonnegative and finite")
    for kind, p in cfg.params.items():
        for fname, fval in p._asdict().items():
            if not 0.0 <= fval < math.inf:
                raise InvalidValue(f"[kind {kind}] {fname} must be nonnegative "
                                   f"and finite, got {fval}")
        if kind in ACTIVE_KINDS and not (p.r_drv > 0.0 and p.c_in > 0.0):
            raise InvalidValue(f"[kind {kind}] active kinds need r_drv > 0 and c_in > 0")
    # the clock-stage Elmore delay grows by this much per wire slot (and more
    # beyond the first); without growth no stage length reaches T/2
    cb = cfg.params[BlockKind.B]
    if not cb.cb_r_drv * cfg.pitch_c + cfg.pitch_r * (cfg.pitch_c + cb.cb_c_in) > 0.0:
        raise InvalidValue(
            f"clock stage delay must grow with the wire count: need "
            f"cb_r_drv * pitch_c + pitch_r * (pitch_c + cb_c_in) > 0, got "
            f"pitch_r={cfg.pitch_r} pitch_c={cfg.pitch_c} "
            f"cb_r_drv={cb.cb_r_drv} cb_c_in={cb.cb_c_in}")
    for kind in BlockKind:
        if not 0.0 <= cfg.area_cost.get(kind, -1.0) < math.inf:
            raise InvalidValue(f"area_cost for kind {kind} must be nonnegative and finite")


def block_params(cfg: TechConfig, kind: BlockKind) -> BlockParams:
    """The parameter record of a block kind."""
    return cfg.params[kind]


def serialize_tech_config(cfg: TechConfig) -> str:
    """Canonical text form; load_tech_config round-trips it exactly."""
    anyp = cfg.params[BlockKind.B]
    lines = []
    for key in cfg._fields[:-2]:  # the scalar fields, before params and area_cost
        lines.append(f"{key} = {getattr(cfg, key)!r}")
    for key in _CB_KEYS:
        lines.append(f"{key} = {getattr(anyp, key)!r}")
    for kind in BlockKind:
        lines.append(f"[kind {kind}]")
        lines.append(f"area_cost = {cfg.area_cost[kind]!r}")
        if kind is BlockKind.W:
            continue
        p = cfg.params[kind]
        for key in _BLOCK_KEYS:
            lines.append(f"{key} = {getattr(p, key)!r}")
    return "\n".join(lines) + "\n"


def default_tech_config() -> TechConfig:
    """The config shipped with the package (K = L = 10, unit pitch RC)."""
    from importlib import resources  # only this reads package data
    text = resources.files("gnoc.data").joinpath("default_tech.cfg").read_text()
    return load_tech_config(text)

