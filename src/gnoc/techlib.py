"""Technology configuration: per-block electrical/timing parameters and grid constants.

All quantities are in abstract units: tu (time), ru (resistance), cu
(capacitance), su (slew).  The config file is line-oriented ``key = value``
text with ``[kind X]`` sections; see ``data/default_tech.cfg`` for the
shipped defaults.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from importlib import resources

from .errors import InvalidValue, MissingKey, ParseError


class BlockKind(Enum):
    """The four link block kinds.  W is passive; B, R, S are active."""

    W = "W"  # plain wire
    B = "B"  # buffered wire
    R = "R"  # registered (pipelining) wire
    S = "S"  # switch/router

    def __str__(self):
        return self.value


ACTIVE_KINDS = (BlockKind.B, BlockKind.R, BlockKind.S)


@dataclass(frozen=True)
class SubtypeTag:
    """Block sub-type selector.

    clock_buffered selects the clock-buffered wire variant (written ``.cb``);
    it is only meaningful for kind W since active blocks always buffer the
    clock.
    """

    clock_buffered: bool = False


DEFAULT_SUBTYPE = SubtypeTag()
CB_SUBTYPE = SubtypeTag(clock_buffered=True)


@dataclass(frozen=True)
class BlockParams:
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


@dataclass(frozen=True)
class TechConfig:
    """Immutable technology parameter set shared by every analysis stage."""

    pitch_r: float
    pitch_c: float
    K: int
    L: int
    slew_grid_min: float
    slew_grid_max: float
    slew_legal_min: float
    slew_legal_max: float
    beta: float = 1.0
    derate_min: float = 0.9
    derate_max: float = 1.1
    cb_surcharge: float = 1.0
    params: dict = field(default_factory=dict)      # BlockKind -> BlockParams
    area_cost: dict = field(default_factory=dict)   # BlockKind -> float

    def digest(self) -> str:
        """Hex digest of the canonical serialization; identifies table provenance."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        # computed once per config: analysis checks it on every call
        return hashlib.sha256(serialize_tech_config(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ClockSpec:
    """Global clock: period and jitter in tu."""

    period: float
    jitter: float = 0.0

    def __post_init__(self):
        if not self.period > self.jitter >= 0.0:
            raise InvalidValue(f"clock requires period > jitter >= 0, "
                               f"got T={self.period} jitter={self.jitter}")


# Keys accepted at global scope (before any section) with their defaults;
# None marks a required key.
_GLOBAL_KEYS = {
    "pitch_r": None,
    "pitch_c": None,
    "K": None,
    "L": None,
    "slew_grid_min": None,
    "slew_grid_max": None,
    "slew_legal_min": "grid_min",
    "slew_legal_max": "grid_max",
    "beta": 1.0,
    "derate_min": 0.9,
    "derate_max": 1.1,
    "cb_surcharge": 1.0,
    "cb_d0": 4.0,
    "cb_r_drv": 0.4,
    "cb_c_in": 0.8,
    "cb_s0": 2.0,
}

_CORE_PARAM_KEYS = ("d0", "k_sl", "r_drv", "c_in", "s0", "k_sin", "k_sload")
_SEQ_PARAM_KEYS = ("d_cq", "t_su", "t_h")
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
            current = sections.setdefault(kind, {})
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ParseError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is glob and key not in _GLOBAL_KEYS:
            raise ParseError(f"line {lineno}: unknown global key {key!r}")
        if current is not glob and key not in _CORE_PARAM_KEYS + _SEQ_PARAM_KEYS + ("area_cost",):
            raise ParseError(f"line {lineno}: unknown block parameter {key!r}")
        try:
            num = int(val) if key in ("K", "L") else float(val)
        except ValueError:
            raise ParseError(f"line {lineno}: {key!r} is not a number: {val!r}") from None
        current[key] = num

    for key, default in _GLOBAL_KEYS.items():
        if key in glob:
            continue
        if default is None:
            raise MissingKey(f"required global key {key!r} missing")
        if default == "grid_min":
            glob[key] = glob["slew_grid_min"]
        elif default == "grid_max":
            glob[key] = glob["slew_grid_max"]
        else:
            glob[key] = default

    cb = {k: glob.pop(k) for k in ("cb_d0", "cb_r_drv", "cb_c_in", "cb_s0")}
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
        for key in _CORE_PARAM_KEYS:
            if key not in sec:
                raise MissingKey(f"[kind {kind}] missing required parameter {key!r}")
        if kind is BlockKind.R:
            for key in _SEQ_PARAM_KEYS:
                if key not in sec:
                    raise MissingKey(f"[kind R] missing required parameter {key!r}")
        params[kind] = BlockParams(**sec, **cb)

    cfg = TechConfig(
        pitch_r=glob["pitch_r"], pitch_c=glob["pitch_c"],
        K=glob["K"], L=glob["L"],
        slew_grid_min=glob["slew_grid_min"], slew_grid_max=glob["slew_grid_max"],
        slew_legal_min=glob["slew_legal_min"], slew_legal_max=glob["slew_legal_max"],
        beta=glob["beta"], derate_min=glob["derate_min"], derate_max=glob["derate_max"],
        cb_surcharge=glob["cb_surcharge"], params=params, area_cost=area_cost,
    )
    _validate(cfg)
    return cfg


def _validate(cfg: TechConfig):
    if cfg.K < 1:
        raise InvalidValue(f"K must be >= 1, got {cfg.K}")
    if cfg.L < 2:
        raise InvalidValue(f"L must be >= 2, got {cfg.L}")
    if not cfg.slew_grid_min < cfg.slew_grid_max:
        raise InvalidValue("slew grid requires slew_grid_min < slew_grid_max")
    if not cfg.derate_min <= 1.0 <= cfg.derate_max:
        raise InvalidValue(f"derates must satisfy derate_min <= 1 <= derate_max, "
                           f"got [{cfg.derate_min}, {cfg.derate_max}]")
    if not cfg.slew_legal_min < cfg.slew_legal_max:
        raise InvalidValue("slew legality range is empty")
    for name in ("pitch_r", "pitch_c", "beta", "cb_surcharge"):
        if getattr(cfg, name) < 0.0:
            raise InvalidValue(f"{name} must be nonnegative")
    for kind, p in cfg.params.items():
        for fname, fval in vars(p).items():
            if fval < 0.0:
                raise InvalidValue(f"[kind {kind}] {fname} must be nonnegative, got {fval}")
        if kind in ACTIVE_KINDS and not (p.r_drv > 0.0 and p.c_in > 0.0):
            raise InvalidValue(f"[kind {kind}] active kinds need r_drv > 0 and c_in > 0")
    for kind in BlockKind:
        if cfg.area_cost.get(kind, -1.0) < 0.0:
            raise InvalidValue(f"area_cost for kind {kind} must be nonnegative")


def block_params(cfg: TechConfig, kind: BlockKind) -> BlockParams:
    """The parameter record of a block kind."""
    return cfg.params[kind]


def serialize_tech_config(cfg: TechConfig) -> str:
    """Canonical text form; load_tech_config round-trips it exactly."""
    anyp = cfg.params[BlockKind.B]
    lines = []
    for key in ("pitch_r", "pitch_c", "K", "L", "slew_grid_min", "slew_grid_max",
                "slew_legal_min", "slew_legal_max", "beta", "derate_min",
                "derate_max", "cb_surcharge"):
        lines.append(f"{key} = {getattr(cfg, key)!r}")
    for key in ("cb_d0", "cb_r_drv", "cb_c_in", "cb_s0"):
        lines.append(f"{key} = {getattr(anyp, key)!r}")
    for kind in BlockKind:
        lines.append(f"[kind {kind}]")
        lines.append(f"area_cost = {cfg.area_cost[kind]!r}")
        if kind is BlockKind.W:
            continue
        p = cfg.params[kind]
        for key in _CORE_PARAM_KEYS + _SEQ_PARAM_KEYS:
            lines.append(f"{key} = {getattr(p, key)!r}")
    return "\n".join(lines) + "\n"


def default_tech_config() -> TechConfig:
    """The config shipped with the package (K = L = 10, unit pitch RC)."""
    text = resources.files("gnoc.data").joinpath("default_tech.cfg").read_text()
    return load_tech_config(text)


def with_slew_grid(cfg: TechConfig, L: int) -> TechConfig:
    """Same technology with a finer/coarser characterization slew grid."""
    out = replace(cfg, L=L)
    _validate(out)
    return out
