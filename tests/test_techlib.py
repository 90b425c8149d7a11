import hashlib
import math
import re

import pytest

from gnoc.cli import main
from gnoc.errors import InvalidValue, MissingKey, ParseError
from gnoc.synthesize import max_clock_run
from gnoc.techlib import (BlockKind, ClockSpec, block_params, load_tech_config,
                          serialize_tech_config)

from conftest import with_slew_grid

MINIMAL = """
pitch_r = 1.0
pitch_c = 1.0
K = 10
L = 10
slew_grid_min = 4.0
slew_grid_max = 40.0
[kind B]
d0 = 5.0
k_sl = 0.3
r_drv = 0.5
c_in = 1.0
s0 = 2.0
k_sin = 0.1
k_sload = 0.2
[kind R]
d0 = 5.0
k_sl = 0.3
r_drv = 0.5
c_in = 1.0
s0 = 2.0
k_sin = 0.1
k_sload = 0.2
d_cq = 8.0
t_su = 3.0
t_h = 1.0
[kind S]
d0 = 12.0
k_sl = 0.3
r_drv = 0.7
c_in = 1.5
s0 = 3.0
k_sin = 0.1
k_sload = 0.2
"""


def test_default_config_dimensions(cfg):
    assert cfg.K == 10
    assert cfg.L == 10
    assert cfg.pitch_r == 1.0
    assert cfg.slew_legal_max == 40.0


def test_block_params_b(cfg):
    p = block_params(cfg, BlockKind.B)
    assert p.d0 == 5.0
    assert p.r_drv == 0.5


def test_block_params_w_cb_exposes_clock_buffer(cfg):
    p = block_params(cfg, BlockKind.W)
    assert p.cb_d0 == 4.0
    assert p.cb_c_in == 0.8


def test_every_kind_has_entries(cfg):
    for kind in BlockKind:
        assert kind in cfg.params
        assert kind in cfg.area_cost


def test_omitted_beta_defaults_to_one():
    cfg = load_tech_config(MINIMAL)
    assert cfg.beta == 1.0
    assert cfg.derate_min == 0.9
    assert cfg.derate_max == 1.1


def test_derate_below_one_rejected(cfg, tmp_path, capsys):
    """derate_max below 1 and a derate_min that is not positive are refused;
    a zero MIN derate made validate divide by zero, a negative one wrote
    tables that no command could load."""
    with pytest.raises(InvalidValue):
        load_tech_config("derate_max = 0.5\n" + MINIMAL)
    for value in ("0", "-1"):
        text = re.sub(r"^derate_min = .*$", f"derate_min = {value}",
                      serialize_tech_config(cfg), count=1, flags=re.M)
        with pytest.raises(InvalidValue, match="0 < derate_min"):
            load_tech_config(text)
        tech, out = tmp_path / "tech.cfg", tmp_path / "tables.csv"
        tech.write_text(text)
        assert main(["characterize", "--tech", str(tech), "--out", str(out)]) == 2
        assert "0 < derate_min" in capsys.readouterr().err
        assert not out.exists()


def test_k_below_one_rejected():
    bad = MINIMAL.replace("K = 10", "K = 0")
    with pytest.raises(InvalidValue):
        load_tech_config(bad)


@pytest.mark.parametrize("key", ["K", "L"])
def test_grid_above_limit_rejected(tmp_path, capsys, key):
    """K and L are bounded above by GRID_MAX = 256, since build_tables makes
    one oracle evaluation per cell and keeps every cell; characterize
    refuses a larger grid with exit 2 and writes nothing."""
    assert getattr(load_tech_config(MINIMAL.replace(f"{key} = 10", f"{key} = 256")),
                   key) == 256
    bad = MINIMAL.replace(f"{key} = 10", f"{key} = 257")
    low = {"K": 1, "L": 2}[key]
    message = f"{key} must be in {low}..256, got 257"
    with pytest.raises(InvalidValue) as err:
        load_tech_config(bad)
    assert str(err.value) == message
    tech, out = tmp_path / "tech.cfg", tmp_path / "tables.csv"
    tech.write_text(bad)
    assert main(["characterize", "--tech", str(tech), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_negative_parameter_rejected():
    bad = MINIMAL.replace("d0 = 12.0", "d0 = -1.0")
    with pytest.raises(InvalidValue):
        load_tech_config(bad)


GLOBAL_KEYS = ("pitch_r", "pitch_c", "beta", "cb_surcharge",
               "cb_d0", "cb_r_drv", "cb_c_in", "cb_s0")
BLOCK_KEYS = ("d0", "k_sl", "r_drv", "c_in", "s0", "k_sin", "k_sload",
              "d_cq", "t_su", "t_h", "area_cost")
RANGE_KEYS = ("slew_grid_min", "slew_grid_max", "slew_legal_min", "slew_legal_max",
              "derate_min", "derate_max")


@pytest.mark.parametrize("key", GLOBAL_KEYS + BLOCK_KEYS + RANGE_KEYS)
def test_nan_parameter_rejected(cfg, tmp_path, capsys, key):
    """NaN fails every ordered comparison and inf passes `>= 0`, so neither
    may pass as a parameter; characterize refuses them instead of writing
    tables that will not load or that hold NaN."""
    want = "must be finite" if key in RANGE_KEYS else "must be nonnegative"
    line = re.compile(rf"^{key} = .*$", re.M)
    for value in ("nan", "inf"):
        head, mark, tail = serialize_tech_config(cfg).partition("[kind R]")
        if key in BLOCK_KEYS:
            tail, n = line.subn(f"{key} = {value}", tail, count=1)
        else:
            head, n = line.subn(f"{key} = {value}", head, count=1)
        assert n == 1
        with pytest.raises(InvalidValue, match=f"{key}.* {want}"):
            load_tech_config(head + mark + tail)
        tech = tmp_path / f"{value}.cfg"
        tech.write_text(head + mark + tail)
        out = tmp_path / "tables.csv"
        assert main(["characterize", "--tech", str(tech), "--out", str(out)]) == 2
        assert want in capsys.readouterr().err
        assert not out.exists()


def test_missing_required_key():
    with pytest.raises(MissingKey):
        load_tech_config("pitch_r = 1.0\n")


def test_missing_block_parameter():
    bad = MINIMAL.replace("r_drv = 0.7\n", "")
    with pytest.raises(MissingKey):
        load_tech_config(bad)


@pytest.mark.parametrize("line", ["pitch_r", "bogus = 1.0", "[kind X]", "[kind B"])
def test_malformed_lines(line):
    with pytest.raises(ParseError):
        load_tech_config(line + "\n" + MINIMAL)


@pytest.mark.parametrize("text, message", [
    (MINIMAL + "[kind B]\nd0 = 99.0\n", "line 35: repeated section [kind B]"),
    (MINIMAL.replace("pitch_c = 1.0\n", "pitch_c = 1.0\npitch_r = 2.0\n"),
     "line 4: repeated key 'pitch_r'"),
    (MINIMAL.replace("d0 = 12.0\n", "d0 = 12.0\nd0 = 99.0\n"), "line 29: repeated key 'd0'"),
], ids=["section", "global key", "block key"])
def test_repeated_key_or_section_rejected(tmp_path, capsys, text, message):
    """A key given twice in one scope, or a section given twice, is refused
    with its line instead of the last one winning; characterize exits 2 and
    writes nothing.  The same key in two sections is fine."""
    with pytest.raises(ParseError) as err:
        load_tech_config(text)
    assert str(err.value) == message
    tech, out = tmp_path / "tech.cfg", tmp_path / "tables.csv"
    tech.write_text(text)
    assert main(["characterize", "--tech", str(tech), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_serialize_round_trip(cfg):
    text = serialize_tech_config(cfg)
    again = load_tech_config(text)
    assert again == cfg
    assert again.digest() == cfg.digest()


# MINIMAL as written back: every omitted key with its default, in the
# canonical order; the same text as the default config's
MINIMAL_SERIALIZED = """\
pitch_r = 1.0
pitch_c = 1.0
K = 10
L = 10
slew_grid_min = 4.0
slew_grid_max = 40.0
slew_legal_min = 4.0
slew_legal_max = 40.0
beta = 1.0
derate_min = 0.9
derate_max = 1.1
cb_surcharge = 1.0
cb_d0 = 4.0
cb_r_drv = 0.4
cb_c_in = 0.8
cb_s0 = 2.0
[kind W]
area_cost = 1.0
[kind B]
area_cost = 2.0
d0 = 5.0
k_sl = 0.3
r_drv = 0.5
c_in = 1.0
s0 = 2.0
k_sin = 0.1
k_sload = 0.2
d_cq = 0.0
t_su = 0.0
t_h = 0.0
[kind R]
area_cost = 4.0
d0 = 5.0
k_sl = 0.3
r_drv = 0.5
c_in = 1.0
s0 = 2.0
k_sin = 0.1
k_sload = 0.2
d_cq = 8.0
t_su = 3.0
t_h = 1.0
[kind S]
area_cost = 20.0
d0 = 12.0
k_sl = 0.3
r_drv = 0.7
c_in = 1.5
s0 = 3.0
k_sin = 0.1
k_sload = 0.2
d_cq = 0.0
t_su = 0.0
t_h = 0.0
"""


def test_serialization_and_digest_pinned(cfg):
    """The canonical text and the default config's digest, which every table
    file built from it carries."""
    minimal = load_tech_config(MINIMAL)
    assert serialize_tech_config(minimal) == MINIMAL_SERIALIZED
    assert serialize_tech_config(cfg) == MINIMAL_SERIALIZED
    assert cfg.digest() == minimal.digest() == "76a69716837c11d3"


def test_digest_computed_once(cfg):
    text = serialize_tech_config(cfg)
    assert cfg.digest() == hashlib.sha256(text.encode()).hexdigest()[:16]
    assert cfg.digest() is cfg.digest()  # the cached string, not a new one
    finer = with_slew_grid(cfg, 20)
    assert finer.digest() != cfg.digest()
    assert finer.digest() == hashlib.sha256(
        serialize_tech_config(finer).encode()).hexdigest()[:16]


def test_default_file_matches_decisions_table(cfg):
    s = cfg.params[BlockKind.S]
    assert (s.d0, s.r_drv, s.c_in, s.s0) == (12.0, 0.7, 1.5, 3.0)
    r = cfg.params[BlockKind.R]
    assert (r.d_cq, r.t_su, r.t_h) == (8.0, 3.0, 1.0)
    assert cfg.area_cost[BlockKind.S] == 20.0


def test_clock_spec_invariants():
    ClockSpec(period=10.0, jitter=1.0)
    with pytest.raises(InvalidValue):
        ClockSpec(period=5.0, jitter=5.0)
    with pytest.raises(InvalidValue):
        ClockSpec(period=5.0, jitter=-1.0)
    for jitter in (0.0, 1.0):
        with pytest.raises(InvalidValue, match="must be finite"):
            ClockSpec(period=math.inf, jitter=jitter)


@pytest.mark.parametrize("zeros", [("pitch_r", "cb_r_drv"), ("pitch_c", "cb_c_in")])
def test_flat_clock_stage_rejected(zeros):
    """With these pairs at zero the clock-stage delay is the same for every
    wire count, and max_clock_run would never stop."""
    text = MINIMAL.replace("pitch_r = 1.0", "pitch_r = 1.0\ncb_r_drv = 0.4\ncb_c_in = 0.8")
    for name in zeros:
        text = re.sub(rf"^{name} = .*$", f"{name} = 0.0", text, flags=re.M)
    with pytest.raises(InvalidValue, match="pitch_r=.*pitch_c=.*cb_r_drv=.*cb_c_in="):
        load_tech_config(text)
    # one nonzero parameter of the pair is enough for growth
    restored = re.sub(rf"^{zeros[1]} = .*$", f"{zeros[1]} = 0.1", text, flags=re.M)
    assert max_clock_run(load_tech_config(restored), 100.0) > 0
