"""The value contract of gnoc's record types: keyword and positional
construction with their defaults, equality within a type, hashability,
copies and pickles, read-only fields, and a config digest that follows the
config."""

import copy
import math
import pickle

import pytest

from gnoc.characterize import LookupMode, TableSet
from gnoc.dse import Candidate, CandidateEval, DseResult
from gnoc.golden import ClockResult, PathResult, StageResult
from gnoc.grammar import LinkSentence, parse_link
from gnoc.hasta import TimingReport
from gnoc.synthesize import LinkSpec, SynthesisResult
from gnoc.techlib import (BlockKind, BlockParams, ClockSpec, SubtypeTag, TechConfig,
                          default_tech_config, load_tech_config, serialize_tech_config)

from conftest import with_slew_grid

LINK = parse_link("S W B S")
TECH = dict(pitch_r=1.0, pitch_c=1.0, K=10, L=10, slew_grid_min=4.0,
            slew_grid_max=40.0, slew_legal_min=4.0, slew_legal_max=40.0)

# (type, the fields given, in field order, the defaults of the rest, one
#  changed field, whether a record hashes)
RECORDS = [
    (SubtypeTag, {}, {"clock_buffered": False}, {"clock_buffered": True}, True),
    (BlockParams, {}, {"d0": 0.0, "k_sl": 0.0, "r_drv": 0.0, "c_in": 0.0, "s0": 0.0,
                       "k_sin": 0.0, "k_sload": 0.0, "d_cq": 0.0, "t_su": 0.0, "t_h": 0.0,
                       "cb_d0": 4.0, "cb_r_drv": 0.4, "cb_c_in": 0.8, "cb_s0": 2.0},
     {"t_h": 1.0}, True),
    (TechConfig, TECH, {"beta": 1.0, "derate_min": 0.9, "derate_max": 1.1,
                        "cb_surcharge": 1.0, "params": {}, "area_cost": {}},
     {"K": 9}, False),
    (ClockSpec, {"period": 10.0}, {"jitter": 0.0}, {"period": 11.0}, True),
    (PathResult, {"stages": (StageResult(1.0, 2.0),), "arrivals": (1.0,)}, {},
     {"arrivals": (1.5,)}, True),
    (ClockResult, {"latencies": (0.0, 4.0), "stage_delays": (4.0,),
                   "stage_spans": ((0, 1),)}, {}, {"stage_delays": (5.0,)}, True),
    (LinkSentence, {"tokens": LINK.tokens}, {}, {"tokens": LINK.tokens[:2]}, True),
    (TableSet, {"views": {}, "cfg_digest": "0" * 16}, {}, {"cfg_digest": "1" * 16}, False),
    (TimingReport, {"link": LINK, "mode": LookupMode.PESSIMISTIC,
                    "clock": ClockSpec(10.0), "setup_stages": (), "hold_stages": (),
                    "paths": (), "violations": ()}, {}, {"mode": LookupMode.EXACT}, True),
    (LinkSpec, {"length_slots": 3, "period": 10.0}, {"jitter": 0.0, "name": "link"},
     {"name": "other"}, True),
    (SynthesisResult, {"link": LINK, "cost": 4.0, "counts": (1, 1, 0), "iterations": 2,
                       "valid": True}, {"reasons": (), "log": ()}, {"cost": 5.0}, True),
    (Candidate, {"name": "c", "islands": (("i", 1.0),), "links": (LinkSpec(3, 10.0),)},
     {}, {"islands": ()}, True),
    (CandidateEval, {"name": "c", "valid": True, "cost": 5.0, "island_cost": 1.0,
                     "link_costs": (("link", 4.0),)}, {"reasons": ()},
     {"cost": math.inf}, True),
    (DseResult, {"best_name": "c", "best_cost": 5.0, "ledger": (), "evaluated": 1}, {},
     {"evaluated": 2}, True),
]


@pytest.mark.parametrize("cls, given, defaults, change, hashable", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_record_contract(cls, given, defaults, change, hashable):
    rec = cls(**given)
    assert {name: getattr(rec, name) for name in defaults} == defaults
    assert cls(*given.values()) == rec == cls(**given, **defaults)
    assert not rec != cls(**given)
    assert rec != cls(**{**given, **defaults, **change})
    assert rec.__eq__(object()) is NotImplemented  # other types decide for themselves
    if hashable:
        assert hash(rec) == hash(cls(**given))
    else:
        with pytest.raises(TypeError):
            hash(rec)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec
    for name, value in {**given, **defaults, **change}.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        assert getattr(rec, name) == {**given, **defaults}[name]


def test_config_dicts_are_per_instance():
    one, two = TechConfig(**TECH), TechConfig(**TECH)
    one.params[BlockKind.B] = BlockParams()
    assert two.params == {} and one.area_cost == {} and two.area_cost == {}


def test_with_slew_grid_recomputes_the_digest(monkeypatch):
    cfg = default_tech_config()
    digest = cfg.digest()  # cached on cfg before the copy is made
    finer = with_slew_grid(cfg, cfg.L + 1)
    assert type(finer) is TechConfig and finer.L == cfg.L + 1
    assert finer.digest() != digest
    assert finer.digest() == load_tech_config(serialize_tech_config(finer)).digest()
    assert with_slew_grid(cfg, cfg.L).digest() == cfg.digest()
    # the class attribute can be wrapped, as perfbench's tracer does
    calls = []
    original = TechConfig.digest
    monkeypatch.setattr(TechConfig, "digest",
                        lambda self: calls.append(self) or original(self))
    assert finer.digest() == original(finer) and calls == [finer]
