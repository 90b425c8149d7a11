"""Timing analysis and synthesis toolkit for grid-abutted global NoC links.

The public names below load their home module on first use, so importing
gnoc, or a CLI command that needs only some layers, loads only those.
"""

from importlib import import_module

_HOMES = {
    "characterize": ("LookupMode", "LookupPurpose", "TableSet", "build_tables",
                     "load_tables", "save_tables", "table_lookup"),
    "dse": ("Candidate", "DseResult", "dse_loop", "evaluate_candidate"),
    "golden": ("Corner", "StageResult", "golden_clock_analyze", "golden_path_analyze",
               "golden_segment"),
    "grammar": ("LinkSentence", "Segment", "parse_link", "segment_decompose",
                "serialize_link"),
    "hasta": ("TimingReport", "analyze_link", "analyze_path", "clock_check"),
    "synthesize": ("LinkSpec", "SynthesisResult", "assign_clock_subtypes", "link_cost",
                   "synthesize_link"),
    "techlib": ("BlockKind", "BlockParams", "ClockSpec", "SubtypeTag", "TechConfig",
                "block_params", "default_tech_config", "load_tech_config"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here: each access reads the home module's current binding
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
