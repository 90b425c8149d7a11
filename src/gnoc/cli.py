"""Batch command-line front end: characterize, analyze, synthesize, validate, dse.

Reports go to stdout, diagnostics to stderr.  Exit status: 0 clean, 1 when
violations or validation failures were found (reports are still complete),
2 for usage/format errors, 3 for internal failures.

Each command imports the layers it runs: characterize needs no link
analysis, analyze and validate no synthesis, synthesize no DSE.  Commands
call the layers' functions through their home modules.
"""

from __future__ import annotations

import argparse
import sys

from . import characterize as chz
from . import grammar, techlib
from .characterize import LookupMode, LookupPurpose
from .errors import GnocError, InvalidValue, NoValidCandidate
from .golden import Corner, golden_path_analyze

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _load_cfg(path: str):
    with open(path) as fh:
        return techlib.load_tech_config(fh.read())


def _load_inputs(args):
    """The command's tech config and the tables built for it, on its grid."""
    cfg = _load_cfg(args.tech)
    return cfg, chz.load_tables(args.tables, cfg)


def _read_link(path: str):
    with open(path) as fh:
        return grammar.parse_link(fh.read())


def _refuse_unless(ok: bool, option: str, bound: str, value) -> None:
    if not ok:  # a usage error
        raise InvalidValue(f"--{option} must be {bound}, got {value}")


def _check_launch_slew(slew: float | None) -> None:
    # NaN passes: the lookups refuse it, like every slew above the grid
    _refuse_unless(slew is None or not slew < 0.0, "launch-slew", ">= 0", slew)


def cmd_characterize(args) -> int:
    cfg = _load_cfg(args.tech)
    ts = chz.build_tables(cfg)
    chz.save_tables(ts, args.out)
    print(f"cells={ts.cell_count} corners={len(chz.TABLE_CORNERS)}")
    print(f"cfg={ts.cfg_digest} K={ts.K} L={ts.L}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import hasta
    _check_launch_slew(args.launch_slew)
    cfg, ts = _load_inputs(args)
    link = _read_link(args.link)
    clk = techlib.ClockSpec(period=args.period, jitter=args.jitter)
    report = hasta.analyze_link(link, ts, cfg, clk, mode=LookupMode(args.mode),
                                launch_slew=args.launch_slew)
    sys.stdout.write(hasta.render_report(report))
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def cmd_synthesize(args) -> int:
    from . import synthesize
    cfg, ts = _load_inputs(args)
    spec = synthesize.LinkSpec(length_slots=args.length, period=args.period,
                               jitter=args.jitter)
    result = synthesize.synthesize_link(spec, ts, cfg)
    # stdout is built whole before the link file is written and printed after it,
    # so no error leaves a link file without its report, or a report without its file
    lines = [f"try: {line}" for line in result.log]
    if not result.valid:
        lines.append(f"unsynthesizable: {'; '.join(result.reasons)}")
    else:
        text = grammar.serialize_link(result.link)
        w, b, r = result.counts
        lines += [f"result: {text}",
                  f"cost={result.cost:.6g} W={w} B={b} R={r} iterations={result.iterations}"]
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print("\n".join(lines))
    return EXIT_OK if result.valid else EXIT_VIOLATIONS


def cmd_validate(args) -> int:
    from . import hasta
    _check_launch_slew(args.launch_slew)
    _refuse_unless(args.tol >= 0.0, "tol", ">= 0", args.tol)
    cfg, ts = _load_inputs(args)
    link = _read_link(args.link)
    mode = LookupMode(args.mode)
    # by default both sides launch from the grid's first row, which the tables hold
    slew = args.launch_slew if args.launch_slew is not None else cfg.slew_grid_min

    # both passes run before anything is printed, so an error leaves stdout empty
    rows = ["pass,index,table_arrival,golden_arrival,rel_err"]
    worst = 0.0
    for purpose, corner, label in ((LookupPurpose.SETUP_MAX, Corner.MAX, "setup"),
                                   (LookupPurpose.HOLD_MIN, Corner.MIN, "hold")):
        table_side = hasta.analyze_path(link, ts, slew, mode, purpose)
        golden_side = golden_path_analyze(link, slew, corner, cfg)
        for i, (t, g) in enumerate(zip(table_side.arrivals, golden_side.arrivals)):
            err = (t - g) / g
            worst = max(worst, abs(err))
            rows.append(f"{label},{i},{t:.9g},{g:.9g},{err:.3e}")
    rows.append(f"max_rel_err={worst:.3e} tol={args.tol:.3e}")
    print("\n".join(rows))
    return EXIT_OK if worst <= args.tol else EXIT_VIOLATIONS


def cmd_dse(args) -> int:
    from . import dse
    _refuse_unless(args.count >= 1, "count", ">= 1", args.count)
    cfg, ts = _load_inputs(args)
    if args.candidates:
        with open(args.candidates) as fh:
            candidates = dse.parse_candidates(fh.read())
    else:
        candidates = dse.random_candidates(args.seed, args.count)
    result = dse.dse_loop(candidates, ts, cfg)
    print("name,valid,cost,detail")
    for ev in result.ledger:
        detail = "" if ev.valid else "; ".join(ev.reasons)
        cost = f"{ev.cost:.6g}" if ev.valid else "inf"
        print(f"{ev.name},{int(ev.valid)},{cost},{detail}")
    print(f"best={result.best_name} cost={result.best_cost:.6g} "
          f"evaluated={result.evaluated}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gnoc",
                                 description="Grid-abutted NoC link timing "
                                             "and synthesis toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    tech = argparse.ArgumentParser(add_help=False)
    tech.add_argument("--tech", required=True)
    inputs = argparse.ArgumentParser(add_help=False, parents=[tech])
    inputs.add_argument("--tables", required=True)

    p = sub.add_parser("characterize", parents=[tech],
                       help="build segment tables from a tech config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("analyze", parents=[inputs], help="timing-analyze a link sentence")
    p.add_argument("--link", required=True)
    p.add_argument("--period", type=float, required=True)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--mode", choices=[m.value for m in LookupMode],
                   default=LookupMode.PESSIMISTIC.value)
    p.add_argument("--launch-slew", type=float, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", parents=[inputs], help="synthesize a minimal-cost link")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--period", type=float, required=True)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("validate", parents=[inputs],
                       help="compare table analysis against the oracle")
    p.add_argument("--link", required=True)
    p.add_argument("--mode", choices=[m.value for m in LookupMode],
                   default=LookupMode.INTERPOLATE.value)
    p.add_argument("--launch-slew", type=float, default=None)
    p.add_argument("--tol", type=float, default=0.02)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dse", parents=[inputs], help="evaluate chip-level candidates")
    p.add_argument("--candidates", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.set_defaults(func=cmd_dse)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoValidCandidate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS
    except (GnocError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal invariant failures
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def __getattr__(name: str):
    # gnoc's public names, such as analyze_link, resolve here from their home
    # modules: perfbench's tracer wraps them on this module as well
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
