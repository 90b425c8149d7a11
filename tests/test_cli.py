import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnoc
from gnoc import characterize, synthesize
from gnoc.cli import main
from gnoc.techlib import serialize_tech_config

SRC = Path(gnoc.__file__).resolve().parents[1]  # the directory gnoc is imported from


@pytest.fixture(scope="module")
def ws(tmp_path_factory, cfg):
    """Workspace with a tech config and characterized tables on disk."""
    root = tmp_path_factory.mktemp("cli")
    tech = root / "tech.cfg"
    tech.write_text(serialize_tech_config(cfg))
    tables = root / "tables.csv"
    assert main(["characterize", "--tech", str(tech),
                 "--out", str(tables)]) == 0
    return root


def write_link(ws, text, name="link.gnoc"):
    p = ws / name
    p.write_text(text + "\n")
    return str(p)


def args(ws, *rest):
    return ["--tech", str(ws / "tech.cfg"), "--tables", str(ws / "tables.csv"),
            *rest]


def test_characterize_output(ws, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["characterize", "--tech", str(ws / "tech.cfg"),
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "cells=900 corners=2" in captured
    # byte-for-byte deterministic artifact
    assert out.read_bytes() == (ws / "tables.csv").read_bytes()


def test_characterize_small_grid(ws, tmp_path, capsys):
    text = (ws / "tech.cfg").read_text().replace("K = 10", "K = 1") \
                                        .replace("L = 10", "L = 2")
    tech = tmp_path / "small.cfg"
    tech.write_text(text)
    assert main(["characterize", "--tech", str(tech),
                 "--out", str(tmp_path / "t.csv")]) == 0
    assert "cells=18" in capsys.readouterr().out


def test_analyze_clean(ws, capsys):
    link = write_link(ws, "S W W B W W S")
    assert main(["analyze", *args(ws, "--link", link, "--period", "100")]) == 0
    out = capsys.readouterr().out
    assert "seg_index,src,dst" in out
    assert "kind,location,detail" in out


def test_analyze_violations_exit_one(ws, capsys):
    link = write_link(ws, "S B S")
    assert main(["analyze", *args(ws, "--link", link,
                                  "--period", "30", "--jitter", "20")]) == 1
    assert "SETUP,path 0->2" in capsys.readouterr().out


def test_analyze_exact_off_grid_launch(ws, capsys):
    link = write_link(ws, "S W W B W W S")
    rc = main(["analyze", *args(ws, "--link", link, "--period", "100",
                                "--mode", "exact", "--launch-slew", "6.0")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_bad_link_file(ws, capsys):
    link = write_link(ws, "S S", name="bad.gnoc")
    assert main(["analyze", *args(ws, "--link", link, "--period", "100")]) == 2


def clock_of(command):
    """The clock options command takes: validate reads no clock."""
    return ["--period", "100"] if command == "analyze" else []


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_one_token_link_is_usage_error(ws, capsys, command):
    """A sentence with no segment is refused, not reported as empty."""
    link = write_link(ws, "S", name="one.gnoc")
    assert main([command, *args(ws, "--link", link, *clock_of(command))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: token 0: link has no segment" in captured.err


OUT_OF_DOMAIN = [
    ("analyze", "--launch-slew", "-1e9", "--launch-slew must be >= 0, got -1000000000.0"),
    ("analyze", "--launch-slew", "-inf", "--launch-slew must be >= 0, got -inf"),
    ("analyze", "--launch-slew", "inf", "input slew inf above table grid max"),
    ("validate", "--launch-slew", "-5", "--launch-slew must be >= 0, got -5.0"),
    ("validate", "--launch-slew", "inf", "input slew inf above table grid max"),
    ("validate", "--tol", "-1", "--tol must be >= 0, got -1.0"),
    ("validate", "--tol", "nan", "--tol must be >= 0, got nan"),
    ("dse", "--count", "-3", "--count must be >= 1, got -3"),
    ("dse", "--count", "0", "--count must be >= 1, got 0"),
]


@pytest.mark.parametrize("command,option,value,message", OUT_OF_DOMAIN,
                         ids=[f"{c} {o}={v}" for c, o, v, _ in OUT_OF_DOMAIN])
def test_number_outside_domain_is_usage_error(ws, capsys, command, option, value,
                                              message):
    rest = [] if command == "dse" else [
        "--link", write_link(ws, "S W W B W W R W W S"), *clock_of(command)]
    assert main([command, *args(ws, *rest, f"{option}={value}")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_launch_slew_below_grid_is_accepted(ws, capsys):
    """A nonnegative launch slew below the grid still clamps up to row 0."""
    link = write_link(ws, "S W W B W W S")
    for slew in ("0", "1.5"):
        assert main(["analyze", *args(ws, "--link", link, "--period", "100",
                                      "--launch-slew", slew)]) == 0
        assert "clamped=1" in capsys.readouterr().out


def test_missing_file_is_usage_error(ws, capsys):
    assert main(["analyze", *args(ws, "--link", str(ws / "nope.gnoc"),
                                  "--period", "100")]) == 2


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_nan_launch_slew_is_usage_error(ws, capsys, command):
    link = write_link(ws, "S W W B W W R W W S")
    assert main([command, *args(ws, "--link", link, *clock_of(command),
                                "--launch-slew", "nan")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: input slew nan is not a number" in captured.err


def test_cli_runs_without_numpy(ws, tmp_path):
    """The package needs only the standard library: block numpy and run the CLI."""
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from gnoc.cli import main\n"
        "tech, out, link = sys.argv[1:]\n"
        "rc1 = main(['characterize', '--tech', tech, '--out', out])\n"
        "rc2 = main(['analyze', '--tech', tech, '--tables', out, '--link', link,\n"
        "            '--period', '100'])\n"
        "print('rc', rc1, rc2)\n"
    )
    out = tmp_path / "tables.csv"
    link = write_link(ws, "S W W B W W R W W S", name="nonumpy.gnoc")
    proc = subprocess.run([sys.executable, "-c", script, str(ws / "tech.cfg"),
                           str(out), link],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "rc 0 0"
    assert out.read_bytes() == (ws / "tables.csv").read_bytes()


# the gnoc modules loaded after one command in a fresh interpreter
BASE = {"gnoc", "gnoc.cli", "gnoc.characterize", "gnoc.errors", "gnoc.golden",
        "gnoc.grammar", "gnoc.techlib"}
ANALYSIS = BASE | {"gnoc.hasta"}
SYNTHESIS = ANALYSIS | {"gnoc.synthesize"}
LOADED = {"characterize": BASE, "analyze": ANALYSIS, "validate": ANALYSIS,
          "synthesize": SYNTHESIS, "dse": SYNTHESIS | {"gnoc.dse"}}


@pytest.mark.parametrize("command", sorted(LOADED))
def test_command_loads_only_its_layers(ws, tmp_path, command):
    link = write_link(ws, "S W W B W W R W W S", name="layers.gnoc")
    argv = {"characterize": ["--tech", str(ws / "tech.cfg"),
                             "--out", str(tmp_path / "t.csv")],
            "analyze": args(ws, "--link", link, "--period", "100"),
            "validate": args(ws, "--link", link),
            "synthesize": args(ws, "--length", "10", "--period", "100",
                               "--out", str(tmp_path / "s.gnoc")),
            "dse": args(ws, "--count", "2")}[command]
    script = (
        "import sys\n"
        "from gnoc.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print('slow', *sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
        "print('rc', rc, *sorted(m for m in sys.modules if m.split('.')[0] == 'gnoc'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, command, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    *_, slow, last = proc.stdout.splitlines()
    rc, *loaded = last.split()[1:]
    assert rc == "0"
    assert set(loaded) == LOADED[command]
    # gnoc's records are NamedTuples and slotted classes: no command pays
    # for importing dataclasses, or inspect through it; table files are read
    # and written without csv
    assert slow == "slow"


def test_tables_digest_mismatch(ws, tmp_path, capsys):
    text = (ws / "tech.cfg").read_text().replace("pitch_r = 1.0",
                                                 "pitch_r = 2.0")
    other = tmp_path / "other.cfg"
    other.write_text(text)
    link = write_link(ws, "S W W S")
    rc = main(["analyze", "--tech", str(other),
               "--tables", str(ws / "tables.csv"),
               "--link", link, "--period", "100"])
    assert rc == 2


def tables_on_k5_grid(ws, tmp_path):
    """The default tables cut to columns 0..4 under a K=5 header: the file is
    well formed and still names the default config's digest."""
    head, columns, *records = (ws / "tables.csv").read_text().splitlines(keepends=True)
    assert " K=10 " in head
    path = tmp_path / "k5.csv"
    path.write_text(head.replace(" K=10 ", " K=5 ") + columns
                    + "".join(rec for rec in records if int(rec.split(",")[4]) < 5))
    return str(path)


def tables_on_rows_off_grid(ws, tmp_path):
    """The default tables with every row-0 slew_in set from 4 to 3: the header
    is the default config's, the slew rows are not its grid."""
    head, columns, *records = (ws / "tables.csv").read_text().splitlines(keepends=True)
    fields = [rec.split(",") for rec in records]
    for parts in fields:
        if parts[3] == "0":
            assert parts[5] == "4"
            parts[5] = "3"
    path = tmp_path / "rows3.csv"
    path.write_text(head + columns + "".join(",".join(parts) for parts in fields))
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "validate", "synthesize", "dse"])
def test_tables_on_another_grid_are_usage_error(ws, tmp_path, capsys, command):
    """Tables whose grid is not the config's are refused by every command that
    reads tables, though their digest matches.  Read as they were, the K=5
    file made 12 slots at T = 100 synthesize a link dearer than the cheapest,
    and the file with row 0 at 3 made validate's max_rel_err read 1.18e-2."""
    link = write_link(ws, "S W W B W W R W W S", name="grid.gnoc")
    rest = {"analyze": ["--link", link, "--period", "100"],
            "validate": ["--link", link],
            "synthesize": ["--length", "12", "--period", "100",
                           "--out", str(tmp_path / "x.gnoc")],
            "dse": ["--count", "2"]}[command]
    for tables, message in (
            (tables_on_k5_grid(ws, tmp_path),
             "error: tables hold a K=5 L=10 grid, analysis cfg has K=10 L=10"),
            (tables_on_rows_off_grid(ws, tmp_path),
             "error: inconsistent row slew for B->B row 0")):
        assert main([command, "--tech", str(ws / "tech.cfg"),
                     "--tables", tables, *rest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "x.gnoc").exists()


COINCIDING_ROWS = (("L = 10", "L = 5"), ("slew_grid_max = 40.0", "slew_grid_max = 4.00000000001"))


def variant_config(ws, tmp_path, *edits):
    """The default tech config with each (old, new) edit applied, on disk."""
    text = (ws / "tech.cfg").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    tech = tmp_path / "variant.cfg"
    tech.write_text(text)
    return str(tech)


@pytest.mark.parametrize("edits,message", [
    (COINCIDING_ROWS, "error: slew grid rows 0, 1 coincide at 12 significant digits"),
    ((("pitch_r = 1.0", "pitch_r = 1e307"),), "error: B->B/min: non-finite table cell"),
], ids=["coinciding-rows", "non-finite-cells"])
def test_characterize_refuses_tables_no_command_reads(ws, tmp_path, capsys, edits,
                                                      message):
    """A grid whose rows the file's 12 digits cannot tell apart, or cells that are
    not finite, once made characterize exit 0 with a file every command refused."""
    out = tmp_path / "t.csv"
    assert main(["characterize", "--tech", variant_config(ws, tmp_path, *edits),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_tables_on_coinciding_rows_refused_at_header(ws, tmp_path, monkeypatch, capsys):
    """A file characterized before the grid check, its rows 0-1 written as 4 and
    rows 2-4 as 4.00000000001, is refused for its grid before a record is read."""
    def unchecked_slew_grid(cfg):
        step = (cfg.slew_grid_max - cfg.slew_grid_min) / (cfg.L - 1)
        return [i * step + cfg.slew_grid_min for i in range(cfg.L - 1)] + [cfg.slew_grid_max]

    tech, tables = variant_config(ws, tmp_path, *COINCIDING_ROWS), tmp_path / "t.csv"
    monkeypatch.setattr(characterize, "slew_grid", unchecked_slew_grid)
    assert main(["characterize", "--tech", tech, "--out", str(tables)]) == 0
    monkeypatch.undo()
    records = tables.read_text().splitlines()[2:]
    assert {r.split(",")[5] for r in records} == {"4", "4.00000000001"}
    capsys.readouterr()
    link = write_link(ws, "S W W B W W S", name="rows.gnoc")
    assert main(["analyze", "--tech", tech, "--tables", str(tables), "--link", link,
                 "--period", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: slew grid rows 0, 1 coincide at 12 significant digits" in captured.err


def test_validate_clean(ws, capsys):
    link = write_link(ws, "S W W B W W S")
    assert main(["validate", *args(ws, "--link", link,
                                   "--launch-slew", "10")]) == 0
    out = capsys.readouterr().out
    assert "max_rel_err=" in out
    assert "pass,index,table_arrival,golden_arrival,rel_err" in out


def test_validate_tight_tolerance_fails(ws, capsys):
    # interpolation error on chained slews is small but nonzero
    link = write_link(ws, "S W W W W W B W W W W W S")
    assert main(["validate", *args(ws, "--link", link, "--launch-slew", "10",
                                   "--tol", "0")]) == 1


def test_validate_period_is_usage_error(ws, capsys):
    """validate compares arrivals and reads no clock, so --period is refused
    rather than ignored."""
    link = write_link(ws, "S W W B W W S")
    with pytest.raises(SystemExit) as exc:
        main(["validate", *args(ws, "--link", link, "--period", "5")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --period 5" in captured.err


def characterize_variant(ws, tmp_path, old, new):
    """A tech config with old replaced by new, and its tables; the args naming both."""
    tech = tmp_path / "variant.cfg"
    tech.write_text((ws / "tech.cfg").read_text().replace(old, new))
    tables = tmp_path / "variant.csv"
    assert main(["characterize", "--tech", str(tech), "--out", str(tables)]) == 0
    return ["--tech", str(tech), "--tables", str(tables)]


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_exact_on_two_row_grid_is_usage_error(ws, tmp_path, capsys, command):
    """Chained slews between two rows cannot be reconstructed from two rows."""
    variant = characterize_variant(ws, tmp_path, "L = 10", "L = 2")
    capsys.readouterr()
    link = write_link(ws, "S W W B W W B W W S")
    assert main([command, *variant, "--link", link, *clock_of(command),
                 "--mode", "exact"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "L >= 3" in captured.err
    assert "L = 2" in captured.err


def test_validate_launches_from_first_grid_row(ws, tmp_path, capsys):
    """Without --launch-slew both sides launch from slew_grid_min, a grid row."""
    variant = characterize_variant(ws, tmp_path, "slew_grid_min = 4.0",
                                   "slew_grid_min = 6.0")
    link = write_link(ws, "S W W B W W B W W S")
    capsys.readouterr()
    assert main(["validate", *variant, "--link", link, "--mode", "exact"]) == 0
    default = capsys.readouterr().out
    assert main(["validate", *variant, "--link", link, "--mode", "exact",
                 "--launch-slew", "6.0"]) == 0
    assert capsys.readouterr().out == default
    assert default.splitlines()[-1].startswith("max_rel_err=")


def test_synthesize_writes_link(ws, tmp_path, capsys):
    out = tmp_path / "syn.gnoc"
    assert main(["synthesize", *args(ws, "--length", "11",
                                     "--period", "100", "--out", str(out))]) == 0
    captured = capsys.readouterr().out
    assert "result: S W W W W W B W W W W W S" in captured
    assert out.read_text().strip() == "S W W W W W B W W W W W S"


def test_synthesize_failed_write_prints_nothing(ws, tmp_path, capsys):
    """The link file is written before any line is printed, so a write that
    fails leaves stdout empty; 12 slots at T = 60 try 13 candidates."""
    out = tmp_path / "missing" / "x.gnoc"
    assert main(["synthesize", *args(ws, "--length", "12", "--period", "60",
                                     "--out", str(out))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err


def test_synthesize_failed_log_leaves_no_link_file(ws, tmp_path, capsys, monkeypatch):
    """stdout, log lines included, is built before the link file is written,
    so a log that runs out of memory exits 3 and leaves neither."""
    def exhausted(*_):
        raise MemoryError

    monkeypatch.setattr(synthesize, "_search_log", exhausted)
    out = tmp_path / "syn.gnoc"
    assert main(["synthesize", *args(ws, "--length", "11",
                                     "--period", "100", "--out", str(out))]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal error: ")
    assert not out.exists()


def test_synthesize_unsatisfiable(ws, tmp_path, capsys):
    rc = main(["synthesize", *args(ws, "--length", "5", "--period", "9",
                                   "--out", str(tmp_path / "x.gnoc"))])
    assert rc == 1


EXHAUSTED_3_AT_12 = (
    "SETUP at path 0->1: setup slack -1.97; "
    "COMB_GT_PERIOD at path 0->1: combinational delay 15.29 > period 12")


def test_synthesize_exhausted_search_pinned(ws, tmp_path, capsys):
    """3 slots at T = 12: every candidate is tried and refused, each printed
    with its reasons; the last one's reasons make the unsynthesizable line."""
    out = tmp_path / "x.gnoc"
    assert main(["synthesize", *args(ws, "--length", "3", "--period", "12",
                                     "--out", str(out))]) == 1
    setup, comb = "SETUP at path", "COMB_GT_PERIOD at path"
    assert capsys.readouterr().out == "".join(f"try: {line}\n" for line in (
        f"S W.cb W.cb W.cb S -> {setup} 0->4: setup slack -0.255; "
        f"{comb} 0->4: combinational delay 29.535 > period 12",
        f"S W.cb B W.cb S -> {setup} 0->4: setup slack -1.245; "
        f"{comb} 0->4: combinational delay 30.525 > period 12",
        f"S B W.cb B S -> {setup} 0->4: setup slack -3.775; "
        f"{comb} 0->4: combinational delay 33.055 > period 12",
        f"S B B B S -> {setup} 0->4: setup slack -8.395; "
        f"{comb} 0->4: combinational delay 37.675 > period 12",
        f"S W.cb R W.cb S -> {setup} 0->2: setup slack -0.62; "
        f"{comb} 0->2: combinational delay 18.26 > period 12; "
        f"{comb} 2->4: combinational delay 14.245 > period 12",
        f"S W.cb R B S -> {setup} 0->2: setup slack -0.62; "
        f"{comb} 0->2: combinational delay 18.26 > period 12; "
        f"{comb} 2->4: combinational delay 18.315 > period 12",
        f"S B R W.cb S -> {setup} 0->2: setup slack -5.02; "
        f"{comb} 0->2: combinational delay 22.66 > period 12; "
        f"{comb} 2->4: combinational delay 14.245 > period 12",
        f"S B R B S -> {setup} 0->2: setup slack -5.02; "
        f"{comb} 0->2: combinational delay 22.66 > period 12; "
        f"{comb} 2->4: combinational delay 18.315 > period 12",
        f"S R W.cb R S -> {setup} 0->1: setup slack -1.97; "
        f"{comb} 0->1: combinational delay 15.29 > period 12; "
        f"{comb} 1->3: combinational delay 13.42 > period 12",
        f"S R B R S -> {setup} 0->1: setup slack -1.97; "
        f"{comb} 0->1: combinational delay 15.29 > period 12; "
        f"{setup} 1->3: setup slack -0.4; "
        f"{comb} 1->3: combinational delay 18.04 > period 12",
        f"S R R R S -> {EXHAUSTED_3_AT_12}",
    )) + f"unsynthesizable: {EXHAUSTED_3_AT_12}\n"
    assert not out.exists()


def test_dse_ledger_exhausted_search(ws, tmp_path, capsys):
    cands = tmp_path / "cands.txt"
    cands.write_text("candidate a\nisland core 100\nlink l 3 12\nend\n"
                     "candidate b\nisland core 100\nlink l 2 100\nend\n")
    assert main(["dse", *args(ws, "--candidates", str(cands))]) == 0
    assert capsys.readouterr().out == (
        "name,valid,cost,detail\n"
        f"a,0,inf,link 'l' unsynthesizable: {EXHAUSTED_3_AT_12}\n"
        "b,1,142,\n"
        "best=b cost=142 evaluated=2\n")


BELOW_CLOCK_FLOOR = ("ClockUnsatisfiable: clock stage with zero unbuffered "
                     "slots already >= T/2 = 4.75")


def test_synthesize_below_clock_floor_tries_nothing(ws, tmp_path):
    """Below the clock floor no candidate can be valid, so none is tried or
    printed; 30 slots at T = 9.5 used to print 635,643 try: lines first."""
    out = tmp_path / "x.gnoc"
    proc = subprocess.run([sys.executable, "-m", "gnoc.cli", "synthesize",
                           *args(ws, "--length", "30", "--period", "9.5",
                                 "--out", str(out))],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 1
    assert proc.stdout == f"unsynthesizable: {BELOW_CLOCK_FLOOR}\n"
    assert not out.exists()


def test_dse_ledger_below_clock_floor(ws, tmp_path, capsys):
    cands = tmp_path / "cands.txt"
    cands.write_text("candidate a\nisland core 100\nlink l 30 9.5\nend\n"
                     "candidate b\nisland core 100\nlink l 2 100\nend\n")
    assert main(["dse", *args(ws, "--candidates", str(cands))]) == 0
    assert capsys.readouterr().out == (
        "name,valid,cost,detail\n"
        f"a,0,inf,link 'l' unsynthesizable: {BELOW_CLOCK_FLOOR}\n"
        "b,1,142,\n"
        "best=b cost=142 evaluated=2\n")


@pytest.mark.parametrize("command", ["synthesize", "dse"])
def test_infinite_period_is_usage_error(ws, tmp_path, command):
    """An infinite period is refused up front; synthesis under it never ended."""
    if command == "synthesize":
        rest = ["--length", "5", "--period", "inf", "--out", str(tmp_path / "x.gnoc")]
        where = ""
    else:
        cands = tmp_path / "cands.txt"
        cands.write_text("candidate a\nlink l 5 inf\nend\n")
        rest = ["--candidates", str(cands)]
        where = "line 2: "  # a candidate file's refusals name the line
    proc = subprocess.run([sys.executable, "-m", "gnoc.cli", command, *args(ws, *rest)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: {where}clock period must be finite, got T=inf" in proc.stderr
    assert not (tmp_path / "x.gnoc").exists()


@pytest.mark.parametrize("link, message", [
    ("link l 0 100", "length_slots must be an int >= 1, got 0"),
    ("link l 5 10 10", "clock requires period > jitter >= 0, got T=10.0 jitter=10.0"),
    ("link l 5 nan", "clock requires period > jitter >= 0, got T=nan jitter=0.0"),
])
def test_dse_refused_link_names_its_line(ws, tmp_path, capsys, link, message):
    cands = tmp_path / "cands.txt"
    cands.write_text(f"candidate a\nisland core 1\n{link}\nend\n")
    assert main(["dse", *args(ws, "--candidates", str(cands))]) == 2
    assert capsys.readouterr() == ("", f"error: line 3: {message}\n")


def test_dse_candidates_file(ws, capsys):
    cands = ws / "cands.txt"
    cands.write_text(
        "candidate a\nisland core 300\nlink l 2 100\nend\n"
        "candidate b\nisland core 258\nlink l 2 100\nend\n")
    assert main(["dse", *args(ws, "--candidates", str(cands))]) == 0
    out = capsys.readouterr().out
    assert "best=b cost=300" in out


def test_dse_seeded_deterministic(ws, capsys):
    assert main(["dse", *args(ws, "--seed", "5", "--count", "4")]) == 0
    first = capsys.readouterr().out
    assert main(["dse", *args(ws, "--seed", "5", "--count", "4")]) == 0
    assert capsys.readouterr().out == first


def test_dse_all_invalid_exit_one(ws, capsys):
    cands = ws / "bad.txt"
    cands.write_text("candidate a\nlink l 5 9\nend\n")
    assert main(["dse", *args(ws, "--candidates", str(cands))]) == 1
