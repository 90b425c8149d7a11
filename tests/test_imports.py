"""Every name a gnoc module imports is used in that module, every
top-level private function of gnoc is referred to somewhere, and gnoc's
public names resolve to their home modules' objects."""

import ast
from pathlib import Path

import pytest

import gnoc
import gnoc.cli

PACKAGE = Path(gnoc.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Imported but not used on purpose: perfbench's tracer wraps these names in
# gnoc.hasta, so they must stay importable from there.
ALLOWED = {
    ("hasta.py", "table_lookup"),
    ("hasta.py", "reconstruct_lookup"),
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_caught():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(e)\n") \
        == ["os", "c"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [f"{path.name}: {name}" for path in modules
              for name in unused_imports(path.read_text())
              if (path.name, name) not in ALLOWED]
    assert unused == []


def names_used(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in tree."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unused_private_functions(package: list[str], others: list[str]) -> list[str]:
    """Top-level _private functions of the package sources that no source
    refers to outside their own definition."""
    used = set().union(*(names_used(ast.parse(source)) for source in others))
    private = []  # (name, names its definition uses)
    for source in package:
        for node in ast.parse(source).body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                private.append((node.name, names_used(node)))
            else:
                used |= names_used(node)
    return [name for i, (name, _) in enumerate(private)
            if name not in used
            and not any(name in body for j, (_, body) in enumerate(private) if j != i)]


def test_unused_private_function_is_caught():
    package = ["def _a():\n    _a()\n\ndef _b(): pass\n\ndef c(): _b()\n",
               "def _d(): pass\n"]
    assert unused_private_functions(package, []) == ["_a", "_d"]
    assert unused_private_functions(package, ["from m import _a\nm._d()\n"]) == []


def test_no_unused_private_functions():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    assert len(package) > 1 and tests
    assert unused_private_functions(package, tests) == []


# The flop-to-flop path judge: only hasta.py may define or refer to it, so
# synthesis and analysis keep judging a path with one copy of the code.
JUDGE = {"setup_check", "hold_check", "path_violations", "slew_violation"}


def judge_names_outside_hasta(sources: dict[str, str]) -> list[str]:
    """'module: name' per path-judge name that a module other than hasta.py
    defines or refers to."""
    found = []
    for module, source in sorted(sources.items()):
        if module == "hasta.py":
            continue
        tree = ast.parse(source)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        found += [f"{module}: {name}" for name in sorted((names_used(tree) | defined) & JUDGE)]
    return found


def test_judge_name_outside_hasta_is_caught():
    sources = {"hasta.py": "def setup_check(): pass\nsetup_check()\n",
               "synthesize.py": "from .hasta import hold_check\nhasta.slew_violation()\n",
               "dse.py": "def path_violations(): pass\n"}
    assert judge_names_outside_hasta(sources) == [
        "dse.py: path_violations", "synthesize.py: hold_check",
        "synthesize.py: slew_violation"]


def test_only_hasta_judges_paths():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert "hasta.py" in sources and "synthesize.py" in sources
    assert judge_names_outside_hasta(sources) == []


def test_tracer_names_resolve(monkeypatch):
    """Every name the benchmark's tracer wraps still exists where it wraps
    it, and uninstalling puts each original back."""
    monkeypatch.syspath_prepend(str(TESTS.parent / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert patched
        assert all(getattr(owner, attr).__wrapped__ is original
                   for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_package_exports_resolve_to_home_modules():
    """`from gnoc import name` gives the object its home module binds, and
    gnoc.cli's name hook resolves the same name to it.  (The hook is called
    directly: uninstalling the tracer leaves a binding in gnoc.cli.)"""
    assert len(gnoc.__all__) == len(set(gnoc.__all__)) > 1
    for name in gnoc.__all__:
        namespace = {}
        exec(f"from gnoc import {name}", namespace)
        home = namespace[name].__module__
        assert home.startswith("gnoc.") and home != "gnoc.cli", name
        assert namespace[name] is getattr(__import__(home, fromlist=[name]), name)
        assert gnoc.cli.__getattr__(name) is namespace[name]


@pytest.mark.parametrize("module", [gnoc, gnoc.cli])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
