"""Every name a gnoc module imports is used in that module."""

import ast
from pathlib import Path

import gnoc

PACKAGE = Path(gnoc.__file__).resolve().parent

# Imported but not used on purpose: perfbench's tracer wraps these two names
# in gnoc.hasta, so they must stay importable from there.
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
