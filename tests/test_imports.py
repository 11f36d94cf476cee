"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import drbss

MODULES = sorted(p for p in Path(drbss.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_scanner_flags_an_unused_import():
    source = "import os\nfrom functools import lru_cache, reduce\nprint(os.sep, reduce)\n"
    assert unused_imports(source) == ["line 2: lru_cache"]


def test_no_module_imports_a_name_it_never_uses():
    assert len(MODULES) >= 10
    found = {p.name: unused_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in found.items() if names} == {}
