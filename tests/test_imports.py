"""Source hygiene: every name a module or test file imports is used in that file,
every module-level private function, class or constant is read somewhere, only
the STFT module converts array layout, only ``linalg`` sizes blocks, only the two
walks take a ``pooled`` flag, every function reads its parameters, and numpy is the
only runtime dependency: no module imports scipy, and importing the package loads
none of it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import drbss

SOURCES = sorted(Path(drbss.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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
    assert len(MODULES) >= 10 and len(TESTS) >= 10
    found = {f"{p.parent.name}/{p.name}": unused_imports(p.read_text()) for p in MODULES + TESTS}
    assert {name: names for name, names in found.items() if names} == {}


def layout_conversions(source: str) -> list[str]:
    """Calls in ``source`` that reorder array axes: ``transpose`` or ``moveaxis``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("transpose", "moveaxis"):
                hits.append(f"line {node.lineno}: {name}")
    return sorted(hits)


def test_scanner_flags_a_layout_conversion():
    source = (
        "import numpy as np\n"
        "a = x.transpose(1, 0, 2)\n"
        "b = np.moveaxis(x, 0, 1)\n"
        "c = np.transpose(x)\n"
        "d = x.swapaxes(1, 2) @ x.T\n"
    )
    assert layout_conversions(source) == ["line 2: transpose", "line 3: moveaxis", "line 4: transpose"]


def test_only_stft_converts_layout():
    """Every per-bin tensor is (F, ..., T); ``stft`` alone converts to and from it."""
    found = {p.name: layout_conversions(p.read_text()) for p in MODULES if p.name != "stft.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


BLOCK_SIZING = {"BLOCK_BYTES", "WORKERS", "_pool"}


def block_sizing_reads(source: str) -> list[str]:
    """Reads in ``source`` of the names that size a walk: as a name, an attribute or an import."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", getattr(node, "attr", None))]
        hits += [f"line {node.lineno}: {name}" for name in names if name in BLOCK_SIZING]
    return sorted(hits)


def test_scanner_flags_a_block_sizing_read():
    source = (
        "from . import linalg\n"
        "from .linalg import WORKERS, over_bins\n"
        "width = linalg.BLOCK_BYTES // 16\n"
        "pool = linalg._pool\n"
        "over_bins(f, 3, x)\n"
    )
    assert block_sizing_reads(source) == ["line 2: WORKERS", "line 3: BLOCK_BYTES", "line 4: _pool"]


def test_only_linalg_sizes_blocks():
    """``linalg.over_bins`` alone turns a working set into blocks; every other module hands it the bytes."""
    found = {p.name: block_sizing_reads(p.read_text()) for p in MODULES if p.name != "linalg.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def functions(source: str) -> list[tuple[str, ast.FunctionDef]]:
    """Every function and method in ``source``, nested ones included, with its qualified name."""

    def visit(node: ast.AST, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    yield name, child
                yield from visit(child, name + ".")
            else:
                yield from visit(child, prefix)

    return list(visit(ast.parse(source), ""))


def parameters(function: ast.FunctionDef) -> list[ast.arg]:
    args = function.args
    return [a for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]


def pooled_parameters(source: str) -> list[str]:
    """Functions and methods in ``source`` that take a ``pooled`` parameter, by qualified name."""
    return sorted(name for name, function in functions(source) for a in parameters(function) if a.arg == "pooled")


def test_scanner_flags_a_pooled_parameter():
    source = (
        "def walk(kernel, *arrays, pooled=True):\n"
        "    def inner(block, pooled):\n"
        "        pass\n"
        "class Stack:\n"
        "    def blocks(self, kernel, *, pooled: bool):\n"
        "        walk(kernel, pooled=pooled)\n"
        "def solve(sx, inv):\n"
        "    walk(sx, inv, pooled=inv.shape[1] > 1)\n"
    )
    assert pooled_parameters(source) == ["Stack.blocks", "walk", "walk.inner"]


def test_only_the_walks_take_a_pooled_parameter():
    """Whether a walk pools is decided by ``linalg.over_bins`` and ``StackedObservation.over_blocks``
    alone; every other function reads it from its input (a one-track prediction solve stays serial)."""
    found = {f"{p.name}: {name}" for p in MODULES for name in pooled_parameters(p.read_text())}
    assert found == {"linalg.py: over_bins", "stacking.py: StackedObservation.over_blocks"}


def unread_parameters(source: str) -> list[str]:
    """Parameters of the functions and methods in ``source``, nested ones included, that their body never
    reads, as ``qualified name: parameter``. An augmented assignment reads its target; ``del`` does not."""
    hits = []
    for name, function in functions(source):
        body = [n for stmt in function.body for n in ast.walk(stmt)]
        read = {n.id for n in body if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {getattr(n.target, "id", None) for n in body if isinstance(n, ast.AugAssign)}
        hits += [f"{name}: {a.arg}" for a in parameters(function) if a.arg not in read]
    return hits


def test_scanner_flags_an_unread_parameter():
    source = (
        "def step(dm, outputs, counter=None, *rest, **options):\n"
        "    del counter\n"
        "    outputs *= 2\n"
        "    def block(top, unused):\n"
        "        return top + dm\n"
        "    return block\n"
        "class Walk:\n"
        "    def run(self, kernel):\n"
        "        return self\n"
        "law = lambda n: 0\n"
    )
    assert unread_parameters(source) == [
        "step: counter", "step: rest", "step: options", "step.block: unused", "Walk.run: kernel",
    ]


def test_every_parameter_is_read():
    """No function takes a parameter it ignores. ``counter`` of the solve-free steering step is the one
    exception: every step takes ``(dm, sx, inv, outputs, counter)``, and that step makes no solve to count."""
    found = {f"{p.name}: {hit}" for p in MODULES for hit in unread_parameters(p.read_text())}
    assert found == {"ilrma_t.py: ilrma_t_iss_seq_iteration: counter"}


def imported_packages(source: str) -> set[str]:
    """Top-level packages that the import statements in ``source`` name; relative imports name none."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_scanner_names_imported_packages():
    source = (
        "import numpy as np\n"
        "from scipy.signal import lfilter\n"
        "from . import linalg\n"
        "def f():\n"
        "    import scipy.io.wavfile\n"
    )
    assert imported_packages(source) == {"numpy", "scipy"}


def test_no_module_imports_scipy():
    """The simulator, the WAV codec and the engine all run on numpy and the standard library alone."""
    found = {p.name: imported_packages(p.read_text()) - set(sys.stdlib_module_names) for p in SOURCES}
    assert {name: packages for name, packages in found.items() if not packages <= {"numpy"}} == {}


def test_importing_the_package_and_cli_loads_no_scipy():
    code = "import sys, drbss, drbss.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = os.environ | {"PYTHONPATH": str(Path(drbss.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert done.stdout == "[]\n"


def module_level_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines: a function, a class, or assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        names = (n for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name))
        return [n.id for n in names if isinstance(n.ctx, ast.Store)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no module in
    ``sources`` reads; an assignment is not a read, and dunders are exempt."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return list(dict.fromkeys(
        f"{name}: {defined}"
        for name, tree in sorted(trees.items())
        for node in tree.body
        for defined in module_level_names(node)
        if defined.startswith("_") and not defined.startswith("__") and defined not in used
    ))


def test_scanner_flags_an_unreferenced_private_def():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _orphan():\n    _used()\n\nclass _Kept:\n    pass\n",
        "b.py": "from a import _Kept\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py: _orphan"]


def test_scanner_flags_a_private_constant_nothing_reads():
    sources = {
        "a.py": "_READ, _DEAD = 1, 2\n_STORED: int = 3\n_STORED = 4\n__all__ = []\nprint(_READ)\n",
        "b.py": "import a\nprint(a._ATTR)\n",
        "c.py": "_ATTR = 5\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py: _DEAD", "a.py: _STORED"]


def test_no_private_def_is_left_unreferenced():
    assert unreferenced_private_defs({p.name: p.read_text() for p in SOURCES}) == []
