"""Every name a library module imports is used in that module, and the
library makes no FFT call but one.

No linter ships with the toolkit, so this is the guard against the stale
imports a deletion leaves behind.  `__init__.py` is skipped: its imports are
the public surface it re-exports.  Every map between eigen-coefficients and a
grid goes through the one-axis tables of `fields._axis_tables` (or `cbf`'s
partial DFTs read from the same phases); the one FFT left is the seeded
initial state of `cbf.random_divergence_free_state`, whose bits the ledger
artifacts depend on.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eigenapprox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `from m import x as y` binds `y`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom math import pi, tau as t\nfrom .x import y\n\nprint(os.sep, t)\n"
    assert _unused_imports(source) == [(2, "pi"), (3, "y")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


FFT_MODULES = ("numpy.fft", "scipy.fft", "scipy.fftpack")
FFT_ALLOWED = {("cbf.py", "random_divergence_free_state")}


def _fft_calls(source: str) -> list:
    """(line, enclosing function) of every call into an FFT module, through
    any alias an import binds."""
    tree = ast.parse(source)
    alias = {}  # local name -> the dotted module path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                alias[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    calls = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            parts, f = [], node.func
            while isinstance(f, ast.Attribute):
                parts.append(f.attr)
                f = f.value
            if isinstance(f, ast.Name):
                path = ".".join([alias.get(f.id, f.id)] + parts[::-1])
                if any(path == m or path.startswith(m + ".") for m in FFT_MODULES):
                    calls.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return calls


def test_the_scan_finds_every_fft_call():
    source = (
        "import numpy as np\nimport scipy.fft\nfrom numpy import fft\nfrom scipy.fft import rfftn as r\n"
        "def f(x):\n    return np.fft.ifftn(x) + scipy.fft.fftn(x)\n"
        "def g(x):\n    return fft.rfft(x) + r(x) + np.sum(x)\n"
    )
    assert _fft_calls(source) == [(6, "f"), (6, "f"), (8, "g"), (8, "g")]


def test_no_fft_call_but_the_seeded_initial_state():
    found = {(p.name, where) for p in SRC.glob("*.py") for _, where in _fft_calls(p.read_text())}
    assert found == FFT_ALLOWED
