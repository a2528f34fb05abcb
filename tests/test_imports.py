"""Every name a library module imports is used in that module, the
library makes no FFT call but one, and it loads scipy only where it must.

No linter ships with the toolkit, so this is the guard against the stale
imports a deletion leaves behind.  `__init__.py` is skipped: its imports are
the public surface it re-exports.  Every map between eigen-coefficients and a
grid goes through the one-axis tables of `fields._axis_tables` (or `cbf`'s
partial DFTs read from the same phases); the one FFT left is the seeded
initial state of `cbf.random_divergence_free_state`, whose bits the ledger
artifacts depend on.  scipy costs about 0.35 s of start-up and 47 MB of
memory, so only the near-extremal family's Bessel function and the
`--check-itheta` reference quadrature import it, inside their functions.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


SCIPY_ALLOWED = {
    ("normlab.py", "_near_extremal_coeffs", "scipy.special.j1"),
    ("interpolation.py", "i_theta_quadrature", "scipy.integrate.quad"),
}


def _scipy_imports(source: str) -> list:
    """(line, enclosing function or None, dotted name) of every scipy import."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            names = []
        found.extend((node.lineno, where, n) for n in names if n.split(".")[0] == "scipy")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return found


def test_the_scan_finds_every_scipy_import():
    source = (
        "import numpy as np\nimport scipy.fft as sf\nfrom scipy import special\n"
        "def f(x):\n    from scipy.special import j1\n    return j1(x)\n"
        "class A:\n    def g(self):\n        import scipy\n"
    )
    assert _scipy_imports(source) == [
        (2, None, "scipy.fft"), (3, None, "scipy.special"), (5, "f", "scipy.special.j1"), (9, "g", "scipy"),
    ]


def test_no_scipy_import_but_the_two_lazy_ones():
    found = {(p.name, where, name) for p in SRC.glob("*.py") for _, where, name in _scipy_imports(p.read_text())}
    assert found == SCIPY_ALLOWED


# each run through cli.run, small; none samples the near-extremal family or
# checks I(theta), the two paths that load scipy
_SCIPY_FREE_RUNS = [
    ["cbf", "--N", "16", "--T", "0.03"],
    ["interp"],
    ["approx"],
]
_SCIPY_PROBE = """
import json, os, sys
import eigenapprox, eigenapprox.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = {"import": loaded()}
for argv in json.loads(sys.argv[1]):
    rc = eigenapprox.cli.run(argv + ["--out-dir", os.path.join(sys.argv[2], argv[0])])
    out[argv[0]] = [rc, loaded()]
print(json.dumps(out))
"""


def test_import_and_cli_runs_leave_scipy_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(_SCIPY_FREE_RUNS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "cbf": [0, []], "interp": [0, []], "approx": [0, []]}
