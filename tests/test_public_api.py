"""The public API holds no name that only the tests use, and one import
path for each name.

Public names are the entries of the relaylab modules' __all__; the package
__init__ imports nothing, so each name is imported from its one module. A
name is used when the package or the bench harness reads it: as a bare name
or as an attribute, as bench reads experiments.maximize_throughput. __all__
entries and definitions are not reads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relaylab"
# imported by tests/test_acceptance.py, whose criteria are frozen
ACCEPTANCE_PINNED = {
    "min_erlang_cdf",
    "nakagami_sum_cdf",
    "exp_integral_e1",
    "exp_scaled_e1",
}


def _parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in paths}


def _public_names(trees):
    names = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def _read_names(trees):
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_is_used_outside_tests():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    bench = _parse(sorted((ROOT / "bench").glob("*.py")))
    public = _public_names(package)
    assert ACCEPTANCE_PINNED <= public
    unused = public - _read_names({**package, **bench}) - ACCEPTANCE_PINNED
    assert not unused, f"public names only the tests use: {sorted(unused)}"


def test_package_init_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, f"relaylab/__init__.py imports on lines {imports}"


def test_specfun_imports_alone():
    # specfun is pure Python: importing it pulls in neither numpy nor any
    # other relaylab module
    code = (
        "import sys, relaylab.specfun; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('numpy', 'relaylab')))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "['relaylab', 'relaylab.specfun']"
