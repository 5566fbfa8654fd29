"""The public API holds no name that only the tests use.

Public names are every entry of a relaylab module's __all__ and every name
relaylab/__init__.py re-exports. A name is used when the package or the
bench harness reads it: as a bare name or as an attribute, as bench reads
experiments.maximize_throughput. Exports, __all__ entries and definitions
are not reads.
"""

import ast
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
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                names.update(a.asname or a.name for a in node.names)
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
