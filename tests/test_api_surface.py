"""Every public name has a caller in the package.

Each name that `vancyc/__init__.py` imports must be read, as a name or as
an attribute, by some module of `src/vancyc` other than `__init__`.  The
allowlist holds the names that only the benchmark still reads, each with
the `perfbench/workloads.py` line that pins it; once that line goes, so
does the entry.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vancyc"

# name -> the perfbench/workloads.py line that still reads it
BENCHMARK_PINS = {
    "radical_membership":
        "member = groebner.radical_membership(given, d.ideal, max_pairs=STRETCH_PAIRS)",
    "cartan_matrix": "c = monodromy.cartan_matrix(label)",
}


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _read_names() -> set[str]:
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_export_has_a_caller_in_the_package():
    unused = _exported() - _read_names() - set(BENCHMARK_PINS)
    assert not unused, f"exported but never read in src/vancyc: {sorted(unused)}"


def test_every_allowlisted_export_is_still_pinned():
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    for name, line in BENCHMARK_PINS.items():
        assert name in _exported(), name
        assert name not in _read_names(), f"{name} has a caller now; drop its entry"
        assert line in workloads, f"{name}'s pin is gone; drop its entry"
