"""Every public name has a reader in the package.

Each public module-level function, class and upper-case constant of
`src/vancyc`, and each public method and property of its classes, must be
read, as a name or as an attribute, by some module of the package other
than `__init__`, so exporting a name does not count as using it.  The
allowlist holds the names that only the benchmark still reads, each with
the `perfbench/workloads.py` line that pins it; once that line goes, so
does the entry.  No function exported from `vancyc` takes a parameter of a
private type, which a caller outside the package could not build.  The
imports of another module's private names are listed, so a new one cannot
appear unnoticed and an entry goes when its import goes.
"""

import ast
import inspect
from pathlib import Path

import vancyc

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vancyc"

# name -> the perfbench/workloads.py line that still reads it
BENCHMARK_PINS = {
    "radical_membership":
        "member = groebner.radical_membership(given, d.ideal, max_pairs=STRETCH_PAIRS)",
    "cartan_matrix": "c = monodromy.cartan_matrix(label)",
    "SUPPORTED_TYPES":
        'REFLECTION_TYPES = tuple(t for t in monodromy.SUPPORTED_TYPES if t != "A8")',
    "is_empty": "if d.is_empty():",
}


# (importing module, module imported from) -> the private names it imports
PRIVATE_IMPORTS = {
    ("groebner", "poly"): {"_DivisorIndex", "_divided", "_reduce"},
    ("poly", "groebner"): {"_fresh_name"},
    ("suite", "monodromy"): {"_identity", "_matmul", "_transpose"},
}


def _modules():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]


def _public() -> set[str]:
    """Module-level functions and classes, and the methods and properties
    of those classes, not named with a leading underscore, and module-level
    constants named in upper case."""
    names = set()
    for tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    names.update(f.name for f in node.body
                                 if isinstance(f, ast.FunctionDef))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets
                             if isinstance(t, ast.Name) and t.id.isupper())
    return {name for name in names if not name.startswith("_")}


def _read_names() -> set[str]:
    read = set()
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_public_name_is_read_in_the_package():
    unread = _public() - _read_names() - set(BENCHMARK_PINS)
    assert not unread, f"public but never read in src/vancyc: {sorted(unread)}"


def test_every_allowlisted_name_is_still_pinned():
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    for name, line in BENCHMARK_PINS.items():
        assert name in _public(), name
        assert name not in _read_names(), f"{name} has a reader now; drop its entry"
        assert line in workloads, f"{name}'s pin is gone; drop its entry"


def test_private_imports_across_modules_are_listed():
    """Every import of a private name from a module of the package, relative
    or through `vancyc.`, at any depth, is in PRIVATE_IMPORTS, and every
    entry is still imported."""
    found: dict[tuple[str, str], set[str]] = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            if node.level or node.module.startswith("vancyc."):
                private = {a.name for a in node.names if a.name.startswith("_")}
                if private:
                    key = (path.stem, node.module.rsplit(".", 1)[-1])
                    found.setdefault(key, set()).update(private)
    assert found == PRIVATE_IMPORTS


def _annotation_names(annotation) -> set[str]:
    """Names and attribute names in a parameter annotation, a string under
    `from __future__ import annotations`."""
    if not isinstance(annotation, str):
        annotation = inspect.formatannotation(annotation)
    tree = ast.parse(annotation, mode="eval")
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_exported_function_takes_a_private_type():
    private = {}
    for name in dir(vancyc):
        fn = getattr(vancyc, name)
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        for param in inspect.signature(fn).parameters.values():
            if param.annotation is inspect.Parameter.empty:
                continue
            hidden = sorted(n for n in _annotation_names(param.annotation) if n.startswith("_"))
            if hidden:
                private[f"{name}({param.name})"] = hidden
    assert not private, f"exported functions with private parameter types: {private}"
