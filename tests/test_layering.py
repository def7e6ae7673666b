"""Layering: no module in src/peepgen uses a sibling module's private names.

A helper that more than one module needs is public in the module it belongs
to (IR traversal lives in `peepgen.ir`).  Tests may still use privates.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "peepgen"
MODULES = {p.stem for p in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(node: ast.ImportFrom):
    """The sibling module `from .m import x` names ("m"); the empty string
    for `from . import m`; None for imports from outside the package.
    Absolute `peepgen` imports count as relative ones."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "peepgen":
        return ""
    if node.level == 0 and (node.module or "").startswith("peepgen."):
        return node.module[len("peepgen."):]
    return None


def private_reach_ins(path: Path) -> list:
    """`module.name` for every sibling private name that `path` imports or
    reads as an attribute of an imported sibling module."""
    tree = ast.parse(path.read_text())
    aliases: dict = {}  # local name -> sibling module
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _sibling(node)
        if module == "":
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name in MODULES})
        elif module in MODULES:
            found += [f"{module}.{a.name}" for a in node.names
                      if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_no_private_reach_ins():
    offenders = {p.name: private_reach_ins(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}
