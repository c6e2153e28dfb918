"""Every name a module exports has a reader outside the tests.

A name in a module's ``__all__`` must be read somewhere in ``src/``,
``demos/`` or ``bench/``: as a name, an attribute or an imported name.
Strings, comments and the ``__all__`` entry do not count, nor does a read
inside the name's own definition or inside the definition of another
exported name that has no reader. The only exceptions are the audits
that the acceptance criteria use.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import tourkit

ROOT = Path(__file__).resolve().parent.parent
READER_DIRS = ("src", "demos", "bench")
ACCEPTANCE_AUDITS = {"is_ordered_core", "order_isomorphic"}


def _reads(tree: ast.AST) -> set[str]:
    """The names a syntax tree reads, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _defined(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _exports() -> dict[str, list[str]]:
    """Module name -> its ``__all__``, for every module of the package."""
    out = {}
    for info in pkgutil.iter_modules(tourkit.__path__):
        module = importlib.import_module(f"tourkit.{info.name}")
        if hasattr(module, "__all__"):
            out[info.name] = list(module.__all__)
    return out


def _unread_exports() -> list[str]:
    """``module.name`` for each exported name that no live statement reads.
    A statement that defines an unread exported name is not live, so a
    name whose only reader is itself unread is unread too."""
    package = ROOT / "src" / "tourkit"
    # (module it defines names of, or None; names it defines; names it reads)
    statements = []
    for folder in READER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            home = path.stem if path.parent == package else None
            for stmt in ast.parse(path.read_text()).body:
                statements.append((home, _defined(stmt), _reads(stmt)))
    exports = {
        (module, name)
        for module, names in _exports().items()
        for name in names
        if name not in ACCEPTANCE_AUDITS
    }
    unread: set[tuple[str, str]] = set()
    while True:
        live = [
            (home, defined, reads)
            for home, defined, reads in statements
            if not any((home, name) in unread for name in defined)
        ]
        found = {
            (module, name)
            for module, name in exports
            if not any(
                name in reads and not (home == module and name in defined)
                for home, defined, reads in live
            )
        }
        if found == unread:
            return sorted(f"{module}.{name}" for module, name in found)
        unread = found


def test_every_exported_name_has_a_reader_outside_the_tests():
    assert _unread_exports() == []
