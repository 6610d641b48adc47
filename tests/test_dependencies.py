"""Every third-party import of the package is declared in ``pyproject.toml``.

The source tree is scanned statically (no imports executed), so the test
also covers modules and branches the rest of the suite never loads.
Required packages come from ``[project].dependencies``; packages that
appear only in ``[project.optional-dependencies]`` are extras, and every
import of an extra must sit inside a ``try`` block that catches the
``ImportError`` of a clean install without it.
"""

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, Set, Tuple

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Handler types that absorb a missing optional package.
_GUARDS = {"ImportError", "ModuleNotFoundError", "Exception", "BaseException"}


def _requirement_name(requirement: str) -> str:
    """Import name of a PEP 508 requirement (``"scipy>=1.10"`` -> ``"scipy"``)."""
    name = re.match(r"[A-Za-z0-9._-]+", requirement.strip()).group(0)
    return name.lower().replace("-", "_")


def _declared() -> Tuple[Set[str], Set[str]]:
    """``(required, extras)`` import names declared in ``[project]``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    required = {_requirement_name(r) for r in project.get("dependencies", [])}
    extras = {
        _requirement_name(r)
        for group in project.get("optional-dependencies", {}).values()
        for r in group
    }
    return required, extras - required


def _catches_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        if handler.type is None:
            return True
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        if any(isinstance(t, ast.Name) and t.id in _GUARDS for t in types):
            return True
    return False


def _imports(node: ast.AST, guarded: bool = False) -> Iterator[Tuple[str, int, bool]]:
    """``(top-level module, line, guarded)`` for every absolute import."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.split(".")[0], node.lineno, guarded
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module:
            yield node.module.split(".")[0], node.lineno, guarded
    elif isinstance(node, ast.Try):
        body_guarded = guarded or _catches_import_error(node)
        for child in node.body:
            yield from _imports(child, body_guarded)
        for child in node.handlers + node.orelse + node.finalbody:
            yield from _imports(child, guarded)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _imports(child, guarded)


def _third_party_imports() -> Iterator[Tuple[str, str, bool]]:
    """``(module, "path:line", guarded)`` for imports outside stdlib and repro."""
    stdlib = set(sys.stdlib_module_names) | {"__future__"}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(ROOT)
        for module, line, guarded in _imports(tree):
            if module not in stdlib and module != "repro":
                yield module, f"{where}:{line}", guarded


def test_package_tree_is_scanned():
    modules = {module for module, _, _ in _third_party_imports()}
    assert {"numpy", "networkx", "scipy"} <= modules


def test_every_third_party_import_is_declared():
    required, extras = _declared()
    undeclared = sorted(
        f"{where}: {module}"
        for module, where, _ in _third_party_imports()
        if module not in required | extras
    )
    assert not undeclared, "imports missing from [project] dependencies:\n" + "\n".join(
        undeclared
    )


def test_optional_extras_are_imported_under_try():
    _, extras = _declared()
    unguarded = sorted(
        f"{where}: {module}"
        for module, where, guarded in _third_party_imports()
        if module in extras and not guarded
    )
    assert not unguarded, "optional extras imported outside try/except:\n" + "\n".join(
        unguarded
    )
