"""The package imports nothing outside the Python standard library, and every
check it makes is a raise that still fires under ``python -O``, never an assert."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "detmult"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def absolute_imports(path: Path) -> list[str]:
    """Top-level names of every absolute import in the file."""
    names = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_every_module_is_scanned():
    assert {path.stem for path in MODULES} >= {"__init__", "arith", "cli", "maximal_minors", "pfaffians"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = [name for name in absolute_imports(path) if name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}; python -O strips them"
