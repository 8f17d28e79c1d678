"""The package imports nothing outside the Python standard library and not
``dataclasses``, every check it makes is a raise that still fires under
``python -O``, never an assert, and only the family modules name the two
family classes."""

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
def test_no_dataclasses(path):
    # dataclasses imports inspect, ast, dis and tokenize: about 8 ms of every CLI start-up
    assert "dataclasses" not in absolute_imports(path), f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(parse(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}; python -O strips them"


FAMILY_CLASSES = {"GenericParams", "PfaffianParams"}
FAMILY_MODULES = {"__init__", "family", "maximal_minors", "pfaffians"}


def identifiers(path: Path) -> set[str]:
    """Every name, attribute and imported name or module the file mentions."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.stem not in FAMILY_MODULES], ids=lambda path: path.name
)
def test_only_family_modules_name_the_family_classes(path):
    # a per-family fact belongs to its class, reached through Family members
    named = sorted(FAMILY_CLASSES & identifiers(path))
    assert named == [], f"{path.name} names {named}"


def test_multiplicities_imports_no_kernel_module():
    # the oracle table is Family.oracles(), so the pipeline needs no kernel
    kernels = {"maximal_minors", "pfaffians"} & identifiers(PACKAGE / "multiplicities.py")
    assert kernels == set(), kernels
