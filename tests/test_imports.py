"""Each module of the package reads every name it imports, and imports only
from the modules below it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tpminors"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# perfbench/layers.py wraps constructions.verify_tp (a SPAN_SITES entry), so
# constructions imports that name without reading it
UNREAD_ALLOWED = {"constructions": ["verify_tp"]}


def unread_imports(module):
    """The names ``module`` imports and never reads, sorted."""
    tree = ast.parse((SRC / (module + ".py")).read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and
                getattr(node, "module", None) != "__future__"
                for alias in node.names}
    # an attribute chain such as exact.rat starts with a Name, so it reads exact
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_its_imports(module):
    assert unread_imports(module) == UNREAD_ALLOWED.get(module, [])


# the package modules each module may import from: the counters and the
# constructions are built on the exact core alone
LAYERS = {"exact": [], "constructions": ["exact"], "counting": ["exact"]}


def package_imports(module):
    """The package modules ``module`` imports from, sorted."""
    tree = ast.parse((SRC / (module + ".py")).read_text())
    # "from .exact import x" names its module; "from . import exact" its names
    return sorted({name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   for name in ([node.module] if node.module else [a.name for a in node.names])})


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_lower_layers(module):
    assert package_imports(module) == LAYERS[module]
