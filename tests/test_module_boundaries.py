"""No module of the package imports a private name from a sibling.

A name with a leading underscore belongs to the module that defines it;
a sibling that needs it asks for a public name instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "toralrank"


def private_uses(tree):
    """Sibling names with a leading underscore that `tree` imports or reads.

    A sibling module bound by `from . import x [as y]` counts as well: an
    attribute `y._name` reads a private name of x.
    """
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    siblings = {
        alias.asname or alias.name: alias.name for node in imports if node.module is None for alias in node.names
    }
    private = [f"{node.module}.{alias.name}" for node in imports for alias in node.names if alias.name.startswith("_")]
    private += [
        f"{siblings[node.value.id]}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
    ]
    return private


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_from_siblings(path):
    assert private_uses(ast.parse(path.read_text())) == []


def test_attribute_access_through_a_sibling_alias_counts():
    tree = ast.parse("from . import hirschbrown as hb_mod\nfrom .x import _y\nhb_mod._delta_map(hb)\n")
    assert private_uses(tree) == ["x._y", "hirschbrown._delta_map"]
