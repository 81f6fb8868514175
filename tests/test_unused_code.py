"""Every top-level function, class and constant in src/pinclasses is exported
or used somewhere in src/, or named below with the reason it stays."""

import ast
from pathlib import Path

import pinclasses

SRC = Path(__file__).resolve().parent.parent / "src" / "pinclasses"

# module.name -> why it stays with no use in src/
ALLOWED = {
    "_patterns.BACKEND": "perfbench/run.py reports which subset-census kernel ran",
    "classify.collision_group": "perfbench/tracer.py wraps it as a layer",
    "oracle.census_adjacency": "a route of the acceptance tests",
    "oracle.property_suite": "a route of the acceptance tests",
    "oracle.centred_uncentred_check": "a route of the acceptance tests",
    "oracle.enumerate_closure_composition": "a route of the acceptance tests",
    "pipeline.interior_positivity": "a route of the acceptance tests",
}


def _top_level_names(tree: ast.Module):
    """(name, defining node) for each top-level def, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _loaded(name: str, node) -> bool:
    """True iff ``node`` reads name, as a bare name or as an attribute."""
    return (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _unused_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    every_node = [node for tree in trees.values() for node in ast.walk(tree)]
    unused = []
    for module, tree in trees.items():
        for name, definition in _top_level_names(tree):
            if name in pinclasses.__all__ or name.startswith("__") and name.endswith("__"):
                continue
            inside = set(map(id, ast.walk(definition)))
            if not any(id(node) not in inside and _loaded(name, node) for node in every_node):
                unused.append(f"{module}.{name}")
    return sorted(unused)


def test_every_top_level_name_is_used_or_allowed():
    """A new name in the difference is dead code to delete, or to allow with
    its reason; an allowed name that gained a use leaves the list."""
    assert _unused_names() == sorted(ALLOWED)
