"""Every definition in the package is used by the program itself.

Code that only the tests call belongs in tests/ (see tests/oracles.py):
this test fails when a module-level function or class of src/schurq/ is
named nowhere in src/, scripts/ or perfbench/ but in its own body.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def used_names(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes read anywhere in tree outside the node skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_definition_is_used_outside_tests():
    program = {path: ast.parse(path.read_text()) for top in ("src", "scripts", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))}
    names = {path: used_names(tree) for path, tree in program.items()}
    unused = []
    for path in sorted((ROOT / "src" / "schurq").glob("*.py")):
        elsewhere = set().union(*(used for p, used in names.items() if p != path))
        for node in program[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name not in elsewhere | used_names(program[path], skip=node):
                    unused.append(f"{path.name}:{node.name}")
    assert len(names) > 10 and not unused
