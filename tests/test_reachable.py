"""Every definition in the package is used by the program itself.

Code that only the tests call belongs in tests/ (see tests/oracles.py):
this test fails when a module-level function or class of src/schurq/ is
reached from nowhere in src/, scripts/ or perfbench/ but its own body.
A use counts only through a binding of the definition's own module, so
an unrelated variable that shares its name is not a use:
- in its own module, a read of the module-level name that no enclosing
  function or comprehension binds locally;
- `from schurq.<mod> import name`, or `from .<mod> import name` inside
  the package;
- an attribute `m.name` on a name m bound to the module (`from schurq
  import <mod>`, `from . import <mod>`, `import schurq.<mod> as m`), or
  `schurq.<mod>.name`;
- a tuple `(m, "name", ...)`, as perfbench/tracer.py names what it wraps.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "schurq"
PACKAGE_DIR = f"src/{PACKAGE}/"
SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope: ast.AST) -> set[str]:
    """The names a function or comprehension binds in its own scope."""
    if not isinstance(scope, (ast.FunctionDef, ast.Lambda)):
        return {n.id for gen in scope.generators for n in ast.walk(gen.target) if isinstance(n, ast.Name)}
    args = scope.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    stack = list(scope.body) if isinstance(scope, ast.FunctionDef) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, SCOPES):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            stack.extend(ast.iter_child_nodes(node))
    return names


def global_reads(tree: ast.Module, skip: ast.AST) -> set[str]:
    """Names read anywhere in tree, outside the node skip, that resolve to its module-level bindings."""
    found: set[str] = set()
    stack: list[tuple[ast.AST, frozenset]] = [(tree, frozenset())]
    while stack:
        node, shadowed = stack.pop()
        if node is skip:
            continue
        if isinstance(node, SCOPES):
            shadowed = shadowed | local_names(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            found.add(node.id)
        stack.extend((child, shadowed) for child in ast.iter_child_nodes(node))
    return found


def package_module(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The package module an import-from reads its names from, or "" for the package itself."""
    if node.level == 1 and in_package:
        return node.module or ""
    if node.level == 0 and node.module == PACKAGE:
        return ""
    if node.level == 0 and node.module and node.module.startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1 :]
    return None


def module_uses(tree: ast.Module, in_package: bool) -> set[tuple[str, str]]:
    """The (module, name) pairs a file reaches through bindings of package modules."""
    uses: set[tuple[str, str]] = set()
    bound: dict[str, str] = {}  # local name -> package module it is bound to
    package_names: set[str] = set()  # local names bound to the package itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = package_module(node, in_package)
            for alias in node.names if module is not None else ():
                if module:
                    uses.add((module, alias.name))
                else:
                    bound[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head != PACKAGE:
                    continue
                if alias.asname and rest:
                    bound[alias.asname] = rest
                elif not alias.asname:
                    package_names.add(PACKAGE)

    def module_of(expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name) and expr.value.id in package_names:
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (module := module_of(node.value)):
            uses.add((module, node.attr))
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            first, second = node.elts[:2]
            module = module_of(first)
            if module and isinstance(second, ast.Constant) and isinstance(second.value, str):
                uses.add((module, second.value))
    return uses


def unused_definitions(files: dict[str, str]) -> list[str]:
    """Module-level functions and classes of the package that no binding of their module reaches.

    files maps paths relative to the repository root to their sources;
    the package's modules are the files under src/schurq/.
    """
    trees = {path: ast.parse(source) for path, source in files.items()}
    uses = set().union(*(module_uses(tree, path.startswith(PACKAGE_DIR)) for path, tree in trees.items()))
    unused = []
    for path, tree in sorted(trees.items()):
        if not path.startswith(PACKAGE_DIR):
            continue
        module = Path(path).stem
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if (module, node.name) not in uses and node.name not in global_reads(tree, skip=node):
                    unused.append(f"{Path(path).name}:{node.name}")
    return unused


def test_every_definition_is_used_outside_tests():
    files = {str(path.relative_to(ROOT)): path.read_text() for top in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    assert len(files) > 10 and unused_definitions(files) == []


LINALG = """
def rank(rows):
    return len(rows)

def solve(rows):
    return rows
"""


class TestBindings:
    def test_an_unrelated_local_is_not_a_use(self):
        files = {
            "src/schurq/linalg.py": LINALG,
            "perfbench/run.py": "from schurq import linalg\n"
                                "def main(rank=0):\n    rank = [r for r in linalg.solve([])]\n    return rank\n",
            "scripts/other.py": "import statistics\nstatistics.rank = 1\n",
        }
        assert unused_definitions(files) == ["linalg.py:rank"]

    def test_a_local_in_its_own_module_is_not_a_use(self):
        own = LINALG + "\ndef other(rank):\n    return [rank for rank in rank]\n\nx = [solve for solve in (1,)]\n"
        files = {"src/schurq/linalg.py": own, "scripts/run.py": "from schurq.linalg import other\n"}
        assert unused_definitions(files) == ["linalg.py:rank", "linalg.py:solve"]

    def test_a_name_of_another_module_is_not_a_use(self):
        files = {
            "src/schurq/linalg.py": LINALG,
            "src/schurq/spectra.py": "from . import linalg\nfrom .algebra import rank\nlinalg.solve\n",
            "perfbench/tracer.py": "from schurq import qfunctions, linalg\nT = [(qfunctions, 'rank'), (linalg, 'solve')]\n",
        }
        assert unused_definitions(files) == ["linalg.py:rank"]

    def test_every_binding_form_is_a_use(self):
        forms = [
            ("scripts/a.py", "from schurq.linalg import rank\n"),
            ("src/schurq/cli.py", "from .linalg import rank\n"),
            ("src/schurq/cli.py", "from . import linalg\nlinalg.rank\n"),
            ("scripts/a.py", "from schurq import linalg as la\nla.rank([])\n"),
            ("scripts/a.py", "import schurq.linalg as la\nla.rank\n"),
            ("scripts/a.py", "import schurq.linalg\nschurq.linalg.rank\n"),
            ("perfbench/tracer.py", "from schurq import linalg\nTARGETS = [(linalg, 'rank', 'linalg.rank')]\n"),
            ("src/schurq/linalg.py", LINALG + "\ndef nullspace(rows):\n    return rank(rows)\n"),
        ]
        for path, source in forms:
            files = {"src/schurq/linalg.py": LINALG, "scripts/b.py": "from schurq.linalg import solve\n"}
            files[path] = files.get(path, "") + source
            if path == "src/schurq/linalg.py":
                files["scripts/b.py"] += "from schurq.linalg import nullspace\n"
            assert unused_definitions(files) == [], source
