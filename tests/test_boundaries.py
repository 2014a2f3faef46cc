"""operators reaches algebra through its public names only.

The packed key layout (_BITS, _coeff, Polynomial._from_keys) and the
division rules (RationalFunction._reduced, _reduce) live in algebra
alone.  This test fails when src/schurq/operators.py imports a
_-prefixed name from algebra, or reads one as an attribute of algebra,
Polynomial, RationalFunction or Factor.
"""

import ast
from pathlib import Path

import pytest

OPERATORS = Path(__file__).resolve().parent.parent / "src" / "schurq" / "operators.py"
OWNERS = {"algebra", "Polynomial", "RationalFunction", "Factor"}


def private_algebra_names(source: str) -> list[str]:
    """The _-prefixed algebra names that source imports or reads off algebra or one of its classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "algebra":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in OWNERS:
                found.append(f"{name}.{node.attr}")
    return found


def test_operators_reads_no_private_algebra_name():
    assert private_algebra_names(OPERATORS.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .algebra import _BITS, Factor\n",
        "from schurq.algebra import _coeff\n",
        "from .algebra import Polynomial\nPolynomial._from_keys(2, {})\n",
        "from .algebra import RationalFunction\ndef f(p):\n    return RationalFunction._reduced(p, {})\n",
        "from .algebra import Factor\nFactor._make(('diff', 1, 2))\n",
        "from . import algebra\nalgebra._BITS\n",
        "from . import algebra\nalgebra.Polynomial._from_keys\n",
    ],
)
def test_each_private_read_is_seen(source):
    assert private_algebra_names(source)


def test_public_names_and_own_privates_pass():
    source = (
        "from .algebra import Factor, Polynomial, RationalFunction\n"
        "def _orbit(value):\n"
        "    return RationalFunction.from_polynomial(value.num.plus_transposes([]))\n"
        "class _Level:\n"
        "    def first(self):\n"
        "        return self._parts[0]\n"
    )
    assert private_algebra_names(source) == []
