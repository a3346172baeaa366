"""Every public name of the library is used by the library, the benchmark or the README.

A public module-level function or class of ``src/enwit``, or a public method
of a public class, that only tests reference is dead weight: tests should
then carry it themselves. A function or class counts as used when an
``ast.Name`` or ``ast.Attribute`` with its name appears in a ``src/enwit``
module other than ``__init__.py``, in a ``bench/*.py`` file, or in a README
``python`` block; a method counts only through an ``ast.Attribute``, so a
local variable of the same name is not a use.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enwit"


def _public(name):
    return not name.startswith("_")


def _definitions():
    """(module, qualified name, name) of every public function, class and method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found.append((path.stem, f"{node.name}.{item.name}", item.name))
    return found


def _users():
    """(names of every ast.Name, attributes of every ast.Attribute) in the users' code."""
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    trees += [ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py")]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return names, attributes


NAMES, ATTRIBUTES = _users()
DEFINED = _definitions()


def test_finds_the_library():
    assert {"make_witness", "HermitianOperator.trace", "EsepPolicy.parse"} <= {
        qualified for _, qualified, _ in DEFINED
    }


@pytest.mark.parametrize(
    "qualified, name", [(q, name) for _, q, name in DEFINED], ids=[f"{m}.{q}" for m, q, _ in DEFINED]
)
def test_public_name_is_used_outside_tests(qualified, name):
    used = ATTRIBUTES if "." in qualified else NAMES | ATTRIBUTES
    assert name in used, f"{qualified} is public but only tests use it; move it to tests/"
