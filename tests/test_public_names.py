"""Every public name of the library is used by the library, the benchmark or the README.

A public module-level function or class of ``src/enwit``, or a public method
of a public class, that only tests reference is dead weight: tests should
then carry it themselves. A name counts as used when an ``ast.Name`` or
``ast.Attribute`` with that name appears in a ``src/enwit`` module other than
``__init__.py``, in a ``bench/*.py`` file, or in a README ``python`` block.
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


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _users():
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    trees += [ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py")]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return set().union(*map(_referenced, trees))


USED = _users()
DEFINED = _definitions()


def test_finds_the_library():
    assert {"make_witness", "HermitianOperator.trace", "EsepPolicy.parse"} <= {
        qualified for _, qualified, _ in DEFINED
    }


@pytest.mark.parametrize(
    "name", [name for _, _, name in DEFINED], ids=[f"{m}.{q}" for m, q, _ in DEFINED]
)
def test_public_name_is_used_outside_tests(name):
    assert name in USED, f"{name} is public but only tests use it; move it to tests/"
