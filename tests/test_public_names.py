"""The library's public surface against its callers outside the tests.

Every public name of the library is used by the library, the benchmark or the
README. A public module-level function or class of ``src/enwit``, or a public
method of a public class, that only tests reference is dead weight: tests
should then carry it themselves. A function or class counts as used when an
``ast.Name`` or ``ast.Attribute`` with its name appears in a ``src/enwit``
module other than ``__init__.py``, in a ``bench/*.py`` file, or in a README
``python`` block; a method counts only through an ``ast.Attribute``, so a
local variable of the same name is not a use. Likewise a public class that
writes its own ``__init__`` must be constructed (an ``ast.Call`` of its name)
in that code.

The benchmark reaches the library as ``lib.<layer>.<attr...>``: every such
chain in ``bench/*.py`` must resolve in ``enwit``, and every call of one must
bind to the signature it names. The README's ``python`` blocks run, in order,
in one namespace.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enwit"


def _public(name):
    return not name.startswith("_")


def _definitions():
    """(module, qualified name, name) of every public function, class and method,
    and the names of the public classes whose body defines ``__init__``."""
    found, own_init = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            found.append((path.stem, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found.append((path.stem, f"{node.name}.{item.name}", item.name))
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        own_init.append(node.name)
    return found, own_init


README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
BENCH_TREES = [ast.parse(p.read_text()) for p in sorted((ROOT / "bench").glob("*.py"))]


def _users():
    """Names of every ast.Name, attributes of every ast.Attribute and names called by
    every ast.Call (``f(...)`` or ``x.f(...)``) in the users' code."""
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    trees += BENCH_TREES + [ast.parse(block) for block in README_BLOCKS]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in nodes
        if isinstance(node, ast.Call)
    }
    return names, attributes, called


def _dotted(node):
    """The parts of a ``name.attr.attr...`` expression, or None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _bench_uses():
    """Every ``lib.<layer>.<attr...>`` chain of the benchmark (without ``lib.``), and each
    call of one as (chain, number of positional arguments, keyword names)."""
    chains, calls = set(), set()
    for node in (n for tree in BENCH_TREES for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            parts = _dotted(node.func)
            if parts and parts[0] == "lib":
                assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
                assert all(k.arg for k in node.keywords), ast.unparse(node)
                keywords = tuple(k.arg for k in node.keywords)
                calls.add((".".join(parts[1:]), len(node.args), keywords))
        parts = _dotted(node)
        if parts and parts[0] == "lib" and len(parts) > 2:
            chains.add(".".join(parts[1:]))
    return sorted(chains), sorted(calls)


def _resolve(chain):
    layer, *attrs = chain.split(".")
    obj = importlib.import_module(f"enwit.{layer}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


NAMES, ATTRIBUTES, CALLED = _users()
DEFINED, OWN_INIT = _definitions()
BENCH_CHAINS, BENCH_CALLS = _bench_uses()


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


@pytest.mark.parametrize("name", OWN_INIT)
def test_class_with_its_own_init_is_constructed_outside_tests(name):
    assert name in CALLED, (
        f"{name} writes its own __init__ but only tests construct it; "
        "let the dataclass's own init do, or move the constructor to tests/"
    )


def test_finds_the_bench_calls():
    assert ("sep_energy.esep_seesaw", 2, ("restarts", "seed")) in BENCH_CALLS
    assert "sep_energy.Partition.singletons" in BENCH_CHAINS


@pytest.mark.parametrize("chain", BENCH_CHAINS)
def test_bench_chain_resolves(chain):
    _resolve(chain)


@pytest.mark.parametrize(
    "chain, positional, keywords",
    BENCH_CALLS,
    ids=[f"{c}/{p}{''.join(f',{k}=' for k in kw)}" for c, p, kw in BENCH_CALLS],
)
def test_bench_call_binds(chain, positional, keywords):
    inspect.signature(_resolve(chain)).bind(*range(positional), **dict.fromkeys(keywords))


def test_readme_python_blocks_run():
    assert len(README_BLOCKS) == 3
    namespace = {}
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
