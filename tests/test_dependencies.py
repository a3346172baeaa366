"""numpy is enwit's only dependency: importing it must pull in nothing else."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import sys
before = set(sys.modules)
import enwit
import enwit.cli
for name in sorted({m.partition(".")[0] for m in set(sys.modules) - before}):
    print(name)
"""


def test_imports_only_stdlib_and_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    imported = out.split()
    assert "enwit" in imported and "numpy" in imported
    foreign = [m for m in imported if m not in sys.stdlib_module_names | {"numpy", "enwit"}]
    assert foreign == []
