"""Source hygiene: every name a package module imports is used in that module."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shearwaves"
# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Imported names that the module never refers to, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - {"annotations"})


def test_detector_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "def f(x: Optional[int]) -> np.ndarray:\n"
        "    return dataclass\n"
        "from typing import Optional\n"
    )
    assert unused_imports(source) == ["field", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
