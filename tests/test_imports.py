"""Every name a bohrlab module, test file or demo imports is read somewhere
in that file, every module-level private function or class of bohrlab is
read by some bohrlab module, and importing bohrlab loads numpy only, not
scipy.

The package ``__init__`` is exempt from the first check: its imports are the
public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bohrlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(bohrlab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + sorted(
    [*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unread_imports(source: str) -> list[str]:
    """Names bound by the import statements of source that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a; "import a.b as c" and "from a import b as c" bind c
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    src = "from typing import Iterable, Iterator\nimport numpy as np\nx: Iterator = np.zeros(1)\n"
    assert unread_imports(src) == ["Iterable"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}")
def test_module_reads_every_import(path):
    assert unread_imports(path.read_text()) == []


# "module.name" -> why that private definition stays though no bohrlab
# module reads it (for example, a name the bench tracer looks up)
UNREAD_PRIVATE_EXEMPT: dict[str, str] = {}


def unread_privates(sources: dict[str, str]) -> list[str]:
    """"module.name" of each module-level private function or class of
    sources (module name -> text) that no other top-level statement of any
    of them reads, as a name or an attribute: a helper calling only itself
    counts as unread."""
    defined, read = [], set()
    for mod, text in sources.items():
        for stmt in ast.parse(text).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None and own.startswith("_"):
                defined.append(f"{mod}.{own}")
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    read.add(name)
    return [d for d in defined if d.partition(".")[2] not in read]


def test_unread_privates_are_found():
    sources = {"a": "def _used():\n    pass\n\ndef _loop(k):\n    return _loop(k - 1)\n",
               "b": "import a\nclass _Gone:\n    pass\nx = a._used()\n"}
    assert unread_privates(sources) == ["a._loop", "b._Gone"]


def test_package_reads_every_private_definition():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unread = unread_privates(sources)
    assert sorted(set(unread) - set(UNREAD_PRIVATE_EXEMPT)) == []
    # an exemption gives its reason and names a definition still there and still unread
    assert all(UNREAD_PRIVATE_EXEMPT.values())
    assert set(UNREAD_PRIVATE_EXEMPT) <= set(unread)


def test_import_loads_no_scipy():
    # a fresh interpreter, so no other test's imports count
    code = "import sys, bohrlab; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
