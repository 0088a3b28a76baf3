"""Every module-qualified name that the README and the package's
docstrings quote in backticks (``rng.call_slabs``,
``jumps.build_grid_batch``, ``jumpmc.cli.RunConfig``) resolves, so a
name that leaves the code cannot stay in its documentation."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import jumpmc

PACKAGE = Path(jumpmc.__file__).parent
ROOT = PACKAGE.parent.parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# a backtick, then jumpmc or one of its modules and a dotted name after it
NAME = re.compile(
    r"`((?:jumpmc|%s)(?:\.[A-Za-z_]\w*)+)" % "|".join(map(re.escape, MODULES))
)


def documents():
    """(where, text) of the README and of every docstring in the package."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', 'module')}", doc


def resolves(name):
    parts = name.split(".")
    if parts[0] != "jumpmc":
        parts.insert(0, "jumpmc")
    obj = jumpmc
    for at, part in enumerate(parts[1:], 2):
        try:  # an attribute, or else a submodule not imported yet
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(
                ".".join(parts[:at])
            )
        except ImportError:
            return False
    return True


NAMES = sorted({(name, where) for where, text in documents() for name in NAME.findall(text)})


def test_documents_quote_module_qualified_names():
    assert len({name for name, _ in NAMES}) > 30


@pytest.mark.parametrize("name, where", NAMES, ids=[f"{n}@{w}" for n, w in NAMES])
def test_a_documented_name_resolves(name, where):
    assert resolves(name), f"{where} quotes `{name}`, which does not resolve"
