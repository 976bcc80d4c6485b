"""Every name a module exports in __all__ exists, and the running system
reads it.

Tools that walk __all__ (such as the benchmark's span tracer, which wraps
each exported function) fail on a stale entry, so a deleted function must
leave __all__ too.  And an exported name must serve the package, the CLI,
its verify suites or the benchmark: some code under src/ or bench/ must
read it, as an `ast.Name` or an `ast.Attribute` in load context.  A name
that only tests read belongs in the tests.  Like test_imports, the rule is
not transitive: a name read only by dead code passes until that code goes.

The same holds one level down, for the fields of a report: every string
key of a dict literal that a function under src/gffads returns must appear
as a string constant somewhere else under src/ or bench/.  Keys are
matched by name, so the guard can miss an unread key (one that shares its
name with a constant read elsewhere) but never flags a read one.
"""

import ast
import importlib
from pathlib import Path

import pytest

from test_imports import _exported

ROOT = Path(__file__).resolve().parents[1]
READERS = [ROOT / "src", ROOT / "bench"]
# every package module that has an __all__, with its names
EXPORTS = {path.stem: names
           for path in sorted((ROOT / "src" / "gffads").glob("*.py"))
           if (names := _exported(ast.parse(path.read_text())))}


@pytest.mark.parametrize("name", EXPORTS)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gffads.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"gffads.{name}.__all__ lists missing {missing}"


def read_names():
    """The names that code under src/ or bench/ reads."""
    read = set()
    for folder in READERS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    if isinstance(node, ast.Name):
                        read.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        read.add(node.attr)
    return read


def test_every_export_is_reached():
    read = read_names()
    unread = [f"{module}.{name}" for module, names in EXPORTS.items()
              for name in sorted(names) if name not in read]
    assert not unread, (f"{len(unread)} exported names nothing under src/ "
                        f"or bench/ reads: " + ", ".join(unread))


def _returned_keys(tree):
    """The string-key nodes of the dict literals that return statements
    under tree return."""
    return [key for node in ast.walk(tree)
            if isinstance(node, ast.Return)
            and isinstance(node.value, ast.Dict)
            for key in node.value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)]


def test_every_report_key_is_read():
    keys, constants = {}, set()
    for folder in READERS:
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text())
            own = (_returned_keys(tree)
                   if path.parent == ROOT / "src" / "gffads" else [])
            for key in own:
                keys.setdefault(key.value, f"{path.stem}.{key.value}")
            skip = {id(key) for key in own}
            constants |= {node.value for node in ast.walk(tree)
                          if isinstance(node, ast.Constant)
                          and isinstance(node.value, str)
                          and id(node) not in skip}
    unread = sorted(label for key, label in keys.items()
                    if key not in constants)
    assert not unread, (f"{len(unread)} report keys nothing under src/ or "
                        f"bench/ reads: " + ", ".join(unread))
