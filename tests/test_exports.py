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
key of a dict literal that a function under src/gffads returns must be
read under src/ or bench/.  A key counts as read only where it subscripts,
as a constant, a call of its function (`f(...)["k"]`) or a name bound from
such a call in the same function (`rep = mod.f(...)` and then `rep["k"]`).
A function whose return is another reporting function's call inherits
that function's keys.  The records the CLI builds for itself are the one
exception: a key of a record cli writes (a key of a dict it returns, of a
dict spliced into one with **, or one that a dict adds to the record it
extends) counts as read wherever it appears as a string constant elsewhere
under src/ or bench/.

Verdicts are decided in cli alone, so no library function returns a
pass/fail: no report entry, and no value an exported function returns, is
a comparison, a boolean operation, a call of all, any or bool, or a name
bound to one.  The one exception is named in VERDICT_EXEMPT.
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


def _callee(node):
    """The name a call calls, f of f(...) or of mod.f(...); else None."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _scopes(tree):
    """The module and each function under it, each with the nodes that
    belong to it and not to a function nested in it."""
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)]
    for scope in scopes:
        own, stack = [], list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            own.append(node)
            if not isinstance(node, ast.FunctionDef):
                stack.extend(ast.iter_child_nodes(node))
        yield own


def _report_keys():
    """{function: {key: label}} for the reporting functions of the library
    modules but cli, each with the keys it returns or inherits."""
    keys, calls = {}, {}
    for path in sorted((ROOT / "src" / "gffads").glob("*.py")):
        if path.stem == "cli":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                if own := _returned_keys(fn):
                    keys[fn.name] = {key.value: f"{fn.name}.{key.value}"
                                     for key in own}
                calls[fn.name] = {_callee(node.value) for node in ast.walk(fn)
                                  if isinstance(node, ast.Return)}
    grown = True
    while grown:
        grown = False
        for name, callees in calls.items():
            for callee in callees & set(keys):
                inherited = {**keys[callee], **keys.get(name, {})}
                if inherited != keys.get(name):
                    keys[name], grown = inherited, True
    return keys


def _subscript_key(node):
    if isinstance(node, ast.Subscript) and \
            isinstance(node.slice, ast.Constant) and \
            isinstance(node.slice.value, str):
        return node.slice.value
    return None


def unread_report_keys():
    """Labels function.key of the library report keys nothing under src/
    or bench/ reads, by the rule of the module docstring."""
    keys = _report_keys()
    labels = {label for k in keys.values() for label in k.values()}
    for folder in READERS:
        for path in sorted(folder.rglob("*.py")):
            for nodes in _scopes(ast.parse(path.read_text())):
                bound = {}
                for node in nodes:
                    if isinstance(node, ast.Assign) and \
                            _callee(node.value) in keys:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                bound.setdefault(target.id, set()).add(
                                    _callee(node.value))
                for node in nodes:
                    key = _subscript_key(node)
                    if key is None:
                        continue
                    if _callee(node.value) in keys:
                        fns = {_callee(node.value)}
                    elif isinstance(node.value, ast.Name):
                        fns = bound.get(node.value.id, set())
                    else:
                        continue
                    labels -= {keys[fn][key] for fn in fns if key in keys[fn]}
    return sorted(labels)


def _spliced(node, bound):
    """The dict literals a ** entry splices: {...} itself, or the literals
    a name in bound holds (either branch of an if-expression)."""
    if isinstance(node, ast.Name):
        return bound.get(node.id, [])
    if isinstance(node, ast.IfExp):
        return _spliced(node.body, bound) + _spliced(node.orelse, bound)
    return [node] if isinstance(node, ast.Dict) else []


def _written_keys(tree):
    """The string-key nodes of the records cli writes: the keys of the dict
    literals its return statements return (a literal, or a name bound to
    literals in the same function), with those of the literals
    spliced into them by ** (`**{...}`, or `**name` with name bound to
    literals in the same function), and those a literal adds to the record
    it extends, a name spliced first (`{**record, "key": ...}`)."""
    literals = []
    for nodes in _scopes(tree):
        bound = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id] = _spliced(node.value, {})
        for node in nodes:
            if isinstance(node, ast.Dict) and node.keys and \
                    node.keys[0] is None and \
                    isinstance(node.values[0], ast.Name):
                literals.append(node)
            if isinstance(node, ast.Return) and node.value is not None:
                stack = _spliced(node.value, bound)
                while stack:
                    literal = stack.pop()
                    literals.append(literal)
                    stack += [spliced for key, value in
                              zip(literal.keys, literal.values) if key is None
                              for spliced in _spliced(value, bound)]
    return list({id(key): key for literal in literals for key in literal.keys
                 if isinstance(key, ast.Constant)
                 and isinstance(key.value, str)}.values())


def unread_cli_keys(sources=None, cli="src/gffads/cli.py"):
    """Labels cli.key of the keys of the records cli writes that appear as
    no string constant elsewhere under src/ or bench/.  sources maps each
    file's path to its text (every .py file under src/ and bench/ by
    default), cli names cli's."""
    if sources is None:
        sources = {str(path.relative_to(ROOT)): path.read_text()
                   for folder in READERS
                   for path in sorted(folder.rglob("*.py"))}
    keys, constants = set(), set()
    for name, text in sources.items():
        tree = ast.parse(text)
        own = _written_keys(tree) if name == cli else []
        keys |= {key.value for key in own}
        skip = {id(key) for key in own}
        constants |= {node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and id(node) not in skip}
    return sorted(f"cli.{key}" for key in keys - constants)


def test_every_report_key_is_read():
    unread = unread_report_keys() + unread_cli_keys()
    assert not unread, (f"{len(unread)} report keys nothing under src/ or "
                        f"bench/ reads: " + ", ".join(unread))


# cli's record-building forms: a key spliced in by ** and a key added to a
# record, each written by FIELDS below
_CLI_SNIPPET = """
def _check(name, reference=None):
    ref = {} if reference is None else {"reference": reference}
    return {"name": name, **ref, **{"made": 0.0}}


def run(suites):
    return [{**r, "criterion": c} for c, rs in suites.items() for r in rs]
"""


@pytest.mark.parametrize("key", ["name", "reference", "made", "criterion"])
def test_cli_keys_include_spliced_and_added_keys(key):
    fields = ("name", "reference", "made", "criterion")
    written = f"FIELDS = {fields!r}"
    assert unread_cli_keys({"cli.py": _CLI_SNIPPET, "emit.py": written},
                           "cli.py") == []
    unread = f"FIELDS = {tuple(k for k in fields if k != key)!r}"
    assert unread_cli_keys({"cli.py": _CLI_SNIPPET, "emit.py": unread},
                           "cli.py") == [f"cli.{key}"]


def test_cli_keys_cover_the_written_fields():
    # every field a verify record writes is one of cli's record keys
    cli = (ROOT / "src" / "gffads" / "cli.py").read_text()
    keys = {key.value for key in _written_keys(ast.parse(cli))}
    assert {"name", "value", "error_estimate", "tolerance", "status",
            "inputs", "reference", "criterion"} <= keys


# the benchmark's tensor workload reads this flag (bench/workloads.py), and
# bench/ changes only with the benchmark
VERDICT_EXEMPT = {"vacuum_fluctuation_divergence.strictly_increasing"}


def _is_verdict(node, verdicts):
    """Whether the expression is a pass/fail, verdicts being the names
    bound to one in its function."""
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return True
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.Not)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, bool)
    if isinstance(node, ast.IfExp):
        return any(_is_verdict(n, verdicts) for n in (node.body, node.orelse))
    if isinstance(node, ast.Name):
        return node.id in verdicts
    return _callee(node) in ("all", "any", "bool")


def returned_verdicts():
    """Labels function.key of the report entries, and function of the
    exported functions' returns, in the library modules but cli that are
    a pass/fail."""
    found = []
    for path in sorted((ROOT / "src" / "gffads").glob("*.py")):
        if path.stem == "cli":
            continue
        exported = EXPORTS.get(path.stem, set())
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            verdicts = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and \
                        _is_verdict(node.value, verdicts):
                    verdicts |= {t.id for t in node.targets
                                 if isinstance(t, ast.Name)}
            for node in ast.walk(fn):
                if not isinstance(node, ast.Return) or node.value is None:
                    continue
                if isinstance(node.value, ast.Dict):
                    found += [f"{fn.name}.{key.value}" for key, value in
                              zip(node.value.keys, node.value.values)
                              if isinstance(key, ast.Constant)
                              and _is_verdict(value, verdicts)]
                elif fn.name in exported and \
                        _is_verdict(node.value, verdicts):
                    found.append(fn.name)
    return sorted(found)


def test_no_library_report_returns_a_verdict():
    decided = [v for v in returned_verdicts() if v not in VERDICT_EXEMPT]
    assert not decided, (f"{len(decided)} library reports return a "
                         f"pass/fail, which cli should decide: "
                         + ", ".join(decided))
    # the exemption names a flag that exists
    assert VERDICT_EXEMPT <= set(returned_verdicts())
