"""Every option of the gffads functions is one that some call uses.

A parameter with a default that no call sets, and a **kwargs that never
receives a keyword beyond the function's own parameters, are options with
a single value in use: they should be constants.  The definitions are
read from src/gffads and the calls from src/, tests/ and bench/ with
`ast`.  Calls are matched to definitions by name (the class name for
__init__), which can only over-count the calls that reach a function.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gffads"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "bench"]


def _functions(node, cls=None):
    """(definition, enclosing class name or None) for every def under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, cls
            yield from _functions(child)
        else:
            yield from _functions(
                child, child.name if isinstance(child, ast.ClassDef) else cls)


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _calls():
    """Per called name: the most positional arguments of one call, whether
    any call passes *args or **mapping, and every keyword passed."""
    calls = defaultdict(lambda: {"positional": 0, "star": False,
                                 "double_star": False, "keywords": set()})
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                c = calls[_call_name(node)]
                positional = 0
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        c["star"] = True
                        break
                    positional += 1
                c["positional"] = max(c["positional"], positional)
                for kw in node.keywords:
                    if kw.arg is None:
                        c["double_star"] = True
                    else:
                        c["keywords"].add(kw.arg)
    return calls


def _is_set(c, positional, p):
    """Whether the calls summarized in c set parameter p."""
    return p in c["keywords"] or c["double_star"] or p in positional and (
        c["star"] or positional.index(p) < c["positional"])


def unused_options():
    """Labels module.function(parameter) of the options no call sets."""
    calls = _calls()
    culprits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, cls in _functions(ast.parse(path.read_text())):
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            is_static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in fn.decorator_list)
            if cls is not None and not is_static:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
            named = set(positional) | {a.arg for a in args.kwonlyargs}
            c = calls[cls if fn.name == "__init__" else fn.name]
            label = path.stem + "." + (fn.name if cls is None
                                       else cls + "." + fn.name)
            culprits += [f"{label}({p})" for p in defaulted
                         if not _is_set(c, positional, p)]
            if args.kwarg and not (c["double_star"] or c["keywords"] - named):
                culprits.append(f"{label}(**{args.kwarg.arg})")
    return culprits


def test_every_option_is_set_by_a_call():
    culprits = unused_options()
    assert not culprits, (f"{len(culprits)} options that no call sets: "
                          + ", ".join(culprits))
