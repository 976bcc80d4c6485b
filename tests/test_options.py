"""Every option of the gffads functions is one that the running system uses.

A parameter with a default that no call sets, and a **kwargs that never
receives a keyword beyond the function's own parameters, are options with
a single value in use: they should be constants.  The definitions are
read from src/gffads and the calls from src/ and bench/ with `ast`: a
call in the tests does not justify an option.  Calls are matched to
definitions by name (the class name for __init__), which can only
over-count the calls that reach a function.  A field of a @dataclass that
has a default is an option of the __init__ that the decorator writes, with
the fields, in order, as its parameters.

A call sets a parameter when it passes an argument in its place that is
not a literal equal to the default's literal (a literal default passed
again keeps the one value in use).  Calls inside a `with pytest.raises`
block do not count: there an option is set only to reach its own
validation.

Four options are test seams, exempt by name in SEAMS:
  - cli.main(argv): the tests' entry to the CLI, which runs on sys.argv
    otherwise.
  - quadrature.adaptive_finite(max_panels): a budget of 8 panels reaches
    the BudgetExceededError path in a few rounds.
  - correlators.wightman_kg_momentum_oracle(epsilon): the reference for
    wightman_kg, whose epsilon the CLI reads, so the tests hold the two
    together at other epsilons.
  - correlators.smeared2pt(epsilon): the damping e^(-eps k^0) gives the
    function its one absolute oracle, the position-space two-point
    function.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gffads"
CALLERS = [ROOT / "src", ROOT / "bench"]
SEAMS = {"cli.main(argv)", "quadrature.adaptive_finite(max_panels)",
         "correlators.wightman_kg_momentum_oracle(epsilon)",
         "correlators.smeared2pt(epsilon)"}


def _functions(node, cls=None):
    """(definition, enclosing class name or None) for every def under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, cls
            yield from _functions(child)
        else:
            yield from _functions(
                child, child.name if isinstance(child, ast.ClassDef) else cls)


def _dataclass_fields(tree):
    """(class name, [(field, default node or None), ...]) for every class
    under tree decorated with @dataclass or @dataclass(...)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).partition("(")[0].endswith("dataclass")
                for d in node.decorator_list):
            yield node.name, [(stmt.target.id, stmt.value)
                              for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign)]


def _call_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _in_raises(tree):
    """ids of the calls inside the body of a `with pytest.raises(...)`."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Call)
                and _call_name(item.context_expr) == "raises"
                for item in node.items):
            inside |= {id(n) for stmt in node.body for n in ast.walk(stmt)
                       if isinstance(n, ast.Call)}
    return inside


def _calls():
    """Per called name, one (positional, star, keywords, double_star) per
    call outside pytest.raises: the positional argument nodes before any
    *args, whether there is one, the keyword argument nodes by name, and
    whether a **mapping is passed."""
    calls = defaultdict(list)
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            tree = ast.parse(path.read_text())
            skip = _in_raises(tree)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in skip:
                    continue
                positional = []
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    positional.append(arg)
                star = len(positional) < len(node.args)
                keywords = {kw.arg: kw.value for kw in node.keywords
                            if kw.arg is not None}
                double_star = len(keywords) < len(node.keywords)
                calls[_call_name(node)].append(
                    (positional, star, keywords, double_star))
    return calls


def _same_literal(arg, default):
    """Whether the argument node is a literal equal to the default's."""
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except (ValueError, TypeError):
        return False


def _sets(call, parameters, p, default):
    """Whether one call sets parameter p (positional index in parameters,
    or keyword-only when absent there) to other than its default."""
    positional, star, keywords, double_star = call
    if p in keywords:
        return not _same_literal(keywords[p], default)
    if double_star:
        return True
    if p not in parameters:
        return False
    i = parameters.index(p)
    if i < len(positional):
        return not _same_literal(positional[i], default)
    return star


def unused_options():
    """Labels module.function(parameter) of the options no call sets."""
    calls = _calls()
    culprits = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls, fields in _dataclass_fields(tree):
            positional = [f for f, _ in fields]
            culprits += [f"{path.stem}.{cls}({f})" for f, d in fields
                         if d is not None and not any(
                             _sets(c, positional, f, d) for c in calls[cls])]
        for fn, cls in _functions(tree):
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            is_static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in fn.decorator_list)
            if cls is not None and not is_static:
                positional = positional[1:]
            n_required = len(positional) - len(args.defaults)
            defaulted = list(zip(positional[n_required:], args.defaults)) + [
                (a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None]
            named = set(positional) | {a.arg for a in args.kwonlyargs}
            fn_calls = calls[cls if fn.name == "__init__" else fn.name]
            label = path.stem + "." + (fn.name if cls is None
                                       else cls + "." + fn.name)
            culprits += [f"{label}({p})" for p, d in defaulted
                         if not any(_sets(c, positional, p, d)
                                    for c in fn_calls)]
            if args.kwarg and not any(double_star or set(keywords) - named
                                      for _, _, keywords, double_star
                                      in fn_calls):
                culprits.append(f"{label}(**{args.kwarg.arg})")
    return culprits


def test_every_option_is_set_by_a_call():
    culprits = [c for c in unused_options() if c not in SEAMS]
    assert not culprits, (f"{len(culprits)} options that no call sets: "
                          + ", ".join(culprits))
