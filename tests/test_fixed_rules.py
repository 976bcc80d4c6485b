"""Every Gauss-Legendre rule comes from quadrature.

quadrature._gauss_legendre maps cached, read-only Gauss-Legendre tables
onto [a, b].  A module that calls numpy's leggauss itself holds a second
copy of that map and rebuilds a table the cache already has.  Each mention
of `leggauss` in src/gffads (an attribute, a bare name or an imported name)
is found with `ast`, so a copy fails here whichever import path it takes.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gffads"


def leggauss_uses():
    """Labels file:line of each mention of leggauss outside quadrature.py."""
    culprits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == "leggauss":
                culprits.append(f"{path.name}:{node.lineno}")
    return culprits


def test_only_quadrature_calls_leggauss():
    culprits = leggauss_uses()
    assert not culprits, ("leggauss outside quadrature (use "
                          "quadrature._gauss_legendre): " + ", ".join(culprits))
