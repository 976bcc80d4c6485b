"""Fixed rules of the package source, checked on its syntax trees.

Every Gauss-Legendre and Gauss-Laguerre rule comes from quadrature:
quadrature._gauss_legendre maps cached, read-only Gauss-Legendre tables
onto [a, b], and quadrature._laguerre_table caches the read-only
Gauss-Laguerre tables of the rotated Bessel-product tails.  A module that
calls numpy's leggauss or laggauss itself holds a second copy of that code
and rebuilds a table the cache already has.

No module turns a sympy expression into a numeric function with lambdify:
the symbolic oracles of fock apply exact operator tables to coefficient
arrays, and sympy calculus is kept for the references in tests.

Each mention of these names in src/gffads (an attribute, a bare name or an
imported name) is found with `ast`, so a use fails here whichever import
path it takes.

No module calls np.exp with a where= mask.  Measured per element on a
2-vCPU Xeon with AVX-512 (numpy 2.4.6, arrays of 55,296 doubles): np.exp
takes about 0.8 ns on numpy's vector path, for arguments at or above -707;
1.4 ns under a where= mask even where every argument is in that range;
about 19 ns at arguments below -746, where the result is 0; and about
140 ns from -746 to -708, where the result is subnormal.  A masked exp over
a grid whose exponents reach far below -707 pays the slow paths wherever
the mask is true; clamping with np.maximum at the bound (stress._EXP_FAST)
and multiplying by the mask keeps every call on the vector path.

The library modules load neither scipy.stats nor sympy: importing
scipy.stats alone costs about 0.7 s and 44 MB of peak memory, which every
process that imports the library would pay.  The verify suites that need
them import them inside the suite.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gffads"


def rule_uses(rule, home="quadrature.py"):
    """Labels file:line of each mention of rule outside the module home."""
    culprits = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == rule:
                culprits.append(f"{path.name}:{node.lineno}")
    return culprits


def test_only_quadrature_calls_leggauss():
    culprits = rule_uses("leggauss")
    assert not culprits, ("leggauss outside quadrature (use "
                          "quadrature._gauss_legendre): " + ", ".join(culprits))


def test_only_quadrature_calls_laggauss():
    culprits = rule_uses("laggauss")
    assert not culprits, ("laggauss outside quadrature (use "
                          "quadrature._laguerre_table): " + ", ".join(culprits))


def test_no_lambdify():
    culprits = rule_uses("lambdify", home=None)
    assert not culprits, ("lambdify in the package (apply an operator table "
                          "to coefficient arrays instead): "
                          + ", ".join(culprits))


def test_no_masked_exp():
    culprits = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr",
                                getattr(node.func, "id", None)) == "exp"
                    and any(kw.arg == "where" for kw in node.keywords)):
                culprits.append(f"{path.name}:{node.lineno}")
    assert not culprits, ("np.exp with a where= mask (clamp at "
                          "stress._EXP_FAST and multiply by the mask "
                          "instead): " + ", ".join(culprits))


def test_library_imports_neither_scipy_stats_nor_sympy():
    code = ("import sys\n"
            "from gffads import (adsboundary, correlators, fock, quadrature,\n"
            "                    specfun, stress)\n"
            "print(sorted(m for m in ('scipy.stats', 'sympy')\n"
            "             if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]", ("loaded on import of the library: "
                                        + out.stdout.strip())
