"""Every name a module exports in __all__ exists.

Tools that walk __all__ (such as the benchmark's span tracer, which wraps
each exported function) fail on a stale entry, so a deleted function must
leave __all__ too.
"""

import importlib

import pytest

MODULES = ["specfun", "quadrature", "correlators", "fock", "stress",
           "adsboundary"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gffads.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"gffads.{name}.__all__ lists missing {missing}"
