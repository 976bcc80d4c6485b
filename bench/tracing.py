"""Span tracing around the gffads modules, installed from outside the package.

install() replaces every public function of the traced modules with a
wrapper that records a span: request id, span id, parent span id, layer,
name, start, end, self time, whether it raised, and one count.  Names that
other modules bound with `from .x import f` are replaced in every module
that binds them, so a call is traced whichever module it goes through.
Spans stay in memory; write() stores them once the run is over.

Self time is a span's duration minus the time its child spans cover.  The
process is single-threaded, so children never overlap and that coverage
is the sum of the direct children's durations.
"""

import functools
import inspect
import json
import time
from collections import namedtuple

import numpy as np
import sympy

from gffads import adsboundary, correlators, fock, quadrature, specfun, stress

LAYERS = {"specfun": specfun, "quadrature": quadrature,
          "correlators": correlators, "fock": fock, "stress": stress,
          "adsboundary": adsboundary}

Span = namedtuple("Span", "request id parent layer name start end self_s "
                          "failed count")

# quadrature entry points that return a QuadratureResult
ENGINES = ("adaptive_finite", "oscillatory_semi_infinite", "hankel_transform",
           "partial_sum_limit")


def _grid_points(name, bound):
    """Quadrature points a stress kernel evaluates, from its node arguments.

    Computed from the arguments, not measured: set_matrix_element evaluates
    the n^3 grid and its half-resolution copy, ads_set_matrix_element an
    n_outer^3 x n_inner grid, vacuum_fluctuation_divergence an
    n_nodes^3 x n_inner grid per sigma.
    """
    a = bound.arguments
    if name == "set_matrix_element":
        n = a["n_nodes"]
        return n ** 3 + max(n // 2, 16) ** 3
    if name == "ads_set_matrix_element":
        return a["n_outer"] ** 3 * a["n_inner"]
    if name == "vacuum_fluctuation_divergence":
        return a["n_nodes"] ** 3 * a["n_inner"] * len(tuple(a["sigma_sequence"]))
    return 0


def _counter(layer, name, fn):
    """Return count(args, kwargs, result) for spans of this function."""
    if layer == "specfun":
        # the argument array is the last positional one: gamma(x),
        # bessel_j(order, u), kv_complex(nu, z), j_even(order, s)
        return lambda args, kwargs, out: int(np.size(args[-1])) if args else 0
    if layer == "quadrature" and name == "wynn_epsilon":
        return lambda args, kwargs, out: len(args[0])
    if layer == "quadrature" and name in ENGINES:
        return lambda args, kwargs, out: out.evaluations
    if layer == "stress" and name in ("set_matrix_element",
                                      "ads_set_matrix_element",
                                      "vacuum_fluctuation_divergence"):
        sig = inspect.signature(fn)

        def count(args, kwargs, out):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return _grid_points(name, bound)
        return count
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []  # [span id, child time] of the open spans
        self._next_id = 0
        self._installed = []  # (owner, attribute, original)

    def wrap(self, layer, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            out, failed = None, True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                count = 0 if counter is None or failed else \
                    counter(args, kwargs, out)
                tracer.spans.append(Span(
                    tracer.request, frame[0],
                    None if parent is None else parent[0], layer, name,
                    start, end, dur - frame[1], failed, count))
        return wrapper

    def _patch(self, owner, attr, new):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        wrapped = {}  # id(original) -> wrapper
        for layer, mod in LAYERS.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    # fock's symbolic oracle is timed as its own layer
                    lay = "symbolic" if name == "symbolic_generator" else layer
                    wrapped[id(fn)] = self.wrap(lay, name, fn,
                                                _counter(lay, name, fn))
        for mod in LAYERS.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])
        # fourier_lc goes through fourier, so wrapping fourier covers both
        gp = correlators.GaussianPacket
        self._patch(gp, "fourier", self.wrap("correlators", "fourier",
                                             gp.fourier))
        # the sympy calls algebra_closure_check makes outside
        # symbolic_generator belong to the symbolic oracle too
        for attr in ("expand", "lambdify"):
            self._patch(sympy, attr, self.wrap("symbolic", attr,
                                               getattr(sympy, attr)))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def base_wrapper(self, func):
        """Count the grid points at which a mode's base function is called."""
        return self.wrap("fock", "base", func, lambda args, kwargs, out:
                         int(np.broadcast(args[0], args[1]).size))

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": Span._fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self):
        """Per-layer totals over all recorded spans."""
        by_id = {s.id: s for s in self.spans}

        def select(layer, names=None):
            return [s for s in self.spans if s.layer == layer
                    and (names is None or s.name in names)]

        def outermost(spans):
            """Spans whose caller is not in the same layer."""
            return [s for s in spans if s.parent is None
                    or by_id[s.parent].layer != s.layer]

        def busy(spans):
            return sum(s.end - s.start for s in spans)

        def self_s(spans):
            return sum(s.self_s for s in spans)

        def count(spans):
            return sum(s.count for s in spans)

        quad = select("quadrature")
        engines = [s for s in quad if s.name in ENGINES]
        wynn = select("quadrature", ("wynn_epsilon",))
        spec = select("specfun")
        fock_spans = select("fock")
        base = select("fock", ("base",))
        st = select("stress")
        st_busy = busy(outermost(st))
        corr = select("correlators")
        fourier = select("correlators", ("fourier",))
        return {
            "quadrature.calls": (len(engines), "count"),
            "quadrature.evaluations": (count(outermost(engines)), "count"),
            "quadrature.wynn_calls": (len(wynn), "count"),
            "quadrature.wynn_terms": (count(wynn), "count"),
            "quadrature.wynn_s": (busy(wynn), "s"),
            "quadrature.self_s": (self_s(quad), "s"),
            "quadrature.failures": (sum(s.failed for s in quad), "count"),
            "specfun.calls": (len(spec), "count"),
            "specfun.points": (count(spec), "count"),
            "specfun.self_s": (self_s(spec), "s"),
            "fock.checks": (len(select("fock", ("algebra_closure_check",))),
                            "count"),
            "fock.base_points": (count(base), "count"),
            "fock.base_s": (busy(base), "s"),
            "fock.symbolic_s": (self_s(select("symbolic")), "s"),
            "fock.self_s": (self_s(fock_spans) - self_s(base), "s"),
            "stress.calls": (len(st), "count"),
            "stress.grid_points": (count(st), "count"),
            "stress.self_s": (self_s(st), "s"),
            "stress.points_per_s": (count(st) / st_busy if st_busy else 0.0,
                                    "1/s"),
            "correlators.calls": (len(corr) - len(fourier), "count"),
            "correlators.fourier_s": (busy(fourier), "s"),
            "correlators.self_s": (self_s(corr), "s"),
            "adsboundary.calls": (len(select("adsboundary")), "count"),
            "adsboundary.self_s": (self_s(select("adsboundary")), "s"),
        }
