import heapq
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gffads import quadrature
from gffads.adsboundary import bonus_locality
from gffads.correlators import Power, gff2pt
from gffads.errors import BudgetExceededError, DomainError
from gffads.quadrature import (QuadratureResult, adaptive_finite,
                               neville_zero, _bessel_product, _gauss_legendre,
                               _gk15, _legendre_table, _WG, _WK, _XK)
from gffads.spacetime import MinkVector
from gffads.specfun import Order, bessel_j

from conftest import rel_err
from test_adsboundary import NEAR_CONE_POINTS, SONINE_POINTS


class TestResultTypes:
    def test_quadrature_result_validation(self):
        QuadratureResult(1.0, 0.0, 1)
        with pytest.raises(DomainError):
            QuadratureResult(1.0, -1e-3, 1)
        with pytest.raises(DomainError):
            QuadratureResult(1.0, 0.0, 0)


class TestAdaptiveFinite:
    def test_polynomial(self):
        res = adaptive_finite(lambda x: x ** 2, 0.0, 1.0)
        assert rel_err(res.value, 1.0 / 3.0) < 1e-13

    def test_sine(self):
        res = adaptive_finite(np.sin, 0.0, math.pi)
        assert rel_err(res.value, 2.0) < 1e-12

    def test_bessel_vs_series_oracle(self):
        # int_0^1 J0(a x) dx = sum_n (-1)^n a^(2n) / (4^n (n!)^2 (2n+1))
        a = 10.0
        oracle = sum((-1.0) ** n * a ** (2 * n)
                     / (4.0 ** n * math.factorial(n) ** 2 * (2 * n + 1))
                     for n in range(60))
        res = adaptive_finite(lambda x: bessel_j(0.0, a * x), 0.0, 1.0,
                              tol=1e-12)
        assert abs(res.value - oracle) < 1e-10

    def test_error_estimate_honest(self):
        res = adaptive_finite(lambda x: np.exp(-x * x), 0.0, 3.0)
        exact = 0.5 * math.sqrt(math.pi) * math.erf(3.0)
        assert abs(res.value - exact) <= max(10.0 * res.error_estimate, 1e-13)

    def test_budget_error_carries_estimate(self):
        # the budget stops refinement at exactly max_panels panels, made by
        # max_panels - 1 bisections of 30 points after the first 15
        for max_panels in (8, 64):
            with pytest.raises(BudgetExceededError) as exc:
                adaptive_finite(lambda x: np.sin(1.0 / (x + 1e-8)), 0.0, 1.0,
                                tol=1e-14, max_panels=max_panels)
            assert exc.value.result.evaluations > 0
            assert exc.value.result.evaluations == 15 * (2 * max_panels - 1)

    # inf - inf in the rule's sums warns "invalid value", on purpose here
    @pytest.mark.parametrize("bad", [np.nan, pytest.param(
        np.inf, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))])
    def test_non_finite_integrand_exhausts_budget(self, bad):
        # no excess covers a NaN error, yet every round must bisect a panel;
        # the integrand stops a loop that would never end
        calls = []

        def f(x):
            calls.append(x.size)
            assert len(calls) <= 64, "refinement does not end"
            return np.where(x > 0.6, bad, x)

        for max_panels in (8, 16):
            calls.clear()
            with pytest.raises(BudgetExceededError) as exc:
                adaptive_finite(f, 0.0, 1.0, max_panels=max_panels)
            assert exc.value.result.evaluations == 15 * (2 * max_panels - 1)

    @pytest.mark.parametrize("f, a, b, exact", [
        (np.exp, 0.0, 1.0, math.e - 1.0),
        (lambda x: x ** 5, 0.0, 3.0, 3.0 ** 6 / 6.0),
        (lambda x: x ** 3, 0.1, 7.3, (7.3 ** 4 - 0.1 ** 4) / 4.0)],
        ids=["exp", "x^5", "x^3"])
    def test_estimate_covers_rounding(self, f, a, b, exact):
        # GK15 integrates these to rounding in one panel, where the
        # Kronrod-Gauss difference is far below the error the weights and
        # the sum make
        res = adaptive_finite(f, a, b)
        assert abs(res.value - exact) <= res.error_estimate

    def test_first_panels(self):
        # the refinement may start from several panels, evaluated in one call
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(x)

        res = adaptive_finite(f, np.array([0.0, 0.25]), np.array([0.25, 1.0]))
        assert calls == [30] and res.evaluations == 30
        assert abs(res.value - (math.e - 1.0)) <= res.error_estimate
        for a, b in ((1.0, 0.0), ([0.0, 0.5], [0.5, 0.5]), ([], [])):
            with pytest.raises(DomainError):
                adaptive_finite(np.exp, np.array(a), np.array(b))

    def test_linearity(self, rng):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        g = lambda x: x ** 3 / (1.0 + x ** 2)
        a, b = rng.standard_normal(2)
        lhs = adaptive_finite(lambda x: a * f(x) + b * g(x), 0.0, 2.0).value
        rhs = (a * adaptive_finite(f, 0.0, 2.0).value
               + b * adaptive_finite(g, 0.0, 2.0).value)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def _adaptive_finite_sequential(f, a, b, tol=1e-10, max_panels=4000):
    """Reference: the greedy loop that bisects one panel per step, with two
    integrand calls per bisection and the stopping test after each.  a and
    b may be arrays of first panels, as for adaptive_finite; each is
    evaluated in a call of its own, as a one-panel array."""
    one_panel = lambda pa, pb: [x[0] for x in _gk15(f, np.array([pa]),
                                                      np.array([pb]))]
    panels = []
    for pa, pb in zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()):
        val, err = one_panel(pa, pb)
        panels.append((-err, pa, pb, val))
    heapq.heapify(panels)
    evals = 15 * len(panels)
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(-p[0] for p in panels)
        if total_err <= max(tol * abs(total), 1e-14):
            break
        if len(panels) >= max_panels:
            raise BudgetExceededError("sequential reference out of panels")
        _, pa, pb, _ = heapq.heappop(panels)
        pm = 0.5 * (pa + pb)
        v1, e1 = one_panel(pa, pm)
        v2, e2 = one_panel(pm, pb)
        evals += 30
        heapq.heappush(panels, (-e1, pa, pm, v1))
        heapq.heappush(panels, (-e2, pm, pb, v2))
    ordered = sorted(panels, key=lambda p: p[1])
    return QuadratureResult(sum(p[3] for p in ordered),
                            sum(-p[0] for p in ordered), evals)


# spacelike points with |x| from 0.3 to 10, one of them 3% from the cone
GFF2PT_POINTS = [(0.0, 0.3), (0.7, 1.8), (-1.0, 1.5), (8.0, 10.0), (2.9, 3.0)]
# bonus_locality reaches adaptive_finite through quadrature._bessel_product,
# gff2pt through quadrature._endpoint_checked; the integrand calls per
# adaptive_finite call stay under the ceiling of their kind
REFINEMENT_CASES = [("locality", nu, p) for nu in (0.0, 0.7, 1.3)
                    for p in SONINE_POINTS + NEAR_CONE_POINTS] + \
    [("gff2pt", nu, x) for nu in (-0.4, 0.0, 0.5, 1.9) for x in GFF2PT_POINTS]
REFINEMENT_IDS = [f"{kind}-nu={nu:g}-" + ",".join(f"{v:g}" for v in point)
                  for kind, nu, point in REFINEMENT_CASES]
CALL_CEILING = {"locality": 20, "gff2pt": 10}


def _integrals(monkeypatch, kind, nu, point):
    """(f, a, b, calls) of every adaptive_finite call one request makes;
    calls is the number of times that call ran f."""
    seen = []

    def capture(f, a, b, **kwargs):
        calls = []

        def counted(u):
            calls.append(u.size)
            return f(u)

        seen.append((f, a, b, calls))
        return adaptive_finite(counted, a, b, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "adaptive_finite", capture)
        if kind == "locality":
            bonus_locality(0.0, Order(nu), *point)
        else:
            gff2pt(Power(nu), Power(nu), MinkVector(point))
    assert seen
    return seen


class TestBatchedRounds:
    @pytest.mark.parametrize("kind, nu, point", REFINEMENT_CASES,
                             ids=REFINEMENT_IDS)
    def test_matches_sequential_bisection(self, monkeypatch, kind, nu, point):
        for f, a, b, _ in _integrals(monkeypatch, kind, nu, point):
            got = adaptive_finite(f, a, b)
            want = _adaptive_finite_sequential(f, a, b)
            assert got.evaluations == want.evaluations
            assert abs(got.value - want.value) <= \
                min(got.error_estimate, want.error_estimate)

    @pytest.mark.parametrize("kind, nu, point", REFINEMENT_CASES,
                             ids=REFINEMENT_IDS)
    def test_integrand_call_ceiling(self, monkeypatch, kind, nu, point):
        # call counts do not depend on the machine
        for _, _, _, calls in _integrals(monkeypatch, kind, nu, point):
            assert len(calls) <= CALL_CEILING[kind]

    def test_gff2pt_evaluation_total(self, monkeypatch):
        # GK15 points of the gff2pt cases on m = t^2, summed (3,390 measured);
        # a mass route that bypassed adaptive_finite would count none
        total = sum(sum(calls) for kind, nu, point in REFINEMENT_CASES
                    if kind == "gff2pt"
                    for _, _, _, calls in _integrals(monkeypatch, kind, nu,
                                                     point))
        assert 0 < total <= 3600


def _gk15_separate(f, a, b):
    """Reference: the Kronrod and Gauss sums as two separate np.sum calls."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _XK))
    ik = half * np.sum(_WK * fx)
    ig = half * np.sum(_WG * fx)
    return ik, (200.0 * abs(ik - ig)) ** 1.5


class TestGK15:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1e8, allow_nan=False,
                                       allow_infinity=False),
                    min_size=15, max_size=15),
           st.booleans(),
           st.floats(-10.0, 10.0), st.floats(1e-6, 10.0))
    def test_row_sums_equal_separate_sums(self, values, real, a, width):
        fx = np.array(values)
        if real:
            fx = fx.real.copy()
        f = lambda u: fx
        got = [x[0] for x in _gk15(f, np.array([a]), np.array([a + width]))]
        want = _gk15_separate(f, a, a + width)
        assert _same(tuple(got), want) and type(got[0]) is type(want[0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(1e-6, 10.0)),
                    min_size=1, max_size=64),
           st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.booleans())
    def test_panel_rows_equal_single_panels(self, panels, p, q, real):
        # a rational integrand: +, * and / round the same way whatever the
        # length of the array, so every row can be compared bit for bit
        def f(u):
            v = (p + u) / (1.0 + u * u)
            return v if real else v + 1j * q * u / (2.0 + u * u)

        a = np.array([lo for lo, _ in panels])
        b = a + np.array([width for _, width in panels])
        vals, errs = _gk15(f, a, b)
        assert vals.shape == errs.shape == a.shape
        for i in range(a.size):
            assert _same((vals[i], errs[i]), _gk15_separate(f, a[i], b[i]))


class TestGK15Tables:
    @pytest.mark.parametrize("weights, degree", [(_WK, 22), (_WG, 13)],
                             ids=["K15", "G7"])
    def test_moments(self, weights, degree):
        # the rule as stored integrates x^k on [-1, 1] exactly up to its
        # degree, to within 4 eps, summed in 30 digits
        eps = np.finfo(float).eps
        with mpmath.workdps(30):
            for k in range(degree + 1):
                moment = mpmath.fsum(mpmath.mpf(float(w)) *
                                     mpmath.mpf(float(x)) ** k
                                     for w, x in zip(weights, _XK))
                exact = mpmath.mpf(2) / (k + 1) if k % 2 == 0 else 0
                assert abs(moment - exact) <= 4 * eps, k


class TestGaussLegendre:
    def test_affine_map_of_the_table(self):
        # bit for bit 0.5 (b - a) (t + 1) + a and 0.5 (b - a) w, for scalar
        # endpoints and for array endpoints that broadcast
        t, w = np.polynomial.legendre.leggauss(24)
        lo = np.array([[0.5], [1e-12]])
        for a, b in ((0.0, 60.0), (-40.0, 40.0), (lo, lo + 3.0)):
            x, wx = _gauss_legendre(24, a, b)
            assert np.array_equal(x, 0.5 * (b - a) * (t + 1.0) + a)
            assert np.array_equal(wx, 0.5 * (b - a) * w)
        assert x.shape == (2, 24)

    def test_cached_table_is_read_only(self):
        t, w = _legendre_table(8)
        assert _legendre_table(8)[0] is t
        with pytest.raises(ValueError):
            t[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestAcceleration:
    def test_neville_polynomial_exact(self):
        xs = [0.4, 0.2, 0.1, 0.05]
        ys = [3.0 + 2.0 * x - 5.0 * x ** 2 for x in xs]
        val, spread = neville_zero(xs, ys, 3)
        assert abs(val - 3.0) < 1e-12


def _same(a, b):
    # exact equality that also matches NaN with NaN and tells -0.0 from 0.0
    return repr(a) == repr(b)


class TestOscillatorySemiInfinite:
    """Integrals over [0, inf) of a power times Bessel factors on the
    Bessel-product contour."""

    def test_bessel_j0(self):
        res = _bessel_product(0.0, ((0.0, 1.0),))
        assert abs(res.value - 1.0) <= res.error_estimate < 1e-8

    def test_power_times_bessel(self):
        # int_0^inf u^2 J_0(tau u) du = -1 / tau^3 in the Abel sense
        for tau in (0.5, 1.0, 3.0):
            res = _bessel_product(2.0, ((0.0, tau),))
            assert abs(res.value + tau ** -3) <= res.error_estimate
            assert res.error_estimate < 1e-10 * tau ** -3

    def test_dirichlet(self):
        # u^(-1/2) J_(1/2)(u) = sqrt(2 / pi) sin(u) / u
        res = _bessel_product(-0.5, ((0.5, 1.0),))
        oracle = math.sqrt(2.0 / math.pi) * math.pi / 2.0
        assert abs(res.value - oracle) <= res.error_estimate < 1e-8
