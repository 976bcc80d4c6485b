"""Integration engines.

Two engines, both on numpy arrays of abscissae: an adaptive Gauss-Kronrod
rule on finite intervals, and the Bessel-product integral
int_0^inf u^p prod_i J_(nu_i)(k_i u) du by Hankel splitting and contour
rotation.  The fixed-node grids of the other modules all take their
Gauss-Legendre rule from _gauss_legendre, which maps cached read-only
tables onto [a, b]; the rotated tails take theirs from the Gauss-Laguerre
table beside it.

The adaptive rule starts from one panel, or from the panels it is given,
and refines in rounds: each round bisects, in one integrand call, the
panels of largest error whose errors together cover the excess of the total
error over the target.  The integrand returns one value per node: GK15
broadcasts no scalar.  A GK15 call on many panels reduces each panel's row
as it would a single panel, so a panel's value and error do not depend on
the panels that share its call.  Its estimate adds a rounding floor of
50 eps sum |panel value|, which does not enter its stopping test.  For an
integrand rough at one end (the mass integrals of correlators, the head of
the Bessel-product integral) _endpoint_checked starts the rule from six
equal panels in one call and bisects the panel at that end once more as a
check on its estimate.

The Bessel-product integral takes [0, U] by adaptive Gauss-Kronrod, its
head [0, U/2] through _endpoint_checked.  Beyond U each J is (H1 + H2)/2,
which splits the product of n factors into 2^n terms of a single frequency
omega = sum_i +-k_i each; every term is integrated along U + i sgn(omega) t,
where it decays like e^(-|omega| t), by a Gauss-Laguerre rule (S. K. Lucas,
J. Comput. Appl. Math. 64, 1995).
"""

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (BudgetExceededError, DomainError,
                     LightConeProximityError)
from .specfun import bessel_j, hankel_scaled

__all__ = ["QuadratureResult", "adaptive_finite", "neville_zero"]


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.evaluations <= 0:
            raise DomainError("invalid QuadratureResult fields")


# read only by the benchmark's locality workload (bench/workloads.py), which
# passes it to bonus_locality's ignored schedule slot
FINE_SCHEDULE = None


# 15-point Kronrod nodes on [-1, 1] with Kronrod and embedded Gauss-7
# weights, to 17 significant digits from QUADPACK's dqk15 (Piessens,
# de Doncker-Kapenga, Ueberhuber & Kahaner, 1983)
_XK = np.array([
    -0.99145537112081264, -0.94910791234275852, -0.86486442335976907,
    -0.74153118559939444, -0.58608723546769113, -0.40584515137739717,
    -0.20778495500789847, 0.0, 0.20778495500789847, 0.40584515137739717,
    0.58608723546769113, 0.74153118559939444, 0.86486442335976907,
    0.94910791234275852, 0.99145537112081264])
_WK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478541,
    0.20443294007529889, 0.20948214108472783, 0.20443294007529889,
    0.19035057806478541, 0.16900472663926790, 0.14065325971552592,
    0.10479001032225018, 0.063092092629978553, 0.022935322010529225])
_WG = np.array([
    0.0, 0.12948496616886969, 0.0, 0.27970539148927667, 0.0,
    0.38183005050511894, 0.0, 0.41795918367346939, 0.0, 0.38183005050511894,
    0.0, 0.27970539148927667, 0.0, 0.12948496616886969, 0.0])


# one row-wise reduction gives both sums, each row summed as np.sum would
_W2 = np.stack([_WK, _WG])
_EPS = np.finfo(float).eps


def _gk15(f, a, b):
    """GK15 values and error estimates of f on the panels [a, b].

    a and b are 1-d float arrays of panel endpoints: f runs once on the
    nodes of all the panels, and each panel's row is reduced on its own, so
    its value and error do not depend on its company.  f must return one
    value per node.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _XK
    fx = np.asarray(f(x.ravel())).reshape(x.shape)
    sk, sg = (_W2 * fx[:, None, :]).sum(axis=-1).T
    ik = half * sk
    ig = half * sg
    # libm's abs and power, panel by panel: numpy's vector loops for them
    # differ from libm in the last bit on some arguments
    return ik, np.array([(200.0 * abs(e)) ** 1.5 for e in (ik - ig).tolist()])


@functools.lru_cache(maxsize=32)
def _legendre_table(n):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    t, w = np.polynomial.legendre.leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@functools.lru_cache(maxsize=8)
def _laguerre_table(n):
    """Read-only n-point Gauss-Laguerre nodes and weights for e^(-x) on
    [0, inf)."""
    x, w = np.polynomial.laguerre.laggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(n, a, b):
    """n-point Gauss-Legendre nodes and weights on [a, b].

    a and b may be arrays; they broadcast against the nodes, which run
    along the last axis.
    """
    t, w = _legendre_table(n)
    half = 0.5 * (b - a)
    return half * (t + 1.0) + a, half * w


def adaptive_finite(f, a, b, tol=1e-10, max_panels=4000):
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    a and b may be 1-d arrays of panel endpoints, as for _gk15: the
    refinement then starts from those panels, all evaluated in one call of
    f.  The target is |value - integral| <= max(tol * |value|, 1e-14).
    Each round pops the panels of largest error until their errors cover
    the excess of the total error over the target, never more than would
    take the panel count past max_panels, and bisects them all with one call
    of f.  A round bisects at least one panel, so a NaN error or value
    (which no excess covers) refines one panel per round until the budget
    error.  The panel results are summed in a fixed (left-to-right) order so
    the returned value does not depend on the refinement history.

    The estimate returned, and the one BudgetExceededError carries, adds a
    rounding floor of 50 eps sum |panel value|, the floor of QUADPACK's
    dqk15 (Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner, 1983).  The
    floor does not enter the stopping test, so it changes no refinement.
    """
    lo = np.array(a, dtype=float, ndmin=1)
    hi = np.array(b, dtype=float, ndmin=1)
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    if not (lo.size and (hi > lo).all()):
        raise DomainError("adaptive_finite requires a < b")
    vals, errs = _gk15(f, lo, hi)
    panels = list(zip((-errs).tolist(), lo.tolist(), hi.tolist(),
                      vals.tolist()))
    heapq.heapify(panels)
    evals = 15 * lo.size
    while True:
        total = sum([p[3] for p in panels])
        total_err = sum([-p[0] for p in panels])
        target = max(tol * abs(total), 1e-14)
        if total_err <= target:
            break
        if len(panels) >= max_panels:
            raise BudgetExceededError(
                f"adaptive_finite: {max_panels} panels without convergence",
                result=_panel_sum(panels, evals))
        worst, covered = [], 0.0
        # the budget test above leaves room for the first bisection
        while not worst or (panels and covered < total_err - target and
                            len(panels) + 2 * len(worst) < max_panels):
            p = heapq.heappop(panels)
            worst.append(p)
            covered -= p[0]
        mid = [0.5 * (p[1] + p[2]) for p in worst]
        lo = [p[1] for p in worst] + mid
        hi = mid + [p[2] for p in worst]
        vals, errs = _gk15(f, np.array(lo), np.array(hi))
        evals += 15 * len(lo)
        for p in zip((-errs).tolist(), lo, hi, vals.tolist()):
            heapq.heappush(panels, p)
    return _panel_sum(panels, evals)


def _panel_sum(panels, evals):
    """QuadratureResult of (-error, a, b, value) panels, summed left to
    right, with the rounding floor 50 eps sum |value| in the estimate."""
    ordered = sorted(panels, key=itemgetter(1))
    value = sum([p[3] for p in ordered])
    err = sum([-p[0] for p in ordered])
    floor = 50.0 * _EPS * sum([abs(p[3]) for p in ordered])
    return QuadratureResult(value, err + floor, evals)


# equal panels _endpoint_checked starts from, all in one integrand call.  On
# the benchmark's scan stream (seed 97, 2,000 gff2pt requests) one first
# panel takes 5.7 GK15 calls and 215 points a request, four 3.7 and 171, six
# 3.0 and 164, eight 2.8 and 188.
_FIRST_PANELS = 6


def _endpoint_checked(f, a, b):
    """adaptive_finite of f on [a, b] from _FIRST_PANELS equal panels, with
    the panel at a bisected once more.

    Where f is rough at a (a log or a fractional power), the refinement
    bisects toward a from the first of the equal panels, and GK15's own
    estimate of the panel [a, a + h] at that end can fall short.  That
    panel is the smallest one the rule evaluated, so h is read off the
    smallest node.  The value takes the panel bisected once more, in one
    45-point call, and the estimate adds the change, which bounds the
    bisected panel's error when a bisection scales the error by at most
    1/2.
    """
    low = math.inf  # smallest node evaluated

    def g(x):
        nonlocal low
        low = min(low, x.min())
        return f(x)

    # the edges np.linspace(a, b, _FIRST_PANELS + 1) gives, without its
    # call: i step + a, with b itself last
    step = (b - a) / _FIRST_PANELS
    edges = [i * step + a for i in range(_FIRST_PANELS)] + [b]
    res = adaptive_finite(g, edges[:-1], edges[1:])
    h = 2.0 * (low - a) / (1.0 + _XK[0])
    mid = a + 0.5 * h
    whole, left, right = _gk15(f, np.array([a, a, mid]),
                               np.array([a + h, mid, a + h]))[0].tolist()
    change = left + right - whole
    return QuadratureResult(res.value + change,
                            res.error_estimate + abs(change),
                            res.evaluations + 45)


def neville_zero(xs, ys, order):
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Uses the (order + 1) smallest abscissae.  Returns (value, spread) where
    spread is the change produced by the last extrapolation column.
    """
    pts = sorted(zip(xs, ys), key=lambda p: p[0])[: order + 1]
    pts = pts[::-1]  # largest first so the smallest dominate the final columns
    x = np.array([p[0] for p in pts])
    t = [complex(p[1]) for p in pts]
    n = len(t)
    prev_last = t[-1]
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            t[i] = t[i] + (t[i] - t[i - 1]) * x[i] / (x[i - k] - x[i])
        if k == n - 2:
            prev_last = t[-1]
    return t[-1], abs(t[-1] - prev_last)


# The Hankel splitting of n Bessel factors: s_i = +1 takes H1 of the i-th
# factor, -1 takes H2, and the term has frequency omega = s . k.  For real
# orders the term of -s is the complex conjugate of the term of s on the
# conjugate contour, so only the half with s_1 = +1 is evaluated.
def _hankel_signs(n):
    return [(1,) + s for s in itertools.product((1, -1), repeat=n - 1)]


def _rotated_tail(power, factors, u0, n):
    """int_u0^inf u^power prod_i J_(nu_i)(k_i u) du on n nodes.

    factors is a tuple of (nu_i, k_i).  Each Hankel term runs along
    u0 + i sgn(omega) t; with the phase e^(i omega u0 - |omega| t) pulled
    out of the scaled Hankel product, the rest is smooth in x = |omega| t
    and is summed on the n-point Gauss-Laguerre rule.
    """
    x, w = _laguerre_table(n)
    total = 0.0j
    for s in _hankel_signs(len(factors)):
        omega = sum(si * k for si, (_, k) in zip(s, factors))
        step = 1j * math.copysign(1.0, omega) / abs(omega)
        u = u0 + step * x
        g = u ** power
        for sign, (order, k) in zip(s, factors):
            g = g * hankel_scaled(sign, order, k * u)
        total += np.exp(1j * omega * u0) * step * np.dot(w, g)
    # each term carries 1/2 from every (H1 + H2)/2; with its conjugate
    # partner it adds twice its real part
    return total.real / 2.0 ** (len(factors) - 1)


def _bessel_product(power, factors):
    """int_0^inf u^power prod_i J_(nu_i)(k_i u) du for factors (nu_i, k_i),
    k_i > 0.

    Adaptive GK15 on [0, U], the rotated Hankel tails beyond.  U is at
    least 4 pi / min k_i, so the Hankel functions on the contour are in
    their asymptotic regime, and at least 4 pi / min |omega|, so the slowest
    tail decays within the Laguerre rule's reach; near a light cone
    (omega -> 0) U grows until adaptive_finite's panel budget raises
    BudgetExceededError, and omega = 0 raises LightConeProximityError.

    The head is taken in two pieces: [0, U/2] from six equal panels, with
    the panel at u = 0, where the integrand goes like a fractional power of
    u, bisected once more (_endpoint_checked), and [U/2, U] by
    adaptive_finite; an oscillatory head bisects [0, U] in its first rounds
    anyway.

    The error estimate is the larger of two changes of the value, taking the
    tails on 30 instead of 60 nodes and splitting at U/2 instead of U (GK15
    on [U/2, U] against the difference of the two rotated tails; U/2 is
    still at least 2 pi / min k and 2 pi / min |omega|), plus the two head
    pieces' estimates (the first with its endpoint change) and a rounding
    floor of 16 eps U max|f| over 257 samples on [0, U], which covers the
    error of the J evaluations that grows with u k.  evaluations counts the
    GK15 points of both pieces and of the endpoint check, the 257 samples
    and the (60 + 30 + 60) contour points of each term.
    """
    factors = tuple((order, float(k)) for order, k in factors)
    signs = _hankel_signs(len(factors))
    omegas = [abs(sum(si * k for si, (_, k) in zip(s, factors)))
              for s in signs]
    if min(omegas) == 0.0:
        raise LightConeProximityError(
            "Bessel-product integral on a light cone (sum of +-k_i = 0)")
    split = 4.0 * np.pi / min(min(k for _, k in factors), min(omegas))

    def f(u):
        u = np.asarray(u, dtype=float)
        uu = np.where(u > 0, u, 1.0)
        val = uu ** power
        for order, k in factors:
            val = val * bessel_j(order, k * uu)
        return np.where(u > 0, val, 0.0)

    lo = _endpoint_checked(f, 0.0, 0.5 * split)
    hi = adaptive_finite(f, 0.5 * split, split)
    value = lo.value + hi.value + _rotated_tail(power, factors, split, 60)
    coarse = lo.value + hi.value + _rotated_tail(power, factors, split, 30)
    later = lo.value + _rotated_tail(power, factors, 0.5 * split, 60)
    samples = f(np.linspace(0.0, split, 257))
    floor = 16.0 * _EPS * split * np.max(np.abs(samples))
    err = max(abs(coarse - value), abs(later - value)) + \
        lo.error_estimate + hi.error_estimate + floor
    evals = lo.evaluations + hi.evaluations + samples.size + \
        len(signs) * (60 + 30 + 60)
    return QuadratureResult(complex(value), float(err), evals)
