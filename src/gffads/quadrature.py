"""Integration engines.

Three engines, all on numpy arrays of abscissae: an adaptive Gauss-Kronrod
rule on finite intervals; the integral over [0, inf) of an integrand that
decays, by that rule on [0, L], [L, 2L], [2L, 4L], ... until a piece is
negligible (DivergenceError if none is); and the Bessel-product integral
int_0^inf u^p prod_i J_(nu_i)(k_i u) du by Hankel splitting and contour
rotation.  The fixed-node grids of the other modules all take their
Gauss-Legendre rule from _gauss_legendre, which maps cached read-only
tables onto [a, b]; the rotated tails take theirs from the Gauss-Laguerre
table beside it.

The adaptive rule refines in rounds: each round bisects, in one integrand
call, the panels of largest error whose errors together cover the excess of
the total error over the target.  A GK15 call on many panels reduces each
panel's row as it would a single panel, so a panel's value and error do not
depend on the panels that share its call.

The Bessel-product integral takes [0, U] by adaptive Gauss-Kronrod.  Beyond
U each J is (H1 + H2)/2, which splits the product of n factors into 2^n
terms of a single frequency omega = sum_i +-k_i each; every term is
integrated along U + i sgn(omega) t, where it decays like e^(-|omega| t), by
a Gauss-Laguerre rule (S. K. Lucas, J. Comput. Appl. Math. 64, 1995).
"""

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceededError, DivergenceError, DomainError,
                     LightConeProximityError)
from .specfun import bessel_j, hankel_scaled

__all__ = ["QuadratureResult", "adaptive_finite", "hankel_transform",
           "neville_zero"]


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


# 15-point Kronrod nodes on [-1, 1] with Kronrod and embedded Gauss-7 weights
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0])


# one row-wise reduction gives both sums, each row summed as np.sum would
_W2 = np.stack([_WK, _WG])


def _gk15(f, a, b):
    """GK15 value and error estimate of f on [a, b].

    a and b may be 1-d arrays of panel endpoints: f then runs once on the
    nodes of all the panels, and each panel's row is reduced as for a single
    panel, so its value and error do not depend on its company.  f may
    return one value per node or a scalar that stands for all of them.
    """
    half = 0.5 * (np.asarray(b) - a)
    mid = 0.5 * (np.asarray(a) + b)
    x = mid[..., None] + half[..., None] * _XK
    fx = np.asarray(f(x.ravel()))
    if fx.size != x.size:
        fx = np.broadcast_to(fx, x.size)
    fx = fx.reshape(x.shape)
    sk, sg = (_W2 * fx[..., None, :]).sum(axis=-1).T
    ik = half * sk
    ig = half * sg
    if isinstance(ik, np.ndarray):
        # libm's abs and power, as for a single panel: numpy's vector loops
        # for them differ from libm in the last bit on some arguments
        return ik, np.array([(200.0 * abs(e)) ** 1.5
                             for e in (ik - ig).tolist()])
    return ik, (200.0 * abs(ik - ig)) ** 1.5


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

    The target is |value - integral| <= max(tol * |value|, 1e-14).  Each
    round pops the panels of largest error until their errors cover the
    excess of the total error over the target, never more than would take
    the panel count past max_panels, and bisects them all with one call of
    f.  A round bisects at least one panel, so a NaN error or value (which
    no excess covers) refines one panel per round until the budget error.
    The panel results are summed in a fixed (left-to-right) order so
    the returned value does not depend on the refinement history.
    """
    if not b > a:
        raise DomainError("adaptive_finite requires a < b")
    val, err = _gk15(f, a, b)
    panels = [(-err, a, b, val)]
    evals = 15
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(-p[0] for p in panels)
        target = max(tol * abs(total), 1e-14)
        if total_err <= target:
            break
        if len(panels) >= max_panels:
            ordered = sorted(panels, key=lambda p: p[1])
            value = sum(p[3] for p in ordered)
            res = QuadratureResult(value, total_err, evals)
            raise BudgetExceededError(
                f"adaptive_finite: {max_panels} panels without convergence",
                result=res)
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
    ordered = sorted(panels, key=lambda p: p[1])
    value = sum(p[3] for p in ordered)
    total_err = sum(-p[0] for p in ordered)
    return QuadratureResult(value, total_err, evals)


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


# pieces after [0, L] that the doubling route takes before it gives up
_DOUBLINGS = 10


def _doubling(f, length, caller):
    """integral_0^inf f for an integrand that decays, by adaptive_finite on
    [0, L], [L, 2L], [2L, 4L], ... until a piece [a, 2a] is negligible: a
    times the largest |f| at 64 golden-ratio points a (1 + frac(0.618 j))
    is within 1e-10 of the running sum (a piece's value can vanish by
    cancellation, and a grid can fall on the zeros of a periodic f).

    The estimate adds the GK15 estimates, that bound on the last piece (for
    the tail beyond it) and a rounding floor of 50 eps sum |piece|.  An
    integrand not decayed after _DOUBLINGS pieces, or whose piece beyond
    [0, L] runs out of panels (a decayed one meets adaptive_finite's
    absolute floor at once), raises DivergenceError naming the caller.
    """
    res = adaptive_finite(f, 0.0, length)
    value, err, evals = res.value, res.error_estimate, res.evaluations
    size = abs(value)
    a = length
    for _ in range(_DOUBLINGS):
        try:
            piece = adaptive_finite(f, a, 2.0 * a)
        except BudgetExceededError:
            break
        samples = np.abs(f(a + a * (0.618034 * np.arange(64) % 1.0)))
        value += piece.value
        err += piece.error_estimate
        evals += piece.evaluations + samples.size
        size += abs(piece.value)
        bound = a * np.max(samples)
        a *= 2.0
        if bound <= max(1e-10 * abs(value), 1e-14):
            floor = 50.0 * np.finfo(float).eps * size
            return QuadratureResult(value, err + bound + floor, evals)
    raise DivergenceError(f"{caller}: the integrand has not decayed by {a:.6g}")


def hankel_transform(order, g, u):
    """Hankel transform H_nu[g](u) = integral_0^inf t g(t) J_nu(u t) dt.

    g must decay: the integral is taken on doubling intervals from
    L = 4 pi / u (two periods of the Bessel factor), and a g that does not
    decay raises DivergenceError.
    """
    if u <= 0:
        raise DomainError("hankel_transform requires u > 0")

    def f(t):
        return t * np.asarray(g(t)) * bessel_j(order, u * t)

    return _doubling(f, 4.0 * np.pi / u, "hankel_transform")


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

    The head is taken as two adaptive_finite calls, on [0, U/2] and
    [U/2, U]; an oscillatory head bisects [0, U] in its first round anyway.
    The error estimate is the larger of two changes of the value, taking the
    tails on 30 instead of 60 nodes and splitting at U/2 instead of U (GK15
    on [U/2, U] against the difference of the two rotated tails; U/2 is
    still at least 2 pi / min k and 2 pi / min |omega|), plus the two head
    pieces' GK15 estimates and a rounding floor of 16 eps U max|f| over 257
    samples on [0, U].  evaluations counts the GK15 points of both pieces,
    the 257 samples and the (60 + 30 + 60) contour points of each term.
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

    lo = adaptive_finite(f, 0.0, 0.5 * split)
    hi = adaptive_finite(f, 0.5 * split, split)
    value = lo.value + hi.value + _rotated_tail(power, factors, split, 60)
    coarse = lo.value + hi.value + _rotated_tail(power, factors, split, 30)
    later = lo.value + _rotated_tail(power, factors, 0.5 * split, 60)
    samples = f(np.linspace(0.0, split, 257))
    floor = 16.0 * np.finfo(float).eps * split * np.max(np.abs(samples))
    err = max(abs(coarse - value), abs(later - value)) + \
        lo.error_estimate + hi.error_estimate + floor
    evals = lo.evaluations + hi.evaluations + samples.size + \
        len(signs) * (60 + 30 + 60)
    return QuadratureResult(complex(value), float(err), evals)
