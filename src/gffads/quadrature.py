"""Integration engines.

Four engines: an adaptive Gauss-Kronrod rule on finite intervals, a
semi-infinite oscillatory integrator based on exponential (Abel) damping with
polynomial extrapolation of the damping parameter to zero, Hankel transforms
built on top of it, and the Bessel-product integral
int_0^inf u^(1-mu) J_mu(au) J_nu(bu) J_nu(cu) du by Hankel splitting and
contour rotation.  All integrands must accept numpy arrays of abscissae.
The fixed-node grids of the other modules all take their Gauss-Legendre
rule from _gauss_legendre, which maps cached read-only tables onto [a, b];
the rotated tails take theirs from the Gauss-Laguerre table beside it.

The adaptive rule refines in rounds: each round bisects, in one integrand
call, the panels of largest error whose errors together cover the excess of
the total error over the target.  A GK15 call on many panels reduces each
panel's row as it would a single panel, so a panel's value and error do not
depend on the panels that share its call.

Each damped integral is a sequence of panel partial sums accelerated by
Wynn's epsilon algorithm; its table advances one anti-diagonal per panel over
a window of the newest 48 sums, so a panel costs O(48) table updates.  All
damping parameters of one Abel integral share the same panels, and the
integrand is evaluated once per panel for all of them.

The Bessel-product integral takes [0, U] by adaptive Gauss-Kronrod.  Beyond
U each J is (H1 + H2)/2, which gives eight terms of a single frequency
omega = +-a +- b +- c each; every term is integrated along U + i sgn(omega) t,
where it decays like e^(-|omega| t), by a Gauss-Laguerre rule
(S. K. Lucas, J. Comput. Appl. Math. 64, 1995).
"""

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceededError, DivergenceError, DomainError,
                     LightConeProximityError)
from .specfun import bessel_j, hankel_scaled

__all__ = ["QuadratureResult", "AbelSchedule", "adaptive_finite",
           "oscillatory_semi_infinite", "hankel_transform", "neville_zero",
           "partial_sum_limit", "FINE_SCHEDULE", "DEFAULT_EPSILONS",
           "FINE_EPSILONS"]


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0 or self.evaluations <= 0:
            raise DomainError("invalid QuadratureResult fields")


DEFAULT_EPSILONS = (0.2, 0.1, 0.05, 0.025, 0.0125)

# schedule for locality-type integrals whose Abel transform has complex
# singularities close to eps = 0 (all nodes must sit inside their radius)
FINE_EPSILONS = tuple(0.05 * 0.5 ** k for k in range(8))


@dataclass(frozen=True)
class AbelSchedule:
    epsilons: tuple = DEFAULT_EPSILONS
    extrapolation_order: int = 3

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if len(eps) < 2 or any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise DomainError("epsilons must be a strictly decreasing sequence")
        if eps[-1] < 1e-6:
            raise DomainError("smallest epsilon must be >= 1e-6")
        if self.extrapolation_order < 1:
            raise DomainError("extrapolation_order must be >= 1")


FINE_SCHEDULE = AbelSchedule(FINE_EPSILONS, extrapolation_order=6)


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


# Wynn's table over at most this many of the newest partial sums
_WYNN_WINDOW = 48


class _EpsilonTable:
    """Wynn's epsilon table over the newest partial sums, one anti-diagonal.

    The entry eps_k^(n) depends only on s_n ... s_(n+k), so the table over
    the last `window` sums is a sub-triangle of the full table, and every
    entry its limit reads lies on the newest anti-diagonal.  push(s_N)
    replaces that anti-diagonal by the next one,

        eps_0 = s_N,  eps_(k+1) = eps_(k-1)^old + 1 / (eps_k - eps_k^old),

    with eps_(-1) = 0, down to column min(N, window) - 2: O(window) work per
    sum, and the same operations in the same order as a table rebuilt from
    the last `window` sums.
    """

    def __init__(self, window):
        self.window = window
        self.count = 0
        self.old = []
        self.diagonal = []

    def push(self, x):
        old = self.diagonal
        last = complex(x)
        new = [last]
        self.count += 1
        e = 0.0  # eps_(k-1)^old, starting at eps_(-1)
        for o in old[:min(self.count, self.window) - 2]:
            d = last - o
            last = e if d == 0 else e + 1.0 / d
            new.append(last)
            e = o
        self.old, self.diagonal = old, new

    def limit(self):
        """(limit, error) from the deepest even column; needs >= 3 sums."""
        new = self.diagonal
        k = (len(new) - 1) // 2 * 2
        best, prev_best = new[k], new[k - 2] if k else self.old[0]
        return best, abs(best - prev_best)


def _damped_semi_infinite(f, eps, panel, max_panels=2000):
    """integral_0^inf f(u) exp(-eps u) du by panel sums + epsilon acceleration.

    The limit is read from the table from the eighth panel on, so
    max_panels >= 8 always yields one.
    """

    def fd(u):
        return np.asarray(f(u)) * np.exp(-eps * u)

    table = _EpsilonTable(_WYNN_WINDOW)
    total = 0.0j
    evals = 0
    panel_err = 0.0
    scale = 0.0
    converged_streak = 0
    for j in range(max_panels):
        v, e = _gk15(fd, j * panel, (j + 1) * panel)
        if e > 1e-11 * max(1.0, abs(v)):
            (v1, v2), (e1, e2) = _gk15(
                fd, np.array([j, j + 0.5]) * panel,
                np.array([j + 0.5, j + 1]) * panel)
            v, e = v1 + v2, e1 + e2
            evals += 30
        evals += 15
        total += v
        panel_err += e
        scale = max(scale, abs(v))
        table.push(total)
        if table.count >= 8:
            best, best_err = table.limit()
            tol = max(1e-13, 1e-14 * max(1.0, abs(best)))
            converged_streak = converged_streak + 1 if best_err <= tol else 0
            if converged_streak >= 3:
                break
    if not np.isfinite(best) or (scale > 0 and abs(total) > 1e8 * scale):
        raise DivergenceError("damped semi-infinite integral does not converge")
    return best, best_err + panel_err, evals


def partial_sum_limit(f, panel=np.pi, max_panels=2000):
    """Zero-partitioned evaluation of integral_0^inf f (no damping).

    Accelerates the sequence of panel partial sums with Wynn's epsilon
    algorithm.  Serves as the independent cross-check for the Abel route.
    """
    if max_panels < 8:
        raise DomainError("partial_sum_limit needs max_panels >= 8")
    v, e, n = _damped_semi_infinite(f, 0.0, panel, max_panels=max_panels)
    return QuadratureResult(complex(v), e, n)


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


def _per_panel(f):
    """f remembering its values per abscissa array, for one integral.

    Every damping parameter integrates f(u) exp(-eps u) over the same panels,
    so f runs once per panel however many parameters reach it.
    """
    seen = {}

    def g(u):
        key = u.tobytes()
        if key not in seen:
            seen[key] = np.asarray(f(u))
        return seen[key]

    return g


def oscillatory_semi_infinite(f, schedule=None, panel=np.pi):
    """Abel-regularized integral of f over [0, inf).

    Computes I(eps) = integral of f(u) exp(-eps u) for each eps of the
    schedule and extrapolates polynomially to eps -> 0.  The error estimate
    combines the damped-integral errors with the extrapolation spread.
    """
    schedule = schedule or AbelSchedule()
    f = _per_panel(f)
    vals, errs = [], []
    evals = 0
    for eps in schedule.epsilons:
        v, e, n = _damped_semi_infinite(f, eps, panel)
        vals.append(v)
        errs.append(e)
        evals += n
    value, spread = neville_zero(schedule.epsilons, vals, schedule.extrapolation_order)
    if not np.isfinite(value):
        raise DivergenceError("extrapolation in eps diverged")
    err = spread + max(errs)
    return QuadratureResult(complex(value), err, evals)


def hankel_transform(order, g, u, schedule=None):
    """Hankel transform H_nu[g](u) = integral_0^inf t g(t) J_nu(u t) dt."""
    if u <= 0:
        raise DomainError("hankel_transform requires u > 0")

    def f(t):
        return t * np.asarray(g(t)) * bessel_j(order, u * t)

    res = oscillatory_semi_infinite(f, schedule, panel=np.pi / u)
    return QuadratureResult(res.value.real if abs(res.value.imag) == 0
                            else res.value, res.error_estimate, res.evaluations)


# The Hankel splitting of J_mu(au) J_nu(bu) J_nu(cu): the sign s_i = +1
# takes H1 of the i-th factor, -1 takes H2, and the term has frequency
# omega = s . (a, b, c).  For real orders the term of -s is the complex
# conjugate of the term of s on the conjugate contour, so only the four with
# s_1 = +1 are evaluated.
_HANKEL_SIGNS = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))


def _rotated_tail(mu, nu, k, u0, n):
    """int_u0^inf u^(1-mu) J_mu(k0 u) J_nu(k1 u) J_nu(k2 u) du on n nodes.

    Each Hankel term runs along u0 + i sgn(omega) t; with the phase
    e^(i omega u0 - |omega| t) pulled out of the scaled Hankel product, the
    rest is smooth in x = |omega| t and is summed on the n-point
    Gauss-Laguerre rule.
    """
    x, w = _laguerre_table(n)
    total = 0.0j
    for s in _HANKEL_SIGNS:
        omega = s[0] * k[0] + s[1] * k[1] + s[2] * k[2]
        step = 1j * math.copysign(1.0, omega) / abs(omega)
        u = u0 + step * x
        g = u ** (1.0 - mu)
        for sign, order, ki in zip(s, (mu, nu, nu), k):
            g = g * hankel_scaled(sign, order, ki * u)
        total += np.exp(1j * omega * u0) * step * np.dot(w, g)
    # each term carries 1/8 from the three (H1 + H2)/2; with its conjugate
    # partner it adds twice its real part
    return total.real / 4.0


def _bessel_product(mu, nu, a, b, c):
    """int_0^inf u^(1-mu) J_mu(a u) J_nu(b u) J_nu(c u) du for a, b, c > 0.

    Adaptive GK15 on [0, U], the rotated Hankel tails beyond.  U is at
    least 4 pi / min(a, b, c), so the Hankel functions on the contour are in
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
    the 257 samples and the 4 (60 + 30 + 60) contour points.
    """
    k = (float(a), float(b), float(c))
    omegas = [abs(s[0] * k[0] + s[1] * k[1] + s[2] * k[2])
              for s in _HANKEL_SIGNS]
    if min(omegas) == 0.0:
        raise LightConeProximityError(
            "Bessel-product integral on a light cone (a +- b +- c = 0)")
    split = 4.0 * np.pi / min(min(k), min(omegas))

    def f(u):
        u = np.asarray(u, dtype=float)
        uu = np.where(u > 0, u, 1.0)
        val = uu ** (1.0 - mu) * bessel_j(mu, k[0] * uu) * \
            bessel_j(nu, k[1] * uu) * bessel_j(nu, k[2] * uu)
        return np.where(u > 0, val, 0.0)

    lo = adaptive_finite(f, 0.0, 0.5 * split)
    hi = adaptive_finite(f, 0.5 * split, split)
    value = lo.value + hi.value + _rotated_tail(mu, nu, k, split, 60)
    coarse = lo.value + hi.value + _rotated_tail(mu, nu, k, split, 30)
    later = lo.value + _rotated_tail(mu, nu, k, 0.5 * split, 60)
    samples = f(np.linspace(0.0, split, 257))
    floor = 16.0 * np.finfo(float).eps * split * np.max(np.abs(samples))
    err = max(abs(coarse - value), abs(later - value)) + \
        lo.error_estimate + hi.error_estimate + floor
    evals = lo.evaluations + hi.evaluations + samples.size + \
        len(_HANKEL_SIGNS) * (60 + 30 + 60)
    return QuadratureResult(complex(value), float(err), evals)
