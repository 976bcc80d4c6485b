"""Real-order special functions: Gamma, Bessel J and K, scaled Hankel
functions and the even Bessel series.

The Bessel order is restricted to nu > -1 throughout: `Order` enforces it,
while the raw functions bessel_j, bessel_k, kv_complex, hankel_scaled and
j_even accept any finite order (the z-weights of `stress` need J_(nu-1))
and reject a NaN or infinite one.  Their argument must lie in the stated
domain (NaN does not).
J and the scaled Hankel functions take their route from the order alone:
J_0 by cephes j0, orders +-1/2 by their elementary closed forms (DLMF
10.16.1), every other order by AMOS (scipy.special jv, hankel1e, hankel2e;
D. E. Amos, ACM TOMS 12, 1986).  K and Gamma are scipy.special's.  The
even entire function j_nu is evaluated by its own power series, so that it
is defined for arguments of either sign; its domain is |s| <= 100, where
the series loses at most ~3 digits, and a larger |s| raises DomainError.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as _sp

from .errors import DomainError

__all__ = ["Order", "gamma", "bessel_j", "bessel_k", "j_even", "kv_complex",
           "hankel_scaled"]


@dataclass(frozen=True)
class Order:
    """Dimensionless real Bessel order, restricted to nu > -1."""

    nu: float

    def __post_init__(self):
        if not np.isfinite(self.nu) or self.nu <= -1.0:
            raise DomainError(f"order must satisfy nu > -1, got {self.nu}")


def _nu(order) -> float:
    """The order as a float; DomainError unless it is finite."""
    if isinstance(order, Order):
        return order.nu
    nu = float(order)
    if not math.isfinite(nu):
        raise DomainError(f"Bessel order must be finite, got {nu}")
    return nu


def gamma(x):
    """Gamma function for real x away from the poles at 0, -1, -2, ..."""
    x = np.asarray(x, dtype=float)
    if np.any((x <= 0) & (x == np.floor(x))):
        raise DomainError("gamma pole at non-positive integer argument")
    out = _sp.gamma(x)
    return float(out) if out.ndim == 0 else out


def bessel_j(order, u):
    """Bessel function of the first kind J_nu(u) for u >= 0.

    The order alone picks the route: cephes j0 at nu = 0, the closed forms
    sqrt(2 / (pi u)) sin u and sqrt(2 / (pi u)) cos u at nu = +-1/2 (DLMF
    10.16.1), AMOS jv at every other order.  Accuracy contract, held
    against 40-digit mpmath for 0 <= u <= 2000 by the tests:

        |error| <= C eps (u |J_nu'(u)| + sqrt(2 / (pi max(u, 1)))),

    the change one rounding of u makes, with C = 4 for j0 and the closed
    forms and C = 256 for jv (which reaches about 130 at nu = 1.3).
    u = +inf gives the limit 0 (every route gives NaN there); u = 0 gives
    jv's values J_0 = 1, J_(1/2) = 0 and J_(-1/2) = +inf.
    """
    nu = _nu(order)
    u = np.asarray(u, dtype=float)
    if u.size and not u.min() >= 0:
        raise DomainError("bessel_j requires u >= 0")
    keep = u < np.inf
    if nu == 0.0:
        out = _sp.j0(u)
    elif abs(nu) == 0.5:
        # u = 0 divides by zero and u = inf takes sin(inf): np.where below
        # replaces what they give
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.sqrt(2.0 / (np.pi * u)) * \
                (np.sin(u) if nu > 0 else np.cos(u))
        if nu > 0:
            keep &= u > 0   # inf * sin(0) at u = 0, where J_(1/2) = 0
    else:
        out = _sp.jv(nu, u)
    out = np.where(keep, out, 0.0)
    return float(out) if out.ndim == 0 else out


def bessel_k(order, u):
    """Modified Bessel function K_nu(u) for u > 0."""
    nu = _nu(order)
    u = np.asarray(u, dtype=float)
    if u.size and not u.min() > 0:
        raise DomainError("bessel_k requires u > 0")
    out = _sp.kv(nu, u)
    return float(out) if out.ndim == 0 else out


def kv_complex(nu, z):
    """K_nu for complex argument with Re z > 0, via the Hankel-function relation.

    K_nu(z) = (pi/2) i^(nu+1) H1_nu(iz), valid for -pi < arg z <= pi/2.
    """
    nu = _nu(nu)
    z = np.asarray(z, dtype=complex)
    if z.size and not z.real.min() > 0:
        raise DomainError("kv_complex requires Re z > 0")
    out = 0.5 * np.pi * (1j) ** (nu + 1.0) * _sp.hankel1(nu, 1j * z)
    return complex(out) if out.ndim == 0 else out


def hankel_scaled(sign, nu, z):
    """Scaled Hankel function H_nu(z) e^(-i sign z) for complex z, Re z > 0.

    sign = +1 gives H1_nu(z) e^(-iz), sign = -1 gives H2_nu(z) e^(iz).  Both
    stay O(|z|^(-1/2)) for large |z| off the real axis, where the unscaled
    functions overflow in the half plane in which they grow.

    The order alone picks the route: the closed forms -i sign sqrt(2 / (pi z))
    at nu = 1/2 and sqrt(2 / (pi z)) at nu = -1/2 (DLMF 10.16.1), AMOS
    hankel1e or hankel2e at every other order.  Accuracy contract for the
    scaled function h, held against 40-digit mpmath for 0 < Re z <= 2000,
    |Im z| <= 3 Re z by the tests: |error| <= C eps (|z h'(z)| + |h(z)|),
    with C = 4 for the closed forms and C = 256 for AMOS (which reaches
    about 160 at nu = 1.3).  sign and Re z are checked before any route.
    """
    nu = _nu(nu)
    z = np.asarray(z, dtype=complex)
    if z.size and not np.real(z).min() > 0:
        raise DomainError("hankel_scaled requires Re z > 0")
    if sign not in (1, -1):
        raise DomainError(f"hankel_scaled sign must be +1 or -1, got {sign}")
    if abs(nu) == 0.5:
        out = np.sqrt(2.0 / (np.pi * z))
        if nu > 0:
            out = -1j * sign * out
    elif sign == 1:
        out = _sp.hankel1e(nu, z)
    else:
        out = _sp.hankel2e(nu, z)
    return complex(out) if out.ndim == 0 else out


# the series' domain: below |s| = 100 the alternating series loses at most
# ~3 digits
_SERIES_SMAX = 100.0
_SERIES_TERMS = 80


def j_even(order, s):
    """Even entire Bessel series j_nu(s) = sum_n (-s/4)^n / (n! Gamma(nu+n+1) 2^nu).

    For s = u^2 > 0 this equals u^(-nu) J_nu(u); for s = -u^2 < 0 it equals
    u^(-nu) I_nu(u).  Defined for |s| <= 100 of either sign; a larger |s|
    raises DomainError.
    """
    nu = _nu(order)
    s = np.asarray(s, dtype=float)
    if s.size and not np.abs(s).max() <= _SERIES_SMAX:
        raise DomainError(f"j_even requires |s| <= {_SERIES_SMAX:g}")
    term = np.full_like(s, 2.0 ** (-nu) / _sp.gamma(nu + 1.0))
    acc = term.copy()
    for n in range(1, _SERIES_TERMS):
        term = term * (-s / 4.0) / (n * (nu + n))
        acc += term
    return float(acc) if acc.ndim == 0 else acc
