"""AdS side of the boundary dictionary in the Poincare chart.

The bulk Klein-Gordon field of mass M^2 = nu^2 - d^2/4 at depth z is the
boundary generalized free field with Bessel weight
    h_z(m^2) = (1/sqrt 2) z^(d/2) J_nu(z m),
so bulk 2-point functions, commutators, the boundary (z -> 0) limit, the
canonical equal-time commutator and the mass-change kernel all reduce to
weighted mass integrals of the fixed-mass building blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LightConeProximityError
from .specfun import Order, _nu, bessel_j, gamma, j_even
from .quadrature import (AbelSchedule, QuadratureResult, adaptive_finite,
                         neville_zero, oscillatory_semi_infinite)
from .correlators import BesselZ, Correlator, Power, gff2pt, gff_commutator
from .fock import ModeFunction

__all__ = ["AdSFieldSpec", "ads2pt", "holographic_lift", "boundary_limit_const",
           "boundary_limit_check", "ccr_check", "bonus_locality",
           "ads_commutator", "mass_change_kernel_check"]


@dataclass(frozen=True)
class AdSFieldSpec:
    """Bulk scalar of Bessel order nu on AdS_{d+1}; Delta = d/2 + nu."""

    order: Order
    d: int = 2

    def __post_init__(self):
        if self.d < 2:
            raise DomainError("boundary dimension must be >= 2")

    @property
    def nu(self):
        return self.order.nu

    @property
    def delta(self):
        return 0.5 * self.d + self.nu

    @property
    def mass_squared(self):
        return self.nu ** 2 - 0.25 * self.d ** 2

    def weight(self, z):
        return BesselZ(z, self.order, self.d)


def ads2pt(spec, z, zp, dx, epsilon=1e-3, cutoff=None):
    """Bulk 2-point function (1/2)(z z')^{d/2} int dm^2 J_nu(zm)J_nu(z'm) W_m(dx).

    Same code path as the boundary superposition with Bessel weights.
    """
    if z <= 0 or zp <= 0:
        raise DomainError("ads2pt requires z, zp > 0")
    return gff2pt(spec.weight(z), spec.weight(zp), dx, spec.d,
                  epsilon=epsilon, cutoff=cutoff)


def boundary_limit_const(nu):
    """Coefficient of (k^2)^{nu/2} in the z -> 0 limit of z^(-Delta) h_z."""
    return 2.0 ** (-nu - 0.5) / gamma(nu + 1.0)


def holographic_lift(spec, z, fhat, method="bessel_j"):
    """Multiply a cone wavefunction by the depth-z Bessel weight h_z(k^2).

    method selects between the direct J_nu evaluation and the even-series
    form (1/sqrt 2) z^Delta (k^2)^(nu/2) jEven(nu, z^2 k^2); both agree and
    the latter stays smooth through k^2 -> 0.
    """
    if z <= 0:
        raise DomainError("holographic_lift requires z > 0")
    nu, d = spec.nu, spec.d
    if method == "bessel_j":
        def weight(m2):
            return (1.0 / math.sqrt(2.0)) * z ** (d / 2.0) * \
                bessel_j(nu, z * np.sqrt(m2))
    elif method == "j_even":
        def weight(m2):
            m2 = np.asarray(m2, dtype=float)
            return (1.0 / math.sqrt(2.0)) * z ** spec.delta * \
                m2 ** (nu / 2.0) * j_even(nu, z ** 2 * m2)
    else:
        raise DomainError(f"unknown lift method {method!r}")
    return ModeFunction(fhat.grid,
                        lambda kp, km: weight(kp * km) * fhat.func(kp, km))


def boundary_limit_check(spec, z_sequence, dx, epsilon=1e-3, cutoff=None):
    """Check z^(-2 Delta) ads2pt(z, z, dx) -> c_nu^2 * boundary 2pt as z -> 0.

    The reference is the generalized free field with homogeneous weight m^nu.
    Returns the per-z relative deviations and the reference value.
    """
    zs = tuple(float(z) for z in z_sequence)
    if any(z2 >= z1 for z1, z2 in zip(zs, zs[1:])) or zs[-1] <= 0:
        raise DomainError("z_sequence must decrease to a positive value")
    if dx.square() >= 0:
        raise DomainError("boundary limit check needs spacelike dx")
    c = boundary_limit_const(spec.nu)
    h = Power(spec.nu)
    ref = gff2pt(h, h, dx, spec.d, epsilon=epsilon, cutoff=cutoff)
    target = c ** 2 * ref.value
    ratios, deviations = [], []
    for z in zs:
        val = ads2pt(spec, z, z, dx, epsilon=epsilon, cutoff=cutoff).value
        scaled = val / z ** (2.0 * spec.delta)
        ratios.append(scaled / target)
        deviations.append(abs(scaled - target) / abs(target))
    return {"reference": target, "z_sequence": zs, "ratios": ratios,
            "relative_deviations": deviations,
            "monotone": all(b < a for a, b in
                            zip(deviations, deviations[1:]))}


# ---------------------------------------------------------------------------
# canonical equal-time commutator

def _profile_bessel_moment(g, support, nu, m_values, power):
    """int g(z) (1/sqrt 2) z^power J_nu(z m) dz on the support interval.

    power = d/2 for the field smearing; the canonical momentum pi carries the
    metric factor z^(1-d), giving power = 1 - d/2 for the pi smearing.
    """
    out = np.empty_like(np.asarray(m_values, dtype=float))
    a, b = support
    for i, m in enumerate(np.atleast_1d(m_values)):
        res = adaptive_finite(
            lambda zz: np.asarray(g(zz)) * (1.0 / math.sqrt(2.0)) *
            zz ** power * bessel_j(nu, zz * m), a, b, tol=1e-12)
        out.flat[i] = res.value.real
    return out


def ccr_check(spec, g, gp, f, fp, g_support, gp_support, n_m=600, mmax=60.0,
              n_x=400, x_halfwidth=12.0):
    """Equal-time commutator <[phi(g x f), pi(gp x fp)]> vs the product formula.

    pi = z^(1-d) d_t phi is the canonical momentum of the z^(-2) Poincare
    metric.  Mode route (d = 2): i/(2 pi) * int_0^inf m dm G(m) Gp(m) *
    int dk [F(k) Fp(-k) + F(-k) Fp(k)], with G the z^(d/2) Bessel moment of
    g, Gp the z^(1-d/2) moment of gp, and F, Fp the spatial Fourier
    transforms of f, fp.  Compared with i*(int g gp dz)*(int f fp dx).
    """
    if spec.d != 2:
        raise DomainError("ccr check implemented for d = 2")
    nu = spec.nu

    # mode route: m-integral on a Gauss-Legendre grid; the profile moments
    # G(m) decay superalgebraically for smooth bump profiles, so a fixed
    # cutoff suffices; the half-resolution grid supplies the error estimate
    def m_int(n):
        t, w = np.polynomial.legendre.leggauss(n)
        m = 0.5 * mmax * (t + 1.0)
        wm = 0.5 * mmax * w
        G = _profile_bessel_moment(g, g_support, nu, m, 1.0)
        Gp = _profile_bessel_moment(gp, gp_support, nu, m, 0.0)
        return float(np.sum(wm * m * G * Gp))

    m_integral = m_int(n_m)
    m_integral_half = m_int(n_m // 2)

    # spatial factor int dk [F(k)Fp(-k) + F(-k)Fp(k)] = 4 pi int f fp dx,
    # evaluated as a k-integral to keep the route in momentum space
    tk, wk = np.polynomial.legendre.leggauss(n_x)
    kmax = 40.0
    k = kmax * tk
    wkk = kmax * wk
    xs = np.linspace(-x_halfwidth, x_halfwidth, 4001)
    dxs = xs[1] - xs[0]
    fv, fpv = np.asarray(f(xs)), np.asarray(fp(xs))
    F = np.trapezoid(fv[None, :] * np.exp(1j * k[:, None] * xs[None, :]),
                     dx=dxs, axis=1)
    Fp = np.trapezoid(fpv[None, :] * np.exp(-1j * k[:, None] * xs[None, :]),
                      dx=dxs, axis=1)
    spatial = complex(np.sum(wkk * (F * Fp + np.conj(F) * np.conj(Fp))))
    mode_value = 1j / (2.0 * np.pi) * m_integral * spatial

    # product formula oracle
    zg = adaptive_finite(lambda zz: np.asarray(g(zz)) * np.asarray(gp(zz)),
                         min(g_support[0], gp_support[0]),
                         max(g_support[1], gp_support[1]), tol=1e-12)
    xint = float(np.trapezoid(fv * fpv, dx=dxs))
    product_value = 1j * zg.value.real * xint
    denom = max(abs(product_value), abs(mode_value), 1e-300)
    return {"mode_value": mode_value, "product_value": product_value,
            "relative_discrepancy": abs(mode_value - product_value) / denom,
            "m_integral_error": abs(m_integral - m_integral_half)}


# ---------------------------------------------------------------------------
# bonus locality and the AdS commutator

def bonus_locality(mu, nu, a, b, c, schedule=None):
    """I(a,b,c) = int_0^inf u^(1-mu) J_mu(a u) J_nu(b u) J_nu(c u) du.

    Abel-regularized; vanishes for a^2 < (b - c)^2 although the boundary
    interval a is timelike there.
    """
    if min(a, b, c) <= 0:
        raise DomainError("bonus_locality requires positive a, b, c")
    nu_f = _nu(nu)

    def f(u):
        u = np.asarray(u, dtype=float)
        uu = np.where(u > 0, u, 1.0)
        val = uu ** (1.0 - mu) * bessel_j(mu, a * uu) * \
            bessel_j(nu_f, b * uu) * bessel_j(nu_f, c * uu)
        return np.where(u > 0, val, 0.0)

    return oscillatory_semi_infinite(f, schedule, panel=np.pi / (a + b + c))


def ads_commutator(spec, z, zp, dx, schedule=None, guard=0.05):
    """Bulk commutator (1/2)(z z')^{d/2} int dm^2 J_nu(zm) J_nu(z'm) Delta_m(dx).

    Spacelike dx gives exactly zero; timelike dx reduces to the triple-Bessel
    integral with tau = sqrt(dx^2).  Points inside the guard band around the
    AdS light cone tau^2 = (z - z')^2 raise a proximity error.
    """
    if z <= 0 or zp <= 0:
        raise DomainError("ads_commutator requires z, zp > 0")
    s = dx.square()
    if s < 0:
        return Correlator(0.0, 0.0)
    if s == 0:
        raise DomainError("commutator undefined on the boundary light cone")
    thresh = (z - zp) ** 2
    if thresh > 0 and abs(s - thresh) < guard * thresh:
        raise LightConeProximityError(
            "dx^2 within the guard band around the AdS light cone")
    d = spec.d
    tau = math.sqrt(s)
    sign = 1.0 if dx.components[0] > 0 else -1.0
    mu = 0.5 * (2 - d)
    const = -1j * np.pi * (2.0 * np.pi) ** (-d / 2.0) * sign * \
        (z * zp) ** (d / 2.0) * tau ** mu
    res = bonus_locality(mu, spec.order, tau, z, zp, schedule)
    return Correlator(const * res.value, abs(const) * res.error_estimate)


def ads_commutator_mass_route(spec, z, zp, dx, schedule=None):
    """Cross-check route: the same commutator as a weighted mass integral."""
    return gff_commutator(spec.weight(z), spec.weight(zp), dx, spec.d,
                          schedule=schedule)


# ---------------------------------------------------------------------------
# mass-change kernel

def mass_change_kernel_check(nu, nup, z, m, d=2,
                             epsilons=(0.2, 0.1, 0.05, 0.025),
                             n_window=80, window=12.0):
    """Check int z' dz' K_{nu nu'}(z,z') h'_{z'}(m^2) = h_z(m^2).

    The composition is int m' dm' J_nu(z m') A_eps(m') with the inner
    Gaussian-damped transform A_eps(m') = int z' dz' J_nu'(z'm') J_nu'(z'm)
    exp(-eps^2 z'^2 / 2) -> delta(m' - m)/m; the eps -> 0 limit is taken by
    polynomial extrapolation in eps^2.  Returns the composed value, the
    direct h_z(m^2) and their relative deviation.
    """
    nu_f = _nu(nu)
    nup_f = _nu(nup)
    if z <= 0 or m <= 0:
        raise DomainError("mass_change_kernel_check requires z, m > 0")
    eps_list = tuple(float(e) for e in epsilons)
    if len(eps_list) < 3 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise DomainError("epsilons must be a decreasing sequence, length >= 3")

    vals = []
    for eps in eps_list:
        lo = max(1e-8, m - window * eps)
        hi = m + window * eps
        t, w = np.polynomial.legendre.leggauss(n_window)
        mp = 0.5 * (hi - lo) * (t + 1.0) + lo
        wmp = 0.5 * (hi - lo) * w
        # inner z'-integral, vectorized over the m' window
        zmax = math.sqrt(2.0 * 40.0) / eps
        nz = int(max(400, 8 * zmax * max(m, mp.max()) / math.pi))
        tz, wz = np.polynomial.legendre.leggauss(min(nz, 12000))
        zq = 0.5 * zmax * (tz + 1.0)
        wzq = 0.5 * zmax * wz
        damp = np.exp(-0.5 * eps ** 2 * zq ** 2)
        inner = (wzq * zq * damp * bessel_j(nup_f, zq * m)) @ \
            bessel_j(nup_f, np.outer(zq, mp))
        vals.append(float(np.sum(wmp * mp * bessel_j(nu_f, z * mp) * inner)))

    eps2 = [e ** 2 for e in eps_list]
    limit, spread = neville_zero(eps2, vals, len(eps_list) - 1)
    composed = (1.0 / math.sqrt(2.0)) * z ** (d / 2.0) * limit.real
    direct = (1.0 / math.sqrt(2.0)) * z ** (d / 2.0) * bessel_j(nu_f, z * m)
    return {"composed": composed, "direct": direct,
            "relative_deviation": abs(composed - direct) / abs(direct),
            "extrapolation_spread": spread, "eps_values": vals}
