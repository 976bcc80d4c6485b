"""AdS_3 side of the boundary dictionary in the Poincare chart (d = 2).

The bulk Klein-Gordon field of mass M^2 = nu^2 - 1 at depth z is the
boundary generalized free field with Bessel weight
    h_z(m^2) = (1/sqrt 2) z J_nu(z m),
so bulk 2-point functions, commutators, the boundary (z -> 0) limit, the
canonical equal-time commutator and the mass-change kernel all reduce to
weighted mass integrals of the fixed-mass building blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LightConeProximityError, checked_sequence
from .specfun import Order, _nu, bessel_j, gamma
from .quadrature import (_bessel_product, _gauss_legendre, adaptive_finite,
                         neville_zero)
from .correlators import (EPSILON, BesselZ, Correlator, Power, gff2pt,
                          gff_commutator)
from .fock import ModeFunction

__all__ = ["AdSFieldSpec", "ads2pt", "holographic_lift", "boundary_limit_const",
           "boundary_limit_check", "ccr_check", "bonus_locality",
           "ads_commutator", "mass_change_kernel_check"]


@dataclass(frozen=True)
class AdSFieldSpec:
    """Bulk scalar of Bessel order nu on AdS_3; Delta = 1 + nu."""

    order: Order

    @property
    def nu(self):
        return self.order.nu

    @property
    def delta(self):
        return 1.0 + self.nu

    def weight(self, z):
        return BesselZ(z, self.order)


def _finite_positive(*values):
    """Whether every value is a finite positive number (NaN is not)."""
    return all(0 < v < math.inf for v in values)


def ads2pt(spec, z, zp, dx, epsilon=EPSILON):
    """Bulk 2-point function (1/2) z z' int dm^2 J_nu(zm) J_nu(z'm) W_m(dx).

    Same code path as the boundary superposition with Bessel weights.
    """
    if not (_finite_positive(z, zp) and dx.d == 2):
        raise DomainError("ads2pt requires finite z, zp > 0 and a d = 2 dx")
    return gff2pt(spec.weight(z), spec.weight(zp), dx, epsilon=epsilon)


def boundary_limit_const(nu):
    """Coefficient of (k^2)^{nu/2} in the z -> 0 limit of z^(-Delta) h_z."""
    return 2.0 ** (-nu - 0.5) / gamma(nu + 1.0)


def holographic_lift(spec, z, fhat):
    """Multiply a cone wavefunction by the depth-z Bessel weight h_z(k^2)."""
    weight = spec.weight(z)
    return ModeFunction(fhat.grid,
                        lambda kp, km: weight(kp * km) * fhat.func(kp, km))


def boundary_limit_check(spec, z_sequence, dx):
    """Check z^(-2 Delta) ads2pt(z, z, dx) -> c_nu^2 * boundary 2pt as z -> 0.

    The reference is the generalized free field with homogeneous weight m^nu.
    Returns the relative deviation at each z.
    """
    # one depth is allowed: `gffads compute boundaryLimitCheck` reads one
    zs = checked_sequence(z_sequence, "z_sequence", increasing=False,
                          least=1)
    if dx.d != 2 or dx.square() >= 0:
        raise DomainError("boundary limit check needs a spacelike d = 2 dx")
    c = boundary_limit_const(spec.nu)
    h = Power(spec.nu)
    ref = gff2pt(h, h, dx)
    target = c ** 2 * ref.value
    deviations = []
    for z in zs:
        val = ads2pt(spec, z, z, dx).value
        scaled = val / z ** (2.0 * spec.delta)
        deviations.append(abs(scaled - target) / abs(target))
    return deviations


# ---------------------------------------------------------------------------
# canonical equal-time commutator

def _profile_bessel_moment(g, support, nu, m_values, power):
    """int g(z) (1/sqrt 2) z^power J_nu(z m) dz on the support interval,
    for all m at once: one product on a 200-node Gauss-Legendre rule in z
    (it matches adaptive GK15 to about 1e-15 while m times the support
    width stays below about 600, so ccr_check's m <= 60 allows supports up
    to 10 wide).

    power = 1 for the field smearing; the canonical momentum pi carries the
    metric factor z^(-1), giving power = 0 for the pi smearing.
    """
    z, wz = _gauss_legendre(200, *support)
    return (wz * np.asarray(g(z)) * z ** power / math.sqrt(2.0)) @ \
        bessel_j(nu, np.outer(z, m_values))


def ccr_check(spec, g, gp, f, fp, g_support, gp_support):
    """Equal-time commutator <[phi(g x f), pi(gp x fp)]> vs the product formula.

    pi = z^(-1) d_t phi is the canonical momentum of the z^(-2) Poincare
    metric.  Mode route: i/(2 pi) * int_0^inf m dm G(m) Gp(m) *
    int dk [F(k) Fp(-k) + F(-k) Fp(k)], with G the z Bessel moment of g, Gp
    the z^0 moment of gp, and F, Fp the spatial Fourier transforms of f, fp.
    Product route: i*(int g gp dz)*(int f fp dx).  Returns the two
    routes' values (mode, product) as complex numbers.
    """
    nu = spec.nu

    # mode route: m-integral on a 600-node Gauss-Legendre grid; the profile
    # moments G(m) decay superalgebraically for smooth bump profiles, so a
    # fixed cutoff suffices
    m, wm = _gauss_legendre(600, 0.0, 60.0)
    G = _profile_bessel_moment(g, g_support, nu, m, 1.0)
    Gp = _profile_bessel_moment(gp, gp_support, nu, m, 0.0)
    m_integral = float(np.sum(wm * m * G * Gp))

    # spatial factor int dk [F(k)Fp(-k) + F(-k)Fp(k)] = 4 pi int f fp dx,
    # evaluated as a k-integral to keep the route in momentum space
    k, wk = _gauss_legendre(400, -40.0, 40.0)
    xs = np.linspace(-12.0, 12.0, 4001)
    dxs = xs[1] - xs[0]
    fv, fpv = np.asarray(f(xs)), np.asarray(fp(xs))
    F = np.trapezoid(fv[None, :] * np.exp(1j * k[:, None] * xs[None, :]),
                     dx=dxs, axis=1)
    Fp = np.trapezoid(fpv[None, :] * np.exp(-1j * k[:, None] * xs[None, :]),
                      dx=dxs, axis=1)
    spatial = complex(np.sum(wk * (F * Fp + np.conj(F) * np.conj(Fp))))
    mode_value = 1j / (2.0 * np.pi) * m_integral * spatial

    # the product formula
    zg = adaptive_finite(lambda zz: np.asarray(g(zz)) * np.asarray(gp(zz)),
                         min(g_support[0], gp_support[0]),
                         max(g_support[1], gp_support[1]), tol=1e-12)
    xint = float(np.trapezoid(fv * fpv, dx=dxs))
    return mode_value, 1j * zg.value.real * xint


# ---------------------------------------------------------------------------
# bonus locality and the AdS commutator

def bonus_locality(mu, nu, a, b, c, schedule=None):
    """I(a,b,c) = int_0^inf u^(1-mu) J_mu(a u) J_nu(b u) J_nu(c u) du.

    Vanishes for a^2 < (b - c)^2 although the boundary interval a is
    timelike there.  Evaluated by Hankel splitting and contour rotation
    (quadrature._bessel_product).  `schedule` is ignored: the benchmark's
    locality workload passes one positionally, and the slot goes with the
    next change to the benchmark.
    """
    if not _finite_positive(a, b, c):
        raise DomainError("bonus_locality requires finite positive a, b, c")
    return _bessel_product(1.0 - mu, ((mu, a), (_nu(nu), b), (_nu(nu), c)))


def ads_commutator(spec, z, zp, dx):
    """Bulk commutator (1/2) z z' int dm^2 J_nu(zm) J_nu(z'm) Delta_m(dx).

    gff_commutator of the Bessel weights h_z, h_z': zero at spacelike dx,
    the triple-Bessel integral z z' I(tau, z, z') at timelike dx.  Points
    inside the 5% guard band around the AdS light cone tau^2 = (z - z')^2
    raise a proximity error.
    """
    if not (_finite_positive(z, zp) and dx.d == 2):
        raise DomainError("ads_commutator requires finite z, zp > 0 and a "
                          "d = 2 dx")
    thresh = (z - zp) ** 2
    if thresh > 0 and abs(dx.square() - thresh) < 0.05 * thresh:
        raise LightConeProximityError(
            "dx^2 within the guard band around the AdS light cone")
    return gff_commutator(spec.weight(z), spec.weight(zp), dx)


# ---------------------------------------------------------------------------
# mass-change kernel

def mass_change_kernel_check(nu, nup, z, m):
    """Check int z' dz' K_{nu nu'}(z,z') h'_{z'}(m^2) = h_z(m^2).

    The composition is int m' dm' J_nu(z m') A_eps(m') with the inner
    Gaussian-damped transform A_eps(m') = int z' dz' J_nu'(z'm') J_nu'(z'm)
    exp(-eps^2 z'^2 / 2) -> delta(m' - m)/m; the eps -> 0 limit is taken by
    polynomial extrapolation in eps^2 over eps = 0.2, 0.1, 0.05, 0.025.
    Returns the relative deviation of the composed value from the direct
    h_z(m^2) as a Correlator whose error estimate is the extrapolation's
    spread (the change of its last column) in the same units.
    """
    nu_f = _nu(nu)
    nup_f = _nu(nup)
    if z <= 0 or m <= 0:
        raise DomainError("mass_change_kernel_check requires z, m > 0")
    eps_list = (0.2, 0.1, 0.05, 0.025)

    vals = []
    for eps in eps_list:
        lo = max(1e-8, m - 12.0 * eps)
        hi = m + 12.0 * eps
        mp, wmp = _gauss_legendre(80, lo, hi)
        # inner z'-integral, vectorized over the m' window
        zmax = math.sqrt(2.0 * 40.0) / eps
        nz = int(max(400, 8 * zmax * max(m, mp.max()) / math.pi))
        zq, wzq = _gauss_legendre(min(nz, 12000), 0.0, zmax)
        damp = np.exp(-0.5 * eps ** 2 * zq ** 2)
        inner = (wzq * zq * damp * bessel_j(nup_f, zq * m)) @ \
            bessel_j(nup_f, np.outer(zq, mp))
        vals.append(float(np.sum(wmp * mp * bessel_j(nu_f, z * mp) * inner)))

    eps2 = [e ** 2 for e in eps_list]
    limit, spread = neville_zero(eps2, vals, len(eps_list) - 1)
    composed = (1.0 / math.sqrt(2.0)) * z * limit.real
    direct = (1.0 / math.sqrt(2.0)) * z * bessel_j(nu_f, z * m)
    return Correlator(abs(composed - direct) / abs(direct),
                      (1.0 / math.sqrt(2.0)) * z * spread / abs(direct))
