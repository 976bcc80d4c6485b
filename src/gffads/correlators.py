"""Two-point and commutator functions of mass-superposed free fields.

All position-space functions use the closed Bessel-K form of the fixed-mass
Wightman function with the complexified invariant
    sigma_eps = |vec x|^2 - (x^0 - i eps)^2,
principal square root.  The commutator at timelike separation tau is
    Delta_m(x) = -i pi (2 pi)^(-d/2) sgn(x^0) (m/tau)^((d-2)/2) J_{(2-d)/2}(m tau),
a constant pinned by the eps -> 0 extrapolation of the Wightman difference
(see tests).  Momentum-space smearing works on the d = 2 forward cone in
lightcone coordinates k+- > 0 with d^2 k = (1/2) dk+ dk-.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .quadrature import (_bessel_product, _doubling, _gauss_legendre,
                         _laguerre_table, adaptive_finite, neville_zero)
from .spacetime import MinkVector
from .specfun import bessel_j, kv_complex

__all__ = ["WeightFunction", "One", "Polynomial", "Power", "BesselZ",
           "Tabulated", "ScaledWeight", "MassWeight", "GaussianPacket",
           "Correlator", "DeltaDiagonalWeight", "norm_const", "wightman_kg",
           "wightman_kg_momentum_oracle", "commutator_kg", "commutator_kg_eps",
           "default_cutoff", "gff2pt", "kallen_lehmann_2pt", "gff_commutator",
           "smeared2pt", "wick2pt", "scaling_covariance_check",
           "lightcone_grid_nodes"]


def norm_const(d):
    """The (2 pi)^-(d-1) mode normalization shared by all momentum integrals."""
    return (2.0 * np.pi) ** (-(d - 1))


# ---------------------------------------------------------------------------
# weight functions h(m^2)

class WeightFunction:
    """Base class: a polynomially bounded real function of m^2 on R_+.

    bessel_form is (c, p, ((nu_1, k_1), ...)) for a weight
    h(m^2) = c m^p prod_i J_(nu_i)(k_i m), and None for any other weight.
    """

    bessel_form = None

    def __call__(self, m2):
        raise NotImplementedError


class One(WeightFunction):
    bessel_form = (1.0, 0.0, ())

    def __call__(self, m2):
        return np.ones_like(np.asarray(m2, dtype=float))


class Polynomial(WeightFunction):
    """Polynomial in m^2 with the given coefficients (constant term first)."""

    def __init__(self, coefficients):
        self.coefficients = tuple(float(c) for c in coefficients)

    def __call__(self, m2):
        m2 = np.asarray(m2, dtype=float)
        out = np.zeros_like(m2)
        for c in reversed(self.coefficients):
            out = out * m2 + c
        return out


class Power(WeightFunction):
    """h(m^2) = m^nu, the homogeneous weight of the scaling-covariant field."""

    def __init__(self, nu):
        self.nu = float(nu)
        self.bessel_form = (1.0, self.nu, ())

    def __call__(self, m2):
        m2 = np.asarray(m2, dtype=float)
        return m2 ** (self.nu / 2.0)


class BesselZ(WeightFunction):
    """h_z(m^2) = 2^(-1/2) z J_nu(z m): the AdS_3 bulk field at depth z."""

    def __init__(self, z, order):
        if z <= 0:
            raise DomainError("BesselZ requires z > 0")
        self.z = float(z)
        self.order = order
        self.bessel_form = (self.z / math.sqrt(2.0), 0.0, ((order, self.z),))

    def __call__(self, m2):
        m = np.sqrt(np.asarray(m2, dtype=float))
        return self.z / math.sqrt(2.0) * bessel_j(self.order, self.z * m)


class Tabulated(WeightFunction):
    """Linear interpolation of a sampled (m^2, h) table; zero outside."""

    def __init__(self, m2_grid, values):
        self.m2_grid = np.asarray(m2_grid, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.m2_grid.ndim != 1 or self.m2_grid.shape != self.values.shape:
            raise DomainError("Tabulated needs matching 1-d grids")
        if np.any(np.diff(self.m2_grid) <= 0):
            raise DomainError("Tabulated m^2 grid must be increasing")

    @classmethod
    def from_file(cls, path):
        """Two whitespace-separated columns (m^2, h); '#' starts a comment."""
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.shape[1] != 2:
            raise DomainError("weight table must have exactly two columns")
        return cls(data[:, 0], data[:, 1])

    def __call__(self, m2):
        m2 = np.asarray(m2, dtype=float)
        return np.interp(m2, self.m2_grid, self.values, left=0.0, right=0.0)


class ScaledWeight(WeightFunction):
    """h_lambda(m^2) = lambda^(d/2) h(lambda^2 m^2) (dilation action on h)."""

    def __init__(self, base, lam, d=2):
        if lam <= 0:
            raise DomainError("scale parameter must be positive")
        self.base = base
        self.lam = float(lam)
        self.d = int(d)
        if (form := getattr(base, "bessel_form", None)) is not None:
            c, p, factors = form
            self.bessel_form = (c * self.lam ** (0.5 * self.d + p), p,
                                tuple((o, k * self.lam) for o, k in factors))

    def __call__(self, m2):
        return self.lam ** (self.d / 2.0) * \
            self.base(self.lam ** 2 * np.asarray(m2, dtype=float))


class DeltaDiagonalWeight:
    """Sentinel for the non-square-integrable weight delta(m1^2 - m2^2)."""


@dataclass(frozen=True)
class MassWeight:
    """Kallen-Lehmann measure d rho(m^2): density on a support interval plus
    optional point masses [(m^2, weight), ...]."""

    density: object
    support: tuple = (0.0, np.inf)
    point_masses: tuple = ()

    def __post_init__(self):
        lo, hi = self.support
        if not (0 <= lo < hi):
            raise DomainError("support must be an interval inside R_+")
        if any(w < 0 for _, w in self.point_masses):
            raise DomainError("point masses must be non-negative")


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian test function exp(-|x - c|_E^2 / 2 sigma^2) exp(-i k0 . x).

    The Fourier transform fhat(k) = int d^dx f(x) exp(i k.x) (Minkowski phase)
    is the closed-form Gaussian centred at the carrier k0.
    """

    center: MinkVector
    width: float
    carrier: MinkVector

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError("packet width must be positive")
        if self.center.d != self.carrier.d:
            raise DomainError("center and carrier dimensions differ")

    @property
    def d(self):
        return self.center.d

    def __call__(self, *xs):
        """Position-space value; xs are the d coordinate arrays."""
        c = self.center.components
        k0 = self.carrier.components
        expo = sum((np.asarray(x) - ci) ** 2 for x, ci in zip(xs, c))
        phase = k0[0] * np.asarray(xs[0]) - sum(
            k0[i] * np.asarray(xs[i]) for i in range(1, self.d))
        return np.exp(-expo / (2.0 * self.width ** 2)) * np.exp(-1j * phase)

    def fourier(self, *ks):
        """fhat at momentum components ks (contravariant k^mu arrays)."""
        sig = self.width
        c = self.center.components
        k0 = self.carrier.components
        q = [np.asarray(k) - k0i for k, k0i in zip(ks, k0)]
        gauss = np.exp(-0.5 * sig ** 2 * sum(qi ** 2 for qi in q))
        phase = q[0] * c[0] - sum(q[i] * c[i] for i in range(1, self.d))
        return (2.0 * np.pi) ** (self.d / 2.0) * sig ** self.d * \
            np.exp(1j * phase) * gauss

    @property
    def gaussian(self):
        """fhat in d = 2 as the diagonal Gaussian (A, s2, kappa, c) of

            fhat(k) = A exp(-(1/2) sum_mu s2_mu (k^mu - kappa^mu)^2
                            + i (c_0 (k^0 - kappa^0) - c_1 (k^1 - kappa^1))),

        the form the stress-tensor kernels build their integrands from."""
        if self.d != 2:
            raise DomainError("the Gaussian form is for d = 2 packets")
        s2 = self.width ** 2
        return (2.0 * np.pi * s2, (s2, s2), self.carrier.components,
                self.center.components)

    def fourier_lc(self, kp, km):
        """fhat on the d = 2 cone in lightcone coordinates k+- = k^0 +- k^1."""
        kp, km = np.asarray(kp), np.asarray(km)
        return self.fourier(0.5 * (kp + km), 0.5 * (kp - km))

    @property
    def reach(self):
        """Momentum radius beyond which fhat is negligible."""
        k0 = self.carrier.components
        return abs(k0[0]) + sum(abs(c) for c in k0[1:]) + 10.0 / self.width


def _lower(k):
    """Lower components (k_0, k_1) from lightcone (k+, k-) arrays."""
    kp, km = k
    return (0.5 * (kp + km), -0.5 * (kp - km))


@dataclass(frozen=True)
class Correlator:
    value: complex
    error_estimate: float

    def __post_init__(self):
        if self.error_estimate < 0:
            raise DomainError("error_estimate must be >= 0")


# ---------------------------------------------------------------------------
# fixed-mass building blocks

def _sigma_eps(x, epsilon):
    comps = x.array
    return float(np.dot(comps[1:], comps[1:])) - (comps[0] - 1j * epsilon) ** 2


def wightman_kg(m, x, epsilon=1e-3):
    """Wightman function W_m(x) of the mass-m Klein-Gordon field."""
    if m <= 0 or epsilon <= 0:
        raise DomainError("wightman_kg requires m > 0 and epsilon > 0")
    val = _wightman_closed(np.asarray(m, dtype=float), _sigma_eps(x, epsilon),
                           x.d)
    return Correlator(complex(val), 1e-14 * abs(complex(val)))


def _wightman_closed(m, sigma, d):
    """(2 pi)^(-d/2) (m / r)^((d-2)/2) K_{(d-2)/2}(m r), r = sqrt(sigma)."""
    r = np.sqrt(complex(sigma))
    if r.real <= 0:
        raise DomainError("iepsilon prescription needs Re sqrt(sigma) > 0")
    nu = 0.5 * (d - 2)
    return (2.0 * np.pi) ** (-d / 2.0) * (m / r) ** nu * kv_complex(nu, m * r)


def wightman_kg_momentum_oracle(m, x, epsilon=1e-3):
    """Direct d = 2 momentum integral (1/2pi) int dk e^{-i w t + i k x} / (2 w).

    Brute-force oracle for the closed form.  On the half-line sgn k = s the
    integrand is e^(i k v) G(k) with v = s x^1 - t + i eps and
    G(k) = e^(-i (w - k)(t - i eps)) / (2 w), smooth and O(1/k).  It is
    taken by adaptive GK15 on [0, U], U = 4 pi / |v| + m, and beyond U along
    the ray U + i conj(v) r / |v|, on which e^(i k v) = e^(i U v - |v| r),
    by Gauss-Laguerre in |v| r.  The ray keeps Re k >= U, clear of the
    branch points +-im of w.  The error estimate adds the head's GK15
    estimate and the change of the ray under 30 instead of 60 nodes.
    """
    t, x1 = x.components
    tc = t - 1j * epsilon
    total, err = 0.0j, 0.0
    for sgn in (1.0, -1.0):
        v = sgn * x1 - tc
        split = 4.0 * np.pi / abs(v) + m

        def integrand(k):
            w = np.sqrt(k * k + m * m)
            return np.exp(-1j * w * tc + 1j * sgn * k * x1) / (2.0 * w)

        def ray(n):
            r, wr = _laguerre_table(n)
            step = 1j * np.conj(v) / abs(v) ** 2
            k = split + step * r
            w = np.sqrt(k * k + m * m)
            return np.exp(1j * split * v) * step * \
                np.dot(wr, np.exp(-1j * (w - k) * tc) / (2.0 * w))

        head = adaptive_finite(integrand, 0.0, split)
        tail = ray(60)
        total += head.value + tail
        err += head.error_estimate + abs(tail - ray(30))
    return Correlator(total / (2.0 * np.pi), err / (2.0 * np.pi))


def _commutator_prefactor(x):
    """(tau, c) of the commutator functions at x: tau = sqrt(x^2) and
    c = -i pi (2 pi)^(-d/2) sign(x^0).  None at spacelike x, where every
    commutator vanishes exactly; on the light cone a DomainError."""
    s = x.square()
    if s < 0:
        return None
    if s == 0:
        raise DomainError("commutator undefined on the light cone")
    sign = 1.0 if x.components[0] > 0 else -1.0
    return math.sqrt(s), -1j * np.pi * (2.0 * np.pi) ** (-x.d / 2.0) * sign


def commutator_kg(m, x):
    """Commutator function Delta_m(x); exactly zero at spacelike separation."""
    if m <= 0:
        raise DomainError("commutator_kg requires m > 0")
    if (pre := _commutator_prefactor(x)) is None:
        return Correlator(0.0, 0.0)
    tau, const = pre
    nu = 0.5 * (x.d - 2)
    val = const * (m / tau) ** nu * bessel_j(-nu, m * tau)
    return Correlator(complex(val), 1e-13 * abs(complex(val)))


def commutator_kg_eps(m, x):
    """Delta_m(x) as the eps -> 0 extrapolation of W_m(x) - W_m(-x).

    Independent of the closed Bessel form; pins its constant.  Raises
    LightConeProximityError when the extrapolation does not settle.
    """
    s = x.square()
    scale = math.sqrt(abs(s)) if s != 0 else 1.0
    eps_list = [f * scale for f in (4e-3, 2e-3, 1e-3, 5e-4)]
    vals = [wightman_kg(m, x, e).value - wightman_kg(m, -x, e).value
            for e in eps_list]
    val, spread = neville_zero(eps_list, vals, len(eps_list) - 1)
    from .errors import LightConeProximityError
    if spread > 1e-4 * max(1.0, abs(val)):
        raise LightConeProximityError(
            "eps extrapolation of the commutator did not converge")
    return Correlator(val, spread)


# ---------------------------------------------------------------------------
# mass superpositions

def default_cutoff(x):
    """Mass cutoff (in m^2) for spacelike x: m_max * distance = 35."""
    s = x.square()
    if s >= 0:
        raise DomainError("default_cutoff needs spacelike x")
    return (35.0 / math.sqrt(-s)) ** 2


def gff2pt(h1, h2, x, epsilon=1e-3, cutoff=None):
    """2-point function int_0^cutoff dm^2 h1(m^2) h2(m^2) W_m(x)."""
    d = x.d
    s = x.square()
    if cutoff is None:
        cutoff = default_cutoff(x)
    sigma = _sigma_eps(x, epsilon)
    mmax = math.sqrt(cutoff)

    def integrand(m):
        m = np.asarray(m, dtype=float)
        return 2.0 * m * np.asarray(h1(m ** 2)) * np.asarray(h2(m ** 2)) * \
            _wightman_closed(m, sigma, d)

    res = adaptive_finite(integrand, 1e-10, mmax)
    tail_scale = abs(complex(np.asarray(integrand(np.array([mmax])))[0]))
    if s < 0:
        # K_nu tail decays like exp(-m r): one decay length beyond the cutoff
        tail = tail_scale / math.sqrt(-s)
    else:
        # timelike: no decay, report a degraded estimate instead of failing
        tail = tail_scale * mmax
    return Correlator(res.value, res.error_estimate + tail)


def kallen_lehmann_2pt(rho, x):
    """Superposition int d rho(m^2) W_m(x) for a MassWeight measure.

    Second code path for the consistency check against gff2pt with
    d rho = h^2 dm^2.
    """
    d = x.d
    sigma = _sigma_eps(x, 1e-3)
    lo, hi = rho.support
    if not np.isfinite(hi):
        if x.square() >= 0:
            raise DomainError("infinite support needs spacelike x")
        hi = default_cutoff(x)

    def integrand(m):
        m = np.asarray(m, dtype=float)
        return 2.0 * m * np.asarray(rho.density(m ** 2)) * \
            _wightman_closed(m, sigma, d)

    res = adaptive_finite(integrand, math.sqrt(lo) + 1e-10, math.sqrt(hi))
    total = res.value
    for m2, w in rho.point_masses:
        total = total + w * _wightman_closed(math.sqrt(m2), sigma, d)
    return Correlator(total, res.error_estimate)


def gff_commutator(h1, h2, x):
    """Commutator int dm^2 h1 h2 Delta_m(x); zero at spacelike separation.

    With dm^2 = 2m dm and Delta_m = c (m/tau)^nu J_(-nu)(m tau),
    nu = (d - 2)/2, two weights with a bessel_form make the integrand a
    Bessel product c' m^p prod_i J_(nu_i)(k_i m), taken on the rotated
    contour (quadrature._bessel_product).  Any other weight must decay: its
    integral is taken on doubling intervals from L = 4 pi / tau, and a
    weight with neither form nor decay raises DivergenceError.
    """
    if (pre := _commutator_prefactor(x)) is None:
        return Correlator(0.0, 0.0)
    tau, const = pre
    nu = 0.5 * (x.d - 2)

    def f(m):
        m = np.asarray(m, dtype=float)
        mm = np.where(m > 0, m, 1.0)
        val = 2.0 * mm * np.asarray(h1(mm ** 2)) * np.asarray(h2(mm ** 2)) * \
            (mm / tau) ** nu * bessel_j(-nu, mm * tau)
        return np.where(m > 0, val, 0.0)

    forms = [getattr(h, "bessel_form", None) for h in (h1, h2)]
    if None in forms:
        res = _doubling(f, 4.0 * np.pi / tau, "gff_commutator")
    else:
        (c1, p1, f1), (c2, p2, f2) = forms
        res = _bessel_product(1.0 + nu + p1 + p2, ((-nu, tau),) + f1 + f2)
        const = const * 2.0 * tau ** -nu * c1 * c2
    return Correlator(const * res.value, abs(const) * res.error_estimate)


# ---------------------------------------------------------------------------
# momentum-space smearing on the d = 2 forward cone

def lightcone_grid_nodes(n, kmax):
    """Gauss-Legendre nodes/weights for int_0^kmax dk with the k = t^4 map.

    The quartic map clusters nodes at the cone boundary where weights like
    (k^2)^(nu/2) have fractional-power behaviour.
    """
    t, w = _gauss_legendre(n, 0.0, kmax ** 0.25)
    return t ** 4, 4.0 * t ** 3 * w


def smeared2pt(h1, f1, h2, f2, n_nodes=120, epsilon=0.0):
    """(2 pi)^-1 int_{V+} d^2k h1 h2 conj(fhat1) fhat2 on the d = 2 cone.

    A nonzero epsilon inserts the damping e^{-eps k^0} matching the
    i-epsilon prescription of the position-space route.
    """
    kmax = 2.0 * max(f1.reach, f2.reach)

    def on_grid(n):
        k, w = lightcone_grid_nodes(n, kmax)
        kp, km = k[:, None], k[None, :]
        m2 = kp * km
        vals = np.asarray(h1(m2)) * np.asarray(h2(m2)) * \
            np.conj(f1.fourier_lc(kp, km)) * f2.fourier_lc(kp, km)
        if epsilon:
            vals = vals * np.exp(-epsilon * 0.5 * (kp + km))
        return 0.5 * norm_const(2) * np.sum(w[:, None] * w[None, :] * vals)

    value = on_grid(n_nodes)
    value_half = on_grid(n_nodes // 2)
    return Correlator(complex(value), abs(value - value_half))


def wick2pt(h, x, cutoff=None):
    """2-point function of the generalized Wick square with weight h(m1^2, m2^2):

        2 int dm1^2 dm2^2 h^2 W_m1(x) W_m2(x).

    h must be a symmetric callable; the singular diagonal delta weight is
    rejected with a DivergenceError (see the vacuum-fluctuation diagnostic).
    The value is taken on a 160-node Gauss-Legendre grid in each mass; the
    error estimate is its change from the 80-node grid.
    """
    if isinstance(h, DeltaDiagonalWeight):
        raise DivergenceError(
            "delta(m1^2 - m2^2) weight is not square integrable: the vacuum "
            "fluctuation diverges; run the mollified cutoff scan "
            "(stress.vacuum_fluctuation_divergence) for the diagnostic")
    if cutoff is None:
        cutoff = default_cutoff(x)
    sigma = _sigma_eps(x, 1e-3)

    def on_grid(n):
        m, wm = _gauss_legendre(n, 0.0, math.sqrt(cutoff))
        wvals = _wightman_closed(m, sigma, x.d)
        m1sq = (m ** 2)[:, None]
        m2sq = (m ** 2)[None, :]
        hh = np.asarray(h(m1sq, m2sq))
        jac = (2.0 * m * wm)[:, None] * (2.0 * m * wm)[None, :]
        return 2.0 * np.sum(jac * hh ** 2 * wvals[:, None] * wvals[None, :])

    value = on_grid(160)
    value_half = on_grid(80)
    return Correlator(complex(value), abs(value - value_half))


def scaling_covariance_check(h, lam, x):
    """Check gff2pt(h, h, x / lambda) = gff2pt(h_lambda, h_lambda, x).

    The dilation acts on weights as h_lambda(m^2) = lambda^(d/2) h(lambda^2 m^2),
    which compresses the mass spectrum by 1/lambda and therefore matches the
    two-point function at the contracted point x / lambda; the i-epsilon
    regulator scales along with the point.
    """
    if lam <= 0:
        raise DomainError("lambda must be positive")
    left = gff2pt(h, h, x.scale(1.0 / lam), epsilon=1e-3 / lam)
    hl = ScaledWeight(h, lam, x.d)
    right = gff2pt(hl, hl, x)
    disc = abs(left.value - right.value)
    return {
        "left": left,
        "right": right,
        "discrepancy": disc,
        "combined_error": left.error_estimate + right.error_estimate,
        "pass": disc <= max(left.error_estimate + right.error_estimate,
                            1e-10 * max(abs(left.value), abs(right.value), 1e-30)),
    }
