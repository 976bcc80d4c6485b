"""Two-point and commutator functions of mass-superposed free fields.

All position-space functions use the closed Bessel-K form of the fixed-mass
Wightman function with the complexified invariant
    sigma_eps = |vec x|^2 - (x^0 - i eps)^2,
principal square root.  The commutator at timelike separation tau is
    Delta_m(x) = -i pi (2 pi)^(-d/2) sgn(x^0) (m/tau)^((d-2)/2) J_{(2-d)/2}(m tau),
a constant pinned by the eps -> 0 extrapolation of the Wightman difference
(the correlators.commutator_eps_limit record of `gffads verify`).  Their
error estimates come from the conditioning of K and J at the argument.
The i-epsilon regulator of every Wightman function is EPSILON unless the
caller passes its own.  Every mass integral int dm^2 rho(m^2) W_m(x)
(gff2pt, kallen_lehmann_2pt, and through gff2pt the AdS two-point
function) runs on one route, _mass_integral: adaptive GK15 on m = t^2 from
six equal panels, a bisection check of the panel at m = 0, and, for
gff2pt, a bound on the tail beyond the mass cutoff.  The commutator of two
weights, gff_commutator, takes weights with a bessel_form only: its mass
integral is then a Bessel product, taken on the rotated contour of
quadrature.
Momentum-space smearing works on the d = 2 forward cone in lightcone
coordinates k+- > 0 with d^2 k = (1/2) dk+ dk-.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LightConeProximityError
from .quadrature import (_bessel_product, _endpoint_checked, _gauss_legendre,
                         _laguerre_table, adaptive_finite, neville_zero)
from .spacetime import MinkVector
from .specfun import bessel_j, kv_complex

__all__ = ["EPSILON", "WeightFunction", "Power", "BesselZ", "Tabulated",
           "ScaledWeight", "MassWeight", "Smearing", "GaussianPacket",
           "Correlator", "norm_const", "wightman_kg",
           "wightman_kg_momentum_oracle", "commutator_kg", "commutator_kg_eps",
           "default_cutoff", "gff2pt", "kallen_lehmann_2pt", "gff_commutator",
           "smeared2pt", "lightcone_grid_nodes"]


# the i-epsilon regulator of the Wightman functions, in the units of x
EPSILON = 1e-3


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


class Power(WeightFunction):
    """h(m^2) = m^nu, the homogeneous weight of the scaling-covariant field."""

    def __init__(self, nu):
        self.nu = float(nu)
        if not math.isfinite(self.nu):
            raise DomainError(f"Power weight needs a finite nu, got {nu!r}")
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
        if not (np.all(np.isfinite(self.m2_grid))
                and np.all(np.isfinite(self.values))):
            raise DomainError("Tabulated m^2 and h entries must be finite")
        if np.any(np.diff(self.m2_grid) <= 0):
            raise DomainError("Tabulated m^2 grid must be increasing")

    @classmethod
    def from_file(cls, path):
        """Two whitespace-separated columns (m^2, h); '#' starts a comment."""
        with open(path) as fh:
            rows = [line for line in fh if line.partition("#")[0].strip()]
        if not rows:
            raise DomainError("weight table has no rows")
        data = np.loadtxt(rows, comments="#", ndmin=2)
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


@dataclass(frozen=True)
class MassWeight:
    """Kallen-Lehmann measure d rho(m^2): a density on a finite support
    interval (lo, hi) inside R_+."""

    density: object
    support: tuple

    def __post_init__(self):
        lo, hi = self.support
        if not (0 <= lo < hi < math.inf):
            raise DomainError("support must be a finite interval inside R_+")


def _exponent(g, k0, k1):
    """log of the Gaussian factor of fhat / A, for the diagonal Gaussian
    g = (A, s2, kappa, c) at the upper momentum components (k0, k1)."""
    _, (s0, s1), (p0, p1), (c0, c1) = g
    d0, d1 = k0 - p0, k1 - p1
    return -0.5 * (s0 * d0 * d0 + s1 * d1 * d1) + 1j * (c0 * d0 - c1 * d1)


def _polyval(p, k0, k1):
    """A smearing's prefactor p = {(i, j): c} at (k0, k1): the sum of
    c k0^i k1^j over its terms."""
    first, *rest = (math.prod((k0,) * i + (k1,) * j, start=c)
                    for (i, j), c in p.items())
    return sum(rest, first)


class Smearing:
    """A d = 2 test function f whose transform fhat(k) = int d^2x f(x)
    exp(i k.x) (Minkowski phase) is a polynomial times a diagonal Gaussian,

        fhat(k) = p(k^0, k^1) A exp(-(1/2) sum_mu s2_mu (k^mu - kappa^mu)^2
                                    + i (c_0 (k^0 - kappa^0)
                                         - c_1 (k^1 - kappa^1))).

    gaussian is (A, s2, kappa, c), and prefactor the table {(i, j): c} of
    p, the sum of c (k^0)^i (k^1)^j: {(0, 0): 1} for a plain Gaussian.
    fourier, fourier_lc and reach read this one form, and the stress-tensor
    kernels build their integrands from it.
    """

    prefactor = {(0, 0): 1.0}  # a plain Gaussian's

    def __init__(self, gaussian, prefactor):
        self.gaussian, self.prefactor = gaussian, prefactor

    def fourier(self, k0, k1):
        """fhat at the upper momentum components (k0, k1)."""
        k0, k1 = np.asarray(k0), np.asarray(k1)
        g = self.gaussian
        return _polyval(self.prefactor, k0, k1) * g[0] * \
            np.exp(_exponent(g, k0, k1))

    def fourier_lc(self, kp, km):
        """fhat on the d = 2 cone in lightcone coordinates k+- = k^0 +- k^1."""
        kp, km = np.asarray(kp), np.asarray(km)
        return self.fourier(0.5 * (kp + km), 0.5 * (kp - km))

    @property
    def reach(self):
        """Momentum radius beyond which fhat is negligible."""
        _, s2, kappa, _ = self.gaussian
        return abs(kappa[0]) + abs(kappa[1]) + 10.0 / math.sqrt(min(s2))


@dataclass(frozen=True)
class GaussianPacket(Smearing):
    """Gaussian test function exp(-|x - c|_E^2 / 2 sigma^2) exp(-i k0 . x)
    in d = 2: fhat is the Gaussian of width 1/sigma centred at the carrier
    k0, with phase from the center c."""

    center: MinkVector
    width: float
    carrier: MinkVector

    def __post_init__(self):
        if not self.width > 0:
            raise DomainError("packet width must be positive")
        if self.center.d != 2 or self.carrier.d != 2:
            raise DomainError("GaussianPacket is a d = 2 test function")

    def __call__(self, x0, x1):
        """Position-space value at the coordinate arrays (x0, x1)."""
        (c0, c1), (p0, p1) = self.center.components, self.carrier.components
        x0, x1 = np.asarray(x0), np.asarray(x1)
        return np.exp(-((x0 - c0) ** 2 + (x1 - c1) ** 2)
                      / (2.0 * self.width ** 2) - 1j * (p0 * x0 - p1 * x1))

    @property
    def gaussian(self):
        s2 = self.width ** 2
        return (2.0 * np.pi * s2, (s2, s2), self.carrier.components,
                self.center.components)


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


def wightman_kg(m, x, epsilon=EPSILON):
    """Wightman function W_m(x) of the mass-m Klein-Gordon field."""
    if not (0 < m < math.inf and 0 < epsilon < math.inf):
        raise DomainError("wightman_kg requires finite m > 0 and epsilon > 0")
    sigma = _sigma_eps(x, epsilon)
    val = complex(_wightman_closed(m, sigma, x.d))
    # dW_d / dsigma = -pi W_(d+2)
    slope = abs(_wightman_closed(m, sigma, x.d + 2))
    return Correlator(val, _closed_form_error(
        val, slope, float(np.dot(x.array, x.array)) + epsilon ** 2))


def _closed_form_error(value, slope, squares):
    """Error estimate of a closed Bessel form at the invariant s (sigma or
    x^2), given |d value / ds| / pi: 16 eps |value| for the Bessel
    evaluation, plus twice the change under the rounding of s, which as a
    difference of squares carries about 2 eps times their sum.  The tests
    hold it against 30-digit mpmath values of K and J."""
    eps = np.finfo(float).eps
    return eps * (16.0 * abs(value) + 4.0 * np.pi * squares * slope)


def _wightman_closed(m, sigma, d):
    """(2 pi)^(-d/2) (m / r)^((d-2)/2) K_{(d-2)/2}(m r), r = sqrt(sigma).

    At d = 2 the power is (m / r)^0 = 1 + 0i exactly, and it is left out:
    the real constant times 1 + 0i is the constant itself.
    """
    r = np.sqrt(complex(sigma))
    if not r.real > 0:
        raise DomainError("iepsilon prescription needs Re sqrt(sigma) > 0")
    nu = 0.5 * (d - 2)
    const = (2.0 * np.pi) ** (-d / 2.0)
    if nu:
        const = const * (m / r) ** nu
    return const * kv_complex(nu, m * r)


def wightman_kg_momentum_oracle(m, x, epsilon=EPSILON):
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
    val = complex(const * (m / tau) ** nu * bessel_j(-nu, m * tau))
    # dDelta_d / d(x^2) = pi Delta_(d+2), and Delta_(d+2) carries
    # const / (2 pi)
    slope = abs(const) / (2.0 * np.pi) * (m / tau) ** (nu + 1.0) * \
        abs(bessel_j(-nu - 1.0, m * tau))
    return Correlator(val, _closed_form_error(
        val, slope, float(np.dot(x.array, x.array))))


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


def _mass_integral(density, x, epsilon, lo, hi, tail):
    """int_lo^hi dm^2 density(m^2) W_m(x) as a Correlator, plus a bound on
    the integral beyond hi in the estimate when tail is set.

    The integrand F(m) = 2 m density(m^2) W_m(x) is taken on m = t^2 by
    adaptive GK15 from t = lo^(1/4) to hi^(1/4), starting from six equal
    panels in one integrand call; GK15 nodes are interior to their panel,
    so m = 0 is never evaluated.  Near m = 0, where W_m goes like log m, the
    integrand in t goes like t^b log t, and GK15's own estimate of the panel
    at the lower end can fall short, so that panel is bisected once more
    (quadrature._endpoint_checked; its bound holds for b >= 0: density no
    more singular than m^(-3/2) at m = 0).  The estimate carries
    adaptive_finite's rounding floor, 50 eps sum |panel value|.

    The tail beyond M = sqrt(hi) is bounded by |F(M)| / lambda, with
    lambda = -d log|F| / dm read from F at M and 1.01 M in one call.  For
    F ~ C m^a exp(-m r), the large-argument form of K, that is the
    incomplete-gamma bound.  An integrand that does not decay there
    (lambda <= 0) adds |F(M)| M instead.  gff2pt, the one caller that sets
    tail, cuts at default_cutoff(x), which exists at spacelike x only.
    """
    sigma = _sigma_eps(x, epsilon)
    d = x.d

    def f(m):
        return 2.0 * m * np.asarray(density(m * m)) * \
            _wightman_closed(m, sigma, d)

    res = _endpoint_checked(lambda t: 2.0 * t * f(t * t), lo ** 0.25,
                            hi ** 0.25)
    err = res.error_estimate
    if tail:
        mmax = math.sqrt(hi)
        fm, fm2 = np.abs(f(mmax * np.array([1.0, 1.01]))).tolist()
        decay = math.log(fm / fm2) / (0.01 * mmax) \
            if 0.0 < fm2 < fm else 0.0
        err += fm / decay if decay > 0.0 else fm * mmax
    return Correlator(res.value, err)


def gff2pt(h1, h2, x, epsilon=EPSILON):
    """2-point function int_0^inf dm^2 h1(m^2) h2(m^2) W_m(x), spacelike x.

    The mass integral runs on m = t^2 up to default_cutoff(x) (see
    _mass_integral); its estimate adds a bound on the integral beyond it.
    A measure on a finite mass range is a MassWeight for kallen_lehmann_2pt.
    """
    def density(m2):
        w = np.asarray(h1(m2))
        # one weight call when the two weights are one object
        return w * (w if h2 is h1 else np.asarray(h2(m2)))

    return _mass_integral(density, x, epsilon, 0.0, default_cutoff(x),
                          tail=True)


def kallen_lehmann_2pt(rho, x):
    """Superposition int d rho(m^2) W_m(x) for a MassWeight measure.

    The Kallen-Lehmann form of gff2pt's route (d rho = h1 h2 dm^2 there):
    the density on the same mass integral over the measure's finite
    support, as given, with no tail.  A density on all masses is gff2pt's.
    """
    lo, hi = rho.support
    return _mass_integral(rho.density, x, EPSILON, lo, hi, tail=False)


def gff_commutator(h1, h2, x):
    """Commutator int dm^2 h1 h2 Delta_m(x); zero at spacelike separation.

    With dm^2 = 2m dm and Delta_m = c (m/tau)^nu J_(-nu)(m tau),
    nu = (d - 2)/2, two weights with a bessel_form make the integrand a
    Bessel product c' m^p prod_i J_(nu_i)(k_i m), taken on the rotated
    contour (quadrature._bessel_product).  Away from spacelike separation a
    weight without a bessel_form raises DomainError.
    """
    if (pre := _commutator_prefactor(x)) is None:
        return Correlator(0.0, 0.0)
    for h in (h1, h2):
        if getattr(h, "bessel_form", None) is None:
            raise DomainError(f"gff_commutator needs weights with a "
                              f"bessel_form; {type(h).__name__} has none")
    tau, const = pre
    nu = 0.5 * (x.d - 2)
    (c1, p1, f1), (c2, p2, f2) = h1.bessel_form, h2.bessel_form
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

