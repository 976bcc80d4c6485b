import heapq
import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from gffads.correlators import (EPSILON, BesselZ, Correlator, GaussianPacket,
                                MassWeight, Power, ScaledWeight, Tabulated,
                                _closed_form_error,
                                commutator_kg, commutator_kg_eps,
                                default_cutoff, gff2pt, gff_commutator,
                                kallen_lehmann_2pt, norm_const, smeared2pt,
                                wightman_kg, wightman_kg_momentum_oracle)
from gffads.errors import DomainError
from gffads.quadrature import _WG, _WK, _XK
from gffads.spacetime import MinkVector
from gffads.specfun import Order, bessel_k

from conftest import rel_err
from test_quadrature import GFF2PT_POINTS


def linear(c0, c1):
    """The weight h(m^2) = c0 + c1 m^2, a plain callable with no
    bessel_form."""
    return lambda m2: c1 * np.asarray(m2, dtype=float) + c0


class TestWeights:
    def test_basic_evaluation(self):
        m2 = np.array([0.5, 1.0, 4.0])
        assert np.allclose(Power(0.5)(m2), m2 ** 0.25)

    def test_besselz_domain(self):
        with pytest.raises(DomainError):
            BesselZ(0.0, Order(0.5))

    def test_scaled_besselz_is_deeper_besselz(self):
        # dilations move the bulk evaluation depth: h_lam for depth z is the
        # weight of depth lam z
        z, lam = 0.7, 1.9
        m2 = np.linspace(0.1, 20.0, 50)
        lhs = ScaledWeight(BesselZ(z, Order(0.5)), lam)(m2)
        rhs = BesselZ(lam * z, Order(0.5))(m2)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_tabulated_validation_and_interp(self):
        with pytest.raises(DomainError):
            Tabulated([0.0, 1.0], [1.0])
        with pytest.raises(DomainError):
            Tabulated([1.0, 0.5], [1.0, 1.0])
        h = Tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert h(0.5) == pytest.approx(0.5)
        assert h(5.0) == 0.0

    def test_tabulated_from_file(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("# m2  h\n0.0 0.0\n1.0 2.0\n4.0 0.5\n")
        h = Tabulated.from_file(p)
        assert h(1.0) == pytest.approx(2.0)

    def test_mass_weight_validation(self):
        with pytest.raises(DomainError):
            MassWeight(np.ones_like, support=(2.0, 1.0))
        with pytest.raises(DomainError):
            MassWeight(np.ones_like, support=(0.0, np.inf))


class TestGaussianPacket:
    def test_fourier_matches_grid_transform(self):
        f = GaussianPacket(MinkVector((0.3, -0.2)), 0.8,
                           MinkVector((1.1, 0.4)))
        t = np.linspace(-6.0, 6.0, 601)
        x = np.linspace(-6.0, 6.0, 601)
        tt, xx = np.meshgrid(t, x, indexing="ij")
        k = (0.7, -0.3)
        vals = f(tt, xx) * np.exp(1j * (k[0] * tt - k[1] * xx))
        num = np.trapezoid(np.trapezoid(vals, x, axis=1), t)
        assert abs(num - f.fourier(*k)) < 1e-8 * abs(num)

    def test_fourier_lc_consistent(self):
        f = GaussianPacket(MinkVector((0.0, 0.0)), 1.0, MinkVector((1.0, 0.2)))
        kp, km = 1.7, 0.4
        direct = f.fourier(0.5 * (kp + km), 0.5 * (kp - km))
        assert f.fourier_lc(kp, km) == pytest.approx(direct)

    def test_width_validation(self):
        with pytest.raises(DomainError):
            GaussianPacket(MinkVector((0.0, 0.0)), 0.0, MinkVector((0.0, 0.0)))

    @pytest.mark.parametrize("center, carrier", [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), ((0.0, 0.0, 0.0), (1.0, 0.0)),
        ((0.0, 0.0), (1.0, 0.0, 0.0))])
    def test_two_dimensional_only(self, center, carrier):
        with pytest.raises(DomainError, match="d = 2"):
            GaussianPacket(MinkVector(center), 1.0, MinkVector(carrier))


def _wightman_exact(m, x, eps):
    """W_m(x) from 30-digit mpmath K at the exact sigma of x."""
    with mpmath.workdps(30):
        t, *xs = (mpmath.mpf(c) for c in x.components)
        sigma = sum(c * c for c in xs) - (t - 1j * mpmath.mpf(eps)) ** 2
        r = mpmath.sqrt(sigma)
        nu = mpmath.mpf(x.d - 2) / 2
        return complex((2 * mpmath.pi) ** (-mpmath.mpf(x.d) / 2)
                       * (m / r) ** nu * mpmath.besselk(nu, m * r))


def _commutator_exact(m, x):
    """Delta_m(x) from 30-digit mpmath J at the exact x^2 of x."""
    with mpmath.workdps(30):
        t, *xs = (mpmath.mpf(c) for c in x.components)
        tau = mpmath.sqrt(t * t - sum(c * c for c in xs))
        nu = mpmath.mpf(x.d - 2) / 2
        const = -1j * mpmath.pi * (2 * mpmath.pi) ** (-mpmath.mpf(x.d) / 2)
        return complex(const * mpmath.sign(t) * (m / tau) ** nu
                       * mpmath.besselj(-nu, m * tau))


# (m, x, eps): moderate, near the light cone, large and small m r, d = 3
# and 4; the ten in d = 2 also meet the momentum oracle
WIGHTMAN_POINTS = [
    (1.0, (0.4, 2.0), 1e-3), (1.3, (0.9, 0.2), 0.05), (0.02, (0.3, 1.1), 1e-3),
    (40.0, (1.0, 5.0), 1e-3), (2.0, (1.0, 1.0 + 1e-7), 1e-9),
    (0.7, (-3.0, 3.0 - 1e-6), 1e-8), (1.0, (5.0, 1.0), 1e-3),
    (3.0, (1.2, 0.4), 1e-6), (0.5, (0.1, 1.0, 0.3, -0.2), 1e-3),
    (1.5, (2.0, 1.0, 1.0, 1.0 + 1e-6), 1e-8), (9.0, (0.2, 0.7, -0.4), 1e-4),
    (0.5, (0.0, 0.3), 1e-3), (2.5, (-0.7, 1.6), 0.01)]
# (m, x): timelike, one at the first zero of J_0, near the light cone,
# large m tau, d = 3 and 4
COMMUTATOR_POINTS = [
    (1.0, (1.3, 0.4)), (1.0, (-0.9, 0.1)), (2.404825557695773, (1.0, 0.0)),
    (1.0, (2.0, 2.0 - 1e-7)), (60.0, (5.0, 1.0)), (0.01, (0.5, 0.1)),
    (0.8, (1.5, 0.3, 0.2, -0.1)), (1.7, (-2.0, 1.0, 1.0 - 1e-6, 0.0)),
    (4.0, (1.0, 0.3, 0.2)), (0.3, (-7.0, 2.0))]


class TestWightman:
    def test_momentum_oracle(self):
        m, eps = 1.0, 0.05
        for x in (MinkVector((0.4, 1.1)), MinkVector((0.9, 0.2))):
            closed = wightman_kg(m, x, epsilon=eps)
            oracle = wightman_kg_momentum_oracle(m, x, epsilon=eps)
            assert abs(closed.value - oracle.value) < 1e-6

    @pytest.mark.parametrize("m", [1.0, 1.3])
    @pytest.mark.parametrize("eps", [0.05, 1e-3])
    @pytest.mark.parametrize("x", [(0.4, 2.0), (0.4, 1.1), (0.9, 0.2),
                                   (1.0, 0.3), (0.5, 0.5)])
    def test_momentum_oracle_estimate_covers_error(self, m, eps, x):
        x = MinkVector(x)
        closed = wightman_kg(m, x, epsilon=eps)
        oracle = wightman_kg_momentum_oracle(m, x, epsilon=eps)
        assert abs(closed.value - oracle.value) <= oracle.error_estimate

    def test_momentum_oracle_on_the_light_cone(self):
        # t = x^1: one half-line decays only through eps
        x = MinkVector((0.5, 0.5))
        closed = wightman_kg(1.0, x, epsilon=1e-3)
        oracle = wightman_kg_momentum_oracle(1.0, x, epsilon=1e-3)
        assert abs(closed.value - oracle.value) < 1e-12

    def test_d2_spacelike_limit(self):
        # eps -> 0 at spacelike x: (2 pi)^-1 K_0(m r)
        m, r = 1.3, 0.9
        w = wightman_kg(m, MinkVector((0.0, r)), epsilon=1e-8)
        assert rel_err(w.value.real, bessel_k(0.0, m * r) / (2 * np.pi)) < 1e-6
        assert abs(w.value.imag) < 1e-7

    def test_d4_small_mass_massless_limit(self):
        # (m/r) K_1(m r) -> 1/r^2, so W -> (2 pi)^-2 / sigma
        x = MinkVector((0.1, 1.0, 0.3, -0.2))
        sigma = -float(x.square())
        w = wightman_kg(1e-8, x, epsilon=1e-9)
        assert rel_err(w.value.real, 1.0 / (4.0 * np.pi ** 2 * sigma)) < 1e-6

    @pytest.mark.parametrize("m, x, eps", WIGHTMAN_POINTS)
    def test_estimate_covers_error(self, m, x, eps):
        # against 30-digit K; near the light cone sigma is a difference of
        # large squares and the estimate must grow with their rounding
        x = MinkVector(x)
        w = wightman_kg(m, x, epsilon=eps)
        assert abs(w.value - _wightman_exact(m, x, eps)) <= w.error_estimate
        assert w.error_estimate <= 1e-9 * abs(w.value)
        if x.d == 2:
            oracle = wightman_kg_momentum_oracle(m, x, epsilon=eps)
            assert abs(w.value - oracle.value) <= \
                w.error_estimate + oracle.error_estimate

    def test_domain(self):
        with pytest.raises(DomainError):
            wightman_kg(-1.0, MinkVector((0.0, 1.0)))
        with pytest.raises(DomainError):
            wightman_kg(1.0, MinkVector((0.0, 1.0)), epsilon=0.0)

    def test_nan_point_rejected(self):
        # a NaN invariant fails the Re sqrt(sigma) > 0 test, as it fails
        # kv_complex's Re z > 0
        with pytest.raises(DomainError):
            wightman_kg(1.0, MinkVector((0.0, float("nan"))))


class TestCommutatorKG:
    def test_spacelike_zero(self):
        res = commutator_kg(1.0, MinkVector((0.2, 1.5)))
        assert res.value == 0.0 and res.error_estimate == 0.0

    def test_lightcone_rejected(self):
        with pytest.raises(DomainError):
            commutator_kg(1.0, MinkVector((1.0, 1.0)))

    def test_eps_extrapolation_oracle(self):
        # past-directed; the future-directed (1.3, 0.4) is the
        # correlators.commutator_eps_limit record
        x = MinkVector((-0.9, 0.1))
        closed = commutator_kg(1.0, x)
        extrap = commutator_kg_eps(1.0, x)
        assert abs(closed.value - extrap.value) < 1e-7

    def test_eps_extrapolation_oracle_d4(self):
        x = MinkVector((1.5, 0.3, 0.2, -0.1))
        closed = commutator_kg(0.8, x)
        extrap = commutator_kg_eps(0.8, x)
        assert abs(closed.value - extrap.value) < 1e-6

    @pytest.mark.parametrize("m, x", COMMUTATOR_POINTS)
    def test_estimate_covers_error(self, m, x):
        x = MinkVector(x)
        res = commutator_kg(m, x)
        assert abs(res.value - _commutator_exact(m, x)) <= res.error_estimate
        assert res.error_estimate <= 1e-8 * abs(res.value) or \
            res.error_estimate <= 1e-14

    def test_antisymmetry(self):
        x = MinkVector((1.1, 0.3))
        assert commutator_kg(1.0, x).value == \
            pytest.approx(-commutator_kg(1.0, -x).value)


def _power_oracle(nu, x, epsilon=1e-3):
    """int_0^inf dm^2 m^(2 nu) W_m(x) = 4^nu Gamma(nu+1)^2 sigma^-(nu+1) / pi
    in d = 2 (the Mellin transform of K_0), principal branch."""
    t, x1 = x.components
    sigma = x1 * x1 - complex(t, -epsilon) ** 2
    return 4.0 ** nu * math.gamma(nu + 1.0) ** 2 * sigma ** (-(nu + 1.0)) \
        / math.pi


def _scan_points(n, seed):
    """(nu, x) over the benchmark's scan ranges: nu in (-0.4, 2), spacelike
    x with |x| log-uniform in [0.3, 10]."""
    rng = np.random.default_rng(seed)
    nus = rng.uniform(-0.4, 2.0, n)
    rs = np.exp(rng.uniform(math.log(0.3), math.log(10.0), n))
    etas = rng.uniform(-1.0, 1.0, n)
    signs = rng.choice((-1.0, 1.0), n)
    return [(float(nu), MinkVector((float(r * math.sinh(eta)),
                                    float(s * r * math.cosh(eta)))))
            for nu, r, eta, s in zip(nus, rs, etas, signs)]


class TestGff2pt:
    # two points where GK15's own estimate of the panel at m = 0 falls short
    # (the integrand goes like t^(4 nu + 3) log t there)
    @pytest.mark.parametrize("nu, x", [(-0.1993, (-5.9886, -11.1602)),
                                       (-0.1991, (0.1158, -1.3954))])
    def test_estimate_covers_error_at_the_endpoint(self, nu, x):
        x = MinkVector(x)
        res = gff2pt(Power(nu), Power(nu), x)
        assert abs(res.value - _power_oracle(nu, x)) <= res.error_estimate

    def test_estimate_covers_error_over_the_scan_ranges(self):
        # every point, not a fraction; the estimate must also stay tight
        misses, loose = [], []
        for nu, x in _scan_points(400, seed=20):
            res = gff2pt(Power(nu), Power(nu), x)
            oracle = _power_oracle(nu, x)
            if not abs(res.value - oracle) <= res.error_estimate:
                misses.append((nu, x.components))
            if not res.error_estimate <= 1e-7 * abs(oracle):
                loose.append((nu, x.components))
        assert not misses
        assert not loose

    def test_power_weight_closed_form(self):
        # int_0^inf dm^2 m (2 pi)^-1 K_0(m r) = r^-3 / 2
        r = 1.3
        g = gff2pt(Power(0.5), Power(0.5), MinkVector((0.0, r)), epsilon=1e-8)
        assert rel_err(g.value.real, 0.5 * r ** -3) < 1e-6

    def test_hermiticity(self):
        h = Power(0.5)
        x = MinkVector((0.7, 1.8))
        a = gff2pt(h, h, x)
        b = gff2pt(h, h, -x)
        assert abs(a.value - np.conj(b.value)) < 1e-10

    def test_lorentz_invariance(self):
        h = Power(0.5)
        chi = 0.8
        c, s = math.cosh(chi), math.sinh(chi)
        x = MinkVector((0.3, 1.4))
        xb = MinkVector((c * 0.3 + s * 1.4, s * 0.3 + c * 1.4))
        a = gff2pt(h, h, x, epsilon=1e-7)
        b = gff2pt(h, h, xb, epsilon=1e-7)
        assert abs(a.value - b.value) < 1e-6 * abs(a.value)

    def test_clustering(self):
        h = linear(1.0, 0.3)
        rs = np.geomspace(1.0, 8.0, 6)
        vals = [abs(gff2pt(h, h, MinkVector((0.0, r))).value) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_default_cutoff_requires_spacelike(self):
        with pytest.raises(DomainError):
            default_cutoff(MinkVector((2.0, 0.1)))

    def test_scaling_covariance(self):
        # gff2pt(h, h, x / lambda) = gff2pt(h_lambda, h_lambda, x), the
        # regulator scaled with the point, within 1e-10 and within the two
        # sides' estimates
        x = MinkVector((0.2, 1.1))
        for h, lam in ((Power(0.5), 1.6), (linear(0.5, 1.0), 0.7)):
            left = gff2pt(h, h, x.scale(1.0 / lam), epsilon=EPSILON / lam)
            hl = ScaledWeight(h, lam, x.d)
            right = gff2pt(hl, hl, x)
            miss = abs(left.value - right.value)
            assert miss <= 1e-10 * abs(right.value)
            assert miss <= left.error_estimate + right.error_estimate
        # homogeneous weight: both sides reduce to lambda^(2 Delta) times the
        # unscaled function, Delta = d/2 + nu
        nu, lam = 0.5, 1.6
        hl = ScaledWeight(Power(nu), lam, x.d)
        base = gff2pt(Power(nu), Power(nu), x)
        assert rel_err(gff2pt(hl, hl, x).value, lam ** (2.0 * (1.0 + nu))
                       * base.value) < 1e-8


class TestKallenLehmann:
    def test_consistency_with_gff2pt(self):
        x = MinkVector((0.0, 1.2))
        cut = default_cutoff(x)
        h = linear(0.2, 1.0)
        rho = MassWeight(lambda m2: np.asarray(h(m2)) ** 2, support=(0.0, cut))
        a = kallen_lehmann_2pt(rho, x)
        b = gff2pt(h, h, x)
        assert abs(a.value - b.value) < 1e-8 * abs(b.value)


# The mass route's arithmetic as an unfused chain: (m / r)^nu at every d,
# the weight called once per factor, np.linspace panel edges and
# np.broadcast_arrays at adaptive_finite's entry.  The library folds these
# steps together; its values and estimates must equal this chain's bit for
# bit.

def _ref_kv(nu, z):
    z = np.asarray(z, dtype=complex)
    out = 0.5 * np.pi * (1j) ** (nu + 1.0) * sp.hankel1(nu, 1j * z)
    return complex(out) if out.ndim == 0 else out


def _ref_wightman_closed(m, sigma, d):
    r = np.sqrt(complex(sigma))
    nu = 0.5 * (d - 2)
    return (2.0 * np.pi) ** (-d / 2.0) * (m / r) ** nu * _ref_kv(nu, m * r)


def _ref_sigma_eps(x, epsilon):
    comps = x.array
    return float(np.dot(comps[1:], comps[1:])) - \
        (comps[0] - 1j * epsilon) ** 2


def _ref_gk15(f, a, b):
    half = 0.5 * (np.asarray(b) - a)
    mid = 0.5 * (np.asarray(a) + b)
    x = mid[..., None] + half[..., None] * _XK
    fx = np.asarray(f(x.ravel())).reshape(x.shape)
    sk, sg = (np.stack([_WK, _WG]) * fx[..., None, :]).sum(axis=-1).T
    ik, ig = half * sk, half * sg
    return ik, np.array([(200.0 * abs(e)) ** 1.5 for e in (ik - ig).tolist()])


def _ref_adaptive_finite(f, a, b):
    lo, hi = np.broadcast_arrays(np.atleast_1d(a).astype(float), b)
    vals, errs = _ref_gk15(f, lo, hi)
    panels = list(zip((-errs).tolist(), lo.tolist(), hi.tolist(),
                      vals.tolist()))
    heapq.heapify(panels)
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(-p[0] for p in panels)
        target = max(1e-10 * abs(total), 1e-14)
        if total_err <= target:
            break
        worst, covered = [], 0.0
        while not worst or (panels and covered < total_err - target):
            p = heapq.heappop(panels)
            worst.append(p)
            covered -= p[0]
        mid = [0.5 * (p[1] + p[2]) for p in worst]
        lo = [p[1] for p in worst] + mid
        hi = mid + [p[2] for p in worst]
        vals, errs = _ref_gk15(f, np.array(lo), np.array(hi))
        for p in zip((-errs).tolist(), lo, hi, vals.tolist()):
            heapq.heappush(panels, p)
    ordered = sorted(panels, key=lambda p: p[1])
    floor = 50.0 * np.finfo(float).eps * sum(abs(p[3]) for p in ordered)
    return (sum(p[3] for p in ordered),
            sum(-p[0] for p in ordered) + floor)


def _ref_endpoint_checked(f, a, b):
    low = math.inf

    def g(x):
        nonlocal low
        low = min(low, x.min())
        return f(x)

    edges = np.linspace(a, b, 7)
    value, err = _ref_adaptive_finite(g, edges[:-1], edges[1:])
    h = 2.0 * (low - a) / (1.0 + _XK[0])
    mid = a + 0.5 * h
    whole, left, right = _ref_gk15(f, np.array([a, a, mid]),
                                   np.array([a + h, mid, a + h]))[0].tolist()
    change = left + right - whole
    return value + change, err + abs(change)


def _ref_mass_integral(density, x, epsilon, lo, hi, tail):
    sigma = _ref_sigma_eps(x, epsilon)

    def f(m):
        return 2.0 * m * np.asarray(density(m * m)) * \
            _ref_wightman_closed(m, sigma, x.d)

    value, err = _ref_endpoint_checked(lambda t: 2.0 * t * f(t * t),
                                       lo ** 0.25, hi ** 0.25)
    if tail:
        mmax = math.sqrt(hi)
        fm, fm2 = np.abs(f(mmax * np.array([1.0, 1.01]))).tolist()
        decay = math.log(fm / fm2) / (0.01 * mmax) \
            if x.square() < 0 and 0.0 < fm2 < fm else 0.0
        err += fm / decay if decay > 0.0 else fm * mmax
    return value, err


class TestMassRouteArithmetic:
    @pytest.mark.parametrize("nu", [-0.4, 0.0, 0.5, 1.9])
    @pytest.mark.parametrize("point", GFF2PT_POINTS)
    def test_gff2pt_equals_unfused_chain(self, nu, point):
        h, x = Power(nu), MinkVector(point)
        want = _ref_mass_integral(
            lambda m2: np.asarray(h(m2)) * np.asarray(h(m2)), x, 1e-3, 0.0,
            default_cutoff(x), tail=True)
        # one weight object twice, and two equal weights
        for h2 in (h, Power(nu)):
            got = gff2pt(h, h2, x)
            assert (got.value, got.error_estimate) == want

    def test_kallen_lehmann_equals_unfused_chain(self):
        # the inputs of the correlators.kallen_lehmann_finite_support record
        x = MinkVector((0.0, 0.8))
        got = kallen_lehmann_2pt(MassWeight(np.ones_like, support=(0.0, 36.0)),
                                 x)
        assert (got.value, got.error_estimate) == _ref_mass_integral(
            np.ones_like, x, 1e-3, 0.0, 36.0, tail=False)

    @pytest.mark.parametrize("m, x, eps", WIGHTMAN_POINTS)
    def test_wightman_equals_unfused_chain(self, m, x, eps):
        # d = 2, 3 and 4: the power (m / r)^nu is left out only at d = 2
        x = MinkVector(x)
        sigma = _ref_sigma_eps(x, eps)
        value = complex(_ref_wightman_closed(m, sigma, x.d))
        estimate = _closed_form_error(
            value, abs(_ref_wightman_closed(m, sigma, x.d + 2)),
            float(np.dot(x.array, x.array)) + eps ** 2)
        got = wightman_kg(m, x, eps)
        assert (got.value, got.error_estimate) == (value, estimate)


class TestGffCommutator:
    def test_spacelike_zero(self):
        res = gff_commutator(Power(0.5), Power(0.5), MinkVector((0.3, 2.0)))
        assert res.value == 0.0

    def test_power_weight_closed_form(self):
        # int_0^inf u^2 J_0(u) du = -1 in the Abel sense, so the d = 2
        # commutator with dm^2 h1 h2 = 2 m^2 dm is i sgn(x^0) tau^-3
        x = MinkVector((1.1, 0.2))
        tau = math.sqrt(float(x.square()))
        res = gff_commutator(Power(0.5), Power(0.5), x)
        assert abs(res.value - 1.0j * tau ** -3) < 1e-5 * tau ** -3

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.077, 3.0])
    def test_power_weight_estimate_covers_error(self, tau):
        x = MinkVector((math.sqrt(tau * tau + 0.04), 0.2))
        res = gff_commutator(Power(0.5), Power(0.5), x)
        assert abs(res.value - 1.0j * tau ** -3) <= res.error_estimate

    def test_scaled_power_weight(self):
        # h_lambda = lambda^(3/2) m^(1/2) for h = m^(1/2), so the commutator
        # scales by lambda^(3/2)
        x = MinkVector((1.1, 0.2))
        a = gff_commutator(ScaledWeight(Power(0.5), 1.7), Power(0.5), x)
        b = gff_commutator(Power(0.5), Power(0.5), x)
        assert abs(a.value - 1.7 ** 1.5 * b.value) <= \
            a.error_estimate + 1.7 ** 1.5 * b.error_estimate

    def test_weight_without_bessel_form_raises(self):
        h = linear(1.0, 1.0)
        for pair in ((h, Power(0.5)), (Power(0.5), h)):
            with pytest.raises(DomainError, match="bessel_form; function"):
                gff_commutator(*pair, MinkVector((1.1, 0.2)))

    def test_antisymmetry(self):
        h = Power(0.5)
        x = MinkVector((1.3, 0.5))
        a = gff_commutator(h, h, x)
        b = gff_commutator(h, h, -x)
        assert abs(a.value + b.value) < 1e-8


def _component_corr(u, c1, s1, k1, c2, s2, k2, sign):
    """int dy conj(G1(u + y)) G2(y) for one Cartesian factor of the packets."""
    y = np.linspace(-10.0, 10.0, 2001)
    out = []
    for ui in u:
        g1c = np.exp(-((ui + y) - c1) ** 2 / (2 * s1 ** 2)) * \
            np.exp(1j * sign * k1 * (ui + y))
        g2 = np.exp(-(y - c2) ** 2 / (2 * s2 ** 2)) * \
            np.exp(-1j * sign * k2 * y)
        out.append(np.trapezoid(g1c * g2, y))
    return np.array(out)


class TestSmeared2pt:
    def test_position_space_oracle(self):
        # smear the closed-form kernel int dm^2 m W_m = r^-3 / 2 against the
        # packet cross-correlation; fully independent of the cone quadrature
        eps = 0.2
        f1 = GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                            MinkVector((1.2, 0.3)))
        f2 = GaussianPacket(MinkVector((0.5, -0.3)), 0.9,
                            MinkVector((1.0, -0.2)))
        mom = smeared2pt(Power(0.5), f1, Power(0.5), f2, epsilon=eps,
                         n_nodes=160)

        u = np.linspace(-6.0, 6.0, 241)
        du = u[1] - u[0]
        it = _component_corr(u, f1.center.components[0], f1.width,
                             f1.carrier.components[0],
                             f2.center.components[0], f2.width,
                             f2.carrier.components[0], sign=1.0)
        ix = _component_corr(u, f1.center.components[1], f1.width,
                             f1.carrier.components[1],
                             f2.center.components[1], f2.width,
                             f2.carrier.components[1], sign=-1.0)
        corr = it[:, None] * ix[None, :]
        r = np.sqrt(u[None, :] ** 2 - (u[:, None] - 1j * eps) ** 2)
        pos = np.sum(corr * 0.5 * r ** -3) * du * du
        assert abs(pos - mom.value) < 1e-5 * abs(mom.value)

    def test_hermiticity(self):
        f1 = GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                            MinkVector((1.2, 0.3)))
        f2 = GaussianPacket(MinkVector((0.5, -0.3)), 0.9,
                            MinkVector((1.0, -0.2)))
        h = Power(0.5)
        a = smeared2pt(h, f1, h, f2)
        b = smeared2pt(h, f2, h, f1)
        assert abs(a.value - np.conj(b.value)) < 1e-12 * abs(a.value)

    def test_positivity_of_diagonal(self):
        f = GaussianPacket(MinkVector((0.1, 0.2)), 1.1, MinkVector((1.5, 0.1)))
        h = Power(0.5)
        res = smeared2pt(h, f, h, f)
        assert res.value.real > 0
        assert abs(res.value.imag) < 1e-10 * res.value.real


class TestMisc:
    def test_norm_const(self):
        assert norm_const(2) == pytest.approx(1.0 / (2.0 * np.pi))
        assert norm_const(4) == pytest.approx((2.0 * np.pi) ** -3)

    def test_correlator_validation(self):
        with pytest.raises(DomainError):
            Correlator(1.0, -1e-3)
