import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gffads.adsboundary import (AdSFieldSpec, ads2pt, ads_commutator,
                                bonus_locality, boundary_limit_check,
                                boundary_limit_const, ccr_check,
                                holographic_lift, mass_change_kernel_check)
from gffads.correlators import GaussianPacket
from gffads.errors import DomainError, LightConeProximityError
from gffads.fock import LightconeGrid, position_wavefunction
from gffads.spacetime import AdSPoint, MinkVector, chordal_distance
from gffads.specfun import Order, j_even

from conftest import rel_err


SPEC = AdSFieldSpec(Order(0.5))


def sonine_gegenbauer(nu, a, b, c):
    """Closed form of int_0^inf u J_0(au) J_nu(bu) J_nu(cu) du, and its
    envelope.

    The integral is 0 for a < |b - c|, where the envelope is taken at
    a = max(b, c), and cos(nu phi) / (pi b c sin phi) for
    |b - c| < a < b + c, with a^2 = b^2 + c^2 - 2 b c cos phi and envelope
    1 / (pi b c sin phi).  For a > b + c it is
    -sin(nu pi) e^(-nu psi) / (pi b c sinh psi), with
    a^2 = b^2 + c^2 + 2 b c cosh psi and envelope 1 / (pi b c sinh psi).
    """
    if a > b + c:
        psi = math.acosh((a * a - b * b - c * c) / (2.0 * b * c))
        envelope = 1.0 / (math.pi * b * c * math.sinh(psi))
        return -math.sin(nu * math.pi) * math.exp(-nu * psi) * envelope, \
            envelope
    inside = a > abs(b - c)
    a_env = a if inside else max(b, c)
    cos_phi = (b * b + c * c - a_env * a_env) / (2.0 * b * c)
    envelope = 1.0 / (math.pi * b * c * math.sqrt(1.0 - cos_phi ** 2))
    value = math.cos(nu * math.acos(cos_phi)) * envelope if inside else 0.0
    return value, envelope


# (a, b, c) in the vanishing region, the band and the far region a > b + c
SONINE_POINTS = [(0.3, 1.0, 1.5), (1.0, 1.0, 1.5), (1.6, 0.8, 1.1),
                 (3.0, 1.0, 1.5), (2.4, 0.8, 1.1)]
# 1% and 5% from either side of the light cones a = |b - c| = 0.4 and
# a = b + c = 2.4, b, c = 1.0, 1.4
NEAR_CONE_POINTS = [(cone * (1.0 + r), 1.0, 1.4) for cone in (0.4, 2.4)
                    for r in (-0.05, -0.01, 0.01, 0.05)]
# (nu, a, b, c) whose error estimate once fell short of the error: in the
# vanishing region, the far region, and three where the head's estimate at
# u = 0 fell short (the last drawn by test_scaling_law)
ESTIMATE_MISS_POINTS = [
    (0.08319807465228324, 4.359897660481928, 7.474487490958063,
     0.5883059335142035),
    (0.0245, 5.27, 0.71, 0.165),
    (0.0078125, 1.0, 7.0, 0.9375),
    (1.1328125, 5.0703125, 5.0703125, 0.5),
    (0.125, 2.0, 6.0, 12.0)]
# max k / min k = 677, deep in the vanishing region: the head [0, U] spans
# about 2,400 periods of the fastest term
WIDE_RATIO_POINTS = [(nu, 0.0279, 18.9, 14.8) for nu in (0.0, 0.5, 1.3)]


def cone_distance(a, b, c):
    """Distance of a from the nearer light cone |b - c| or b + c, in units
    of b + c."""
    return min(abs(a - abs(b - c)), abs(a - (b + c))) / (b + c)


def calibration_points(n, seed):
    """n points (nu, a, b, c): nu uniform in [0, 2], a, b, c log-uniform in
    [0.1, 10], at least 1% from both light cones."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        nu = rng.uniform(0.0, 2.0)
        a, b, c = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3))
        if cone_distance(a, b, c) >= 0.01:
            points.append((float(nu), float(a), float(b), float(c)))
    return points


CALIBRATION_POINTS = calibration_points(40, seed=12)


def ads3_commutator(nu, u, sign):
    """The AdS_3 bulk commutator at chordal distance u < 0 and time sign
    sign, and its envelope: the jump of e^(-nu s) / (4 pi sinh s),
    cosh s = 1 + u, across its cut (D'Hoker & Freedman, hep-th/0201253).

    Inside the cone, -2 < u < 0, it is -i sign cos(nu theta) /
    (2 pi sin theta) with cos theta = 1 + u and envelope
    1 / (2 pi sin theta); beyond u = -2 it is i sign sin(nu pi) e^(-nu s) /
    (2 pi sinh s) with cosh s = -(1 + u) and envelope 1 / (2 pi sinh s).
    """
    if u > -2.0:
        theta = math.acos(1.0 + u)
        envelope = 1.0 / (2.0 * math.pi * math.sin(theta))
        return -1j * sign * math.cos(nu * theta) * envelope, envelope
    s = math.acosh(-(1.0 + u))
    envelope = 1.0 / (2.0 * math.pi * math.sinh(s))
    return 1j * sign * math.sin(nu * math.pi) * math.exp(-nu * s) * \
        envelope, envelope


def ads3_timelike_points(n, seed):
    """n points (nu, z, z', dx), alternately inside the cone and beyond
    u = -2: nu uniform in [0, 2], z, z' log-uniform in [0.2, 2], the
    boundary proper time tau uniform in (|z - z'|, z + z') or
    (z + z', 3 (z + z')), at least 2% of z + z' from both, dx boosted by a
    rapidity uniform in [-1, 1] with either time sign."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        nu = rng.uniform(0.0, 2.0)
        z, zp = np.exp(rng.uniform(math.log(0.2), math.log(2.0), 2))
        near, far = abs(z - zp), z + zp
        tau = rng.uniform(near, far) if len(points) % 2 else \
            rng.uniform(far, 3.0 * far)
        eta = rng.uniform(-1.0, 1.0)
        sign = rng.choice((-1.0, 1.0))
        if min(abs(tau - near), abs(tau - far)) >= 0.02 * far:
            points.append((float(nu), float(z), float(zp), MinkVector(
                (float(sign * tau * math.cosh(eta)),
                 float(tau * math.sinh(eta))))))
    return points


def scaling_law_points(n, seed):
    """n points (nu, a, b, c) over the calls of test_scaling_law: nu uniform
    in [0, 2], a, b, c uniform in [0.1, 20], at least 2% from both light
    cones."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        nu = rng.uniform(0.0, 2.0)
        a, b, c = rng.uniform(0.1, 20.0, 3)
        if cone_distance(a, b, c) >= 0.02:
            points.append((float(nu), float(a), float(b), float(c)))
    return points


class TestAdSFieldSpec:
    def test_delta_and_mass(self):
        # M^2 = Delta (Delta - 2) = nu^2 - 1 in AdS_3
        assert SPEC.delta == pytest.approx(1.5)
        assert SPEC.delta * (SPEC.delta - 2.0) == pytest.approx(-0.75)
        massless = AdSFieldSpec(Order(0.0)).delta
        assert massless * (massless - 2.0) == pytest.approx(-1.0)


class TestAds2pt:
    def test_depth_domain(self):
        with pytest.raises(DomainError):
            ads2pt(SPEC, 0.0, 1.0, MinkVector((0.0, 1.0)))

    def test_boundary_dimension_two(self):
        with pytest.raises(DomainError):
            ads2pt(SPEC, 0.5, 0.8, MinkVector((0.0, 1.0, 0.0)))

    def test_depth_exchange_symmetry(self):
        x = MinkVector((0.0, 1.0))
        a = ads2pt(SPEC, 0.6, 1.3, x)
        b = ads2pt(SPEC, 1.3, 0.6, x)
        assert abs(a.value - b.value) < 1e-12 * abs(a.value)

    def test_chordal_dependence(self):
        # two configurations with equal chordal distance
        # u = (r^2 + (z - z')^2) / (2 z z') give equal correlators
        a = ads2pt(SPEC, 1.0, 1.0, MinkVector((0.0, 1.0)), epsilon=1e-6)
        r2 = 0.5 * 2.0 * 0.8 * 1.25 - 0.45 ** 2
        b = ads2pt(SPEC, 0.8, 1.25, MinkVector((0.0, math.sqrt(r2))),
                   epsilon=1e-6)
        assert abs(a.value - b.value) < 1e-9 * abs(a.value)

    def test_dilation_invariance(self):
        lam = 1.5
        x = MinkVector((0.0, 0.9))
        a = ads2pt(SPEC, 0.7, 1.1, x, epsilon=1e-3)
        b = ads2pt(SPEC, lam * 0.7, lam * 1.1, x.scale(lam),
                   epsilon=lam * 1e-3)
        assert abs(a.value - b.value) < 1e-9 * abs(a.value)


class TestBoundaryLimit:
    def test_const_value(self):
        # 2^(-nu - 1/2) / Gamma(nu + 1) at nu = 1/2 is 1 / sqrt(pi)
        assert boundary_limit_const(0.5) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("nu", [0.0, 0.5])
    def test_scaled_correlator_converges(self, nu):
        devs = boundary_limit_check(AdSFieldSpec(Order(nu)),
                                    (0.08, 0.04, 0.02), MinkVector((0.0, 4.0)))
        assert devs[2] < devs[1] < devs[0]
        assert devs[-1] < 1e-2

    def test_single_depth_has_no_trend(self):
        # the form `gffads compute boundaryLimitCheck` uses
        devs = boundary_limit_check(SPEC, (0.02,), MinkVector((0.0, 4.0)))
        assert devs[0] < 1e-2

    def test_validation(self):
        with pytest.raises(DomainError):
            boundary_limit_check(SPEC, (0.02, 0.04), MinkVector((0.0, 4.0)))
        with pytest.raises(DomainError):
            boundary_limit_check(SPEC, (), MinkVector((0.0, 4.0)))
        with pytest.raises(DomainError):
            boundary_limit_check(SPEC, (0.04, 0.02), MinkVector((2.0, 0.5)))
        with pytest.raises(DomainError):
            boundary_limit_check(SPEC, (0.04, 0.02),
                                 MinkVector((0.0, 4.0, 0.0)))


class TestHolographicLift:
    def setup_method(self):
        self.f = GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                                MinkVector((2.0, 0.3)))
        self.grid = LightconeGrid(n=160, kmin=1e-5)
        self.psi = position_wavefunction(self.f, None, self.grid)

    def test_methods_agree(self):
        # reference: the even-series form (1/sqrt 2) z^Delta (k^2)^(nu/2)
        # j_even(nu, z^2 k^2) of the Bessel weight, smooth through k^2 -> 0
        kp, km, _ = self.grid.mesh()
        z, m2 = 0.4, kp * km
        a = holographic_lift(SPEC, z, self.psi)
        b = (1.0 / math.sqrt(2.0)) * z ** SPEC.delta * \
            m2 ** (SPEC.nu / 2.0) * j_even(SPEC.nu, z ** 2 * m2) * \
            self.psi.samples
        assert np.max(np.abs(a.samples - b)) < 1e-10

    def test_boundary_scaling_limit(self):
        # z^(-Delta) h_z(k^2) -> c_nu (k^2)^(nu/2) as z -> 0
        z = 1e-4
        kp, km, _ = self.grid.mesh()
        lifted = holographic_lift(SPEC, z, self.psi).samples / z ** SPEC.delta
        target = boundary_limit_const(SPEC.nu) * (kp * km) ** (SPEC.nu / 2.0) \
            * self.psi.samples
        assert np.max(np.abs(lifted - target)) <= \
            1e-6 * np.max(np.abs(target))

    def test_validation(self):
        with pytest.raises(DomainError):
            holographic_lift(SPEC, 0.0, self.psi)


class TestCcr:
    def test_overlapping_profiles(self):
        g = lambda z: np.exp(-(np.asarray(z) - 1.0) ** 2 / (2 * 0.12 ** 2))
        gp = lambda z: np.exp(-(np.asarray(z) - 1.1) ** 2 / (2 * 0.15 ** 2))
        f = lambda x: np.exp(-np.asarray(x) ** 2 / 2)
        fp = lambda x: np.exp(-(np.asarray(x) - 0.3) ** 2 / (2 * 0.8 ** 2))
        rep = ccr_check(SPEC, g, gp, f, fp, (0.4, 1.6), (0.4, 1.8))
        assert rep["relative_discrepancy"] < 1e-6
        assert abs(rep["mode_value"]) > 0.1

    def test_disjoint_profiles_vanish(self):
        g = lambda z: np.exp(-(np.asarray(z) - 1.0) ** 2 / (2 * 0.12 ** 2))
        gp = lambda z: np.exp(-(np.asarray(z) - 2.5) ** 2 / (2 * 0.15 ** 2))
        f = lambda x: np.exp(-np.asarray(x) ** 2 / 2)
        fp = lambda x: np.exp(-(np.asarray(x) - 0.3) ** 2 / (2 * 0.8 ** 2))
        rep = ccr_check(SPEC, g, gp, f, fp, (0.4, 1.6), (1.9, 3.1))
        assert abs(rep["mode_value"]) < 1e-10
        # the product formula's depth factor, int g gp dz, vanishes too
        z = np.linspace(0.4, 3.1, 2701)
        assert abs(np.trapezoid(g(z) * gp(z), z)) < 1e-10


class TestBonusLocality:
    def test_vanishing_region(self):
        # a^2 < (b - c)^2: the integral vanishes even though the boundary
        # interval is timelike
        a, b, c = 0.4, 1.0, 1.5
        res = bonus_locality(0.0, Order(0.5), a, b, c)
        scale = abs(bonus_locality(0.0, Order(0.5), 1.0, b, c).value)
        assert abs(res.value) < 1e-5 * scale

    @pytest.mark.parametrize("a", [0.6, 1.2, 2.0])
    def test_interior_closed_form(self, a):
        # |b - c| < a < b + c: I = 1 / (pi sqrt(b c) sqrt(a^2 - (b - c)^2))
        b, c = 1.0, 1.5
        res = bonus_locality(0.0, Order(0.5), a, b, c)
        oracle = 1.0 / (math.pi * math.sqrt(b * c)
                        * math.sqrt(a * a - (b - c) ** 2))
        assert rel_err(res.value.real, oracle) < 1e-6

    def test_far_region_closed_form(self):
        # a > b + c picks up both cosine terms
        a, b, c = 3.0, 1.0, 1.5
        res = bonus_locality(0.0, Order(0.5), a, b, c)
        oracle = (1.0 / (math.pi * math.sqrt(b * c))) * (
            1.0 / math.sqrt(a * a - (b - c) ** 2)
            - 1.0 / math.sqrt(a * a - (b + c) ** 2))
        assert rel_err(res.value.real, oracle) < 1e-8

    @pytest.mark.parametrize("nu", [0.0, 0.7, 1.3])
    @pytest.mark.parametrize("a, b, c", SONINE_POINTS)
    def test_sonine_gegenbauer_closed_form(self, nu, a, b, c):
        # the error is measured against the envelope, since cos(nu phi)
        # has zeros inside the band
        res = bonus_locality(0.0, Order(nu), a, b, c)
        oracle, envelope = sonine_gegenbauer(nu, a, b, c)
        assert abs(res.value - oracle) <= 1e-8 * envelope

    @pytest.mark.parametrize(
        "nu, a, b, c",
        [(nu, *p) for nu in (0.0, 0.7, 1.3) for p in SONINE_POINTS]
        + [(0.7, *p) for p in NEAR_CONE_POINTS] + ESTIMATE_MISS_POINTS
        + WIDE_RATIO_POINTS + CALIBRATION_POINTS)
    def test_error_estimate_covers_error(self, nu, a, b, c):
        res = bonus_locality(0.0, Order(nu), a, b, c)
        oracle, _ = sonine_gegenbauer(nu, a, b, c)
        assert abs(res.value - oracle) <= res.error_estimate

    def test_estimate_covers_error_over_the_scaling_law_ranges(self):
        # every point, not a fraction; the estimate must also stay tight
        misses, loose = [], []
        for nu, a, b, c in scaling_law_points(300, seed=21):
            res = bonus_locality(0.0, Order(nu), a, b, c)
            oracle, envelope = sonine_gegenbauer(nu, a, b, c)
            if not abs(res.value - oracle) <= res.error_estimate:
                misses.append((nu, a, b, c))
            if not res.error_estimate <= 1e-8 * envelope:
                loose.append((nu, a, b, c))
        assert not misses
        assert not loose

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 2.0), st.floats(0.5, 2.0),
           st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_scaling_law(self, nu, lam, a, b, c):
        # substituting v = lam u: I(lam a, lam b, lam c) = lam^-2 I(a, b, c)
        assume(cone_distance(a, b, c) >= 0.02)
        res = bonus_locality(0.0, Order(nu), a, b, c)
        scaled = bonus_locality(0.0, Order(nu), lam * a, lam * b, lam * c)
        assert abs(lam ** 2 * scaled.value - res.value) <= \
            lam ** 2 * scaled.error_estimate + res.error_estimate

    @pytest.mark.parametrize("nu", [0.0, 1.3])
    @pytest.mark.parametrize("a, b, c", SONINE_POINTS[:3])
    def test_evaluation_ceiling(self, nu, a, b, c):
        # evaluation counts do not depend on the machine
        assert bonus_locality(0.0, Order(nu), a, b, c).evaluations <= 20000

    def test_evaluation_total(self):
        # summed over the SONINE_POINTS and NEAR_CONE_POINTS at three orders;
        # evaluation counts do not depend on the machine
        total = sum(bonus_locality(0.0, Order(nu), *p).evaluations
                    for nu in (0.0, 0.7, 1.3)
                    for p in SONINE_POINTS + NEAR_CONE_POINTS)
        assert total <= 700000

    @pytest.mark.parametrize("a, b, c", [(0.5, 1.0, 1.5), (2.5, 1.0, 1.5)])
    def test_light_cone_raises(self, a, b, c):
        with pytest.raises(LightConeProximityError):
            bonus_locality(0.0, Order(0.5), a, b, c)

    def test_depth_exchange_symmetry(self):
        r1 = bonus_locality(0.0, Order(0.7), 1.1, 0.8, 1.4)
        r2 = bonus_locality(0.0, Order(0.7), 1.1, 1.4, 0.8)
        assert abs(r1.value - r2.value) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            bonus_locality(0.0, Order(0.5), -1.0, 1.0, 1.0)


class TestAdsCommutator:
    def test_spacelike_zero(self):
        res = ads_commutator(SPEC, 0.5, 0.7, MinkVector((0.1, 2.0)))
        assert res.value == 0.0

    def test_boundary_lightcone_rejected(self):
        with pytest.raises(DomainError):
            ads_commutator(SPEC, 0.5, 0.7, MinkVector((1.0, 1.0)))

    def test_boundary_dimension_two(self):
        with pytest.raises(DomainError):
            ads_commutator(SPEC, 0.5, 0.8, MinkVector((1.6, 0.0, 0.0)))

    def test_guard_band(self):
        # tau^2 = 0.251 sits within 5 percent of (z - z')^2 = 0.25
        with pytest.raises(LightConeProximityError):
            ads_commutator(SPEC, 1.0, 0.5,
                           MinkVector((math.sqrt(0.251), 0.0)))

    def test_vanishes_inside_ads_spacelike_wedge(self):
        # tau^2 < (z - z')^2: boundary-timelike but bulk-spacelike
        res = ads_commutator(SPEC, 0.5, 1.5, MinkVector((0.6, 0.0)))
        scale = abs(ads_commutator(SPEC, 0.5, 0.7,
                                   MinkVector((1.0, 0.2))).value)
        assert abs(res.value) < 1e-5 * scale

    @pytest.mark.parametrize("z,zp,t", [(0.5, 0.7, 1.0), (0.8, 1.0, 1.4),
                                        (0.3, 0.9, 1.1)])
    def test_two_routes_agree(self, z, zp, t):
        # the contour integral against the closed form: the d = 2 commutator
        # prefactor -i pi (2 pi)^-1 sgn(t), times z z', times the
        # Sonine-Gegenbauer value of int u J_0(tau u) J_nu(z u) J_nu(z' u) du
        x = MinkVector((t, 0.2))
        tau = math.sqrt(t * t - 0.04)
        a = ads_commutator(SPEC, z, zp, x)
        oracle = -0.5j * z * zp * sonine_gegenbauer(SPEC.nu, tau, z, zp)[0]
        assert abs(a.value - oracle) < 1e-8
        assert abs(a.value) > 1e-3

    def test_antisymmetry(self):
        x = MinkVector((1.0, 0.2))
        a = ads_commutator(SPEC, 0.5, 0.7, x)
        b = ads_commutator(SPEC, 0.5, 0.7, -x)
        assert abs(a.value + b.value) < 1e-8

    def test_ads3_closed_form_within_estimate(self):
        # every point, not a fraction: the miss lies within the estimate and
        # within 1e-9 of the closed form's envelope
        misses = []
        for nu, z, zp, dx in ads3_timelike_points(144, seed=32):
            res = ads_commutator(AdSFieldSpec(Order(nu)), z, zp, dx)
            u = chordal_distance(AdSPoint(z, dx),
                                 AdSPoint(zp, MinkVector((0.0, 0.0))))
            closed, envelope = ads3_commutator(
                nu, u, math.copysign(1.0, dx.components[0]))
            miss = abs(res.value - closed)
            if not (miss <= res.error_estimate and miss <= 1e-9 * envelope):
                misses.append((nu, z, zp, dx.components))
        assert not misses


class TestMassChangeKernel:
    def test_identity_order(self):
        rep = mass_change_kernel_check(0.5, 0.5, 0.7, 1.2)
        assert rep.value < 5e-3

    def test_order_change(self):
        rep = mass_change_kernel_check(0.5, 1.5, 0.7, 1.2)
        assert rep.value < 5e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            mass_change_kernel_check(0.5, 1.5, -0.1, 1.0)
