import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gffads.adsboundary import (AdSFieldSpec, ads2pt, ads_commutator,
                                bonus_locality, boundary_limit_check,
                                boundary_limit_const, ccr_check,
                                holographic_lift, mass_change_kernel_check)
from gffads.correlators import BesselZ, GaussianPacket, smeared2pt
from gffads.errors import DomainError, LightConeProximityError
from gffads.fock import LightconeGrid, inner_product, position_wavefunction
from gffads.spacetime import MinkVector
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
# (nu, a, b, c) whose error estimate once fell short of the error: one in the
# vanishing region, one in the far region
ESTIMATE_MISS_POINTS = [
    (0.08319807465228324, 4.359897660481928, 7.474487490958063,
     0.5883059335142035),
    (0.0245, 5.27, 0.71, 0.165)]
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


class TestAdSFieldSpec:
    def test_delta_and_mass(self):
        assert SPEC.delta == pytest.approx(1.5)
        assert SPEC.mass_squared == pytest.approx(-0.75)
        assert AdSFieldSpec(Order(0.0)).mass_squared == pytest.approx(-1.0)


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
        rep = boundary_limit_check(AdSFieldSpec(Order(nu)),
                                   (0.08, 0.04, 0.02), MinkVector((0.0, 4.0)))
        assert rep["monotone"]
        assert rep["relative_deviations"][-1] < 1e-2

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
            self.psi(kp, km)
        assert np.max(np.abs(a(kp, km) - b)) < 1e-10

    def test_boundary_scaling_limit(self):
        # z^(-Delta) h_z(k^2) -> c_nu (k^2)^(nu/2) as z -> 0
        z = 1e-4
        kp, km, _ = self.grid.mesh()
        lifted = holographic_lift(SPEC, z, self.psi)(kp, km) / z ** SPEC.delta
        target = boundary_limit_const(SPEC.nu) * (kp * km) ** (SPEC.nu / 2.0) \
            * self.psi(kp, km)
        assert np.max(np.abs(lifted - target)) <= \
            1e-6 * np.max(np.abs(target))

    def test_inner_product_reproduces_bulk_2pt(self):
        l1 = holographic_lift(SPEC, 0.3, self.psi)
        l2 = holographic_lift(SPEC, 0.5, self.psi)
        got = inner_product(l1, l2)
        want = smeared2pt(BesselZ(0.3, SPEC.order), self.f,
                          BesselZ(0.5, SPEC.order), self.f, n_nodes=240).value
        assert rel_err(got, want) < 1e-8

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
        assert abs(rep["product_value"]) < 1e-10


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


class TestMassChangeKernel:
    def test_identity_order(self):
        rep = mass_change_kernel_check(0.5, 0.5, 0.7, 1.2)
        assert rep["relative_deviation"] < 5e-3

    def test_order_change(self):
        rep = mass_change_kernel_check(0.5, 1.5, 0.7, 1.2)
        assert rep["relative_deviation"] < 5e-3

    def test_validation(self):
        with pytest.raises(DomainError):
            mass_change_kernel_check(0.5, 1.5, -0.1, 1.0)
        with pytest.raises(DomainError):
            mass_change_kernel_check(0.5, 1.5, 0.7, 1.2,
                                     epsilons=(0.1, 0.2, 0.05))
