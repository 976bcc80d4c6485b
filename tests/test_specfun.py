import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from gffads.errors import DomainError
from gffads.quadrature import adaptive_finite
from gffads.specfun import (Order, bessel_j, bessel_k, gamma, hankel_scaled,
                            j_even, kv_complex)

from conftest import rel_err


EPS = np.finfo(float).eps
# orders of bessel_j's routes: j0, the closed forms at +-1/2, jv; and of
# hankel_scaled's: AMOS at 0 and 1.3, the closed forms at +-1/2
J_ROUTES = (0.0, 0.5, -0.5, 1.3, 3.0)
H_ROUTES = (0.0, 0.5, -0.5, 1.3)
# C of the accuracy contract: the routes that specfun evaluates itself (j0
# and the closed forms) reach 1.9, AMOS jv, hankel1e and hankel2e reach
# about 160 at nu = 1.3
C_OWN, C_AMOS = 4.0, 256.0


def _mp_hankel_scaled(sign, nu, z):
    """H_nu(z) e^(-i sign z) by mpmath's K_nu (DLMF 10.27.8), which stays
    accurate where H decays and J, Y cancel."""
    z = mpmath.mpc(z)
    k = mpmath.besselk(nu, -1j * sign * z)
    phase = mpmath.exp(-0.5j * sign * mpmath.pi * nu - 1j * sign * z)
    return sign * 2.0 / (mpmath.pi * 1j) * phase * k


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_pole_rejected(self):
        for bad in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma(bad)

    def test_array_input(self):
        x = np.array([0.1, 1.0, 10.0, 50.0])
        out = gamma(x)
        assert out.shape == x.shape
        assert rel_err(out[2], 362880.0) < 1e-13


class TestOrder:
    def test_validates_range(self):
        Order(0.0)
        Order(-0.999)
        with pytest.raises(DomainError):
            Order(-1.0)
        with pytest.raises(DomainError):
            Order(float("nan"))


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0.0, 0.0) == 1.0

    def test_half_integer_oracle(self):
        for u in (0.5, 1.0, 5.0, 20.0):
            oracle = math.sqrt(2.0 / (math.pi * u)) * math.sin(u)
            assert rel_err(bessel_j(Order(0.5), u), oracle) < 1e-12

    def test_small_argument_power_law(self):
        nu = 0.7
        u = 1e-6
        lead = 2.0 ** (-nu) / gamma(nu + 1.0)
        assert rel_err(bessel_j(nu, u) / u ** nu, lead) < 1e-10

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(0.5, -0.1)
        with pytest.raises(DomainError):
            bessel_j(0.5, float("nan"))

    def test_limit_at_infinity(self):
        for nu in J_ROUTES + (-0.3,):
            assert bessel_j(nu, math.inf) == 0.0
            out = bessel_j(nu, np.array([1.0, math.inf]))
            assert out[1] == 0.0 and out[0] == bessel_j(nu, 1.0)

    @pytest.mark.parametrize("nu", J_ROUTES)
    def test_values_at_origin_are_those_of_jv(self, nu):
        want = {0.0: 1.0, 0.5: 0.0, -0.5: math.inf, 1.3: 0.0, 3.0: 0.0}[nu]
        assert bessel_j(nu, 0.0) == sp.jv(nu, 0.0) == want
        assert bessel_j(nu, np.array([0.0, 1.0]))[0] == want

    @pytest.mark.parametrize("nu", J_ROUTES)
    def test_every_route_checks_its_argument(self, nu):
        for bad in (-0.1, math.nan, np.array([1.0, -1.0])):
            with pytest.raises(DomainError):
                bessel_j(nu, bad)
        assert type(bessel_j(nu, 1.0)) is float

    @pytest.mark.parametrize("nu", J_ROUTES)
    def test_accuracy_contract_against_mpmath(self, nu):
        # |error| <= C eps (u |J_nu'(u)| + sqrt(2 / (pi max(u, 1)))), the
        # change one rounding of u makes, on [0, 2000]
        rng = np.random.default_rng(24)
        u = np.concatenate([[1e-8, 1e-3], rng.uniform(0.0, 25.0, 100),
                            rng.uniform(25.0, 2000.0, 40)])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.besselj(nu, mpmath.mpf(x)))
                             for x in u])
        slope = 0.5 * np.abs(sp.jv(nu - 1.0, u) - sp.jv(nu + 1.0, u))
        bound = EPS * (u * slope + np.sqrt(2.0 / (np.pi * np.maximum(u, 1.0))))
        c = C_AMOS if nu not in (0.0, 0.5, -0.5) else C_OWN
        assert np.all(np.abs(bessel_j(nu, u) - want) <= c * bound)

    def test_ode_residual(self):
        # (u d/du)^2 J + (u^2 - nu^2) J = 0, finite-difference derivatives
        h = 1e-3
        for nu in (0.0, 0.5, 1.3, 3.0):
            u = np.linspace(0.5, 50.0, 120)
            jm, j0, jp = (bessel_j(nu, u - h), bessel_j(nu, u),
                          bessel_j(nu, u + h))
            d1 = (jp - jm) / (2.0 * h)
            d2 = (jp - 2.0 * j0 + jm) / h ** 2
            res = u ** 2 * d2 + u * d1 + (u ** 2 - nu ** 2) * j0
            bound = 1e-6 * np.maximum(1.0, np.abs(j0)) * (1.0 + u ** 2)
            assert np.all(np.abs(res) <= bound)

    def test_recurrence(self):
        u = np.linspace(0.1, 50.0, 200)
        for nu in (0.5, 1.3, 3.0):
            lhs = bessel_j(nu - 1.0, u) + bessel_j(nu + 1.0, u)
            rhs = 2.0 * nu / u * bessel_j(nu, u)
            scale = np.maximum(np.abs(rhs), 1e-3)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-9


class TestHankelScaled:
    def test_half_integer_oracle(self):
        # H1_(1/2)(z) = -i sqrt(2 / (pi z)) e^(iz), H2 its mirror image
        z = np.array([0.5 + 0.0j, 3.0 + 40.0j, 3.0 - 40.0j, 20.0 + 700.0j])
        amp = np.sqrt(2.0 / (np.pi * z))
        assert np.max(np.abs(hankel_scaled(1, 0.5, z) + 1j * amp)
                      / np.abs(amp)) < 1e-13
        assert np.max(np.abs(hankel_scaled(-1, 0.5, z) - 1j * amp)
                      / np.abs(amp)) < 1e-13

    def test_sum_is_twice_besselj(self):
        u = 2.7
        total = hankel_scaled(1, 1.3, u) * np.exp(1j * u) + \
            hankel_scaled(-1, 1.3, u) * np.exp(-1j * u)
        assert abs(total - 2.0 * bessel_j(1.3, u)) < 1e-14

    def test_domain(self):
        # sign and Re z are checked before any route is taken
        for nu in H_ROUTES:
            for bad_z in (-1.0 + 2.0j, 0.0, complex(math.nan, 1.0),
                          np.array([1.0, -1.0 + 1.0j])):
                with pytest.raises(DomainError):
                    hankel_scaled(1, nu, bad_z)
            for bad_sign in (0, 2, -2):
                with pytest.raises(DomainError):
                    hankel_scaled(bad_sign, nu, 1.0)
            assert type(hankel_scaled(-1, nu, 1.0 + 1.0j)) is complex

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("nu", H_ROUTES)
    def test_accuracy_contract_against_mpmath(self, nu, sign):
        # h(z) = H_nu(z) e^(-i sign z): |error| <= C eps (|z h'(z)| + |h|),
        # on the real axis and on rays Re z in (0, 2000], |Im z| <= 3 Re z
        rng = np.random.default_rng(24)
        x = np.concatenate([rng.uniform(0.01, 25.0, 8),
                            rng.uniform(25.0, 2000.0, 4)])
        z = np.concatenate([x + 0j, x * (1.0 + 3j * rng.uniform(-1.0, 1.0,
                                                                x.size))])
        with mpmath.workdps(40):
            want = np.array([complex(_mp_hankel_scaled(sign, nu, zi))
                             for zi in z])
        amos = sp.hankel1e if sign == 1 else sp.hankel2e
        h = amos(nu, z)
        dh = 0.5 * (amos(nu - 1.0, z) - amos(nu + 1.0, z)) - 1j * sign * h
        bound = EPS * (np.abs(z * dh) + np.abs(h))
        c = C_OWN if abs(nu) == 0.5 else C_AMOS
        assert np.all(np.abs(hankel_scaled(sign, nu, z) - want) <= c * bound)


class TestBesselK:
    def test_half_integer_oracle(self):
        for u in (0.1, 1.0, 10.0):
            oracle = math.sqrt(math.pi / (2.0 * u)) * math.exp(-u)
            assert rel_err(bessel_k(Order(0.5), u), oracle) < 1e-12

    def test_integral_representation(self):
        # K_0(1) = int_0^inf exp(-cosh t) dt
        res = adaptive_finite(lambda t: np.exp(-np.cosh(t)), 1e-12, 30.0,
                              tol=1e-12)
        assert rel_err(bessel_k(0.0, 1.0), res.value.real) < 1e-10

    def test_order_symmetry(self):
        assert rel_err(bessel_k(-0.3, 2.0), bessel_k(0.3, 2.0)) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0)


@pytest.mark.parametrize("fn", [bessel_j, bessel_k, kv_complex])
class TestArgumentCheck:
    def test_nan_argument_rejected(self, fn):
        with pytest.raises(DomainError):
            fn(0.5, float("nan"))
        with pytest.raises(DomainError):
            fn(0.5, np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("nu", [float("nan"), float("inf"),
                                    -float("inf")])
    def test_non_finite_order_rejected(self, fn, nu):
        with pytest.raises(DomainError):
            fn(nu, 1.0)

    def test_empty_array(self, fn):
        out = fn(0.5, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestJEven:
    def test_value_at_zero(self):
        for nu in (0.0, 0.7, 2.5):
            assert rel_err(j_even(nu, 0.0),
                           2.0 ** (-nu) / gamma(nu + 1.0)) < 1e-13

    def test_positive_axis_identity(self):
        nu = 0.7
        for u in (0.5, 2.0, 8.0):
            assert rel_err(j_even(Order(nu), u * u) * u ** nu,
                           bessel_j(nu, u)) < 1e-10

    def test_negative_axis_modified_bessel(self):
        nu, u = 0.7, 2.0
        assert rel_err(j_even(nu, -u * u), sp.iv(nu, u) * u ** (-nu)) < 1e-10

    def test_matches_besselj_up_to_ten(self):
        nu = 1.3
        u = np.linspace(0.1, 10.0, 77)
        assert np.max(np.abs(j_even(nu, u ** 2) * u ** nu - bessel_j(nu, u))
                      / np.abs(bessel_j(nu, u) + 1e-3)) < 1e-10

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.3])
    def test_series_matches_bessel_at_the_domain_edge(self, nu):
        # the series is summed for |s| <= 100; at the edge it must still
        # match the Bessel functions
        for sign in (1.0, -1.0):
            s = sign * 99.999
            u = math.sqrt(abs(s))
            bessel = bessel_j(nu, u) if sign > 0 else sp.iv(nu, u)
            assert rel_err(j_even(nu, s), bessel * u ** (-nu)) < 1e-11

    def test_beyond_the_series_domain_rejected(self):
        for s in (100.001, -100.001, -1e8, np.nan, [1.0, 150.0]):
            with pytest.raises(DomainError, match="j_even"):
                j_even(0.5, s)


class TestKvComplex:
    def test_real_axis_agrees_with_besselk(self):
        for nu in (0.0, 0.5, 1.3):
            for u in (0.3, 1.0, 5.0):
                val = kv_complex(nu, u + 0.0j)
                assert rel_err(val.real, bessel_k(nu, u)) < 1e-10
                assert abs(val.imag) < 1e-12 * abs(val.real)

    def test_complex_argument_finite(self):
        z = 1.0 - 0.4j
        val = kv_complex(0.5, z)
        oracle = math.sqrt(math.pi / 2.0) * np.exp(-z) / np.sqrt(z)
        assert abs(val - oracle) < 1e-12 * abs(oracle)

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            kv_complex(0.5, -1.0 + 0.5j)
