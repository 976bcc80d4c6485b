import math

import numpy as np
import pytest

from gffads.correlators import (BesselZ, Correlator, DeltaDiagonalWeight,
                                GaussianPacket, MassWeight, One, Polynomial,
                                Power, ScaledWeight, Tabulated, commutator_kg,
                                commutator_kg_eps, default_cutoff, gff2pt,
                                gff_commutator, kallen_lehmann_2pt, norm_const,
                                scaling_covariance_check, smeared2pt,
                                wick2pt, wightman_kg,
                                wightman_kg_momentum_oracle)
from gffads.errors import DivergenceError, DomainError
from gffads.spacetime import MinkVector
from gffads.specfun import Order, bessel_k

from conftest import rel_err


class TestWeights:
    def test_basic_evaluation(self):
        m2 = np.array([0.5, 1.0, 4.0])
        assert np.allclose(One()(m2), 1.0)
        assert np.allclose(Polynomial((1.0, 2.0))(m2), 1.0 + 2.0 * m2)
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
            MassWeight(One(), support=(2.0, 1.0))
        with pytest.raises(DomainError):
            MassWeight(One(), support=(0.0, 1.0),
                       point_masses=((1.0, -0.5),))


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

    def test_domain(self):
        with pytest.raises(DomainError):
            wightman_kg(-1.0, MinkVector((0.0, 1.0)))
        with pytest.raises(DomainError):
            wightman_kg(1.0, MinkVector((0.0, 1.0)), epsilon=0.0)


class TestCommutatorKG:
    def test_spacelike_zero(self):
        res = commutator_kg(1.0, MinkVector((0.2, 1.5)))
        assert res.value == 0.0 and res.error_estimate == 0.0

    def test_lightcone_rejected(self):
        with pytest.raises(DomainError):
            commutator_kg(1.0, MinkVector((1.0, 1.0)))

    def test_eps_extrapolation_oracle(self):
        for x in (MinkVector((1.3, 0.4)), MinkVector((-0.9, 0.1))):
            closed = commutator_kg(1.0, x)
            extrap = commutator_kg_eps(1.0, x)
            assert abs(closed.value - extrap.value) < 1e-7

    def test_eps_extrapolation_oracle_d4(self):
        x = MinkVector((1.5, 0.3, 0.2, -0.1))
        closed = commutator_kg(0.8, x)
        extrap = commutator_kg_eps(0.8, x)
        assert abs(closed.value - extrap.value) < 1e-6

    def test_antisymmetry(self):
        x = MinkVector((1.1, 0.3))
        assert commutator_kg(1.0, x).value == \
            pytest.approx(-commutator_kg(1.0, -x).value)


class TestGff2pt:
    def test_power_weight_closed_form(self):
        # int_0^inf dm^2 m (2 pi)^-1 K_0(m r) = r^-3 / 2
        r = 1.3
        g = gff2pt(Power(0.5), Power(0.5), MinkVector((0.0, r)), epsilon=1e-8)
        assert rel_err(g.value.real, 0.5 * r ** -3) < 1e-6

    def test_one_weight_finite_cutoff_oracle(self):
        # int_0^M 2m dm (2 pi)^-1 K_0(m r) = (1 - M r K_1(M r)) / (pi r^2)
        r, mmax = 0.8, 6.0
        g = gff2pt(One(), One(), MinkVector((0.0, r)), epsilon=1e-9,
                   cutoff=mmax ** 2)
        oracle = (1.0 - mmax * r * bessel_k(1.0, mmax * r)) / (np.pi * r ** 2)
        assert rel_err(g.value.real, oracle) < 1e-8

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
        h = Polynomial((1.0, 0.3))
        rs = np.geomspace(1.0, 8.0, 6)
        vals = [abs(gff2pt(h, h, MinkVector((0.0, r))).value) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_default_cutoff_requires_spacelike(self):
        with pytest.raises(DomainError):
            default_cutoff(MinkVector((2.0, 0.1)))

    def test_scaling_covariance(self):
        x = MinkVector((0.2, 1.1))
        for h, lam in ((Power(0.5), 1.6), (Polynomial((0.5, 1.0)), 0.7)):
            rep = scaling_covariance_check(h, lam, x)
            assert rep["pass"]
        # homogeneous weight: both sides reduce to lambda^(2 Delta) times the
        # unscaled function, Delta = d/2 + nu
        nu, lam = 0.5, 1.6
        rep = scaling_covariance_check(Power(nu), lam, x)
        base = gff2pt(Power(nu), Power(nu), x)
        assert rel_err(rep["right"].value, lam ** (2.0 * (1.0 + nu))
                       * base.value) < 1e-8


class TestKallenLehmann:
    def test_consistency_with_gff2pt(self):
        x = MinkVector((0.0, 1.2))
        cut = default_cutoff(x)
        h = Polynomial((0.2, 1.0))
        rho = MassWeight(lambda m2: np.asarray(h(m2)) ** 2, support=(0.0, cut))
        a = kallen_lehmann_2pt(rho, x)
        b = gff2pt(h, h, x, cutoff=cut)
        assert abs(a.value - b.value) < 1e-8 * abs(b.value)

    def test_point_mass(self):
        x = MinkVector((0.0, 1.2))
        rho = MassWeight(lambda m2: np.zeros_like(np.asarray(m2)),
                         support=(0.0, 1.0), point_masses=((2.25, 0.7),))
        a = kallen_lehmann_2pt(rho, x)
        w = wightman_kg(1.5, x)
        assert abs(a.value - 0.7 * w.value) < 1e-10


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

    def test_gaussian_weight_estimate_covers_error(self):
        x = MinkVector((1.3, 0.4))
        tau = math.sqrt(float(x.square()))
        h = lambda m2: np.exp(-np.asarray(m2) / 2.0)
        res = gff_commutator(h, h, x)
        oracle = -0.5j * math.exp(-tau ** 2 / 4.0)
        assert abs(res.value - oracle) <= res.error_estimate

    def test_scaled_power_weight(self):
        # h_lambda = lambda^(3/2) m^(1/2) for h = m^(1/2), so the commutator
        # scales by lambda^(3/2)
        x = MinkVector((1.1, 0.2))
        a = gff_commutator(ScaledWeight(Power(0.5), 1.7), Power(0.5), x)
        b = gff_commutator(Power(0.5), Power(0.5), x)
        assert abs(a.value - 1.7 ** 1.5 * b.value) <= \
            a.error_estimate + 1.7 ** 1.5 * b.error_estimate

    def test_weight_without_decay_raises(self):
        h = Polynomial((1.0, 1.0))
        with pytest.raises(DivergenceError, match="gff_commutator"):
            gff_commutator(h, h, MinkVector((1.1, 0.2)))

    def test_gaussian_weight_closed_form(self):
        # int_0^inf 2 m e^{-m^2} J_0(m tau) dm = e^{-tau^2 / 4}
        x = MinkVector((1.3, 0.4))
        tau = math.sqrt(float(x.square()))
        h = lambda m2: np.exp(-np.asarray(m2) / 2.0)
        res = gff_commutator(h, h, x)
        oracle = -0.5j * math.exp(-tau ** 2 / 4.0)
        assert abs(res.value - oracle) < 1e-6 * abs(oracle)

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


class TestWick2pt:
    def test_factorized_weight(self):
        # h^2 = e^{-(m1^2 + m2^2)/2} factorizes, so the double integral is
        # twice the square of a single-weight two-point function
        x = MinkVector((0.0, 1.1))
        cut = default_cutoff(x)
        h2 = lambda a, b: np.exp(-(a + b) / 4.0)
        h1 = lambda m2: np.exp(-np.asarray(m2) / 4.0)
        w = wick2pt(h2, x, cutoff=cut)
        g = gff2pt(h1, h1, x, cutoff=cut)
        assert rel_err(w.value, 2.0 * g.value ** 2) < 1e-5
        # 2 g^2 carries the error 4 |g| of g's own estimate
        assert abs(w.value - 2.0 * g.value ** 2) <= \
            w.error_estimate + 4.0 * abs(g.value) * g.error_estimate

    def test_delta_diagonal_rejected(self):
        with pytest.raises(DivergenceError):
            wick2pt(DeltaDiagonalWeight(), MinkVector((0.0, 1.0)))


class TestMisc:
    def test_norm_const(self):
        assert norm_const(2) == pytest.approx(1.0 / (2.0 * np.pi))
        assert norm_const(4) == pytest.approx((2.0 * np.pi) ** -3)

    def test_correlator_validation(self):
        with pytest.raises(DomainError):
            Correlator(1.0, -1e-3)
