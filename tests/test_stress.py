import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gffads.correlators import GaussianPacket, lightcone_grid_nodes, norm_const
from gffads.errors import DomainError
from gffads.spacetime import MinkVector
from gffads.specfun import Order
from gffads.stress import (AnisoGaussian, DerivativePacket, MomentPacket,
                           _kernel_factors, _kernel_lightcone, _kernel_lower,
                           _lower, _unit_time_area,
                           ads_set_matrix_element, ads_set_reduction,
                           commutator_locality_check, conservation_check,
                           lorentz_density_check, momentum_density_check,
                           set_kernel, set_matrix_element, trace_check,
                           vacuum_fluctuation_divergence, z_integral_weight,
                           z_integral_weight_closed,
                           z_integral_weight_delta_check)

from conftest import rel_err


def lc_vector(kp, km):
    return MinkVector((0.5 * (kp + km), 0.5 * (kp - km)))


def onshell_pair(rng):
    k1p, k1m, k2p = rng.uniform(0.2, 2.0, 3)
    return lc_vector(k1p, k1m), lc_vector(k2p, k1p * k1m / k2p)


class TestKernel:
    def test_domain(self):
        fwd = MinkVector((2.0, 0.5))
        with pytest.raises(DomainError):
            set_kernel(MinkVector((0.5, 1.0)), fwd, (1, -1), 0, 0)
        with pytest.raises(DomainError):
            set_kernel(fwd, fwd, (1, -1), 2, 0)

    def test_index_symmetry(self, rng):
        for _ in range(20):
            k1, k2 = onshell_pair(rng)
            for signs in ((1, -1), (1, 1), (-1, -1), (-1, 1)):
                a = set_kernel(k1, k2, signs, 0, 1)
                b = set_kernel(k1, k2, signs, 1, 0)
                assert a == pytest.approx(b)

    def test_argument_exchange_symmetry(self, rng):
        k1, k2 = onshell_pair(rng)
        for mu in (0, 1):
            for nu in (0, 1):
                a = set_kernel(k1, k2, (1, -1), mu, nu)
                b = set_kernel(k2, k1, (-1, 1), mu, nu)
                assert a == pytest.approx(b)

    def test_onshell_conservation(self, rng):
        # Q^m K_mn = 0 for equal-mass momenta, any sign pattern
        worst = 0.0
        for _ in range(1000):
            k1, k2 = onshell_pair(rng)
            for signs in ((1, -1), (1, 1)):
                e1, e2 = signs
                q1 = (e1 * k1.components[0], -e1 * k1.components[1])
                q2 = (e2 * k2.components[0], -e2 * k2.components[1])
                Q = (q1[0] + q2[0], q1[1] + q2[1])  # lower components
                for nu in (0, 1):
                    # Q^0 = Q_0, Q^1 = -Q_1 when contracting lower indices
                    contr = Q[0] * set_kernel(k1, k2, signs, 0, nu) \
                        - Q[1] * set_kernel(k1, k2, signs, 1, nu)
                    worst = max(worst, abs(contr))
        assert worst < 1e-12

    def test_coincidence_limit(self, rng):
        # signs (+, -) at k1 = k2: K_0n = 2 k_0 k_n
        k1p, k1m = rng.uniform(0.3, 2.0, 2)
        k = lc_vector(k1p, k1m)
        klow = (k.components[0], -k.components[1])
        for nu in (0, 1):
            val = set_kernel(k, k, (1, -1), 0, nu)
            assert val == pytest.approx(2.0 * klow[0] * klow[nu])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    def test_rank4_factors_rebuild_kernel(self, q, improvement):
        q1, q2 = (q[0], q[1]), (q[2], q[3])
        scale = (1.0 + sum(x * x for x in q)) * (1.0 + abs(improvement))
        for mu in (0, 1):
            for nu in (0, 1):
                a, b = _kernel_factors(q1, q2, mu, nu, improvement)
                want = _kernel_lower(q1, q2, mu, nu, improvement)
                assert abs(np.sum(a * b) - want) <= 1e-13 * scale

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           st.sampled_from([1, -1]))
    def test_lightcone_polynomial_rebuilds_kernel(self, q, improvement, e2):
        # q2 = e2 lower(k2) has k2+ = e2 (q2_0 - q2_1), k2- = e2 (q2_0 + q2_1)
        q1, q2 = (q[0], q[1]), (q[2], q[3])
        kp, km = e2 * (q[2] - q[3]), e2 * (q[2] + q[3])
        scale = (1.0 + sum(x * x for x in q)) * (1.0 + abs(improvement))
        for mu in (0, 1):
            for nu in (0, 1):
                (c0, cp, cm), (dpp, dmm, dpm) = _kernel_lightcone(
                    q1, e2, mu, nu, improvement)
                got = c0 + cp * kp + cm * km + dpp * kp * kp + \
                    dmm * km * km + dpm * kp * km
                want = _kernel_lower(q1, q2, mu, nu, improvement)
                assert abs(got - want) <= 1e-13 * scale

    def test_improvement_conserved_off_shell(self, rng):
        # the improvement term alone contracts to zero for arbitrary momenta
        for _ in range(50):
            k1 = lc_vector(*rng.uniform(0.2, 2.0, 2))
            k2 = lc_vector(*rng.uniform(0.2, 2.0, 2))
            e1, e2 = 1, -1
            q1 = (e1 * k1.components[0], -e1 * k1.components[1])
            q2 = (e2 * k2.components[0], -e2 * k2.components[1])
            Q = (q1[0] + q2[0], q1[1] + q2[1])
            for nu in (0, 1):
                imp = [set_kernel(k1, k2, (e1, e2), mu, nu, improvement=0.7)
                       - set_kernel(k1, k2, (e1, e2), mu, nu)
                       for mu in (0, 1)]
                contr = Q[0] * imp[0] - Q[1] * imp[1]
                assert abs(contr) < 1e-12


class TestPackets:
    def test_aniso_gaussian_validation(self):
        with pytest.raises(DomainError):
            AnisoGaussian(0.0, 1.0)

    def test_moment_packet_matches_fd(self):
        base = AnisoGaussian(0.7, 1.1, center=(0.2, -0.4))
        k0, k1 = 0.9, -0.3
        h = 1e-5
        fd0 = (base.fourier(k0 + h, k1) - base.fourier(k0 - h, k1)) / (2 * h)
        fd1 = (base.fourier(k0, k1 + h) - base.fourier(k0, k1 - h)) / (2 * h)
        assert abs(base.fourier_derivative(0, k0, k1) - fd0) < 1e-8
        assert abs(base.fourier_derivative(1, k0, k1) - fd1) < 1e-8
        # x_0 smearing is -i d/dk^0, x^1 smearing flips the metric sign
        assert MomentPacket(base, 0).fourier(k0, k1) == pytest.approx(
            -1j * base.fourier_derivative(0, k0, k1))

    def test_derivative_packet(self):
        base = AnisoGaussian(0.7, 1.1)
        k0, k1 = 0.9, -0.3
        assert DerivativePacket(base, 1).fourier(k0, k1) == pytest.approx(
            -1j * k1 * base.fourier(k0, k1))


class TestMatrixElement:
    def test_reference_value(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        res = set_matrix_element(f, hpow, f1, hpow, f2, 0, 0, n_nodes=120)
        ref = 93.41092874079663 + 19.00402555833334j
        assert abs(res.value - ref) < 1e-9 * abs(ref)

    def test_orderings_distinct_and_finite(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        vals = {o: set_matrix_element(f, hpow, f1, hpow, f2, 0, 1,
                                      ordering=o).value
                for o in ("left", "middle", "right")}
        for v in vals.values():
            assert np.isfinite(v)
        assert abs(vals["middle"] - vals["right"]) > 1e-3

    def test_validation(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        with pytest.raises(DomainError):
            set_matrix_element(f, hpow, f1, hpow, f2, 0, 0, ordering="x")
        for mu, nu, n in ((2, 0, 8), (0, -1, 8), (0, 0, 1), (0, 0, 0)):
            with pytest.raises(DomainError):
                set_matrix_element(f, hpow, f1, hpow, f2, mu, nu, n_nodes=n)

    def test_half_grid_estimate_covers_error(self, packet_trio, hpow):
        # the estimate compares with n // 2 = 8 nodes, a coarser grid; the
        # reference is the n = 120 value of test_reference_value
        f1, f2, f = packet_trio
        res = set_matrix_element(f, hpow, f1, hpow, f2, 0, 0, n_nodes=16)
        ref = 93.41092874079663 + 19.00402555833334j
        assert res.error_estimate >= abs(res.value - ref) > 1.0

    def test_hermiticity(self, hpow):
        # f2.fourier(k) = conj(f1.fourier(-k)) makes bra and ket the same
        # state; a real symmetric smearing then gives a real diagonal element
        f1 = GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                            MinkVector((-2.0, -0.5)))
        f2 = GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                            MinkVector((2.0, 0.5)))
        f = GaussianPacket(MinkVector((0.0, 0.0)), 0.8, MinkVector((0.0, 0.0)))
        res = set_matrix_element(f, hpow, f1, hpow, f2, 0, 0, n_nodes=120)
        assert abs(res.value.imag) < 1e-10 * abs(res.value.real)

    @pytest.mark.parametrize("nu", [0, 1])
    @pytest.mark.parametrize("improvement", [0.0, 0.7])
    def test_conservation(self, packet_trio, hpow, nu, improvement):
        f1, f2, f = packet_trio
        rep = conservation_check(hpow, f1, hpow, f2, f, nu,
                                 improvement=improvement, n_nodes=96)
        assert rep["relative"] < 1e-8

    def test_trace_significant(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        rep = trace_check(hpow, f1, hpow, f2, f, n_nodes=96)
        assert rep["significant"]


def _set_broadcast(f, h1, f1, h2, f2, mu, nu, ordering, n, improvement):
    """set_matrix_element's value with the kernel and every packet's fourier
    broadcast over the full n^3 (k1+, k1-, k2+) grid (reference)."""
    e1, e2 = {"left": (-1, -1), "middle": (1, -1), "right": (1, 1)}[ordering]
    k, w = lightcone_grid_nodes(n, 2.0 * max(f1.reach, f2.reach))
    k1p = k[:, None, None]
    k1m = k[None, :, None]
    k2p = k[None, None, :]
    wt = w[:, None, None] * w[None, :, None] * w[None, None, :]
    k2m = k1p * k1m / k2p
    m2 = k1p * k1m
    q1 = tuple(e1 * c for c in _lower((k1p, k1m)))
    q2 = tuple(e2 * c for c in _lower((k2p, k2m)))
    h12 = np.asarray(h1(m2)) * np.asarray(h2(m2))
    vals = f1.fourier(-q1[0], q1[1]) * f2.fourier(-q2[0], q2[1]) * \
        f.fourier(q1[0] + q2[0], -(q1[1] + q2[1]))
    kern = _kernel_lower(q1, q2, mu, nu, improvement)
    return complex(norm_const(2) ** 2 * 0.25 *
                   np.sum(wt / k2p * h12 * kern * vals))


def _smearing(name):
    """Tensor smearings with carrier, center and unequal widths."""
    gauss = GaussianPacket(MinkVector((0.3, -0.4)), 0.9,
                           MinkVector((0.6, -0.3)))
    aniso = AnisoGaussian(0.7, 1.2, center=(0.2, -0.3))
    return {"gaussian": gauss, "aniso": aniso,
            "derivative0": DerivativePacket(gauss, 0),
            "derivative1": DerivativePacket(aniso, 1),
            "moment0": MomentPacket(aniso, 0),
            "moment1": MomentPacket(aniso, 1),
            "unit_time_area": _unit_time_area(3.0)}[name]


class TestSetBroadcast:
    @pytest.mark.parametrize("smearing", [
        "gaussian", "aniso", "derivative0", "derivative1", "moment0",
        "moment1", "unit_time_area"])
    @pytest.mark.parametrize("ordering", ["left", "middle", "right"])
    @pytest.mark.parametrize("mu,nu", [(0, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("improvement", [0.0, 0.3])
    def test_matches_broadcast_reference(self, packet_trio, hpow, smearing,
                                         ordering, mu, nu, improvement):
        f1, f2, _ = packet_trio
        f = _smearing(smearing)
        args = (f, hpow, f1, hpow, f2, mu, nu)
        got = set_matrix_element(*args, ordering=ordering, n_nodes=12,
                                 improvement=improvement)
        want = _set_broadcast(*args, ordering, 12, improvement)
        half = _set_broadcast(*args, ordering, 6, improvement)
        assert rel_err(got.value, want) < 1e-12
        assert abs(got.error_estimate - abs(want - half)) < 1e-12 * abs(want)


class TestDensityLimits:
    def test_momentum_density(self, packet_trio, hpow):
        f1, f2, _ = packet_trio
        for nu in (0, 1):
            rep = momentum_density_check(hpow, f1, hpow, f2, nu,
                                         (2.0, 4.0, 8.0))
            assert rep["monotone"]
            assert rep["relative_deviations"][-1] < 2e-2

    def test_lorentz_density(self, packet_trio, hpow):
        f1, f2, _ = packet_trio
        rep = lorentz_density_check(hpow, f1, hpow, f2, 0, 1,
                                    (4.0, 8.0, 12.0))
        assert rep["monotone"]
        assert rep["relative_deviations"][-1] < 2e-2

    def test_empty_sequence(self, packet_trio, hpow):
        f1, f2, _ = packet_trio
        with pytest.raises(DomainError):
            momentum_density_check(hpow, f1, hpow, f2, 0, ())


class TestCommutatorLocality:
    def test_spacelike_smearing_commutes(self, hpow):
        f = GaussianPacket(MinkVector((0.0, -3.0)), 0.5,
                           MinkVector((0.0, 0.0)))
        g = GaussianPacket(MinkVector((0.0, 3.0)), 0.5,
                           MinkVector((1.5, -0.3)))
        f1 = GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                            MinkVector((-2.0, -0.5)))
        rep = commutator_locality_check(f, g, hpow, hpow, f1, 0, 0,
                                        n_nodes=120)
        assert abs(rep["commutator"]) < 1e-6
        assert max(abs(v) for v in rep["orderings"]) > 1e-4


def _divergence_oracle(f, sigma, mu, nu, n, n_inner, kmax):
    """||Theta^sigma(f) Omega||^2 as an explicitly weighted 4-fold loop."""
    k, w = lightcone_grid_nodes(n, kmax)
    t, tw = np.polynomial.legendre.leggauss(n_inner)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    total = 0.0
    for a in range(n):
        for b in range(n):
            m1sq = k[a] * k[b]
            lo, hi = max(m1sq - 6.0 * sigma, 1e-12), m1sq + 6.0 * sigma
            k1 = lc_vector(k[a], k[b])
            for c in range(n):
                for j in range(n_inner):
                    u = 0.5 * (hi - lo) * (t[j] + 1.0) + lo
                    k2 = lc_vector(k[c], u / k[c])
                    kern = set_kernel(k1, k2, (1, 1), mu, nu)
                    fv = f.fourier(k1.components[0] + k2.components[0],
                                   k1.components[1] + k2.components[1])
                    hsq = norm ** 2 * math.exp(-((u - m1sq) / sigma) ** 2)
                    total += (w[a] * w[b] * w[c] * 0.5 * (hi - lo) * tw[j] *
                              hsq * abs(kern) ** 2 * abs(fv) ** 2 / k[c])
    return 0.5 * norm_const(2) ** 2 * 0.25 * total


class TestVacuumFluctuation:
    @pytest.mark.parametrize("f,mu,nu", [
        (AnisoGaussian(0.8, 0.8), 0, 0),
        # a carrier makes |fhat|^2 uneven in k^1
        (GaussianPacket(MinkVector((0.0, 0.0)), 0.8, MinkVector((1.5, 0.6))),
         0, 1)])
    def test_matches_weighted_oracle(self, f, mu, nu):
        sigmas = (0.4, 0.2)
        rep = vacuum_fluctuation_divergence(f, sigmas, mu, nu, n_nodes=5,
                                            n_inner=3)
        kmax = 2.0 * f.reach + 10.0
        for sigma, got in zip(sigmas, rep["values"]):
            want = _divergence_oracle(f, sigma, mu, nu, 5, 3, kmax)
            assert rel_err(got, want) < 1e-12

    def test_divergence_with_narrowing_weight(self):
        f = AnisoGaussian(0.8, 0.8)
        sigmas = [0.4 * 2.0 ** -i for i in range(6)]
        rep = vacuum_fluctuation_divergence(f, sigmas)
        assert rep["strictly_increasing"]
        assert 0.7 < rep["growth_exponent"] < 1.3

    def test_fixed_width_control_is_bounded(self):
        f = AnisoGaussian(0.8, 0.8)
        sigmas = [0.4 * 2.0 ** -i for i in range(4)]
        rep = vacuum_fluctuation_divergence(f, sigmas, fixed_width=0.3)
        spread = max(rep["values"]) - min(rep["values"])
        assert spread < 1e-10 * max(rep["values"])

    def test_validation(self):
        f = AnisoGaussian(0.8, 0.8)
        # a growth exponent needs two widths
        for sigmas in ((0.1, 0.2), (), [0.4]):
            with pytest.raises(DomainError):
                vacuum_fluctuation_divergence(f, sigmas)
        with pytest.raises(DomainError):
            vacuum_fluctuation_divergence(f, (0.2, 0.1), mu=-1)


class TestZIntegralWeight:
    def test_closed_matches_adaptive(self):
        for (m1sq, m2sq) in ((0.7, 1.9), (1.2, 1.2), (0.3, 4.1)):
            a = z_integral_weight(0.5, 3.0, m1sq, m2sq)
            b = z_integral_weight_closed(0.5, 3.0, m1sq, m2sq)
            assert abs(a - b) < 1e-10

    def test_half_order_sine_oracle(self):
        # J_1/2 reduces to sines: (1/2) int z J = [sin(aZ)/a - sin(bZ)/b]
        # / (2 pi sqrt(m1 m2)) with a = m1 - m2, b = m1 + m2
        Z, m1sq, m2sq = 2.7, 0.8, 2.3
        m1, m2 = math.sqrt(m1sq), math.sqrt(m2sq)
        a, b = m1 - m2, m1 + m2
        oracle = (math.sin(a * Z) / a - math.sin(b * Z) / b) / \
            (math.pi * math.sqrt(m1 * m2)) / 2.0
        got = z_integral_weight_closed(Order(0.5), Z, m1sq, m2sq)
        assert rel_err(got, oracle) < 1e-10

    def test_delta_limit(self):
        m1sq = 1.3
        devs = [z_integral_weight_delta_check(
            0.5, Z, m1sq)["relative_deviation"] for Z in (20.0, 60.0, 200.0)]
        assert devs[-1] < 1e-6
        assert devs[2] < devs[1] < devs[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            z_integral_weight(0.5, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            z_integral_weight_delta_check(0.5, 10.0, -1.0)


def _ads_broadcast(nu, Z, f, h1, f1, h2, f2, mu, nu_idx, n_outer, n_inner,
                   improvement=0.0):
    """ads_set_matrix_element with the kernel and every factor broadcast over
    the (k1+, k1-, k2-) grid of each k2+ node (reference)."""
    kmax = 2.0 * max(f1.reach, f2.reach)
    k, w = lightcone_grid_nodes(n_outer, kmax)
    k2m_grid, w2m = lightcone_grid_nodes(n_inner, kmax)
    k1p = k[:, None, None]
    k1m = k[None, :, None]
    w1 = w[:, None, None] * w[None, :, None]
    m1sq = k1p * k1m
    k1_0, k1_1 = 0.5 * (k1p + k1m), 0.5 * (k1p - k1m)
    bra = np.asarray(h1(m1sq)) * f1.fourier(-k1_0, -k1_1)
    total = 0.0j
    for i2, k2p in enumerate(k):
        k2m = k2m_grid[None, None, :]
        wk2 = w[i2] * w2m[None, None, :]
        m2sq = k2p * k2m
        wz = z_integral_weight_closed(nu, Z, m1sq, m2sq)
        k2_0, k2_1 = 0.5 * (k2p + k2m), 0.5 * (k2p - k2m)
        q1 = _lower((k1p, k1m))
        q2 = (-0.5 * (k2p + k2m), 0.5 * (k2p - k2m))
        kern = _kernel_lower((q1[0] + 0.0 * k2m, q1[1] + 0.0 * k2m),
                             q2, mu, nu_idx, improvement)
        vals = bra * np.asarray(h2(m2sq)) * f2.fourier(k2_0, k2_1) * \
            f.fourier(k1_0 - k2_0, k1_1 - k2_1)
        total += np.sum(w1 * wk2 * wz * kern * vals)
    return complex(norm_const(2) ** 2 * 0.25 * total)


class TestAdsReduction:
    @pytest.mark.parametrize("mu,nu_idx", [(0, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("improvement", [0.0, 0.3])
    def test_matches_broadcast_reference(self, packet_trio, hpow, mu, nu_idx,
                                         improvement):
        # packet_trio's smearing has no carrier or center; the other two
        # exercise the phase and carrier terms of the row-column split.
        # n_inner = n_outer puts k2 masses exactly on the k1 masses, so the
        # diagonal Lommel value is taken too
        f1, f2, f0 = packet_trio
        for f in (f0, _smearing("gaussian"), _smearing("aniso")):
            args = (0.5, 4.0, f, hpow, f1, hpow, f2, mu, nu_idx)
            for n_inner in (80, 10):
                got = ads_set_matrix_element(*args, n_outer=10,
                                             n_inner=n_inner,
                                             improvement=improvement)
                want = _ads_broadcast(*args, 10, n_inner, improvement)
                assert rel_err(got, want) < 1e-12


    def test_depth_cutoff_converges_to_sharp_element(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        rep = ads_set_reduction(0.5, (2.0, 4.0, 8.0), f, hpow, f1, hpow, f2,
                                0, 0, n_outer=32, n_inner=600)
        assert rep["final_relative_deviation"] < 1e-2
        assert rep["relative_deviations"][-1] < rep["relative_deviations"][0]

    def test_sequence_validation(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        for zs in ((4.0, 2.0), ()):
            with pytest.raises(DomainError):
                ads_set_reduction(0.5, zs, f, hpow, f1, hpow, f2, 0, 0)
        with pytest.raises(DomainError):
            ads_set_matrix_element(0.5, 4.0, f, hpow, f1, hpow, f2, 0, 2)


def _traced_peak(run):
    """Peak bytes tracemalloc sees while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # the grids are walked one k2+ slice at a time: about 2.4 MB and 24 MB
    # at these sizes, against 122 MB and 63 MB for n^3 broadcast arrays
    def test_conservation_peak(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        peak = _traced_peak(lambda: conservation_check(
            hpow, f1, hpow, f2, f, 0, n_nodes=96))
        assert peak < 5e6

    def test_ads_set_matrix_element_peak(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        peak = _traced_peak(lambda: ads_set_matrix_element(
            0.5, 8.0, f, hpow, f1, hpow, f2, 0, 0, n_outer=32, n_inner=600))
        assert peak < 50e6
