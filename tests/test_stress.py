import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gffads.correlators import (Correlator, GaussianPacket, Smearing,
                                _exponent, lightcone_grid_nodes, norm_const)
from gffads.cli import _divergence_oracle
from gffads.errors import DomainError
from gffads.fock import GeneratorKind
from gffads.spacetime import MinkVector
from gffads.specfun import Order
from gffads.quadrature import _gauss_legendre
from gffads.stress import (_EXP_FAST, AnisoGaussian, DerivativePacket,
                           MomentPacket, _kernel_factors, _kernel_lightcone,
                           _kernel_lower, _lommel_factors, _lower,
                           _set_terms, _unit_time_area,
                           ads_set_matrix_element, ads_set_reduction,
                           commutator_locality_check, conservation_check,
                           generator_matrix_element, lorentz_density_check,
                           momentum_density_check,
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


def off_centre(wt, ws, center):
    """The heights-1 anisotropic Gaussian of widths (wt, ws) centred at
    center, as a Smearing built from its Gaussian form."""
    return Smearing(((2.0 * np.pi) * wt * ws, (wt ** 2, ws ** 2), (0.0, 0.0),
                     center), Smearing.prefactor)


class TestKernel:
    def test_domain(self):
        fwd = MinkVector((2.0, 0.5))
        with pytest.raises(DomainError):
            set_kernel(MinkVector((0.5, 1.0)), fwd, (1, -1), 0, 0)
        with pytest.raises(DomainError):
            set_kernel(fwd, fwd, (1, -1), 2, 0)
        # each sign is +1 or -1
        for signs in ((2, -1), (0, -1), (1, 0.5)):
            with pytest.raises(DomainError):
                set_kernel(fwd, fwd, signs, 0, 0)

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
    @given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
    def test_rank4_factors_rebuild_kernel(self, q):
        q1, q2 = (q[0], q[1]), (q[2], q[3])
        scale = 1.0 + sum(x * x for x in q)
        for mu in (0, 1):
            for nu in (0, 1):
                a, b = _kernel_factors(q1, q2, mu, nu)
                want = _kernel_lower(q1, q2, mu, nu)
                assert abs(np.sum(a * b) - want) <= 1e-13 * scale

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           st.sampled_from([1, -1]))
    def test_lightcone_polynomial_rebuilds_kernel(self, q, e2):
        # q2 = e2 lower(k2) has k2+ = e2 (q2_0 - q2_1), k2- = e2 (q2_0 + q2_1)
        q1, q2 = (q[0], q[1]), (q[2], q[3])
        kp, km = e2 * (q[2] - q[3]), e2 * (q[2] + q[3])
        scale = 1.0 + sum(x * x for x in q)
        for mu in (0, 1):
            for nu in (0, 1):
                (c0, cp, cm), (dpp, dmm, dpm) = _kernel_lightcone(
                    q1, e2, mu, nu)
                got = c0 + cp * kp + cm * km + dpp * kp * kp + \
                    dmm * km * km + dpm * kp * km
                want = _kernel_lower(q1, q2, mu, nu)
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

    def test_gaussian_forms_match_grid_transform(self):
        # fhat(k) = int d^2x f(x) exp(i (k0 x0 - k1 x1)) by the trapezoid
        # rule, for the heights-1 AnisoGaussian, its off-centre form and the
        # smearing of unit time integral
        x = np.linspace(-12.0, 12.0, 1201)
        t, y = np.meshgrid(x, x, indexing="ij")
        k = (0.7, -0.3)
        phase = np.exp(1j * (k[0] * t - k[1] * y))
        for f, values in (
                (AnisoGaussian(0.7, 1.2),
                 np.exp(-t ** 2 / (2 * 0.49) - y ** 2 / (2 * 1.44))),
                (off_centre(0.7, 1.2, (0.2, -0.3)),
                 np.exp(-(t - 0.2) ** 2 / (2 * 0.49)
                        - (y + 0.3) ** 2 / (2 * 1.44))),
                (_unit_time_area(1.5),
                 np.exp(-t ** 2 / 0.5 - y ** 2 / 4.5)
                 / math.sqrt(0.5 * np.pi))):
            num = np.trapezoid(np.trapezoid(values * phase, x, axis=1), x)
            assert abs(num - f.fourier(*k)) < 1e-10 * abs(num)

    def test_moment_packet_matches_fd(self):
        # x_0 smearing is -i d/dk^0, x^1 smearing flips the metric sign;
        # the second base has a carrier
        k0, k1 = 0.9, -0.3
        h = 1e-5
        for base in (off_centre(0.7, 1.1, (0.2, -0.4)),
                     GaussianPacket(MinkVector((0.2, -0.4)), 0.8,
                                    MinkVector((0.6, -0.3)))):
            for mu, sign, (a, b) in ((0, -1j, (h, 0.0)), (1, 1j, (0.0, h))):
                fd = (base.fourier(k0 + a, k1 + b)
                      - base.fourier(k0 - a, k1 - b)) / (2 * h)
                got = MomentPacket(base, mu).fourier(k0, k1)
                assert abs(got - sign * fd) < 1e-8

    def test_derivative_packet(self):
        base = AnisoGaussian(0.7, 1.1)
        k0, k1 = 0.9, -0.3
        assert DerivativePacket(base, 1).fourier(k0, k1) == pytest.approx(
            -1j * k1 * base.fourier(k0, k1))

    @pytest.mark.parametrize("packet", [DerivativePacket, MomentPacket])
    def test_polynomial_packet_validation(self, packet):
        base = AnisoGaussian(0.7, 1.1)
        for mu in (-1, 2):
            with pytest.raises(DomainError, match="out of range"):
                packet(base, mu)
        # a packet's form would drop the prefactor of a polynomial base
        for inner in (DerivativePacket, MomentPacket):
            with pytest.raises(DomainError, match="prefactor"):
                packet(inner(base, 0), 1)


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
        # the ket enters through its Gaussian form alone
        with pytest.raises(DomainError, match="prefactor"):
            set_matrix_element(f, hpow, f1, hpow, DerivativePacket(f2, 0),
                               0, 0)

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
    def test_conservation(self, packet_trio, hpow, nu):
        f1, f2, f = packet_trio
        rep = conservation_check(hpow, f1, hpow, f2, f, nu, n_nodes=96)
        assert rep["relative"] < 1e-8

    def test_trace_significant(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        tr = trace_check(hpow, f1, hpow, f2, f, n_nodes=96)
        assert abs(tr.value) > 10.0 * tr.error_estimate


def _set_broadcast(f, h1, f1, h2, f2, mu, nu, ordering, n, improvement):
    """set_matrix_element's value with the kernel of the given improvement
    and every packet's fourier broadcast over the full n^3 (k1+, k1-, k2+)
    grid (reference)."""
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
    aniso = off_centre(0.7, 1.2, (0.2, -0.3))
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
    @pytest.mark.parametrize("improvement", [0.0])
    def test_matches_broadcast_reference(self, packet_trio, hpow, smearing,
                                         ordering, mu, nu, improvement):
        # set_matrix_element carries the unimproved kernel
        f1, f2, _ = packet_trio
        f = _smearing(smearing)
        args = (f, hpow, f1, hpow, f2, mu, nu)
        got = set_matrix_element(*args, ordering=ordering, n_nodes=12)
        want = _set_broadcast(*args, ordering, 12, improvement)
        half = _set_broadcast(*args, ordering, 6, improvement)
        assert rel_err(got.value, want) < 1e-12
        assert abs(got.error_estimate - abs(want - half)) < 1e-12 * abs(want)


class TestOnePass:
    """The checks that share one Gaussian among several terms evaluate them
    in one _set_terms pass; every value is == to the term on its own."""

    @pytest.fixture(params=[96, 12])
    def n_nodes(self, request):
        return request.param

    @pytest.mark.parametrize("nu", [0, 1])
    def test_conservation_equals_per_term(self, packet_trio, hpow, n_nodes,
                                          nu):
        f1, f2, f = packet_trio
        t0, t1 = (set_matrix_element(DerivativePacket(f, mu), hpow, f1, hpow,
                                     f2, mu, nu, n_nodes=n_nodes)
                  for mu in (0, 1))
        total = t0.value + t1.value
        scale = max(abs(t0.value), abs(t1.value))
        assert conservation_check(hpow, f1, hpow, f2, f, nu, n_nodes) == {
            "contraction": total, "term_scale": scale,
            "relative": abs(total) / scale,
            "error_estimate": t0.error_estimate + t1.error_estimate}

    def test_trace_equals_per_term(self, packet_trio, hpow, n_nodes):
        f1, f2, f = packet_trio
        m00, m11 = (set_matrix_element(f, hpow, f1, hpow, f2, mu, mu,
                                       n_nodes=n_nodes)
                    for mu in (0, 1))
        assert trace_check(hpow, f1, hpow, f2, f, n_nodes) == Correlator(
            m00.value - m11.value, m00.error_estimate + m11.error_estimate)

    def test_moment_pair_equals_per_term(self, packet_trio, hpow, n_nodes):
        # the two terms of lorentz_density_check
        f1, f2, _ = packet_trio
        f = _unit_time_area(3.0)
        terms = ((MomentPacket(f, 0), 0, 1), (MomentPacket(f, 1), 0, 0))
        got = _set_terms(terms, hpow, f1, hpow, f2, "middle", n_nodes)
        assert got == [set_matrix_element(g, hpow, f1, hpow, f2, mu, nu,
                                          n_nodes=n_nodes)
                       for g, mu, nu in terms]

    def test_lorentz_density_equals_per_term(self, packet_trio, hpow):
        # widths 3.6 and 4.8 refine to 72 and 96 nodes
        f1, f2, _ = packet_trio
        devs = lorentz_density_check(hpow, f1, hpow, f2, 0, 1, (3.6, 4.8))
        target = -generator_matrix_element(hpow, f1, hpow, f2,
                                           GeneratorKind("M", mu=0, nu_idx=1))
        for s, n, got in zip((3.6, 4.8), (72, 96), devs):
            f = _unit_time_area(s)
            va, vb = (set_matrix_element(MomentPacket(f, mu), hpow, f1, hpow,
                                         f2, 0, nu, n_nodes=n).value
                      for mu, nu in ((0, 1), (1, 0)))
            # x_1 = -x^1: sign (1, -1)
            assert got == abs(va + vb - target) / abs(target)


class TestDensityLimits:
    def test_momentum_density(self, packet_trio, hpow):
        f1, f2, _ = packet_trio
        for nu in (0, 1):
            devs = momentum_density_check(hpow, f1, hpow, f2, nu,
                                          (2.0, 4.0, 8.0))
            assert devs[2] < devs[1] < devs[0]
            assert devs[-1] < 2e-2

    def test_lorentz_density_equal_indices_rejected(self, packet_trio, hpow):
        # M_mm = 0: there is no limit to approach, so no trend to report
        f1, f2, _ = packet_trio
        for mu in (0, 1):
            with pytest.raises(DomainError):
                lorentz_density_check(hpow, f1, hpow, f2, mu, mu, (4.0, 8.0))

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
        assert abs(rep.value) < 1e-6
        # the two orderings cancel, not vanish
        forward = set_matrix_element(f, hpow, f1, hpow, g, 0, 0, n_nodes=120)
        assert abs(forward.value) > 1e-4


def _divergence_every_exp(f, sigmas, n_nodes=48, n_inner=24):
    """vacuum_fluctuation_divergence's values in the kernel's arithmetic
    (Horner's rule in u) with np.exp taken on every grid point (reference),
    the number of points whose exponent is at or above -707 (the kernel
    flushes the others to 0), the number of k2+ slices with no such point,
    and the number of points on the other slices whose exponent lies in
    [-746, -707), where exp is tiny or subnormal rather than 0."""
    amp, (s0, s1), (p0, p1), _ = f.gaussian
    k, w = lightcone_grid_nodes(n_nodes, 2.0 * f.reach + 10.0)
    k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
    m1sq = k1p * k1m
    q1 = _lower((k1p, k1m))
    (c0, cp, cm), (dpp, dmm, dpm) = _kernel_lightcone(q1, 1, 0, 0)
    w1 = np.outer(w, w).ravel()
    values, live, dead, flushed = [], 0, 0, 0
    for sigma in sigmas:
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        u, wu = (np.ascontiguousarray(a.T) for a in _gauss_legendre(
            n_inner, np.maximum(m1sq - 6.0 * sigma, 1e-12)[:, None],
            (m1sq + 6.0 * sigma)[:, None]))
        weight = w1 * wu
        hexp = -((u - m1sq) / sigma) ** 2
        total = 0.0
        for k2p, w2p in zip(k, w):
            b0, b1 = q1[0] + 0.5 * k2p - p0, 0.5 * k2p - q1[1] - p1
            expo = ((u * (-0.25 * (s0 + s1) / k2p ** 2)
                     + (s1 * b1 - s0 * b0) / k2p) * u
                    - (s0 * b0 * b0 + s1 * b1 * b1)) + hexp
            kern = (u * (dmm / k2p ** 2) + (dpm + cm / k2p)) * u \
                + (c0 + (cp + dpp * k2p) * k2p)
            n_live = int(np.count_nonzero(expo >= -707.0))
            live, dead = live + n_live, dead + (n_live == 0)
            if n_live:
                flushed += int(np.count_nonzero((expo < -707.0) &
                                                (expo >= -746.0)))
            total += w2p / k2p * np.vdot(weight, kern * kern * np.exp(expo))
        values.append(float(0.5 * norm_const(2) ** 2 * 0.25 *
                            (norm * amp) ** 2 * total))
    return values, live, dead, flushed


def _divergence_per_point(f, sigmas, n_nodes=48, n_inner=24):
    """vacuum_fluctuation_divergence's values with the exponent and kernel
    written out in (k2+, k2-) at each point and np.exp on every point: the
    kernel before its slices became polynomials in u (second reference)."""
    amp, (s0, s1), (p0, p1), _ = f.gaussian
    k, w = lightcone_grid_nodes(n_nodes, 2.0 * f.reach + 10.0)
    k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
    m1sq = k1p * k1m
    q1 = _lower((k1p, k1m))
    (c0, cp, cm), (dpp, dmm, dpm) = _kernel_lightcone(q1, 1, 0, 0)
    w1 = np.outer(w, w).ravel()
    values = []
    for sigma in sigmas:
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        u, wu = (np.ascontiguousarray(a.T) for a in _gauss_legendre(
            n_inner, np.maximum(m1sq - 6.0 * sigma, 1e-12)[:, None],
            (m1sq + 6.0 * sigma)[:, None]))
        weight = w1 * wu
        c0u = c0 + dpm * u
        hexp = -((u - m1sq) / sigma) ** 2
        total = 0.0
        for k2p, w2p in zip(k, w):
            k2m = u / k2p
            kern = c0u + (cp + dpp * k2p) * k2p + (cm + dmm * k2m) * k2m
            b0, b1 = q1[0] + 0.5 * k2p - p0, 0.5 * k2p - q1[1] - p1
            quad = (s0 * b0 - s1 * b1 + 0.25 * (s0 + s1) * k2m) * k2m
            expo = hexp - (s0 * b0 * b0 + s1 * b1 * b1) - quad
            total += w2p / k2p * np.vdot(weight, kern * kern * np.exp(expo))
        values.append(float(0.5 * norm_const(2) ** 2 * 0.25 *
                            (norm * amp) ** 2 * total))
    return values


class TestVacuumFluctuation:
    def test_equals_every_exponential(self, packet_trio):
        # the packet and widths of the divergence check: 30 of the 288
        # slices hold no exponent at or above -707, and 44% of the points
        # lie below it (43% where exp is exactly 0)
        f = packet_trio[2]
        sigmas = [0.4 * 2.0 ** -i for i in range(6)]
        rep = vacuum_fluctuation_divergence(f, sigmas)
        want, live, dead, _ = _divergence_every_exp(f, sigmas)
        assert rep["values"] == want
        assert dead > 0
        assert rep["grid_points"] == 6 * 48 ** 3 * 24
        assert rep["exponentials"] == live < rep["grid_points"]
        for got, old in zip(rep["values"],
                            _divergence_per_point(f, sigmas)):
            assert rel_err(got, old) <= 1e-14

    def test_flushed_arguments_above_exact_zero(self):
        # a narrow packet with a carrier: its live slices hold exponents in
        # [-746, -707), where exp is subnormal or tiny but not 0; the kernel
        # flushes them, and its values are still those of exp everywhere
        f = GaussianPacket(MinkVector((0.2, -0.1)), 0.5,
                           MinkVector((1.2, 0.4)))
        sigmas = (0.3, 0.1)
        rep = vacuum_fluctuation_divergence(f, sigmas, n_nodes=24,
                                            n_inner=12)
        want, live, _, flushed = _divergence_every_exp(f, sigmas, 24, 12)
        assert flushed > 0
        assert rep["values"] == want
        assert rep["exponentials"] == live

    def test_fast_exp_bound_is_normal(self):
        # e^_EXP_FAST is a normal double, so exp stays off numpy's
        # subnormal path at every argument the kernel passes it
        assert np.exp(_EXP_FAST) >= np.finfo(float).tiny

    @pytest.mark.parametrize("f,mu,nu", [
        (AnisoGaussian(0.8, 0.8), 0, 0),
        # a carrier makes |fhat|^2 uneven in k^1
        (GaussianPacket(MinkVector((0.0, 0.0)), 0.8, MinkVector((1.5, 0.6))),
         0, 1)])
    def test_matches_weighted_oracle(self, f, mu, nu):
        sigmas = (0.4, 0.2)
        rep = vacuum_fluctuation_divergence(f, sigmas, mu, nu, n_nodes=5,
                                            n_inner=3)
        for sigma, got in zip(sigmas, rep["values"]):
            want = _divergence_oracle(f, sigma, mu, nu, 5, 3)
            assert rel_err(got, want) < 1e-12

    def test_divergence_with_narrowing_weight(self):
        f = AnisoGaussian(0.8, 0.8)
        sigmas = [0.4 * 2.0 ** -i for i in range(6)]
        rep = vacuum_fluctuation_divergence(f, sigmas)
        assert rep["strictly_increasing"]
        assert 0.7 < rep["growth_exponent"] < 1.3

    def test_validation(self):
        f = AnisoGaussian(0.8, 0.8)
        # a growth exponent needs two widths
        for sigmas in ((0.1, 0.2), (), [0.4]):
            with pytest.raises(DomainError):
                vacuum_fluctuation_divergence(f, sigmas)
        with pytest.raises(DomainError):
            vacuum_fluctuation_divergence(f, (0.2, 0.1), mu=-1)

    @pytest.mark.parametrize("packet", [DerivativePacket, MomentPacket])
    def test_polynomial_smearing_rejected(self, packet):
        # |fhat|^2 is taken from the Gaussian form alone: a prefactor would
        # be dropped silently
        f = packet(AnisoGaussian(0.8, 0.8), 1)
        with pytest.raises(DomainError, match="prefactor"):
            vacuum_fluctuation_divergence(f, (0.4, 0.2), n_nodes=4, n_inner=2)


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
        devs = [z_integral_weight_delta_check(0.5, Z, m1sq)
                for Z in (20.0, 60.0, 200.0)]
        assert devs[-1] < 1e-6
        assert devs[2] < devs[1] < devs[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            z_integral_weight(0.5, -1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            z_integral_weight_delta_check(0.5, 10.0, -1.0)


def _ads_broadcast(nu, Z, f, h1, f1, h2, f2, mu, nu_idx, n_outer, n_inner,
                   improvement):
    """ads_set_matrix_element with the kernel of the given improvement and
    every factor broadcast over the (k1+, k1-, k2-) grid of each k2+ node
    (reference)."""
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


def _ads_dense_mask(nu, Z, f, h1, f1, h2, f2, mu, nu_idx, n_outer, n_inner):
    """ads_set_matrix_element with full-size k2+ slices: a fresh m2^2 - m1^2
    matrix and a dense |.| < 1e-9 diagonal mask each (reference)."""
    kmax = 2.0 * max(f1.reach, f2.reach)
    k, w = lightcone_grid_nodes(n_outer, kmax)
    k2m, w2m = lightcone_grid_nodes(n_inner, kmax)
    k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
    k2p, k2m = k[:, None], k2m[None, :]
    m1sq, m2sq = k1p * k1m, k2p * k2m
    q1, kl2 = _lower((k1p, k1m)), _lower((k2p, k2m))
    k1_0, k1_1, k2_0, k2_1 = q1[0], -q1[1], kl2[0], -kl2[1]
    a, b = _kernel_factors(q1, (-kl2[0], -kl2[1]), mu, nu_idx)
    g = f.gaussian
    amp, (s0, s1), (p0, p1), _ = g
    e1 = _exponent(g, k1_0, k1_1)
    e2 = _exponent(g, p0 - k2_0, p1 - k2_1)
    bra = (np.outer(w, w).ravel() * np.asarray(h1(m1sq)) *
           f1.fourier(-k1_0, -k1_1) * amp * np.exp(1j * e1.imag))[:, None] * a
    ket = (w[:, None] * w2m * np.asarray(h2(m2sq)) *
           f2.fourier(k2_0, k2_1) * np.exp(1j * e2.imag))[..., None] * b
    e_rows = np.stack([s0 * (k1_0 - p0), s1 * (k1_1 - p1), e1.real,
                       np.ones_like(m1sq)], axis=-1)
    e_cols = np.stack([k2_0, k2_1, np.ones_like(m2sq), e2.real], axis=1)
    m1, j1, j1p, on = _lommel_factors(nu, Z, m1sq)
    m2, j2, j2p, _ = _lommel_factors(nu, Z, m2sq)
    w_rows = np.stack([0.5 * Z * m1 * j1p, -j1], axis=-1)
    w_cols = np.stack([j2, 0.5 * Z * m2 * j2p], axis=1)
    ket = ket.view(float)
    total = 0.0j
    for i in range(n_outer):
        diff = m2[i] ** 2 - (m1 ** 2)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            gmat = (w_rows @ w_cols[i]) / diff
        gmat = np.where(np.abs(diff) < 1e-9, on[:, None], gmat)
        gmat = gmat * np.exp(e_rows @ e_cols[i])
        total += np.sum(bra * (gmat @ ket[i]).view(complex))
    return complex(norm_const(2) ** 2 * 0.25 * total)


class TestAdsReduction:
    def test_equals_dense_diagonal_mask(self, hpow):
        # the sizes of the reduction check and packets near the ones it
        # draws; near the cone edge about 1e5 of the 2e7 (k1, k2) mass
        # pairs lie within 1e-9, where the diagonal value is taken
        f1 = GaussianPacket(MinkVector((0.1, -0.1)), 1.05,
                            MinkVector((-2.1, -0.45)))
        f2 = GaussianPacket(MinkVector((0.35, -0.25)), 1.15,
                            MinkVector((1.75, -0.35)))
        f = GaussianPacket(MinkVector((-0.1, 0.05)), 0.75,
                           MinkVector((0.0, 0.0)))
        args = (0.5, 8.0, f, hpow, f1, hpow, f2, 0, 0)
        got = ads_set_matrix_element(*args, n_outer=32, n_inner=600)
        assert got == _ads_dense_mask(*args, 32, 600)

    @pytest.mark.parametrize("mu,nu_idx", [(0, 0), (0, 1), (1, 1)])
    @pytest.mark.parametrize("improvement", [0.0])
    def test_matches_broadcast_reference(self, packet_trio, hpow, mu, nu_idx,
                                         improvement):
        # ads_set_matrix_element carries the unimproved kernel.
        # packet_trio's smearing has no carrier or center; the other two
        # exercise the phase and carrier terms of the row-column split.
        # n_inner = n_outer puts k2 masses exactly on the k1 masses, so the
        # diagonal Lommel value is taken too
        f1, f2, f0 = packet_trio
        for f in (f0, _smearing("gaussian"), _smearing("aniso")):
            args = (0.5, 4.0, f, hpow, f1, hpow, f2, mu, nu_idx)
            for n_inner in (80, 10):
                got = ads_set_matrix_element(*args, n_outer=10,
                                             n_inner=n_inner)
                want = _ads_broadcast(*args, 10, n_inner, improvement)
                assert rel_err(got, want) < 1e-12


    def test_depth_cutoff_converges_to_sharp_element(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        devs = ads_set_reduction(0.5, (2.0, 4.0, 8.0), f, hpow, f1, hpow, f2,
                                 0, 0)
        assert devs[-1] < 1e-2
        assert devs[-1] < devs[0]

    def test_sequence_validation(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        for zs in ((4.0, 2.0), ()):
            with pytest.raises(DomainError):
                ads_set_reduction(0.5, zs, f, hpow, f1, hpow, f2, 0, 0)
        with pytest.raises(DomainError):
            ads_set_matrix_element(0.5, 4.0, f, hpow, f1, hpow, f2, 0, 2,
                                   n_outer=4, n_inner=4)

    @pytest.mark.parametrize("packet", [DerivativePacket, MomentPacket])
    def test_polynomial_smearing_rejected(self, packet_trio, hpow, packet):
        # the kernel integrates the Gaussian form alone: a prefactor would
        # be dropped silently
        f1, f2, f = packet_trio
        with pytest.raises(DomainError, match="prefactor"):
            ads_set_matrix_element(0.5, 4.0, packet(f, 0), hpow, f1, hpow, f2,
                                   0, 0, n_outer=4, n_inner=4)


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

    def test_vacuum_fluctuation_peak(self, packet_trio):
        # (n_inner, n_nodes^2) arrays of 0.44 MB, against 21 MB for one
        # n^3 n_inner array at the default sizes
        sigmas = [0.4 * 2.0 ** -i for i in range(6)]
        peak = _traced_peak(lambda: vacuum_fluctuation_divergence(
            packet_trio[2], sigmas))
        assert peak < 8e6

    def test_ads_set_matrix_element_peak(self, packet_trio, hpow):
        f1, f2, f = packet_trio
        peak = _traced_peak(lambda: ads_set_matrix_element(
            0.5, 8.0, f, hpow, f1, hpow, f2, 0, 0, n_outer=32, n_inner=600))
        assert peak < 50e6
