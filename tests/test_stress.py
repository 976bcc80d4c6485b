import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gffads import stress
from gffads.correlators import (Correlator, GaussianPacket, Power, Smearing,
                                _exponent, lightcone_grid_nodes, norm_const)
from gffads.cli import _default_set_args, _divergence_oracle
from gffads.errors import DomainError
from gffads.fock import GeneratorKind
from gffads.spacetime import MinkVector
from gffads.specfun import Order
from gffads.quadrature import _gauss_legendre, _legendre_table
from gffads.stress import (_EXP_FAST, AnisoGaussian, DerivativePacket,
                           MomentPacket, _divergence_envelope,
                           _divergence_rows, _kernel_factors,
                           _kernel_lightcone, _kernel_lower,
                           _lommel_factors, _lower,
                           _set_terms, _support, _unit_time_area,
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

    @pytest.mark.parametrize("k1, k2, improvement", [
        ((math.nan, 0.4), (1.1, -0.2), 0.0),
        ((1.3, math.nan), (1.1, -0.2), 0.0),
        ((1.3, 0.4), (math.nan, -0.2), 0.0),
        ((math.inf, 0.4), (1.1, -0.2), 0.0),
        ((1.3, 0.4), (1.1, -0.2), math.nan),
        ((1.3, 0.4), (1.1, -0.2), math.inf),
        ((1.3, 0.4), (1.1, -0.2), -math.inf)])
    def test_non_finite_input_rejected(self, k1, k2, improvement):
        # a NaN fails every comparison of a forward-cone test, so it would
        # pass a test written as a list of rejections
        with pytest.raises(DomainError):
            set_kernel(MinkVector(k1), MinkVector(k2), (1, -1), 0, 0,
                       improvement=improvement)

    @pytest.mark.parametrize("k1, k2", [
        ((1e200, 0.4), (1e200, 0.1)),
        # in the forward cone, though k^2 overflows to inf - inf
        ((1e200, 5e199), (1.1, -0.2))])
    def test_overflow_raises(self, k1, k2):
        with pytest.raises(OverflowError):
            set_kernel(MinkVector(k1), MinkVector(k2), (1, -1), 0, 0)

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


class _CountingNumpy:
    """numpy, with np.exp counting the points it writes in place: in
    _set_terms one call a k2+ slice over the kept rows, in
    ads_set_matrix_element one a row block of a slice over its k2- range,
    in vacuum_fluctuation_divergence one a live k2+ slice over its kept
    prefix of rows."""

    def __init__(self):
        self.points = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, out=None):
        if out is not None:
            self.points += out.size
        return np.exp(x, out=out)


@pytest.fixture
def exp_points(monkeypatch):
    counting = _CountingNumpy()
    monkeypatch.setattr(stress, "np", counting)
    return counting


def _narrow_pair():
    """Bra and ket narrow in momentum, off the middle of the grid, where
    most row-slice pairs lie below the trim."""
    f1 = GaussianPacket(MinkVector((0.5, -0.3)), 2.5,
                        MinkVector((-4.0, 1.5)))
    f2 = GaussianPacket(MinkVector((-0.2, 0.4)), 2.5,
                        MinkVector((3.0, 1.0)))
    return f1, f2


def _divergence_packet(name):
    """A tensor smearing of the divergence tests: the workload's; unequal
    widths (s0 != s1); and a carrier with kappa^0 = 3, where
    k1^0 + k2+/2 - kappa^0 < 0 on part of the grid and the envelope's
    clamp at 0 holds."""
    return {"workload": GaussianPacket(MinkVector((0.0, 0.0)), 0.8,
                                       MinkVector((0.0, 0.0))),
            "aniso": AnisoGaussian(0.6, 1.1),
            "carrier": GaussianPacket(MinkVector((0.2, -0.1)), 0.8,
                                      MinkVector((3.0, 0.5)))}[name]


class TestTrim:
    """The kernels skip the grid points whose bound is below _TRIM times
    the largest; _TRIM = 0 keeps every point, the untrimmed sum."""

    @pytest.mark.parametrize("smearing", [
        "gaussian", "aniso", "derivative0", "derivative1", "moment0",
        "moment1", "unit_time_area"])
    @pytest.mark.parametrize("ordering", ["left", "middle", "right"])
    def test_set_terms_matches_untrimmed(self, monkeypatch, exp_points,
                                         smearing, ordering):
        # Power(-0.9) is singular at m -> 0, at the grid's edge
        h = Power(-0.9)
        f1, f2 = _narrow_pair()
        f = _smearing(smearing)
        terms = ((f, 0, 0), (f, 0, 1), (f, 1, 1))
        got = _set_terms(terms, h, f1, h, f2, ordering, 48)
        assert 1.0 - exp_points.points / (48 ** 3 + 24 ** 3) >= 0.4
        monkeypatch.setattr(stress, "_TRIM", 0.0)
        want = _set_terms(terms, h, f1, h, f2, ordering, 48)
        for g, w in zip(got, want):
            assert rel_err(g.value, w.value) < 1e-13
            assert abs(g.error_estimate - w.error_estimate) < \
                1e-13 * abs(w.value)

    @pytest.mark.parametrize("smearing", ["centred", "gaussian", "aniso"])
    @pytest.mark.parametrize("mu,nu_idx", [(0, 0), (0, 1), (1, 1)])
    def test_ads_matches_untrimmed(self, monkeypatch, exp_points, packet_trio,
                                   smearing, mu, nu_idx):
        h = Power(-0.9)
        f1, f2 = _narrow_pair()
        f = packet_trio[2] if smearing == "centred" else _smearing(smearing)
        args = (0.5, 8.0, f, h, f1, h, f2, mu, nu_idx)
        got = ads_set_matrix_element(*args, n_outer=16, n_inner=200)
        assert 1.0 - exp_points.points / (16 ** 3 * 200) >= 0.4
        monkeypatch.setattr(stress, "_TRIM", 0.0)
        want = ads_set_matrix_element(*args, n_outer=16, n_inner=200)
        assert rel_err(got, want) < 1e-13

    def test_default_packets_skip_most_pairs(self, exp_points):
        # the conservation and reduction requests' grids: 48% and 59% of
        # their row-slice (row-column) pairs at these packets
        h, f1, f2, f = _default_set_args()
        set_matrix_element(f, h, f1, h, f2, 0, 0, n_nodes=96)
        assert 1.0 - exp_points.points / (96 ** 3 + 48 ** 3) >= 0.3
        exp_points.points = 0
        ads_set_matrix_element(0.5, 8.0, f, h, f1, h, f2, 0, 0, n_outer=32,
                               n_inner=600)
        assert 1.0 - exp_points.points / (32 ** 3 * 600) >= 0.3

    def test_untrimmed_counts_every_pair(self, monkeypatch, exp_points):
        # the counts above read every pair when nothing is skipped
        monkeypatch.setattr(stress, "_TRIM", 0.0)
        h, f1, f2, f = _default_set_args()
        set_matrix_element(f, h, f1, h, f2, 0, 0, n_nodes=12)
        assert exp_points.points == 12 ** 3 + 6 ** 3
        exp_points.points = 0
        ads_set_matrix_element(0.5, 8.0, f, h, f1, h, f2, 0, 0, n_outer=4,
                               n_inner=16)
        assert exp_points.points == 4 ** 3 * 16

    @pytest.mark.parametrize("packet", ["workload", "aniso", "carrier"])
    @pytest.mark.parametrize("mu,nu", [(0, 0), (0, 1), (1, 1)])
    def test_divergence_matches_untrimmed(self, packet, mu, nu):
        f = _divergence_packet(packet)
        sigmas = (0.4, 0.1, 0.0125)
        got = vacuum_fluctuation_divergence(f, sigmas, mu, nu)["values"]
        want = _divergence_every_exp(f, sigmas, mu=mu, nu=nu,
                                     select=False)[0]
        for g, w in zip(got, want):
            assert rel_err(g, w) < 1e-13

    @pytest.mark.parametrize("packet", ["workload", "aniso", "carrier"])
    def test_divergence_envelope_bounds_the_gaussian(self, packet):
        # the largest |fhat(k1 + k2)|^2 / A^2 over u >= 0, in closed form:
        # with v = k2-/2 >= 0 the exponent -s0 (b0 + v)^2 - s1 (b1 - v)^2
        # peaks at v* = (s1 b1 - s0 b0) / (s0 + s1), clipped at 0
        f = _divergence_packet(packet)
        _, (s0, s1), (p0, p1), _ = f.gaussian
        k, _ = lightcone_grid_nodes(48, 2.0 * f.reach + 10.0)
        k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
        q1 = _lower((k1p, k1m))
        b0 = q1[0] + 0.5 * k[:, None] - p0
        b1 = 0.5 * k[:, None] - q1[1] - p1
        v = np.maximum((s1 * b1 - s0 * b0) / (s0 + s1), 0.0)
        peak = np.exp(-s0 * (b0 + v) ** 2 - s1 * (b1 - v) ** 2)
        env = _divergence_envelope(f, q1[0], k)
        assert env.shape == peak.shape
        assert np.all(env >= peak * (1.0 - 1e-12))

    def test_divergence_skips_most_points(self, exp_points):
        # the workload's packet and widths: the kernel takes np.exp on 34%
        # of the grid points, against 90% untrimmed
        f = _divergence_packet("workload")
        sigmas = [0.4 * 2.0 ** -i for i in range(6)]
        rep = vacuum_fluctuation_divergence(f, sigmas)
        assert exp_points.points <= 0.5 * rep["grid_points"]


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


def _divergence_grid(f, n_nodes, mu, nu, select):
    """The lightcone nodes k, w, the (k1+, k1-) rows' weights w1, m1^2 and
    lower q1, the kernel's polynomial in k2 (_kernel_lightcone) and each
    k2+ slice's end of rows of vacuum_fluctuation_divergence.  With select
    it takes the kernel's rows, order and per-slice prefixes
    (_divergence_rows); without, every row of every slice in grid order."""
    if select:
        k, w, k1p, k1m, w1, ends = _divergence_rows(f, n_nodes)
    else:
        k, w = lightcone_grid_nodes(n_nodes, 2.0 * f.reach + 10.0)
        k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
        w1 = np.outer(w, w).ravel()
        ends = [k1p.size] * n_nodes
    q1 = _lower((k1p, k1m))
    return k, w, w1, k1p * k1m, q1, _kernel_lightcone(q1, 1, mu, nu), ends


def _slice_coefficients(f, q1, kernel, k2p, end):
    """The exponent and the kernel on the first end rows of the slice k2+
    as quadratics in u: (g0, g1, g2) each, g2 a number, the exponent's
    without the weight's own term."""
    _, (s0, s1), (p0, p1), _ = f.gaussian
    (c0, cp, cm), (dpp, dmm, dpm) = kernel
    b0 = q1[0][:end] + 0.5 * k2p - p0
    b1 = 0.5 * k2p - q1[1][:end] - p1
    return ((-(s0 * b0 * b0 + s1 * b1 * b1), (s1 * b1 - s0 * b0) / k2p,
             -0.25 * (s0 + s1) / k2p ** 2),
            (c0[:end] + (cp[:end] + dpp * k2p) * k2p, dpm + cm[:end] / k2p,
             dmm / k2p ** 2))


def _forms_in_u(f, m1sq, q1, kernel, sigma, n_inner, k2p, end):
    """The exponent and the kernel on a slice's first end rows, (end,
    n_inner), by Horner's rule in u at _gauss_legendre's nodes, with the
    weight's own exponent -((u - m1^2) / sigma)^2 on its own: the
    divergence's arithmetic before its node basis.  Also returns, for
    each, the sum of the magnitudes of its terms as a quadratic in u,
    the weight's exponent expanded, and whether each row's window is
    clamped at u >= 1e-12."""
    u, _ = _gauss_legendre(
        n_inner, np.maximum(m1sq - 6.0 * sigma, 1e-12)[:end, None],
        (m1sq + 6.0 * sigma)[:end, None])
    m1 = m1sq[:end, None]
    (g0, g1, g2), (k0, k1, k2) = _slice_coefficients(f, q1, kernel, k2p, end)
    expo = ((u * g2 + g1[:, None]) * u + g0[:, None]) - \
        ((u - m1) / sigma) ** 2
    kern = (u * k2 + k1[:, None]) * u + k0[:, None]
    (c0, cp, cm), (dpp, dmm, dpm) = kernel
    expo_terms = np.abs(g0)[:, None] + np.abs(g1[:, None] * u) + \
        abs(g2) * u * u + ((u + m1) / sigma) ** 2 + 36.0
    kern_terms = (np.abs(c0[:end]) + np.abs(cp[:end] * k2p) +
                  abs(dpp) * k2p * k2p)[:, None] + \
        (abs(dpm) + np.abs(cm[:end] / k2p))[:, None] * u + \
        abs(dmm / k2p ** 2) * u * u
    return expo, kern, expo_terms, kern_terms, \
        m1sq[:end] < 6.0 * sigma


def _forms_in_t(f, m1sq, q1, kernel, sigma, n_inner, k2p, end):
    """The exponent and the kernel on a slice's first end rows, (end,
    n_inner), in the divergence's arithmetic: at u = lo + half x, x = t + 1
    and t the Gauss-Legendre nodes on [-1, 1], each a product of its
    coefficients and the monomials 1, x, x^2 (and t, t^2 for the weight's
    exponent -(h0 + h1 t)^2)."""
    t, _ = _legendre_table(n_inner)
    x = t + 1.0
    powers = np.stack([np.ones_like(t), x, x * x, t, t * t])
    lo = np.maximum(m1sq[:end] - 6.0 * sigma, 1e-12)
    half = 0.5 * (m1sq[:end] + 6.0 * sigma - lo)
    h1 = half / sigma
    h0 = (lo - m1sq[:end]) / sigma + h1

    def in_x(g0, g1, g2):
        g2lo = g2 * lo
        return [(g1 + g2lo) * lo + g0, (2.0 * g2lo + g1) * half,
                half * half * g2]

    (g0, g1, g2), kc = _slice_coefficients(f, q1, kernel, k2p, end)
    ec = in_x(g0, g1, g2)
    ec[0] = ec[0] + -h0 * h0
    ec = np.stack(ec + [-2.0 * h0 * h1, -h1 * h1])
    return ec.T @ powers, np.stack(in_x(*kc)).T @ powers[:3]


def _divergence_every_exp(f, sigmas, n_nodes=48, n_inner=24, mu=0, nu=0,
                          select=True, forms=_forms_in_t):
    """vacuum_fluctuation_divergence's values in the kernel's arithmetic
    (forms, by default the node basis, (rows, n_inner) arrays) with np.exp
    taken on every point it walks (reference).  select as in
    _divergence_grid.  Also returns the number of walked points whose
    exponent is at or above -707 (the kernel flushes the others to 0), the
    number of k2+ slices with no such point, and the number of walked
    points on the other slices whose exponent lies in [-746, -707), where
    exp is tiny or subnormal rather than 0."""
    amp = f.gaussian[0]
    k, w, w1, m1sq, q1, kernel, ends = _divergence_grid(f, n_nodes, mu, nu,
                                                        select)
    values, live, dead, flushed = [], 0, 0, 0
    for sigma in sigmas:
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        _, wu = _gauss_legendre(
            n_inner, np.maximum(m1sq - 6.0 * sigma, 1e-12)[:, None],
            (m1sq + 6.0 * sigma)[:, None])
        weight = w1[:, None] * wu
        total = 0.0
        for k2p, w2p, end in zip(k, w, ends):
            expo, kern = forms(f, m1sq, q1, kernel, sigma, n_inner, k2p,
                               end)[:2]
            n_live = int(np.count_nonzero(expo >= -707.0))
            live, dead = live + n_live, dead + (n_live == 0)
            if n_live:
                flushed += int(np.count_nonzero((expo < -707.0) &
                                                (expo >= -746.0)))
            total += w2p / k2p * np.vdot(weight[:end],
                                         kern * kern * np.exp(expo))
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
        # the packet and widths of the divergence check: the trim keeps 40%
        # of the row-slice pairs and none on 11 of the 48 slices, 96 of the
        # 288 (sigma, slice) pairs hold no kept exponent at or above -707,
        # and 26% of the points are kept at or above it (56% untrimmed)
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
        # a narrow packet with a carrier: the kept rows of its live slices
        # hold exponents in [-746, -707) (180 points), where exp is
        # subnormal or tiny but not 0; the kernel flushes them, and its
        # values are still those of exp on every kept point
        f = GaussianPacket(MinkVector((0.2, -0.1)), 0.5,
                           MinkVector((1.2, 0.4)))
        sigmas = (0.3, 0.1)
        rep = vacuum_fluctuation_divergence(f, sigmas, n_nodes=24,
                                            n_inner=12)
        want, live, _, flushed = _divergence_every_exp(f, sigmas, 24, 12)
        assert flushed > 0
        assert rep["values"] == want
        assert rep["exponentials"] == live

    @pytest.mark.parametrize("packet", ["workload", "aniso", "carrier"])
    @pytest.mark.parametrize("mu,nu", [(0, 0), (0, 1), (1, 1)])
    def test_node_basis_within_rounding_of_horner_in_u(self, packet, mu, nu):
        # at every point the kernel walks, its exponent and kernel in the
        # node variable differ from Horner's rule in u by at most 8 eps
        # times the sum of the magnitudes of their terms (_forms_in_u);
        # the widths reach rows whose window is clamped at u >= 1e-12
        f = _divergence_packet(packet)
        k, _, _, m1sq, q1, kernel, ends = _divergence_grid(f, 48, mu, nu,
                                                           True)
        bound = 8.0 * np.finfo(float).eps
        clamped = 0
        for sigma in (0.4, 0.1, 0.0125):
            for k2p, end in zip(k, ends):
                if not end:
                    continue
                args = (f, m1sq, q1, kernel, sigma, 24, k2p, end)
                expo_u, kern_u, expo_terms, kern_terms, clamp = \
                    _forms_in_u(*args)
                expo, kern = _forms_in_t(*args)
                assert np.all(np.abs(expo - expo_u) <= bound * expo_terms)
                assert np.all(np.abs(kern - kern_u) <= bound * kern_terms)
                clamped += np.count_nonzero(clamp)
        assert clamped > 0

    @pytest.mark.parametrize("packet", ["workload", "aniso", "carrier"])
    @pytest.mark.parametrize("mu,nu", [(0, 0), (0, 1), (1, 1)])
    def test_values_match_horner_in_u(self, packet, mu, nu):
        # the values of the kernel as it was with Horner's rule in u, its
        # rows, prefixes and flush unchanged
        f = _divergence_packet(packet)
        sigmas = (0.4, 0.1, 0.0125)
        got = vacuum_fluctuation_divergence(f, sigmas, mu, nu)["values"]
        want = _divergence_every_exp(f, sigmas, mu=mu, nu=nu,
                                     forms=_forms_in_u)[0]
        for g, w in zip(got, want):
            assert rel_err(g, w) < 1e-13

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
    """ads_set_matrix_element with full-size k2+ slices over its rows and
    k2- ranges: a fresh m2^2 - m1^2 matrix and a dense |.| < 1e-9 diagonal
    mask each (reference)."""
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
    bra = np.outer(w, w).ravel() * np.asarray(h1(m1sq)) * \
        f1.fourier(-k1_0, -k1_1) * amp
    ket = w[:, None] * w2m * np.asarray(h2(m2sq)) * f2.fourier(k2_0, k2_1)
    m1, j1, j1p, on = _lommel_factors(nu, Z, m1sq)
    m2, j2, j2p, on2 = _lommel_factors(nu, Z, m2sq)
    # the kernel's rows and k2- ranges
    rows = _support(np.abs(bra) * np.sqrt(on))
    cols = _support(np.abs(ket) * np.sqrt(on2))
    bra = ((bra * np.exp(1j * e1.imag))[:, None] * a)[rows]
    ket = (ket * np.exp(1j * e2.imag))[..., None] * b
    e_rows = np.stack([s0 * (k1_0 - p0), s1 * (k1_1 - p1), e1.real,
                       np.ones_like(m1sq)], axis=-1)[rows]
    e_cols = np.stack([k2_0, k2_1, np.ones_like(m2sq), e2.real], axis=1)
    w_rows = np.stack([0.5 * Z * m1 * j1p, -j1], axis=-1)[rows]
    w_cols = np.stack([j2, 0.5 * Z * m2 * j2p], axis=1)
    sq1, on = (m1 ** 2)[rows], on[rows]
    ket = ket.view(float)
    total = 0.0j
    for i in range(n_outer):
        live = np.flatnonzero(cols[i])
        if not live.size:
            continue
        span = slice(live[0], live[-1] + 1)
        diff = m2[i, span] ** 2 - sq1[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            gmat = (w_rows @ w_cols[i][:, span]) / diff
        gmat = np.where(np.abs(diff) < 1e-9, on[:, None], gmat)
        gmat = gmat * np.exp(e_rows @ e_cols[i][:, span])
        total += np.sum(bra * (gmat @ ket[i, span]).view(complex))
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

    def test_ads_reduction_peak(self, packet_trio, hpow):
        # one 64-row block of G and its factors, contracted with the ket
        # while in cache: 7.0 MB, against 10.0 MB with G a whole 32 x 600
        # slice of rows
        f1, f2, f = packet_trio
        peak = _traced_peak(lambda: ads_set_matrix_element(
            0.5, 8.0, f, hpow, f1, hpow, f2, 0, 0, n_outer=32, n_inner=600))
        assert peak < 8e6
