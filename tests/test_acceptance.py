"""End-to-end acceptance gate: eleven numbered criteria, one line each.

Every test prints a single PASS/FAIL line (visible in the live terminal even
under output capture) and then asserts, so the summary and the pytest verdict
always agree.
"""

import math

import numpy as np
import pytest
import sympy as sym
from scipy.stats import truncnorm

from gffads.adsboundary import (AdSFieldSpec, ads_commutator, bonus_locality,
                                boundary_limit_check, ccr_check)
from gffads.correlators import (GaussianPacket, Power, gff2pt, norm_const,
                                smeared2pt)
from gffads.fock import (GeneratorKind, LightconeGrid, algebra_closure_check,
                         gaussian_mode, npoint, special_conformal_field_law)
from gffads.quadrature import FINE_SCHEDULE, hankel_transform
from gffads.spacetime import MinkVector
from gffads.specfun import Order, bessel_j
from gffads.stress import (AnisoGaussian, ads_set_reduction,
                           conservation_check, momentum_density_check,
                           set_kernel, set_matrix_element, trace_check,
                           vacuum_fluctuation_divergence,
                           z_integral_weight_delta_check)


@pytest.fixture
def criterion(capsys):
    def _report(num, desc, ok):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
        assert ok, f"criterion {num} failed: {desc}"
    return _report


def _packets():
    f1 = GaussianPacket(MinkVector((0.0, 0.0)), 1.0, MinkVector((-2.0, -0.5)))
    f2 = GaussianPacket(MinkVector((0.3, -0.2)), 1.2, MinkVector((1.8, -0.4)))
    f = GaussianPacket(MinkVector((0.0, 0.0)), 0.8, MinkVector((0.0, 0.0)))
    return f1, f2, f


def test_criterion_01_bessel_ode_and_hankel(criterion):
    ok = True
    h = 1e-3
    for nu in (0.0, 0.5, 1.3):
        u = np.linspace(0.5, 40.0, 100)
        jm, j0, jp = (bessel_j(nu, u - h), bessel_j(nu, u),
                      bessel_j(nu, u + h))
        res = (jp - 2 * j0 + jm) / h ** 2 + (jp - jm) / (2 * h * u) \
            + (1.0 - nu ** 2 / u ** 2) * j0
        ok &= bool(np.max(np.abs(res)) <= 1e-6)
        g = lambda t: t ** nu * np.exp(-t * t / 2.0)
        u0 = 1.3
        tr = hankel_transform(nu, g, u0, schedule=FINE_SCHEDULE)
        ok &= bool(abs(tr.value - g(u0)) <= 1e-8 * abs(g(u0)))
    criterion(1, "Bessel ODE residual <= 1e-6 and Hankel self-reciprocity "
              "to 1e-8 at nu in {0, 0.5, 1.3}", ok)


def test_criterion_02_power_law_slope(criterion):
    h = Power(0.5)
    s = np.geomspace(0.5, 50.0, 7)
    vals = [abs(gff2pt(h, h, MinkVector((0.0, math.sqrt(si)))).value)
            for si in s]
    slope = np.polyfit(np.log(s), np.log(vals), 1)[0]
    ok = abs(slope - (-1.5)) <= 0.01 * 1.5
    criterion(2, f"mass-power-law 2pt log-log slope {slope:.4f} within 1% "
              "of -1.5", ok)


def test_criterion_03_boundary_limit(criterion):
    dx = MinkVector((0.0, 4.0))
    ok = True
    for nu in (0.0, 0.5):
        rep = boundary_limit_check(AdSFieldSpec(Order(nu)), (0.08, 0.04), dx)
        ok &= bool(rep["relative_deviations"][-1] <= 1e-2)
        ok &= bool(rep["monotone"])
    criterion(3, "scaled bulk 2pt reaches the boundary field within 1% at "
              "z = 0.01 sqrt(-dx^2), nu in {0, 0.5}", ok)


def test_criterion_04_bonus_locality(criterion):
    b, c = 1.0, 1.4
    inner = bonus_locality(0.0, Order(0.5), 1.2, b, c)
    oracle = 1.0 / (math.pi * math.sqrt(b * c)
                    * math.sqrt(1.2 ** 2 - (b - c) ** 2))
    vanish = bonus_locality(0.0, Order(0.5), 0.3, b, c)
    ok = abs(vanish.value) <= 1e-5 * abs(inner.value)
    ok &= abs(inner.value - oracle) <= 1e-4 * abs(oracle)
    criterion(4, "triple-Bessel integral vanishes at (0.3, 1, 1.4) and "
              "matches the interior closed form to 1e-4", ok)


def test_criterion_05_ads_locality(criterion):
    spec = AdSFieldSpec(Order(0.5))
    ok = True
    for z, zp, t in ((1.0, 1.8, 0.5), (0.5, 1.5, 0.6), (0.8, 2.0, 0.9)):
        res = ads_commutator(spec, z, zp, MinkVector((t, 0.0)))
        ok &= bool(abs(res.value) <= 1e-5)
    criterion(5, "bulk commutator <= 1e-5 for three boundary-timelike, "
              "bulk-spacelike configurations", ok)


def test_criterion_06_smeared_ccr(criterion):
    spec = AdSFieldSpec(Order(0.5))
    g = lambda z: np.exp(-(np.asarray(z) - 1.0) ** 2 / (2 * 0.12 ** 2))
    gp = lambda z: np.exp(-(np.asarray(z) - 1.1) ** 2 / (2 * 0.15 ** 2))
    f = lambda x: np.exp(-np.asarray(x) ** 2 / 2)
    fp = lambda x: np.exp(-(np.asarray(x) - 0.3) ** 2 / (2 * 0.8 ** 2))
    rep = ccr_check(spec, g, gp, f, fp, (0.4, 1.6), (0.4, 1.8))
    ok = rep["relative_discrepancy"] <= 1e-3
    gp2 = lambda z: np.exp(-(np.asarray(z) - 2.5) ** 2 / (2 * 0.15 ** 2))
    rep2 = ccr_check(spec, g, gp2, f, fp, (0.4, 1.6), (1.9, 3.1))
    ok &= abs(rep2["mode_value"]) <= 1e-6
    criterion(6, "equal-time commutator reproduces the product formula to "
              "1e-3 and vanishes for disjoint depth supports", ok)


def test_criterion_07_generator_algebra(criterion):
    kp, km = sym.symbols("kp km", positive=True)
    gens = [GeneratorKind("P", mu=0), GeneratorKind("P", mu=1),
            GeneratorKind("M", mu=0, nu_idx=1), GeneratorKind("D"),
            GeneratorKind("K", mu=0, delta=1.5),
            GeneratorKind("K", mu=1, delta=1.5)]
    grid = LightconeGrid()
    ok = True
    for center, width, phase in (((3.0, 2.6), 0.9, (0.15, -0.1)),
                                 ((2.4, 3.2), 1.1, (-0.2, 0.25))):
        f = gaussian_mode(grid, center, width, phase)
        expr = sym.exp(-((kp - center[0]) ** 2 + (km - center[1]) ** 2)
                       / (2 * width ** 2)) * \
            sym.exp(sym.I * (phase[0] * kp + phase[1] * km))
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                rep = algebra_closure_check(gens[i], gens[j], f, expr)
                ok &= bool(rep["relative_discrepancy"] <= 1e-4)
    packet = GaussianPacket(MinkVector((0.1, -0.3)), 1.1,
                            MinkVector((2.2, 0.4)))
    law = special_conformal_field_law(packet, mu=0, delta=1.5)
    ok &= bool(law["relative_l2"] <= 1e-4)
    criterion(7, "all pairwise generator commutators match the symbolic "
              "oracle to 1e-4 and the special conformal field law holds", ok)


def _mc_matrix_element(n_chunks=12, chunk=1_000_000, seed=12345):
    """Importance-sampled Monte Carlo of the default matrix element."""
    f1, f2, f = _packets()
    kmax = 25.0
    means, widths = (2.5, 1.5, 1.4), (2.0, 2.0, 1.2)
    rng = np.random.default_rng(seed)

    def draw(n, mean, width):
        a, b = (0.0 - mean) / width, (kmax - mean) / width
        dist = truncnorm(a, b, loc=mean, scale=width)
        x = dist.rvs(size=n, random_state=rng)
        return x, dist.pdf(x)

    total, n_tot = 0.0 + 0.0j, 0
    for _ in range(n_chunks):
        k1p, p1 = draw(chunk, means[0], widths[0])
        k1m, p2 = draw(chunk, means[1], widths[1])
        k2p, p3 = draw(chunk, means[2], widths[2])
        k2m = k1p * k1m / k2p
        k1_0, k1_1 = 0.5 * (k1p + k1m), 0.5 * (k1p - k1m)
        k2_0, k2_1 = 0.5 * (k2p + k2m), 0.5 * (k2p - k2m)
        q1 = (k1_0, -k1_1)
        q2 = (-k2_0, k2_1)
        dot = q1[0] * q2[0] - q1[1] * q2[1]
        q1sq = q1[0] ** 2 - q1[1] ** 2
        q2sq = q2[0] ** 2 - q2[1] ** 2
        kern = (-q1[0] * q2[0] + 0.5 * (dot + q2sq)) + \
            (-q2[0] * q1[0] + 0.5 * (dot + q1sq))
        vals = f1.fourier(-k1_0, -k1_1) * f2.fourier(k2_0, k2_1) * \
            f.fourier(k1_0 - k2_0, k1_1 - k2_1)
        w = norm_const(2) ** 2 * 0.25 * np.sqrt(k1p * k1m) * kern * vals \
            / (k2p * p1 * p2 * p3)
        total += np.sum(w)
        n_tot += chunk
    return total / n_tot


def test_criterion_08_stress_tensor(criterion):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        k1p, k1m, k2p = rng.uniform(0.2, 2.0, 3)
        k1 = MinkVector((0.5 * (k1p + k1m), 0.5 * (k1p - k1m)))
        k2m = k1p * k1m / k2p
        k2 = MinkVector((0.5 * (k2p + k2m), 0.5 * (k2p - k2m)))
        q1 = (k1.components[0], -k1.components[1])
        q2 = (-k2.components[0], k2.components[1])
        Q = (q1[0] + q2[0], q1[1] + q2[1])
        for nu in (0, 1):
            contr = Q[0] * set_kernel(k1, k2, (1, -1), 0, nu) \
                - Q[1] * set_kernel(k1, k2, (1, -1), 1, nu)
            worst = max(worst, abs(contr))
    ok = worst <= 1e-12

    h = Power(0.5)
    f1, f2, f = _packets()
    cons = conservation_check(h, f1, h, f2, f, 0, n_nodes=96)
    ok &= bool(cons["relative"] <= 1e-8)

    dens = momentum_density_check(h, f1, h, f2, 0, (2.0, 4.0, 8.0))
    ok &= bool(dens["relative_deviations"][-1] <= 1e-2)

    tr = trace_check(h, f1, h, f2, f, n_nodes=96)
    ok &= bool(tr["significant"])

    sharp = set_matrix_element(f, h, f1, h, f2, 0, 0, n_nodes=120)
    mc = _mc_matrix_element()
    ok &= bool(abs(mc - sharp.value) <= 1e-3 * abs(sharp.value))
    criterion(8, "kernel conservation 1e-12, end-to-end conservation 1e-8, "
              "momentum density 1%, nonzero trace, Monte Carlo matrix "
              "element 1e-3", ok)


def test_criterion_09_depth_integral_reduction(criterion):
    m1sq = 1.3
    Z = 200.0 / math.sqrt(m1sq)
    rep = z_integral_weight_delta_check(0.5, Z, m1sq, g_width=0.2)
    ok = rep["relative_deviation"] <= 1e-2

    h = Power(0.5)
    f1, f2, f = _packets()
    red = ads_set_reduction(0.5, (2.0, 4.0, 8.0), f, h, f1, h, f2, 0, 0,
                            n_outer=32, n_inner=600)
    ok &= bool(red["final_relative_deviation"] <= 1e-2)
    criterion(9, "depth-integrated Bessel weight converges to the mass "
              "delta and the bulk matrix element matches the sharp one "
              "within 1%", ok)


def test_criterion_10_gaussian_factorization(criterion):
    h = Power(0.5)
    fs = [GaussianPacket(MinkVector((0.0, 0.0)), 1.0, MinkVector((1.5, 0.2))),
          GaussianPacket(MinkVector((0.3, -0.2)), 0.9, MinkVector((1.2, -0.3))),
          GaussianPacket(MinkVector((-0.2, 0.4)), 1.1, MinkVector((1.8, 0.1))),
          GaussianPacket(MinkVector((0.5, 0.1)), 0.8, MinkVector((1.0, 0.4)))]
    got = npoint([h] * 4, fs)

    def s(i, j):
        return smeared2pt(h, fs[i], h, fs[j]).value
    pairing_sum = s(0, 1) * s(2, 3) + s(0, 2) * s(1, 3) + s(0, 3) * s(1, 2)
    truncated = got - pairing_sum
    ok = abs(truncated) <= 1e-12 * abs(got)
    ok &= npoint([h] * 3, fs[:3]) == 0.0
    criterion(10, "truncated 4-point function vanishes, pairing enumeration "
              "reproduced to machine precision, odd n exactly zero", ok)


def test_criterion_11_divergence_diagnostics(criterion):
    f = AnisoGaussian(0.8, 0.8)
    sigmas = [0.4 * 2.0 ** -i for i in range(6)]
    rep = vacuum_fluctuation_divergence(f, sigmas)
    ok = bool(rep["strictly_increasing"])
    ctrl = vacuum_fluctuation_divergence(f, sigmas[:4], fixed_width=0.3)
    spread = max(ctrl["values"]) - min(ctrl["values"])
    ok &= bool(spread <= 1e-10 * max(ctrl["values"]))
    criterion(11, "vacuum fluctuation grows strictly along the sigma "
              "halvings while the smooth-weight control stays flat", ok)
