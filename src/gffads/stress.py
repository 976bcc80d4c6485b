"""Singular stress-energy tensor of the generalized free field (d = 2).

The tensor is the generalized Wick square
    Theta_mn = (: d_m phi d_n phi - (1/2) eta_mn (d_a phi d^a phi
               + phi box phi) :)_delta
with the diagonal mass weight delta(m1^2 - m2^2).  In momentum space the
coefficient of the normal-ordered bilinear with phase e^{i(q1+q2)x},
q_i = eps_i k_i, is the symmetric kernel

    K_mn(q1, q2) = p_mn(q1, q2) + p_mn(q2, q1),
    p_mn(q1, q2) = -q1_m q2_n + (1/2) eta_mn (q1.q2 + q2^2),

which satisfies (q1+q2)^m K_mn = 0 identically on the shell q1^2 = q2^2.
Matrix elements between smeared one-particle states are 3-dimensional
integrals after the delta(k1^2 - k2^2) constraint is resolved in lightcone
coordinates (k2- = k1+ k1- / k2+).

Every smearing is a correlators.Smearing: a diagonal Gaussian (A, s2,
kappa, c) times a polynomial prefactor, which is 1 for Gaussian packets and
the unit-time-area smearing, -i k^mu for DerivativePacket and the
derivative of the exponent for MomentPacket.  The matrix-element,
bulk-reduction and divergence kernels build their integrands from that form
and the kernel's polynomial splits, walking the k2+ axis one node at a time
over the flattened (k1+, k1-) grid, so no array spans the full grid.  The
ket of the matrix element, the tensor smearing of the bulk-reduction and
divergence kernels and the base of a polynomial packet must be plain
Gaussians: a prefactor there raises DomainError.  The checks built on the
matrix element (conservation_check, trace_check and
commutator_locality_check) take its grid order n_nodes as a required
argument, and the kernel's improvement term is an option of set_kernel
alone.

No kernel computes what it knows exactly.  On a slice of the matrix-element
and divergence kernels, the exponent of the Gaussians and the kernel are
polynomials in the slice's one free variable (k2- = k1+ k1- / k2+ in
_set_terms, u = k2+ k2- in the divergence) whose coefficients are vectors over
the rows, built once a slice and evaluated by Horner's rule into
preallocated buffers.  A value is therefore the per-point evaluation's up to
rounding, not bit for bit.  Terms that share a Gaussian (the two derivative
packets of conservation_check, the 00 and 11 components of trace_check, the
two moment packets of lorentz_density_check) share one pass and one complex
exponential per slice (_set_terms), each value bit-identical to the term on
its own.  The divergence flushes to 0 every term whose exponent lies below
_EXP_FAST = -707, where e^x < 9e-308, so that np.exp stays on numpy's vector
path, and skips a slice with no other term.  The bulk reduction builds its
weight matrix in cache-sized row blocks and tests its mass diagonal at the
few candidate entries a sorted search finds.
"""

import math

import numpy as np

from .errors import DomainError, checked_sequence
from .specfun import _nu, bessel_j
from .quadrature import _gauss_legendre, adaptive_finite
from .correlators import (Correlator, Smearing, _exponent, _lower,
                          lightcone_grid_nodes, norm_const)
from .fock import GeneratorKind, LightconeGrid, ModeFunction, apply_generator

__all__ = ["set_kernel", "set_matrix_element", "conservation_check",
           "momentum_density_check", "lorentz_density_check", "trace_check",
           "commutator_locality_check", "vacuum_fluctuation_divergence",
           "z_integral_weight", "z_integral_weight_closed",
           "z_integral_weight_delta_check", "ads_set_matrix_element",
           "ads_set_reduction", "AnisoGaussian", "DerivativePacket",
           "MomentPacket", "generator_matrix_element"]

_ETA = np.diag([1.0, -1.0])
# np.exp runs on numpy's vector path, about 0.7 ns an element, for arguments
# at or above this.  At -708 and below, where e^x nears the smallest normal
# double (2.2e-308) and then goes subnormal, it costs 15 to 150 ns an element.
# e^-707 = 9.0e-308: a term flushed to 0 below this bound is under 9.0e-308
# times its squared kernel and weight
_EXP_FAST = -707.0
# rows of a block of the bulk-reduction weight matrix
_ROW_BLOCK = 64


def _p_term(q1, q2, mu, nu):
    """p_mn(q1, q2) for component arrays q = (q_0, q_1) with lower indices."""
    dot = q1[0] * q2[0] - q1[1] * q2[1]
    q2sq = q2[0] * q2[0] - q2[1] * q2[1]
    return -q1[mu] * q2[nu] + 0.5 * _ETA[mu, nu] * (dot + q2sq)


def _kernel_lower(q1, q2, mu, nu, improvement=0.0):
    """K_mn(q1,q2) with optional improvement multiple of (-Q_m Q_n + eta Q^2)."""
    val = _p_term(q1, q2, mu, nu) + _p_term(q2, q1, mu, nu)
    if improvement:
        Q = (q1[0] + q2[0], q1[1] + q2[1])
        Qsq = Q[0] * Q[0] - Q[1] * Q[1]
        val = val + improvement * 2.0 * (-Q[mu] * Q[nu] + _ETA[mu, nu] * Qsq)
    return val


def _kernel_factors(q1, q2, mu, nu):
    """Rank-4 split of the kernel: arrays A(q1), B(q2) with a last axis of
    four, such that sum(A * B, axis=-1) = K_mn(q1, q2).

    K is a homogeneous quadratic in (q1, q2), hence exactly
        K(q1, q2) = K(q1, 0) + K(0, q2) + q1^T M q2,
        M_ij = K(e_i, e_j) - K(e_i, 0) - K(0, e_j),
    with M read off unit vectors through _kernel_lower.
    """
    def kern(a, b):
        return _kernel_lower(a, b, mu, nu)

    zero, e = (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))
    m = [[kern(e[i], e[j]) - kern(e[i], zero) - kern(zero, e[j])
          for j in (0, 1)] for i in (0, 1)]
    a = np.stack([kern(q1, zero), np.ones_like(q1[0]), q1[0], q1[1]], axis=-1)
    b = np.stack([np.ones_like(q2[0]), kern(zero, q2),
                  m[0][0] * q2[0] + m[0][1] * q2[1],
                  m[1][0] * q2[0] + m[1][1] * q2[1]], axis=-1)
    return a, b


def _kernel_lightcone(q1, e2, mu, nu):
    """The kernel as a polynomial in the lightcone components of k2.

    With q2 = e2 lower(k2) = k2+ l+ + k2- l-, l+- = e2 (1/2, -+1/2), the
    rank-4 split (_kernel_factors) gives exactly
        K_mn(q1, q2) = c0 + c+ k2+ + c- k2- + d++ k2+^2 + d-- k2-^2
                       + d+- k2+ k2-,
    c0 = K(q1, 0), c+- = q1^T M l+- and the d from the quadratic K(0, q2).
    Returns ((c0, c+, c-), (d++, d--, d+-)); the c are arrays over q1.
    """
    a, b = _kernel_factors(q1, (e2 * np.array([0.5, 0.5, 1.0]),
                                e2 * np.array([-0.5, 0.5, 0.0])), mu, nu)
    cp, cm = (a[..., 2] * b[i, 2] + a[..., 3] * b[i, 3] for i in (0, 1))
    dpp, dmm = b[0, 1], b[1, 1]
    return (a[..., 0], cp, cm), (dpp, dmm, b[2, 1] - dpp - dmm)


def _check_indices(mu, nu):
    if mu not in (0, 1) or nu not in (0, 1):
        raise DomainError("tensor indices out of range for d = 2")


def set_kernel(k1, k2, signs, mu, nu, improvement=0.0):
    """Momentum kernel of the tensor for forward-cone momenta k1, k2.

    signs is the (eps1, eps2) pattern of the bilinear; the returned value is
    the coefficient of :a^{eps1}(k1) a^{eps2}(k2): with phase
    e^{i(eps1 k1 + eps2 k2) x}, each sign +1 or -1.
    """
    for k in (k1, k2):
        if k.d != 2 or k.square() <= 0 or k.components[0] <= 0:
            raise DomainError("momenta must lie in the open forward cone")
    _check_indices(mu, nu)
    e1, e2 = signs
    if e1 not in (1, -1) or e2 not in (1, -1):
        raise DomainError(f"signs must be +1 or -1, got {signs!r}")
    q1 = (e1 * k1.components[0], -e1 * k1.components[1])
    q2 = (e2 * k2.components[0], -e2 * k2.components[1])
    return complex(_kernel_lower(q1, q2, mu, nu, improvement))


# ---------------------------------------------------------------------------
# polynomial smearings of a Gaussian

def _plain_gaussian(f, where):
    """The Gaussian form of the smearing f, which must have no polynomial
    prefactor: where names the caller in the DomainError otherwise."""
    if f.prefactor != Smearing.prefactor:
        raise DomainError(f"{where} takes a plain Gaussian smearing, not one "
                          "with a polynomial prefactor")
    return f.gaussian


class DerivativePacket(Smearing):
    """d^mu f for a plain Gaussian smearing f: multiplies fhat by -i k^mu."""

    def __init__(self, base, mu):
        _check_indices(mu, 0)
        super().__init__(_plain_gaussian(base, "DerivativePacket"),
                         {(1 - mu, mu): -1j})


class MomentPacket(Smearing):
    """x^mu f for a plain Gaussian smearing f: -i d/dk_mu applied to fhat
    multiplies it by -i (mu = 0) or +i (mu = 1, d/dk_1 = -d/dk^1) times the
    k^mu-derivative of its exponent."""

    def __init__(self, base, mu):
        _check_indices(mu, 0)
        g = _plain_gaussian(base, "MomentPacket")
        _, s2, kappa, c = g
        sign = -1j if mu == 0 else 1j
        phase = 1j * c[0] if mu == 0 else -1j * c[1]
        super().__init__(g, {(0, 0): sign * (phase + s2[mu] * kappa[mu]),
                             (1 - mu, mu): -sign * s2[mu]})


class AnisoGaussian(Smearing):
    """exp(-x0^2 / 2 wt^2) exp(-x1^2 / 2 ws^2), heights 1, centred at 0:
    A = 2 pi wt ws, s2 = (wt^2, ws^2), no carrier, c = 0."""

    def __init__(self, wt, ws):
        if wt <= 0 or ws <= 0:
            raise DomainError("widths must be positive")
        wt, ws = float(wt), float(ws)
        super().__init__(((2.0 * np.pi) * wt * ws, (wt ** 2, ws ** 2),
                          (0.0, 0.0), (0.0, 0.0)), Smearing.prefactor)


# ---------------------------------------------------------------------------
# matrix elements

# the (eps1, eps2) sign pattern q_i = eps_i k_i of each ordering
_ORDERINGS = {"left": (-1, -1), "middle": (1, -1), "right": (1, 1)}


def set_matrix_element(f, h1, f1, h2, f2, mu, nu, ordering="middle",
                       n_nodes=72):
    """Matrix element of the smeared tensor Theta_mn(f) between one-particle
    smearings, in one of the three orderings

        left:   <Omega, Theta(f) phi_{h1}(f1) phi_{h2}(f2) Omega>
        middle: <Omega, phi_{h1}(f1) Theta(f) phi_{h2}(f2) Omega>
        right:  <Omega, phi_{h1}(f1) phi_{h2}(f2) Theta(f) Omega>

    evaluated as the 3-dimensional lightcone quadrature (k1+, k1-, k2+) with
    k2- = k1+ k1- / k2+ fixed by the mass-diagonal constraint; f2 must be a
    plain Gaussian.  This is the one-term call of _set_terms, which states
    the quadrature.  error_estimate is the difference to the same quadrature
    on n_nodes // 2 nodes.
    """
    return _set_terms(((f, mu, nu),), h1, f1, h2, f2, ordering, n_nodes)[0]


def _set_terms(terms, h1, f1, h2, f2, ordering, n_nodes):
    """set_matrix_element of every (f, mu, nu) of terms, in one pass.

    The smearings f of one call share their Gaussian form (they differ in
    prefactor and tensor indices only, as d^mu f or x^mu f of one f), so
    the part of the integrand that does not depend on the term is computed
    once.  The k2+ axis is walked one node at a time over the flattened
    (k1+, k1-) rows.  On each slice fhat2(-q2) fhat(q1 + q2), two diagonal
    Gaussians, is one complex exponential whose exponent is a quadratic in
    k2- = k1+ k1- / k2+, evaluated by Horner's rule; the bra takes it once,
    and each term contracts it with its kernel polynomial
    (_kernel_lightcone) times the monomials of its prefactor, all real
    polynomials in k2-.  Returns one
    Correlator a term, each value bit-identical to the term on its own.
    """
    if ordering not in _ORDERINGS:
        raise DomainError(f"unknown ordering {ordering!r}")
    for _, mu, nu in terms:
        _check_indices(mu, nu)
    if n_nodes < 2:
        raise DomainError("set_matrix_element needs n_nodes >= 2")
    e1, e2 = _ORDERINGS[ordering]
    kmax = 2.0 * max(f1.reach, f2.reach)
    amp2, (t0, t1), (o0, o1), (d0, d1) = _plain_gaussian(
        f2, "set_matrix_element's f2")
    amp, (s0, s1), (p0, p1), (c0, c1) = terms[0][0].gaussian
    # on the slice k2+, with a = e2 k2+ / 2 and v = e2 k2- / 2, fhat2 is
    # taken at the upper components -(a, a) - (v, -v) and fhat at
    # (r0, r1) + (a, a) + (v, -v), r = (q1_0, -q1_1) - kappa.  Their two
    # exponents add to a quadratic in k2- whose k2-^2 coefficient is a
    # number and whose imaginary part is linear:
    #     re = R0 + R1 k2- - (s0 + s1 + t0 + t1) k2-^2 / 8,
    #     im = c0 r0 - c1 r1 + phi(k2+) + e2 (c0 + c1 - d0 - d1) k2- / 2,
    # R0 and R1 over the rows.  c0 r0 - c1 r1 goes into the bra and the
    # number phi(k2+) into the slice's weight.
    sq = -0.125 * (s0 + s1 + t0 + t1)
    lin = 0.5 * e2 * (c0 + c1 - d0 - d1)
    # whether a prefactor needs f's momentum components
    monomials = any(i or j for f, _, _ in terms for i, j in f.prefactor)

    def on_grid(n):
        k, w = lightcone_grid_nodes(n, kmax)
        k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
        m2 = k1p * k1m
        q1 = tuple(e1 * c for c in _lower((k1p, k1m)))
        r0, r1 = q1[0] - p0, -q1[1] - p1
        # fourier takes upper components: f1 at -q1
        bra = np.outer(w, w).ravel() * np.asarray(h1(m2)) * \
            np.asarray(h2(m2)) * f1.fourier(-q1[0], q1[1]) * \
            np.exp(1j * (c0 * r0 - c1 * r1))
        # R0 = v0 + a v1 + n0(k2+), R1 = u1 + n1(k2+)
        v0 = -0.5 * (s0 * r0 * r0 + s1 * r1 * r1)
        v1 = -(s0 * r0 + s1 * r1)
        u1 = -0.5 * e2 * (s0 * r0 - s1 * r1)
        kernels = []
        for f, mu, nu in terms:
            (b0, bp, bm), (dpp, dmm, dpm) = _kernel_lightcone(q1, e2, mu, nu)
            kernels.append((f.prefactor, b0 + dpm * m2, bp, bm, dpp, dmm))
        # per-slice arrays over the rows, written in place
        k2m, expo, kern = (np.empty(m2.size) for _ in range(3))
        x0, x1 = (np.empty(m2.size) for _ in range(2))
        # bra times the exponential, also as (re, im) columns of a real
        # matrix
        bra_gauss = np.empty(m2.size, dtype=complex)
        pairs = bra_gauss.view(float).reshape(-1, 2)
        totals = [0.0j] * len(terms)
        for k2p, w2p in zip(k, w):
            a = 0.5 * e2 * k2p
            # the numbers of R1, R0 and the phase on this slice
            n1 = -0.5 * e2 * (a * (s0 - s1 + t0 - t1) + t0 * o0 - t1 * o1)
            n0 = -0.5 * ((s0 + s1) * a * a + t0 * (a + o0) ** 2 +
                         t1 * (a + o1) ** 2)
            phi = a * (c0 - c1 - d0 + d1) - d0 * o0 + d1 * o1
            scale = w2p / k2p * complex(math.cos(phi), math.sin(phi))
            np.divide(m2, k2p, out=k2m)
            # re = (sq k2- + u1 + n1) k2- + v0 + a v1 + n0
            np.multiply(k2m, sq, out=expo)
            expo += u1
            expo += n1
            expo *= k2m
            expo += v0
            expo += a * v1
            expo += n0
            bra_gauss.real = expo
            np.multiply(k2m, lin, out=bra_gauss.imag)
            np.exp(bra_gauss, out=bra_gauss)
            bra_gauss *= bra
            if monomials:
                # f's upper momentum components, (q1_0 + q2_0, -q1_1 - q2_1)
                np.add(q1[0] + a, 0.5 * e2 * k2m, out=x0)
                np.add(a - q1[1], -0.5 * e2 * k2m, out=x1)
            for t, (pre, b0, bp, bm, dpp, dmm) in enumerate(kernels):
                # b0 + (bp + dpp k2+) k2+ + (bm + dmm k2-) k2-
                np.multiply(k2m, dmm, out=kern)
                kern += bm
                kern *= k2m
                kern += b0 + (bp + dpp * k2p) * k2p
                total = 0.0j
                for (i, j), coef in pre.items():
                    p = math.prod((x0,) * i + (x1,) * j, start=kern)
                    total += coef * complex(*(p @ pairs))
                totals[t] += scale * total
        return [complex(norm_const(2) ** 2 * 0.25 * amp2 * amp * total)
                for total in totals]

    values = on_grid(n_nodes)
    return [Correlator(v, abs(v - half))
            for v, half in zip(values, on_grid(n_nodes // 2))]


def conservation_check(h1, f1, h2, f2, f, nu, n_nodes):
    """Contraction sum_mu <.. Theta_mn(d^mu f) ..>, which must vanish
    (d^m Theta = 0), in the middle ordering on n_nodes nodes.

    The terms d^0 f and d^1 f share f's Gaussian, so both are one _set_terms
    pass.
    """
    terms = _set_terms([(DerivativePacket(f, mu), mu, nu) for mu in (0, 1)],
                       h1, f1, h2, f2, "middle", n_nodes)
    # DerivativePacket multiplies by -i k^mu, i.e. it already represents
    # d^mu f with the raised index, so the terms add without metric signs
    total = terms[0].value + terms[1].value
    scale = max(abs(t.value) for t in terms)
    err = sum(t.error_estimate for t in terms)
    return {"contraction": total, "term_scale": scale,
            "relative": abs(total) / scale if scale > 0 else 0.0,
            "error_estimate": err}


def generator_matrix_element(h1, f1, h2, f2, G):
    """One-particle element <Omega phi_{h1}(f1) G phi_{h2}(f2) Omega>, d = 2.

    Equals (2 pi)^-1 * (1/2) int dk+ dk-  fhat1(-k) h1 (G psi2)(k) with
    psi2 = h2 fhat2, the generator applied through the mode machinery.
    """
    grid = LightconeGrid(n=96, kmin=0.01, kmax=40.0)
    psi2 = ModeFunction(grid, lambda kp, km:
                        np.asarray(h2(kp * km)) * f2.fourier_lc(kp, km))
    gpsi = apply_generator(G, psi2)
    kp, km, w = grid.mesh()
    bra = f1.fourier_lc(-kp, -km) * np.asarray(h1(kp * km))
    return complex(norm_const(2) * 0.5 * np.sum(w * bra * gpsi.samples))


def momentum_density_check(h1, f1, h2, f2, nu, broadening_sequence):
    """Spatially integrated Theta_0n approaches the momentum generator P_n.

    Returns the relative deviation at each s of the tensor smeared with a
    unit-time-area Gaussian times a height-one spatial Gaussian of width s
    from its s -> infinity limit, the one-particle matrix element of P_n.
    """
    target = generator_matrix_element(h1, f1, h2, f2, GeneratorKind("P", mu=nu))

    def value(f, n):
        return set_matrix_element(f, h1, f1, h2, f2, 0, nu, n_nodes=n).value

    return _broadening(target, value, broadening_sequence)


def _unit_time_area(s):
    """Gaussian with int dt = 1 in time (width 0.5), height 1 in space
    (width s)."""
    amp, *form = AnisoGaussian(0.5, s).gaussian
    return Smearing((amp / (math.sqrt(2.0 * math.pi) * 0.5), *form),
                    Smearing.prefactor)


def lorentz_density_check(h1, f1, h2, f2, mu, nu, broadening_sequence):
    """Spatially integrated x_m Theta_0n - x_n Theta_0m approaches M_mn.

    Relative deviations as in momentum_density_check.  M_mm = 0, so mu == nu
    has no limit to approach and raises DomainError.
    """
    _check_indices(mu, nu)
    if mu == nu:
        raise DomainError("lorentz_density_check needs mu != nu: M_mm = 0")
    # The density integral realizes the transformation of the fields, whose
    # one-particle action is minus the wavefunction boost operator used in
    # fock (the two conventions differ by an overall sign for M, not for P;
    # both are pinned independently by the commutator oracle).
    target = -generator_matrix_element(
        h1, f1, h2, f2, GeneratorKind("M", mu=mu, nu_idx=nu))
    # x_0 = x^0 -> MomentPacket(mu=0); x_1 = -x^1 -> -MomentPacket(mu=1)
    sign = (1.0, -1.0)

    def value(f, n):
        va, vb = _set_terms(((MomentPacket(f, mu), 0, nu),
                             (MomentPacket(f, nu), 0, mu)),
                            h1, f1, h2, f2, "middle", n)
        return sign[mu] * va.value - sign[nu] * vb.value

    return _broadening(target, value, broadening_sequence)


def _broadening(target, value, broadening_sequence):
    """Deviations from target of value(f, n) along the broadening widths s,
    f the tensor smearing of width s and n its node count."""
    deviations = []
    for s in checked_sequence(broadening_sequence, "broadening_sequence",
                              increasing=True):
        # the spatial momentum transfer narrows like 1/s: refine with s
        val = value(_unit_time_area(s), max(72, int(20 * s)))
        deviations.append(abs(val - target) / abs(target))
    return deviations


def trace_check(h1, f1, h2, f2, f, n_nodes):
    """eta^{mn} trace of the middle-ordering matrix element on n_nodes
    nodes, nonzero for generic inputs; the estimate sums its two terms'."""
    m00, m11 = _set_terms(((f, 0, 0), (f, 1, 1)), h1, f1, h2, f2, "middle",
                          n_nodes)
    return Correlator(m00.value - m11.value,
                      m00.error_estimate + m11.error_estimate)


def commutator_locality_check(f, g, h, h1, f1, mu, nu, n_nodes):
    """<Omega phi_{h1}(f1) [Theta_mn(f), phi_h(g)] Omega> via two orderings,
    each on n_nodes nodes; the estimate sums the two orderings'."""
    forward = set_matrix_element(f, h1, f1, h, g, mu, nu, "middle", n_nodes)
    backward = set_matrix_element(f, h1, f1, h, g, mu, nu, "right", n_nodes)
    return Correlator(forward.value - backward.value,
                      forward.error_estimate + backward.error_estimate)


# ---------------------------------------------------------------------------
# vacuum fluctuations of the mollified tensor

def vacuum_fluctuation_divergence(f, sigma_sequence, mu=0, nu=0, n_nodes=48,
                                  n_inner=24):
    """||Theta^sigma_mn(f) Omega||^2 for delta-mollified diagonal weights.

    The weight is h_sigma(m1^2, m2^2) = N_sigma exp(-(m1^2-m2^2)^2/2 sigma^2)
    with N_sigma = 1/(sqrt(2 pi) sigma); the norm grows like 1/sigma as the
    weight approaches the singular delta of the stress-energy tensor.

    Each value is the 4-dimensional integral, with u = m2^2 = k2+ k2-,

        (1/2) c^2 (1/4) int dk1+ dk1- dk2+ du  h_sigma^2 |K_mn(q1, q2)|^2
            |fhat(k1 + k2)|^2 / k2+,      c = norm_const(2),

    q1, q2 the lower components of k1 and k2, on n_nodes lightcone nodes per
    k axis and n_inner Gauss-Legendre nodes in u over m1^2 +- 6 sigma.  The
    k2+ axis is walked one node at a time over (u, k1+, k1-) arrays.  f is a
    diagonal Gaussian, so h_sigma^2 |fhat|^2 is one real exponential.  On a
    slice its exponent, but for the weight's own term, and the kernel
    (_kernel_lightcone) are quadratics in u with coefficients over the rows,
    evaluated by Horner's rule.  A term whose exponent lies below _EXP_FAST
    = -707 is flushed to 0: it is under e^-707 = 9.0e-308 times its squared
    kernel and weight.  np.exp takes every point of a slice at
    max(exponent, -707), on numpy's vector path, and the mask of the points
    at or above -707 zeroes the flushed ones; a slice with no such point is
    skipped.  The report counts the grid_points (sigmas x n_nodes^3 x
    n_inner) and, as exponentials, the points whose exponential enters the
    sum.
    """
    kmax = 2.0 * f.reach + 10.0
    sigmas = checked_sequence(sigma_sequence, "sigma_sequence",
                              increasing=False)
    _check_indices(mu, nu)
    amp, (s0, s1), (p0, p1), _ = _plain_gaussian(
        f, "vacuum_fluctuation_divergence")
    k, w = lightcone_grid_nodes(n_nodes, kmax)
    # rows: the (k1+, k1-) grid flattened, on the last axis of every array
    k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
    m1sq = k1p * k1m
    q1 = _lower((k1p, k1m))
    (c0, cp, cm), (dpp, dmm, dpm) = _kernel_lightcone(q1, 1, mu, nu)
    w1 = np.outer(w, w).ravel()

    values, exponentials = [], 0
    # per-slice arrays, (n_inner, rows), written in place
    expo, kern = (np.empty((n_inner, m1sq.size)) for _ in range(2))
    live = np.empty(expo.shape, dtype=bool)
    for sigma in sigmas:
        norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        # inner nodes u = m2^2 on the +-6 sigma window of the weight, as
        # (n_inner, rows) arrays
        u, wu = (np.ascontiguousarray(a.T) for a in _gauss_legendre(
            n_inner, np.maximum(m1sq - 6.0 * sigma, 1e-12)[:, None],
            (m1sq + 6.0 * sigma)[:, None]))
        weight = w1 * wu
        # its own array: expanded in u, its terms of ~(u / sigma)^2 cancel
        hexp = -((u - m1sq) / sigma) ** 2
        total = 0.0
        for k2p, w2p in zip(k, w):
            # with k2- = u / k2+, k1 + k2 - kappa has the upper components
            # b0 + k2-/2 and b1 - k2-/2, and the Gaussian's exponent and the
            # kernel are quadratics in u with coefficients over the rows,
            # evaluated by Horner's rule:
            # expo = hexp - (s0 b0^2 + s1 b1^2) - (s0 b0 - s1 b1) u / k2+
            #        - (s0 + s1) u^2 / (4 k2+^2)
            b0, b1 = q1[0] + 0.5 * k2p - p0, 0.5 * k2p - q1[1] - p1
            np.multiply(u, -0.25 * (s0 + s1) / k2p ** 2, out=expo)
            expo += (s1 * b1 - s0 * b0) / k2p
            expo *= u
            expo -= s0 * b0 * b0 + s1 * b1 * b1
            expo += hexp
            # terms below _EXP_FAST are flushed to 0: a slice with no exponent
            # at or above it adds 0
            n_live = int(np.count_nonzero(
                np.greater_equal(expo, _EXP_FAST, out=live)))
            if not n_live:
                continue
            exponentials += n_live
            gauss = np.exp(np.maximum(expo, _EXP_FAST, out=expo), out=expo)
            gauss *= live
            # the kernel c0 + (cp + dpp k2+) k2+ + (dpm + cm / k2+) u
            # + dmm u^2 / k2+^2, squared, times the Gaussian
            np.multiply(u, dmm / k2p ** 2, out=kern)
            kern += dpm + cm / k2p
            kern *= u
            kern += c0 + (cp + dpp * k2p) * k2p
            kern *= kern
            kern *= gauss
            total += w2p / k2p * np.vdot(weight, kern)
        values.append(float(0.5 * norm_const(2) ** 2 * 0.25 *
                            (norm * amp) ** 2 * total))
    logs = np.log(values)
    linv = np.log([1.0 / s for s in sigmas])
    slope = float(np.polyfit(linv, logs, 1)[0])
    return {"values": values,
            "strictly_increasing": all(b > a for a, b in
                                       zip(values, values[1:])),
            "growth_exponent": slope,
            "grid_points": len(sigmas) * n_nodes * m1sq.size * n_inner,
            "exponentials": exponentials}


# ---------------------------------------------------------------------------
# z-integration reduction of the AdS tensor

def z_integral_weight(nu, Z, m1sq, m2sq):
    """(1/2) int_0^Z z J_nu(z m1) J_nu(z m2) dz by adaptive quadrature."""
    nu_f = _nu(nu)
    for key, value in (("Z", Z), ("m1sq", m1sq), ("m2sq", m2sq)):
        if not 0 < value < math.inf:
            raise DomainError(f"z_integral_weight needs a finite {key} > 0, "
                              f"got {value!r}")
    m1, m2 = math.sqrt(m1sq), math.sqrt(m2sq)
    res = adaptive_finite(
        lambda z: 0.5 * z * bessel_j(nu_f, m1 * z) * bessel_j(nu_f, m2 * z),
        1e-12, Z, tol=1e-12)
    return float(res.value.real)


def _lommel_factors(nu, Z, msq):
    """Per-mass factors (m, J, J', on) of the Lommel closed form.

    m = sqrt(msq), J = J_nu(Z m), J' = (J_{nu-1} - J_{nu+1})/2 at Z m, and
    on = (Z^2/4)[J^2 - J_{nu-1} J_{nu+1}], the weight at m1 = m2.
    """
    m = np.sqrt(np.asarray(msq, dtype=float))
    j, jm, jp = (bessel_j(nu + s, Z * m) for s in (0.0, -1.0, 1.0))
    return m, j, 0.5 * (jm - jp), 0.25 * Z ** 2 * (j ** 2 - jm * jp)


def z_integral_weight_closed(nu, Z, m1sq, m2sq):
    """Closed-form (Lommel) evaluation of z_integral_weight; vectorized.

    For m1 != m2:
        (1/2) Z [m1 J'(Z m1) J(Z m2) - m2 J(Z m1) J'(Z m2)] / (m2^2 - m1^2),
    with J' = (J_{nu-1} - J_{nu+1})/2; the diagonal |m2^2 - m1^2| < 1e-9
    uses (Z^2/4)[J_nu^2 - J_{nu-1} J_{nu+1}].
    """
    nu_f = _nu(nu)
    m1, j1, j1p, on = _lommel_factors(nu_f, Z, m1sq)
    m2, j2, j2p, _ = _lommel_factors(nu_f, Z, m2sq)
    diff = m2 ** 2 - m1 ** 2
    diag = np.abs(diff) < 1e-9
    safe = np.where(diag, 1.0, diff)
    off = 0.5 * Z * (m1 * j1p * j2 - m2 * j1 * j2p) / safe
    out = np.where(diag, on, off)
    return float(out) if out.ndim == 0 else out


def z_integral_weight_delta_check(nu, Z, m1sq):
    """Smear z_integral_weight_closed against the Gaussian g of width 0.2
    in m2^2; compare with the delta-limit value g(m1^2).

    Returns the relative deviation, which shrinks as Z grows (the weight
    converges to delta(m1^2-m2^2)).
    """
    if m1sq <= 0 or Z <= 0:
        raise DomainError("delta check needs positive m1sq and Z")
    width = 0.2

    def g(u):
        return np.exp(-(u - m1sq) ** 2 / (2.0 * width ** 2))

    lo = max(m1sq - 8.0 * width, 1e-10)
    hi = m1sq + 8.0 * width
    # oscillation period of the weight is ~ 2 pi m2 / Z in the m2^2 variable
    n_nodes = max(800, int(4.0 * Z * (math.sqrt(hi) - math.sqrt(lo))))
    u, wu = _gauss_legendre(min(n_nodes, 6000), lo, hi)
    wz = z_integral_weight_closed(nu, Z, np.full_like(u, m1sq), u)
    smeared = float(np.sum(wu * wz * g(u)))
    target = float(g(m1sq))
    return abs(smeared - target) / abs(target)


def _near_diagonal(sq1, sq2, order):
    """The (row, column) pairs with |sq2[column] - sq1[row]| <= 2e-9, a
    superset of the diagonal test's |.| < 1e-9, by a search of each sq1 in
    sq2 sorted by order.  Pairs are grouped by row: those of row r are at
    start[r]:start[r + 1] of rows and columns."""
    s = sq2[order]
    lo = np.searchsorted(s, sq1 - 2e-9, "left")
    count = np.searchsorted(s, sq1 + 2e-9, "right") - lo
    start = np.concatenate(([0], np.cumsum(count)))
    rows = np.repeat(np.arange(sq1.size), count)
    cols = order[np.arange(start[-1]) + np.repeat(lo - start[:-1], count)]
    return rows, cols, start


def ads_set_matrix_element(nu, Z, f, h1, f1, h2, f2, mu, nu_idx, n_outer,
                           n_inner):
    """Middle-ordering matrix element with the depth-integrated Bessel weight
    z_integral_weight(nu, Z, k1^2, k2^2) in place of delta(k1^2 - k2^2).

    The mass-diagonal constraint is relaxed, so this is a 4-dimensional
    lightcone quadrature; the k2- axis is densely resolved because the
    weight oscillates on the scale 2 pi m2 / (Z k2+).

    Rows are the (k1+, k1-) grid of n_outer nodes an axis flattened, columns
    the n_inner k2- nodes of one of the n_outer k2+ nodes.  Every factor but
    two separates into a row and a column factor: the kernel through its
    rank-4 split (_kernel_factors)
        K(q1, q2) = K(q1, 0) + K(0, q2) + q1^T M q2 = sum_t A_t(k1) B_t(k2),
    and the Gaussian smearing f as
        fhat(k1 - k2) = A e^{i phi(k1)} e^{-i phi(k2)} exp(E(k1, k2)),
    phi the linear phase, E = -(1/2) sum_mu s2_mu (k1 - k2 - kappa)^mu^2 <= 0.
    bra and ket carry the separable factors.  Per k2+ node the slice is
    sum(bra (G @ ket)) with the real matrix G = weight * exp(E): the weight
    is a rank-2 product of Bessel factors, computed once for the rows and
    once for all columns, over m2^2 - m1^2, and E one rank-4 product.  G is
    built in blocks of _ROW_BLOCK rows; its diagonal |m2^2 - m1^2| < 1e-9,
    where the weight takes its Lommel limit, is tested only at the pairs a
    search in the sorted m2^2 finds (_near_diagonal).
    """
    _check_indices(mu, nu_idx)
    nu_f = _nu(nu)
    kmax = 2.0 * max(f1.reach, f2.reach)
    k, w = lightcone_grid_nodes(n_outer, kmax)
    k2m, w2m = lightcone_grid_nodes(n_inner, kmax)

    # rows: the (k1+, k1-) grid flattened; columns: (k2+, k2-)
    k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
    k2p, k2m = k[:, None], k2m[None, :]
    m1sq, m2sq = k1p * k1m, k2p * k2m
    q1, kl2 = _lower((k1p, k1m)), _lower((k2p, k2m))
    k1_0, k1_1 = q1[0], -q1[1]
    k2_0, k2_1 = kl2[0], -kl2[1]
    a, b = _kernel_factors(q1, (-kl2[0], -kl2[1]), mu, nu_idx)

    g = _plain_gaussian(f, "ads_set_matrix_element")
    amp, (s0, s1), (p0, p1), _ = g
    # log(fhat(k1 - k2) / A) = e1 + e2 + sum_mu s2_mu (k1 - kappa)^mu k2^mu
    e1 = _exponent(g, k1_0, k1_1)
    e2 = _exponent(g, p0 - k2_0, p1 - k2_1)
    bra = (np.outer(w, w).ravel() * np.asarray(h1(m1sq)) *
           f1.fourier(-k1_0, -k1_1) * amp * np.exp(1j * e1.imag))[:, None] * a
    ket = (w[:, None] * w2m * np.asarray(h2(m2sq)) *
           f2.fourier(k2_0, k2_1) * np.exp(1j * e2.imag))[..., None] * b
    # E, the real part, as a rank-4 product
    e_rows = np.stack([s0 * (k1_0 - p0), s1 * (k1_1 - p1), e1.real,
                       np.ones_like(m1sq)], axis=-1)
    e_cols = np.stack([k2_0, k2_1, np.ones_like(m2sq), e2.real], axis=1)
    # the weight's numerator (Z/2)(m1 J1' J2 - m2 J1 J2') as a rank-2 product
    m1, j1, j1p, on = _lommel_factors(nu_f, Z, m1sq)
    m2, j2, j2p, _ = _lommel_factors(nu_f, Z, m2sq)
    w_rows = np.stack([0.5 * Z * m1 * j1p, -j1], axis=-1)
    w_cols = np.stack([j2, 0.5 * Z * m2 * j2p], axis=1)
    # m^2 as z_integral_weight_closed forms it for its diagonal test, and
    # m2^2 - m1^2 as the rank-2 product (1, -m1^2).(m2^2, 1): both products
    # are exact, so each entry is the difference rounded once, as by '-'
    sq1, sq2 = m1 ** 2, m2 ** 2
    d_rows = np.stack([np.ones_like(sq1), -sq1], axis=-1)
    d_cols = np.stack([sq2, np.ones_like(sq2)], axis=1)
    col_order = np.argsort(sq2, axis=1)

    ket = ket.view(float)  # real and imaginary parts interleaved
    n_rows = k1p.size
    gmat = np.empty((n_rows, n_inner))
    # G is built _ROW_BLOCK rows at a time, so that a block's factors stay
    # in cache; the product with ket takes all rows at once
    expo, diff = (np.empty((min(_ROW_BLOCK, n_rows), n_inner))
                  for _ in range(2))
    total = 0.0j
    for i in range(n_outer):
        rows, cols, start = _near_diagonal(sq1, sq2[i], col_order[i])
        for r in range(0, n_rows, _ROW_BLOCK):
            block = slice(r, r + _ROW_BLOCK)
            g = np.matmul(w_rows[block], w_cols[i], out=gmat[block])
            d = np.matmul(d_rows[block], d_cols[i], out=diff[:len(g)])
            # the diagonal |m2^2 - m1^2| < 1e-9 takes the value on, as on / 1
            near = slice(start[r], start[min(r + _ROW_BLOCK, n_rows)])
            rr, cc = rows[near] - r, cols[near]
            diag = np.abs(d[rr, cc]) < 1e-9
            rr, cc = rr[diag], cc[diag]
            g[rr, cc], d[rr, cc] = on[rr + r], 1.0
            g /= d
            e = np.matmul(e_rows[block], e_cols[i], out=expo[:len(g)])
            g *= np.exp(e, out=e)
        total += np.sum(bra * (gmat @ ket[i]).view(complex))
    return complex(norm_const(2) ** 2 * 0.25 * total)


def ads_set_reduction(nu, Z_sequence, f, h1, f1, h2, f2, mu, nu_idx):
    """Z-cutoff bulk reduction of the tensor vs the sharp mass-diagonal limit.

    Evaluates ads_set_matrix_element (32 outer, 600 inner nodes) along the
    increasing Z_sequence and returns its relative deviation at each Z from
    set_matrix_element on 64 nodes (the sharp delta-weight evaluation).
    """
    Zs = checked_sequence(Z_sequence, "Z_sequence", increasing=True)
    target = set_matrix_element(f, h1, f1, h2, f2, mu, nu_idx, n_nodes=64)
    scale = abs(target.value)
    deviations = []
    for Z in Zs:
        val = ads_set_matrix_element(nu, Z, f, h1, f1, h2, f2, mu, nu_idx,
                                     n_outer=32, n_inner=600)
        deviations.append(abs(val - target.value) / scale)
    return deviations
