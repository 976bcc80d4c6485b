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

Every smearing that reaches the momentum grids is a diagonal Gaussian
(GaussianPacket.gaussian), for derivative and moment smearings times a
polynomial prefactor.  The matrix-element, bulk-reduction and divergence
kernels build their integrands from that closed form and the kernel's
polynomial splits, walking the k2+ axis one node at a time over the
flattened (k1+, k1-) grid, so no array spans the full grid.
"""

import math

import numpy as np

from .errors import DomainError, checked_sequence
from .specfun import _nu, bessel_j
from .quadrature import _gauss_legendre, adaptive_finite
from .correlators import Correlator, _lower, lightcone_grid_nodes, norm_const
from .fock import GeneratorKind, LightconeGrid, ModeFunction, apply_generator

__all__ = ["set_kernel", "set_matrix_element", "conservation_check",
           "momentum_density_check", "lorentz_density_check", "trace_check",
           "commutator_locality_check", "vacuum_fluctuation_divergence",
           "z_integral_weight", "z_integral_weight_closed",
           "z_integral_weight_delta_check", "ads_set_matrix_element",
           "ads_set_reduction", "AnisoGaussian", "DerivativePacket",
           "MomentPacket", "generator_matrix_element"]

_ETA = np.diag([1.0, -1.0])


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


def _kernel_factors(q1, q2, mu, nu, improvement=0.0):
    """Rank-4 split of the kernel: arrays A(q1), B(q2) with a last axis of
    four, such that sum(A * B, axis=-1) = K_mn(q1, q2).

    K is a homogeneous quadratic in (q1, q2), hence exactly
        K(q1, q2) = K(q1, 0) + K(0, q2) + q1^T M q2,
        M_ij = K(e_i, e_j) - K(e_i, 0) - K(0, e_j),
    with M read off unit vectors through _kernel_lower.
    """
    def kern(a, b):
        return _kernel_lower(a, b, mu, nu, improvement)

    zero, e = (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0))
    m = [[kern(e[i], e[j]) - kern(e[i], zero) - kern(zero, e[j])
          for j in (0, 1)] for i in (0, 1)]
    a = np.stack([kern(q1, zero), np.ones_like(q1[0]), q1[0], q1[1]], axis=-1)
    b = np.stack([np.ones_like(q2[0]), kern(zero, q2),
                  m[0][0] * q2[0] + m[0][1] * q2[1],
                  m[1][0] * q2[0] + m[1][1] * q2[1]], axis=-1)
    return a, b


def _kernel_lightcone(q1, e2, mu, nu, improvement=0.0):
    """The kernel as a polynomial in the lightcone components of k2.

    With q2 = e2 lower(k2) = k2+ l+ + k2- l-, l+- = e2 (1/2, -+1/2), the
    rank-4 split (_kernel_factors) gives exactly
        K_mn(q1, q2) = c0 + c+ k2+ + c- k2- + d++ k2+^2 + d-- k2-^2
                       + d+- k2+ k2-,
    c0 = K(q1, 0), c+- = q1^T M l+- and the d from the quadratic K(0, q2).
    Returns ((c0, c+, c-), (d++, d--, d+-)); the c are arrays over q1.
    """
    a, b = _kernel_factors(q1, (e2 * np.array([0.5, 0.5, 1.0]),
                                e2 * np.array([-0.5, 0.5, 0.0])),
                           mu, nu, improvement)
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
    e^{i(eps1 k1 + eps2 k2) x}.
    """
    for k in (k1, k2):
        if k.d != 2 or k.square() <= 0 or k.components[0] <= 0:
            raise DomainError("momenta must lie in the open forward cone")
    _check_indices(mu, nu)
    e1, e2 = signs
    q1 = (e1 * k1.components[0], -e1 * k1.components[1])
    q2 = (e2 * k2.components[0], -e2 * k2.components[1])
    return complex(_kernel_lower(q1, q2, mu, nu, improvement))


# ---------------------------------------------------------------------------
# test-function wrappers (closed-form Fourier transforms)

def _exponent(g, k0, k1):
    """log(fhat / A) of the diagonal Gaussian g = (A, s2, kappa, c) at the
    upper momentum components (k0, k1)."""
    _, (s0, s1), (p0, p1), (c0, c1) = g
    d0, d1 = k0 - p0, k1 - p1
    return -0.5 * (s0 * d0 * d0 + s1 * d1 * d1) + 1j * (c0 * d0 - c1 * d1)


def _log_derivative(g, mu, k0, k1):
    """d/dk^mu of the exponent of the diagonal Gaussian g."""
    _, s2, kappa, c = g
    phase = 1j * c[0] if mu == 0 else -1j * c[1]
    return phase - s2[mu] * (np.asarray(k0 if mu == 0 else k1) - kappa[mu])


class _PolynomialPacket:
    """A packet whose fhat is prefactor(k0, k1) times the fhat of its base."""

    def __init__(self, base, mu):
        self.base = base
        self.mu = mu

    def fourier(self, k0, k1):
        return self.prefactor(k0, k1) * self.base.fourier(k0, k1)


class DerivativePacket(_PolynomialPacket):
    """d^mu f for a packet f: multiplies fhat by -i k^mu."""

    def prefactor(self, k0, k1):
        return -1j * (k0 if self.mu == 0 else k1)


class MomentPacket(_PolynomialPacket):
    """x^mu f for a Gaussian packet f: applies -i d/dk_mu to fhat in closed
    form, the derivative of the base's Gaussian exponent times fhat."""

    def prefactor(self, k0, k1):
        # -i d/dk_0 = -i d/dk0 ; -i d/dk_1 = +i d/dk1
        s = -1j if self.mu == 0 else 1j
        return s * _log_derivative(self.base.gaussian, self.mu, k0, k1)


class AnisoGaussian:
    """exp(-(x0-c0)^2 / 2 wt^2) exp(-(x1-c1)^2 / 2 ws^2), heights 1.

    fhat(k) = 2 pi wt ws exp(i(k0 c0 - k1 c1)) exp(-wt^2 k0^2/2 - ws^2 k1^2/2)
    for centers (c0, c1); closed-form momentum derivatives are provided for
    the first-moment smearings.
    """

    def __init__(self, wt, ws, center=(0.0, 0.0)):
        if wt <= 0 or ws <= 0:
            raise DomainError("widths must be positive")
        self.wt, self.ws = float(wt), float(ws)
        self.center = (float(center[0]), float(center[1]))

    @property
    def reach(self):
        """Momentum radius beyond which fhat is negligible."""
        return 10.0 / min(self.wt, self.ws)

    @property
    def gaussian(self):
        """fhat as (A, s2, kappa, c), the form of GaussianPacket.gaussian."""
        return ((2.0 * np.pi) * self.wt * self.ws,
                (self.wt ** 2, self.ws ** 2), (0.0, 0.0), self.center)

    def fourier(self, k0, k1):
        amp, (s0, s1), _, (c0, c1) = self.gaussian
        k0, k1 = np.asarray(k0), np.asarray(k1)
        return amp * np.exp(1j * (k0 * c0 - k1 * c1)
                            - 0.5 * s0 * k0 ** 2 - 0.5 * s1 * k1 ** 2)

    def fourier_derivative(self, mu, k0, k1):
        return _log_derivative(self.gaussian, mu, k0, k1) * \
            self.fourier(k0, k1)


# ---------------------------------------------------------------------------
# matrix elements

# the (eps1, eps2) sign pattern q_i = eps_i k_i of each ordering
_ORDERINGS = {"left": (-1, -1), "middle": (1, -1), "right": (1, 1)}


def set_matrix_element(f, h1, f1, h2, f2, mu, nu, ordering="middle",
                       n_nodes=72, improvement=0.0):
    """Matrix element of the smeared tensor Theta_mn(f) between one-particle
    smearings, in one of the three orderings

        left:   <Omega, Theta(f) phi_{h1}(f1) phi_{h2}(f2) Omega>
        middle: <Omega, phi_{h1}(f1) Theta(f) phi_{h2}(f2) Omega>
        right:  <Omega, phi_{h1}(f1) phi_{h2}(f2) Theta(f) Omega>

    evaluated as the 3-dimensional lightcone quadrature (k1+, k1-, k2+) with
    k2- = k1+ k1- / k2+ fixed by the mass-diagonal constraint.  The k2+ axis
    is walked one node at a time over the flattened (k1+, k1-) rows; on each
    slice fhat2(-q2) fhat(q1 + q2), two diagonal Gaussians, is one complex
    exponential times the prefactors of derivative and moment smearings.
    error_estimate is the difference to the same quadrature on n_nodes // 2
    nodes.
    """
    if ordering not in _ORDERINGS:
        raise DomainError(f"unknown ordering {ordering!r}")
    _check_indices(mu, nu)
    if n_nodes < 2:
        raise DomainError("set_matrix_element needs n_nodes >= 2")
    e1, e2 = _ORDERINGS[ordering]
    kmax = 2.0 * max(f1.reach, f2.reach)
    g2 = f2.gaussian
    # a derivative or moment smearing: its polynomial over its base's Gaussian
    if isinstance(f, _PolynomialPacket):
        poly, g = f.prefactor, f.base.gaussian
    else:
        poly, g = (lambda k0, k1: 1.0), f.gaussian

    def on_grid(n):
        k, w = lightcone_grid_nodes(n, kmax)
        k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
        m2 = k1p * k1m
        q1 = tuple(e1 * c for c in _lower((k1p, k1m)))
        # fourier takes upper components: f1 at -q1, f2 at -q2, f at q1 + q2
        bra = np.outer(w, w).ravel() * np.asarray(h1(m2)) * \
            np.asarray(h2(m2)) * f1.fourier(-q1[0], q1[1])
        (c0, cp, cm), (dpp, dmm, dpm) = _kernel_lightcone(q1, e2, mu, nu,
                                                          improvement)
        c0 = c0 + dpm * m2
        total = 0.0j
        for k2p, w2p in zip(k, w):
            k2m = m2 / k2p
            q2 = tuple(e2 * c for c in _lower((k2p, k2m)))
            x2 = (-q2[0], q2[1])
            x = (q1[0] + q2[0], -(q1[1] + q2[1]))
            vals = poly(*x) * np.exp(_exponent(g2, *x2) + _exponent(g, *x))
            kern = c0 + (cp + dpp * k2p) * k2p + (cm + dmm * k2m) * k2m
            total += w2p / k2p * np.dot(bra * kern, vals)
        return complex(norm_const(2) ** 2 * 0.25 * g2[0] * g[0] * total)

    value = on_grid(n_nodes)
    return Correlator(value, abs(value - on_grid(n_nodes // 2)))


def conservation_check(h1, f1, h2, f2, f, nu, **kwargs):
    """Contraction sum_mu <.. Theta_mn(d^mu f) ..> must vanish (d^m Theta = 0)."""
    terms = [set_matrix_element(DerivativePacket(f, mu), h1, f1, h2, f2,
                                mu, nu, **kwargs) for mu in (0, 1)]
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

    The tensor is smeared with a unit-time-area Gaussian times a height-one
    spatial Gaussian of growing width s; the s -> infinity limit is the
    one-particle matrix element of P_n.
    """
    target = generator_matrix_element(h1, f1, h2, f2, GeneratorKind("P", mu=nu))

    def value(f, n):
        return set_matrix_element(f, h1, f1, h2, f2, 0, nu, n_nodes=n).value

    return _broadening(target, value, broadening_sequence)


def _unit_time_area(s):
    """Gaussian with int dt = 1 in time (width 0.5), height 1 in space
    (width s)."""

    class _Scaled(AnisoGaussian):
        # fourier and fourier_derivative build on the scaled amplitude
        @property
        def gaussian(self):
            amp, s2, kappa, c = super().gaussian
            return amp / (math.sqrt(2.0 * math.pi) * self.wt), s2, kappa, c

    return _Scaled(0.5, s)


def lorentz_density_check(h1, f1, h2, f2, mu, nu, broadening_sequence):
    """Spatially integrated x_m Theta_0n - x_n Theta_0m approaches M_mn."""
    if mu == nu:
        return {"target": 0.0, "values": [0.0], "relative_deviations": [0.0],
                "monotone": True}
    # The density integral realizes the transformation of the fields, whose
    # one-particle action is minus the wavefunction boost operator used in
    # fock (the two conventions differ by an overall sign for M, not for P;
    # both are pinned independently by the commutator oracle).
    target = -generator_matrix_element(
        h1, f1, h2, f2, GeneratorKind("M", mu=mu, nu_idx=nu))
    # x_0 = x^0 -> MomentPacket(mu=0); x_1 = -x^1 -> -MomentPacket(mu=1)
    sign = (1.0, -1.0)

    def value(f, n):
        va = set_matrix_element(MomentPacket(f, mu), h1, f1, h2, f2, 0, nu,
                                n_nodes=n).value
        vb = set_matrix_element(MomentPacket(f, nu), h1, f1, h2, f2, 0, mu,
                                n_nodes=n).value
        return sign[mu] * va - sign[nu] * vb

    return _broadening(target, value, broadening_sequence)


def _broadening(target, value, broadening_sequence):
    """Deviations from target of value(f, n) along the broadening widths s,
    f the tensor smearing of width s and n its node count."""
    values, deviations = [], []
    for s in checked_sequence(broadening_sequence, "broadening_sequence",
                              increasing=True):
        # the spatial momentum transfer narrows like 1/s: refine with s
        val = value(_unit_time_area(s), max(72, int(20 * s)))
        values.append(val)
        deviations.append(abs(val - target) / abs(target))
    return {"target": target, "values": values,
            "relative_deviations": deviations,
            "monotone": all(b < a for a, b in
                            zip(deviations, deviations[1:]))}


def trace_check(h1, f1, h2, f2, f, **kwargs):
    """eta^{mn} trace of the matrix element; nonzero for generic inputs."""
    m00 = set_matrix_element(f, h1, f1, h2, f2, 0, 0, **kwargs)
    m11 = set_matrix_element(f, h1, f1, h2, f2, 1, 1, **kwargs)
    trace = m00.value - m11.value
    err = m00.error_estimate + m11.error_estimate
    return {"trace": trace, "error_estimate": err,
            "components": {"00": m00.value, "11": m11.value},
            "significant": abs(trace) > 10.0 * err}


def commutator_locality_check(f, g, h, h1, f1, mu, nu, **kwargs):
    """<Omega phi_{h1}(f1) [Theta_mn(f), phi_h(g)] Omega> via two orderings."""
    forward = set_matrix_element(f, h1, f1, h, g, mu, nu,
                                 ordering="middle", **kwargs)
    backward = set_matrix_element(f, h1, f1, h, g, mu, nu,
                                  ordering="right", **kwargs)
    val = forward.value - backward.value
    return {"commutator": val,
            "error_estimate": forward.error_estimate + backward.error_estimate,
            "orderings": (forward.value, backward.value)}


# ---------------------------------------------------------------------------
# vacuum fluctuations of the mollified tensor

def vacuum_fluctuation_divergence(f, sigma_sequence, mu=0, nu=0, n_nodes=48,
                                  n_inner=24, fixed_width=None):
    """||Theta^sigma_mn(f) Omega||^2 for delta-mollified diagonal weights.

    The weight is h_sigma(m1^2, m2^2) = N_sigma exp(-(m1^2-m2^2)^2/2 sigma^2)
    with N_sigma = 1/(sqrt(2 pi) sigma); the norm grows like 1/sigma as the
    weight approaches the singular delta of the stress-energy tensor.  With
    fixed_width set, a smooth unit-height Gaussian weight of that off-diagonal
    width is used instead of the sigma-narrowing one, and the result is
    independent of the sigma_sequence entries (bounded control case).

    Each value is the 4-dimensional integral, with u = m2^2 = k2+ k2-,

        (1/2) c^2 (1/4) int dk1+ dk1- dk2+ du  h_sigma^2 |K_mn(q1, q2)|^2
            |fhat(k1 + k2)|^2 / k2+,      c = norm_const(2),

    q1, q2 the lower components of k1 and k2, on n_nodes lightcone nodes per
    k axis and n_inner Gauss-Legendre nodes in u over m1^2 +- 6 width.  The
    k2+ axis is walked one node at a time over (u, k1+, k1-) arrays.  f is a
    diagonal Gaussian, so h_sigma^2 |fhat|^2 is one real exponential, and
    the kernel is its polynomial in (k2+, k2-) (_kernel_lightcone).
    """
    kmax = 2.0 * f.reach + 10.0
    sigmas = checked_sequence(sigma_sequence, "sigma_sequence",
                              increasing=False)
    _check_indices(mu, nu)
    amp, (s0, s1), (p0, p1), _ = f.gaussian
    k, w = lightcone_grid_nodes(n_nodes, kmax)
    # rows: the (k1+, k1-) grid flattened, on the last axis of every array
    k1p, k1m = (a.ravel() for a in np.meshgrid(k, k, indexing="ij"))
    m1sq = k1p * k1m
    q1 = _lower((k1p, k1m))
    (c0, cp, cm), (dpp, dmm, dpm) = _kernel_lightcone(q1, 1, mu, nu)
    w1 = np.outer(w, w).ravel()

    values = []
    for sigma in sigmas:
        width = fixed_width if fixed_width is not None else sigma
        norm = 1.0 if fixed_width is not None else \
            1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        # inner nodes u = m2^2 on the +-6 width window of the weight, as
        # (n_inner, rows) arrays
        u, wu = (np.ascontiguousarray(a.T) for a in _gauss_legendre(
            n_inner, np.maximum(m1sq - 6.0 * width, 1e-12)[:, None],
            (m1sq + 6.0 * width)[:, None]))
        weight = w1 * wu
        c0u = c0 + dpm * u
        hexp = -((u - m1sq) / width) ** 2
        total = 0.0
        for k2p, w2p in zip(k, w):
            k2m = u / k2p
            kern = c0u + (cp + dpp * k2p) * k2p + (cm + dmm * k2m) * k2m
            # k1 + k2 - kappa has the upper components b0 + k2-/2 and
            # b1 - k2-/2; its s2-weighted square is quadratic in k2-
            b0, b1 = q1[0] + 0.5 * k2p - p0, 0.5 * k2p - q1[1] - p1
            quad = (s0 * b0 - s1 * b1 + 0.25 * (s0 + s1) * k2m) * k2m
            integrand = kern * kern * np.exp(
                hexp - (s0 * b0 * b0 + s1 * b1 * b1) - quad)
            total += w2p / k2p * np.vdot(weight, integrand)
        values.append(float(0.5 * norm_const(2) ** 2 * 0.25 *
                            (norm * amp) ** 2 * total))
    logs = np.log(values)
    linv = np.log([1.0 / s for s in sigmas])
    slope = float(np.polyfit(linv, logs, 1)[0])
    return {"sigmas": sigmas, "values": values,
            "strictly_increasing": all(b > a for a, b in
                                       zip(values, values[1:])),
            "growth_exponent": slope}


# ---------------------------------------------------------------------------
# z-integration reduction of the AdS tensor

def z_integral_weight(nu, Z, m1sq, m2sq):
    """(1/2) int_0^Z z J_nu(z m1) J_nu(z m2) dz by adaptive quadrature."""
    nu_f = _nu(nu)
    if Z <= 0 or m1sq <= 0 or m2sq <= 0:
        raise DomainError("z_integral_weight requires positive arguments")
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


def z_integral_weight_delta_check(nu, Z, m1sq, g_width=0.2):
    """Smear z_integral_weight against a Gaussian in m2^2; compare with the
    delta-limit value g(m1^2).

    Returns the smeared value, g(m1^2) and the relative deviation; the
    deviation shrinks as Z grows (the weight converges to delta(m1^2-m2^2)).
    """
    if m1sq <= 0 or g_width <= 0 or Z <= 0:
        raise DomainError("delta check needs positive m1sq, width and Z")

    def g(u):
        return np.exp(-(u - m1sq) ** 2 / (2.0 * g_width ** 2))

    lo = max(m1sq - 8.0 * g_width, 1e-10)
    hi = m1sq + 8.0 * g_width
    # oscillation period of the weight is ~ 2 pi m2 / Z in the m2^2 variable
    n_nodes = max(800, int(4.0 * Z * (math.sqrt(hi) - math.sqrt(lo))))
    u, wu = _gauss_legendre(min(n_nodes, 6000), lo, hi)
    wz = z_integral_weight_closed(nu, Z, np.full_like(u, m1sq), u)
    smeared = float(np.sum(wu * wz * g(u)))
    target = float(g(m1sq))
    return {"smeared": smeared, "target": target,
            "relative_deviation": abs(smeared - target) / abs(target)}


def ads_set_matrix_element(nu, Z, f, h1, f1, h2, f2, mu, nu_idx,
                           n_outer=48, n_inner=1000, improvement=0.0):
    """Middle-ordering matrix element with the depth-integrated Bessel weight
    z_integral_weight(nu, Z, k1^2, k2^2) in place of delta(k1^2 - k2^2).

    The mass-diagonal constraint is relaxed, so this is a 4-dimensional
    lightcone quadrature; the k2- axis is densely resolved because the
    weight oscillates on the scale 2 pi m2 / (Z k2+).

    Rows are the (k1+, k1-) grid flattened, columns the k2- nodes of one k2+
    node.  Every factor but two separates into a row and a column factor:
    the kernel through its rank-4 split (_kernel_factors)
        K(q1, q2) = K(q1, 0) + K(0, q2) + q1^T M q2 = sum_t A_t(k1) B_t(k2),
    and the Gaussian smearing f as
        fhat(k1 - k2) = A e^{i phi(k1)} e^{-i phi(k2)} exp(E(k1, k2)),
    phi the linear phase, E = -(1/2) sum_mu s2_mu (k1 - k2 - kappa)^mu^2 <= 0.
    bra and ket carry the separable factors.  Per k2+ node the slice is
    sum(bra (G @ ket)) with the real matrix G = weight * exp(E): the weight
    is a rank-2 product of Bessel factors, computed once for the rows and
    once for all columns, over m2^2 - m1^2, and E one rank-4 product.
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
    a, b = _kernel_factors(q1, (-kl2[0], -kl2[1]), mu, nu_idx, improvement)

    g = f.gaussian
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
    # m^2 as z_integral_weight_closed forms it for its diagonal test
    sq1, sq2 = m1 ** 2, m2 ** 2

    ket = ket.view(float)  # real and imaginary parts interleaved
    gmat = np.empty((k1p.size, n_inner))
    expo = np.empty_like(gmat)
    total = 0.0j
    for i in range(n_outer):
        diff = sq2[i] - sq1[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(np.matmul(w_rows, w_cols[i], out=gmat), diff, out=gmat)
        np.copyto(gmat, on[:, None], where=np.abs(diff, out=diff) < 1e-9)
        gmat *= np.exp(np.matmul(e_rows, e_cols[i], out=expo), out=expo)
        total += np.sum(bra * (gmat @ ket[i]).view(complex))
    return complex(norm_const(2) ** 2 * 0.25 * total)


def ads_set_reduction(nu, Z_sequence, f, h1, f1, h2, f2, mu, nu_idx,
                      n_outer=48, n_inner=1000):
    """Z-cutoff bulk reduction of the tensor vs the sharp mass-diagonal limit.

    Evaluates ads_set_matrix_element along the increasing Z_sequence and
    compares with set_matrix_element (the sharp delta-weight evaluation).
    """
    Zs = checked_sequence(Z_sequence, "Z_sequence", increasing=True)
    target = set_matrix_element(f, h1, f1, h2, f2, mu, nu_idx,
                                n_nodes=max(n_outer, 64))
    scale = abs(target.value)
    values, deviations = [], []
    for Z in Zs:
        val = ads_set_matrix_element(nu, Z, f, h1, f1, h2, f2, mu, nu_idx,
                                     n_outer=n_outer, n_inner=n_inner)
        values.append(val)
        deviations.append(abs(val - target.value) / scale)
    return {"target": target.value, "values": values,
            "relative_deviations": deviations,
            "final_relative_deviation": deviations[-1],
            "monotone_tail": all(b < a for a, b in
                                 zip(deviations[1:], deviations[2:]))}
