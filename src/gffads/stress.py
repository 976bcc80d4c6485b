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
"""

import math

import numpy as np

from .errors import DomainError
from .specfun import _nu, bessel_j
from .quadrature import adaptive_finite
from .correlators import Correlator, lightcone_grid_nodes, norm_const
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


def _lower(k):
    """Lower components (k_0, k_1) from lightcone (k+, k-) arrays."""
    kp, km = k
    return (0.5 * (kp + km), -0.5 * (kp - km))


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


def set_kernel(k1, k2, signs, mu, nu, improvement=0.0):
    """Momentum kernel of the tensor for forward-cone momenta k1, k2.

    signs is the (eps1, eps2) pattern of the bilinear; the returned value is
    the coefficient of :a^{eps1}(k1) a^{eps2}(k2): with phase
    e^{i(eps1 k1 + eps2 k2) x}.
    """
    for k in (k1, k2):
        if k.d != 2 or k.square() <= 0 or k.components[0] <= 0:
            raise DomainError("momenta must lie in the open forward cone")
    if mu not in (0, 1) or nu not in (0, 1):
        raise DomainError("tensor indices out of range for d = 2")
    e1, e2 = signs
    q1 = (e1 * k1.components[0], -e1 * k1.components[1])
    q2 = (e2 * k2.components[0], -e2 * k2.components[1])
    return complex(_kernel_lower(q1, q2, mu, nu, improvement))


# ---------------------------------------------------------------------------
# test-function wrappers (closed-form Fourier transforms)

class DerivativePacket:
    """d^mu f for a packet f: multiplies fhat by -i k^mu."""

    def __init__(self, base, mu):
        self.base = base
        self.mu = mu

    def fourier(self, k0, k1):
        kup = k0 if self.mu == 0 else k1
        return -1j * kup * self.base.fourier(k0, k1)


class MomentPacket:
    """x^mu f for a packet f: applies -i d/dk_mu to fhat in closed form.

    Requires the base to expose fourier_derivative(mu, k0, k1) returning
    d fhat / d k^mu.
    """

    def __init__(self, base, mu):
        self.base = base
        self.mu = mu

    def fourier(self, k0, k1):
        # -i d/dk_0 = -i d/dk0 ; -i d/dk_1 = +i d/dk1
        s = -1j if self.mu == 0 else 1j
        return s * self.base.fourier_derivative(self.mu, k0, k1)


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

    def fourier(self, k0, k1):
        c0, c1 = self.center
        return (2.0 * np.pi) * self.wt * self.ws * \
            np.exp(1j * (np.asarray(k0) * c0 - np.asarray(k1) * c1)
                   - 0.5 * self.wt ** 2 * np.asarray(k0) ** 2
                   - 0.5 * self.ws ** 2 * np.asarray(k1) ** 2)

    def fourier_derivative(self, mu, k0, k1):
        c0, c1 = self.center
        base = self.fourier(k0, k1)
        if mu == 0:
            return (1j * c0 - self.wt ** 2 * np.asarray(k0)) * base
        return (-1j * c1 - self.ws ** 2 * np.asarray(k1)) * base


# ---------------------------------------------------------------------------
# matrix elements

def _reach(packet):
    try:
        k0 = packet.carrier.components
        return abs(k0[0]) + abs(k0[1]) + 10.0 / packet.width
    except AttributeError:
        return 10.0 / min(packet.wt, packet.ws)


def set_matrix_element(f, h1, f1, h2, f2, mu, nu, d=2, ordering="middle",
                       n_nodes=72, kmax=None, improvement=0.0):
    """Matrix element of the smeared tensor Theta_mn(f) between one-particle
    smearings, in one of the three orderings

        left:   <Omega, Theta(f) phi_{h1}(f1) phi_{h2}(f2) Omega>
        middle: <Omega, phi_{h1}(f1) Theta(f) phi_{h2}(f2) Omega>
        right:  <Omega, phi_{h1}(f1) phi_{h2}(f2) Theta(f) Omega>

    evaluated as the 3-dimensional lightcone quadrature (k1+, k1-, k2+) with
    k2- = k1+ k1- / k2+ fixed by the mass-diagonal constraint.
    """
    if d != 2:
        raise DomainError("tensor matrix elements are implemented for d = 2")
    if ordering not in ("left", "middle", "right"):
        raise DomainError(f"unknown ordering {ordering!r}")
    if kmax is None:
        kmax = 2.0 * max(_reach(f1), _reach(f2))

    def on_grid(n):
        k, w = lightcone_grid_nodes(n, kmax)
        k1p = k[:, None, None]
        k1m = k[None, :, None]
        k2p = k[None, None, :]
        wt = w[:, None, None] * w[None, :, None] * w[None, None, :]
        k2m = k1p * k1m / k2p
        m2 = k1p * k1m
        kl1 = _lower((k1p, k1m))
        kl2 = _lower((k2p, k2m))
        k1_0, k1_1 = kl1[0], -kl1[1]  # upper components
        k2_0, k2_1 = kl2[0], -kl2[1]
        h12 = np.asarray(h1(m2)) * np.asarray(h2(m2))
        if ordering == "middle":
            q1 = kl1
            q2 = (-kl2[0], -kl2[1])
            vals = f1.fourier(-k1_0, -k1_1) * f2.fourier(k2_0, k2_1) * \
                f.fourier(k1_0 - k2_0, k1_1 - k2_1)
        elif ordering == "left":
            q1 = (-kl1[0], -kl1[1])
            q2 = (-kl2[0], -kl2[1])
            vals = f1.fourier(k1_0, k1_1) * f2.fourier(k2_0, k2_1) * \
                f.fourier(-k1_0 - k2_0, -k1_1 - k2_1)
        else:
            q1 = kl1
            q2 = kl2
            vals = f1.fourier(-k1_0, -k1_1) * f2.fourier(-k2_0, -k2_1) * \
                f.fourier(k1_0 + k2_0, k1_1 + k2_1)
        kern = _kernel_lower(q1, q2, mu, nu, improvement)
        return complex(norm_const(2) ** 2 * 0.25 *
                       np.sum(wt / k2p * h12 * kern * vals))

    value = on_grid(n_nodes)
    value_half = on_grid(max(n_nodes // 2, 16))
    return Correlator(value, abs(value - value_half))


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


def generator_matrix_element(h1, f1, h2, f2, G, grid=None):
    """One-particle element <Omega phi_{h1}(f1) G phi_{h2}(f2) Omega>, d = 2.

    Equals (2 pi)^-1 * (1/2) int dk+ dk-  fhat1(-k) h1 (G psi2)(k) with
    psi2 = h2 fhat2, the generator applied through the mode machinery.
    """
    grid = grid or LightconeGrid(n=96, kmin=0.01, kmax=40.0)
    psi2 = ModeFunction(grid, lambda kp, km:
                        np.asarray(h2(kp * km)) * f2.fourier_lc(kp, km))
    gpsi = apply_generator(G, psi2)
    kp, km, w = grid.mesh()
    k0, k1 = 0.5 * (kp + km), 0.5 * (kp - km)
    bra = f1.fourier(-k0, -k1) * np.asarray(h1(kp * km))
    return complex(norm_const(2) * 0.5 * np.sum(w * bra * gpsi.samples))


def momentum_density_check(h1, f1, h2, f2, nu, broadening_sequence,
                           time_width=0.5, **kwargs):
    """Spatially integrated Theta_0n approaches the momentum generator P_n.

    The tensor is smeared with a unit-time-area Gaussian times a height-one
    spatial Gaussian of growing width s; the s -> infinity limit is the
    one-particle matrix element of P_n.
    """
    target = generator_matrix_element(h1, f1, h2, f2, GeneratorKind("P", mu=nu))
    n_base = kwargs.pop("n_nodes", None)
    values, deviations = [], []
    for s in broadening_sequence:
        f = _unit_time_area(time_width, s)
        # the spatial momentum transfer narrows like 1/s: refine with s
        n = n_base if n_base is not None else max(72, int(20 * s))
        el = set_matrix_element(f, h1, f1, h2, f2, 0, nu, n_nodes=n, **kwargs)
        values.append(el.value)
        deviations.append(abs(el.value - target) / abs(target))
    return {"target": target, "values": values,
            "relative_deviations": deviations,
            "monotone": all(b < a for a, b in
                            zip(deviations, deviations[1:]))}


def _unit_time_area(time_width, s):
    """Gaussian with int dt = 1 in time, height 1 in space."""

    class _Scaled(AnisoGaussian):
        # fourier_derivative inherits correctly: it builds on self.fourier
        def fourier(self, k0, k1):
            return AnisoGaussian.fourier(self, k0, k1) / \
                (math.sqrt(2.0 * math.pi) * self.wt)

    return _Scaled(time_width, s)


def lorentz_density_check(h1, f1, h2, f2, mu, nu, broadening_sequence,
                          time_width=0.5, **kwargs):
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
    n_base = kwargs.pop("n_nodes", None)
    values, deviations = [], []
    for s in broadening_sequence:
        f = _unit_time_area(time_width, s)
        n = n_base if n_base is not None else max(72, int(20 * s))
        # x_0 = x^0 -> MomentPacket(mu=0); x_1 = -x^1 -> -MomentPacket(mu=1)
        def x_low(idx):
            pack = MomentPacket(f, idx)
            return pack, (1.0 if idx == 0 else -1.0)
        pa, sa = x_low(mu)
        pb, sb = x_low(nu)
        va = set_matrix_element(pa, h1, f1, h2, f2, 0, nu,
                                n_nodes=n, **kwargs).value
        vb = set_matrix_element(pb, h1, f1, h2, f2, 0, mu,
                                n_nodes=n, **kwargs).value
        val = sa * va - sb * vb
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
                                  n_inner=24, kmax=None, fixed_width=None):
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
    k1+ axis is walked one node at a time.
    """
    if kmax is None:
        kmax = 2.0 * _reach(f) + 10.0
    sigmas = tuple(float(s) for s in sigma_sequence)
    if any(s2 >= s1 for s1, s2 in zip(sigmas, sigmas[1:])) or sigmas[-1] <= 0:
        raise DomainError("sigma_sequence must decrease to a positive value")
    k, w = lightcone_grid_nodes(n_nodes, kmax)
    k1m = k[:, None, None]
    k2p = k[None, :, None]
    w2 = w[:, None] * w[None, :]  # (k1-, k2+)
    t_nodes, t_w = np.polynomial.legendre.leggauss(n_inner)

    values = []
    for sigma in sigmas:
        width = fixed_width if fixed_width is not None else sigma
        norm = 1.0 if fixed_width is not None else \
            1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        total = 0.0
        for k1p, w1p in zip(k, w):
            m1sq = k1p * k1m
            # inner integral over u = m2^2 on the +-6 width window of the weight
            lo = np.maximum(m1sq - 6.0 * width, 1e-12)
            hi = m1sq + 6.0 * width
            u = 0.5 * (hi - lo) * (t_nodes + 1.0) + lo
            wu = 0.5 * (hi - lo) * t_w
            hsq = norm ** 2 * np.exp(-((u - m1sq) / width) ** 2)
            q1 = _lower((k1p, k1m))
            q2 = _lower((k2p, u / k2p))
            kern = _kernel_lower(q1, q2, mu, nu)
            fv = f.fourier(q1[0] + q2[0], -(q1[1] + q2[1]))
            integrand = hsq * np.abs(kern) ** 2 * np.abs(fv) ** 2 / k2p
            total += w1p * np.sum(w2 * np.sum(wu * integrand, axis=-1))
        values.append(float(0.5 * norm_const(2) ** 2 * 0.25 * total))
    logs = np.log(values)
    linv = np.log([1.0 / s for s in sigmas])
    slope = float(np.polyfit(linv, logs, 1)[0])
    return {"sigmas": sigmas, "values": values,
            "strictly_increasing": all(b > a for a, b in
                                       zip(values, values[1:])),
            "growth_exponent": slope}


# ---------------------------------------------------------------------------
# z-integration reduction of the AdS tensor

def z_integral_weight(nu, Z, m1sq, m2sq, tol=1e-12):
    """(1/2) int_0^Z z J_nu(z m1) J_nu(z m2) dz by adaptive quadrature."""
    nu_f = _nu(nu)
    if Z <= 0 or m1sq <= 0 or m2sq <= 0:
        raise DomainError("z_integral_weight requires positive arguments")
    m1, m2 = math.sqrt(m1sq), math.sqrt(m2sq)
    res = adaptive_finite(
        lambda z: 0.5 * z * bessel_j(nu_f, m1 * z) * bessel_j(nu_f, m2 * z),
        1e-12, Z, tol=tol)
    return float(res.value.real)


def z_integral_weight_closed(nu, Z, m1sq, m2sq, diag_tol=1e-9):
    """Closed-form (Lommel) evaluation of z_integral_weight; vectorized.

    For m1 != m2:
        (1/2) Z [m1 J'(Z m1) J(Z m2) - m2 J(Z m1) J'(Z m2)] / (m2^2 - m1^2),
    with J' = (J_{nu-1} - J_{nu+1})/2; the diagonal uses
        (Z^2/4)[J_nu^2 - J_{nu-1} J_{nu+1}].
    """
    nu_f = _nu(nu)
    m1 = np.sqrt(np.asarray(m1sq, dtype=float))
    m2 = np.sqrt(np.asarray(m2sq, dtype=float))
    j1, j2 = bessel_j(nu_f, Z * m1), bessel_j(nu_f, Z * m2)
    j1p = 0.5 * (bessel_j(nu_f - 1.0, Z * m1) - bessel_j(nu_f + 1.0, Z * m1))
    j2p = 0.5 * (bessel_j(nu_f - 1.0, Z * m2) - bessel_j(nu_f + 1.0, Z * m2))
    diff = m2 ** 2 - m1 ** 2
    diag = np.abs(diff) < diag_tol
    safe = np.where(diag, 1.0, diff)
    off = 0.5 * Z * (m1 * j1p * j2 - m2 * j1 * j2p) / safe
    jm = bessel_j(nu_f - 1.0, Z * m1) * bessel_j(nu_f + 1.0, Z * m1)
    on = 0.25 * Z ** 2 * (j1 ** 2 - jm)
    out = np.where(diag, on, off)
    return float(out) if out.ndim == 0 else out


def z_integral_weight_delta_check(nu, Z, m1sq, g_width=0.2, n_nodes=None):
    """Smear z_integral_weight against a Gaussian in m2^2; compare with the
    delta-limit value g(m1^2).

    Returns the smeared value, g(m1^2) and the relative deviation; the
    deviation shrinks as Z grows (the weight converges to delta(m1^2-m2^2)).
    """
    if m1sq <= 0 or g_width <= 0 or Z <= 0:
        raise DomainError("delta check needs positive m1sq, width and Z")
    m1 = math.sqrt(m1sq)

    def g(u):
        return np.exp(-(u - m1sq) ** 2 / (2.0 * g_width ** 2))

    lo = max(m1sq - 8.0 * g_width, 1e-10)
    hi = m1sq + 8.0 * g_width
    # oscillation period of the weight is ~ 2 pi m2 / Z in the m2^2 variable
    if n_nodes is None:
        n_nodes = max(800, int(4.0 * Z * (math.sqrt(hi) - math.sqrt(lo))))
    t, w = np.polynomial.legendre.leggauss(min(n_nodes, 6000))
    u = 0.5 * (hi - lo) * (t + 1.0) + lo
    wu = 0.5 * (hi - lo) * w
    wz = z_integral_weight_closed(nu, Z, np.full_like(u, m1sq), u)
    smeared = float(np.sum(wu * wz * g(u)))
    target = float(g(m1sq))
    return {"smeared": smeared, "target": target,
            "relative_deviation": abs(smeared - target) / abs(target)}


def ads_set_matrix_element(nu, Z, f, h1, f1, h2, f2, mu, nu_idx,
                           n_outer=48, n_inner=1000, kmax=None,
                           improvement=0.0):
    """Middle-ordering matrix element with the depth-integrated Bessel weight
    z_integral_weight(nu, Z, k1^2, k2^2) in place of delta(k1^2 - k2^2).

    The mass-diagonal constraint is relaxed, so this is a 4-dimensional
    lightcone quadrature; the k2- axis is densely resolved because the
    weight oscillates on the scale 2 pi m2 / (Z k2+).

    The kernel enters through its rank-4 split (_kernel_factors)
        K(q1, q2) = K(q1, 0) + K(0, q2) + q1^T M q2 = sum_t A_t(k1) B_t(k2),
    so per k2+ node only the two truly 4-dimensional factors, the weight
    times fhat(k1 - k2), are formed as one matrix G over rows (k1+, k1-) and
    columns k2-, and the slice is sum(bra A * (G @ (ket B))).
    """
    if kmax is None:
        kmax = 2.0 * max(_reach(f1), _reach(f2))
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
    bra = (np.outer(w, w).ravel() * np.asarray(h1(m1sq)) *
           f1.fourier(-k1_0, -k1_1))[:, None] * a
    ket = (w[:, None] * w2m * np.asarray(h2(m2sq)) *
           f2.fourier(k2_0, k2_1))[..., None] * b

    total = 0.0j
    for i in range(n_outer):
        g = z_integral_weight_closed(nu, Z, m1sq[:, None], m2sq[i]) * \
            f.fourier(k1_0[:, None] - k2_0[i], k1_1[:, None] - k2_1[i])
        total += np.sum(bra * (g @ ket[i]))
    return complex(norm_const(2) ** 2 * 0.25 * total)


def ads_set_reduction(nu, Z_sequence, f, h1, f1, h2, f2, mu, nu_idx,
                      n_outer=48, n_inner=1000, kmax=None, **kwargs):
    """Z-cutoff bulk reduction of the tensor vs the sharp mass-diagonal limit.

    Evaluates ads_set_matrix_element along the increasing Z_sequence and
    compares with set_matrix_element (the sharp delta-weight evaluation).
    """
    Zs = tuple(float(Z) for Z in Z_sequence)
    if any(b <= a for a, b in zip(Zs, Zs[1:])) or Zs[0] <= 0:
        raise DomainError("Z_sequence must be positive and increasing")
    target = set_matrix_element(f, h1, f1, h2, f2, mu, nu_idx,
                                n_nodes=max(n_outer, 64), kmax=kmax, **kwargs)
    scale = abs(target.value)
    values, deviations = [], []
    for Z in Zs:
        val = ads_set_matrix_element(nu, Z, f, h1, f1, h2, f2, mu, nu_idx,
                                     n_outer=n_outer, n_inner=n_inner,
                                     kmax=kmax, **kwargs)
        values.append(val)
        deviations.append(abs(val - target.value) / scale)
    return {"target": target.value, "values": values,
            "relative_deviations": deviations,
            "final_relative_deviation": deviations[-1],
            "monotone_tail": all(b < a for a, b in
                                 zip(deviations[1:], deviations[2:]))}
