"""Mode-space Fock structure on the d = 2 forward cone.

One-particle wavefunctions live on the lightcone quadrant k+- > 0 with
measure d^2k = (1/2) dk+ dk-.  Wavefunctions are carried as samples on a
log-uniform Gauss-Legendre tensor grid and differentiated spectrally:
d/dk = k^-1 D_s along each axis, with D_s the barycentric differentiation
matrix in s = log k (Trefethen, Spectral Methods in MATLAB, 2000, ch. 6;
Berrut & Trefethen, SIAM Rev. 46, 2004).  Each generator is a few n x n
products, so generator applications nest.

Generator conventions (wavefunction operators, lower Minkowski indices):
    P_mu   : multiplication by k_mu
    M_01   : i (k_1 d/dk^0 - k_0 d/dk^1)
    D      : i ((k . d/dk) + d/2)
    K_mu   : d/dk^mu + k_mu box_k - (k . d/dk) d/dk^mu
             - d/dk^mu ((k . d/dk) + d) + nu^2 k_mu / k^2
with box_k = (d/dk^0)^2 - (d/dk^1)^2 = 4 d/dk+ d/dk- and
(k . d/dk) = k+ d/dk+ + k- d/dk-.  All relative signs are fixed by the
symbolic-commutator oracle (see symbolic_generator / tests).
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .correlators import norm_const, smeared2pt

__all__ = ["LightconeGrid", "ModeFunction", "GeneratorKind", "inner_product",
           "apply_generator", "algebra_closure_check", "symbolic_generator",
           "special_conformal_field_law", "npoint", "gaussian_mode",
           "position_wavefunction"]


@functools.lru_cache(maxsize=16)
def _spectral(grid):
    """Nodes k, weights dk and d/ds matrix (s = log k) of a grid, with its
    Gauss-Legendre nodes t and their barycentric weights (Berrut & Trefethen)."""
    t, w = np.polynomial.legendre.leggauss(grid.n)
    bw = (-1.0) ** np.arange(grid.n) * np.sqrt((1.0 - t * t) * w)
    a, b = math.log(grid.kmin), math.log(grid.kmax)
    s_diff = 0.5 * (b - a) * (t[:, None] - t[None, :])
    np.fill_diagonal(s_diff, np.inf)
    ds = bw[None, :] / bw[:, None] / s_diff
    np.fill_diagonal(ds, -ds.sum(axis=1))  # exact on constants
    k = np.exp(0.5 * (b - a) * (t + 1.0) + a)
    out = (k, 0.5 * (b - a) * w * k, ds, t, bw)  # dk = k ds
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class LightconeGrid:
    """Log-uniform tensor grid on (kmin, kmax)^2 with Gauss-Legendre weights.

    Every mode used here is below e^-30 at k = 12; kmax = 12 and n = 112
    resolve the K o K commutators to 2e-7 (n = 72 is too coarse).
    """

    n: int = 112
    kmin: float = 0.02
    kmax: float = 12.0

    def __post_init__(self):
        if not (0 < self.kmin < self.kmax) or self.n < 8:
            raise DomainError("invalid lightcone grid parameters")

    def axis(self):
        return _spectral(self)[:2]

    def mesh(self):
        k, wk = self.axis()
        return k[:, None], k[None, :], wk[:, None] * wk[None, :]


class ModeFunction:
    """One-particle wavefunction: its samples on a lightcone grid.

    ModeFunction(grid, func) samples a callable of (k+, k-), which stays
    available as .func and can be evaluated anywhere.  A mode built from
    samples alone (every generator output, sum and multiple) exists only on
    its grid: calling it at other points raises DomainError.
    """

    def __init__(self, grid, func=None, samples=None):
        if (func is None) == (samples is None):
            raise DomainError("a mode needs exactly one of func and samples")
        if samples is None:
            kp, km, _ = grid.mesh()
            samples = func(kp, km)
        samples = np.array(np.broadcast_to(samples, (grid.n, grid.n)),
                           dtype=complex)
        samples.flags.writeable = False
        self.grid, self.func, self.samples = grid, func, samples

    def __call__(self, kp, km):
        if self.func is not None:
            return self.func(kp, km)
        try:
            on_grid = all(np.array_equal(*np.broadcast_arrays(mine, x))
                          for mine, x in zip(self.grid.mesh(), (kp, km)))
        except ValueError:  # shapes that do not broadcast
            on_grid = False
        if not on_grid:
            raise DomainError("this mode is known only on its grid")
        return self.samples

    def norm(self):
        return math.sqrt(abs(inner_product(self, self)))

    def __add__(self, other):
        _same_grid(self, other)
        return ModeFunction(self.grid, samples=self.samples + other.samples)

    def __sub__(self, other):
        _same_grid(self, other)
        return ModeFunction(self.grid, samples=self.samples - other.samples)

    def scale(self, c):
        return ModeFunction(self.grid, samples=c * self.samples)


def _same_grid(f, g):
    if f.grid != g.grid:
        raise DomainError("mode functions live on different grids")


def inner_product(f, g):
    """Grid approximation of int_{V+} conj(f) g d^2k."""
    _same_grid(f, g)
    w = f.grid.mesh()[2]
    return complex(0.5 * np.sum(w * np.conj(f.samples) * g.samples))


def gaussian_mode(grid, center=(3.0, 3.0), width=1.0, phase=None):
    """Gaussian bump in lightcone coordinates, optionally with a plane phase."""
    cp, cm = center

    def func(kp, km):
        val = np.exp(-((kp - cp) ** 2 + (km - cm) ** 2) / (2.0 * width ** 2))
        if phase is not None:
            val = val * np.exp(1j * (phase[0] * kp + phase[1] * km))
        return val + 0j

    return ModeFunction(grid, func)


def position_wavefunction(packet, weight=None, grid=None):
    """Wavefunction (2 pi)^(-1/2) h(k^2) fhat(k) of phi_h(f) Omega, d = 2."""
    grid = grid or LightconeGrid()

    def func(kp, km):
        val = packet.fourier_lc(kp, km) * math.sqrt(norm_const(2))
        if weight is not None:
            val = val * np.asarray(weight(kp * km))
        return val

    return ModeFunction(grid, func)


# ---------------------------------------------------------------------------
# generators

@dataclass(frozen=True)
class GeneratorKind:
    """One of P(mu), M(mu,nu), D, K(mu, Delta) for d = 2."""

    kind: str
    mu: int = 0
    nu_idx: int = 1
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("P", "M", "D", "K"):
            raise DomainError(f"unknown generator kind {self.kind!r}")
        if self.mu not in (0, 1) or self.nu_idx not in (0, 1):
            raise DomainError("index out of range for d = 2")


def _k_lower(mu, kp, km):
    # k_0 = k^0 = (k+ + k-)/2,  k_1 = -k^1 = -(k+ - k-)/2
    return 0.5 * (kp + km) if mu == 0 else -0.5 * (kp - km)


def apply_generator(G, f, d=2):
    """Apply a generator to a mode function, returning a new mode function.

    Axis 0 of the samples is k+ and axis 1 is k-, so k+ d/dk+ is D_s from
    the left and k- d/dk- is D_s^T from the right.
    """
    kp, km, _ = f.grid.mesh()
    ds = _spectral(f.grid)[2]
    F = f.samples
    d_plus = lambda a: (ds @ a) / kp
    d_minus = lambda a: (a @ ds.T) / km
    # d/dk^0 = d/dk+ + d/dk-,  d/dk^1 = d/dk+ - d/dk-
    d_upper = lambda mu, a: d_plus(a) + (1 - 2 * mu) * d_minus(a)
    scaling = lambda a: ds @ a + a @ ds.T  # k . d/dk
    if G.kind == "P":
        out = _k_lower(G.mu, kp, km) * F
    elif G.kind == "M":
        sgn = G.nu_idx - G.mu  # +1 for M01, -1 for M10, 0 on the diagonal
        out = sgn * 1j * (_k_lower(1, kp, km) * d_upper(0, F)
                          - _k_lower(0, kp, km) * d_upper(1, F))
    elif G.kind == "D":
        out = 1j * (scaling(F) + 0.5 * d * F)
    else:
        nu_par = G.delta - 0.5 * d
        klow = _k_lower(G.mu, kp, km)
        d_mu = d_upper(G.mu, F)
        out = (d_mu + klow * 4.0 * d_plus(d_minus(F)) - scaling(d_mu)
               - d_upper(G.mu, scaling(F)) - d * d_mu
               + nu_par ** 2 * klow / (kp * km) * F)
    return ModeFunction(f.grid, samples=out)


# ---------------------------------------------------------------------------
# symbolic oracle

def symbolic_generator(G, expr, kp, km, d=2):
    """Apply the defining differential operator of G to a sympy expression.

    This is the independent route used to pin signs and to build the exact
    commutator oracle; it shares no code with apply_generator.  Each partial
    derivative of expr is taken once, and the composite terms of K are
    written out from them by the product rule.
    """
    import sympy as sym
    k_0 = (kp + km) / 2
    k_1 = -(kp - km) / 2
    if G.kind == "P":
        return (k_0 if G.mu == 0 else k_1) * expr
    if G.kind == "M" and G.mu == G.nu_idx:
        return sym.Integer(0)
    ep, em = sym.diff(expr, kp), sym.diff(expr, km)
    # d/dk^0 = d/dk+ + d/dk-,  d/dk^1 = d/dk+ - d/dk-
    d_up = lambda mu, e_p, e_m: e_p + (1 if mu == 0 else -1) * e_m
    if G.kind == "M":
        sgn = 1 if (G.mu, G.nu_idx) == (0, 1) else -1
        return sgn * sym.I * (k_1 * d_up(0, ep, em) - k_0 * d_up(1, ep, em))
    if G.kind == "D":
        return sym.I * (kp * ep + km * em + sym.Rational(d, 2) * expr)
    # K(mu, Delta)
    nu_par = sym.nsimplify(G.delta - d / 2, rational=False)
    klow = k_0 if G.mu == 0 else k_1
    epp, epm, emm = sym.diff(ep, kp), sym.diff(ep, km), sym.diff(em, km)
    dmu = d_up(G.mu, ep, em)
    box = 4 * epm
    scal_dmu = kp * d_up(G.mu, epp, epm) + km * d_up(G.mu, epm, emm)
    # d/dk^mu of (k . d/dk) expr = kp ep + km em
    dmu_scal = d_up(G.mu, ep + kp * epp + km * epm, kp * epm + em + km * emm)
    return (dmu + klow * box - scal_dmu - dmu_scal - d * dmu
            + nu_par ** 2 * klow / (kp * km) * expr)


def _symbolic_commutator(G1, G2, expr, kp, km, d=2):
    """Exact [G1, G2] expr, built as an operator on a generic function.

    G1 G2 - G2 G1 is applied to an undefined F(kp, km) and expanded, which
    leaves at most a few derivative terms (none for commuting pairs).  Then
    F and each derivative of F become the matching derivative of expr, each
    one taken from the next lower one.
    """
    import sympy as sym
    F = sym.Function("F")(kp, km)
    # expanding G F first halves the cost of the outer application
    g1, g2 = (sym.expand(symbolic_generator(G, F, kp, km, d))
              for G in (G1, G2))
    op = sym.expand(symbolic_generator(G1, g2, kp, km, d)
                    - symbolic_generator(G2, g1, kp, km, d))
    derivs = {(0, 0): expr}

    def deriv(a, b):  # d^a/dkp^a d^b/dkm^b expr
        if (a, b) not in derivs:
            derivs[a, b] = (sym.diff(deriv(a - 1, b), kp) if a
                            else sym.diff(deriv(a, b - 1), km))
        return derivs[a, b]

    subs = {F: expr}
    for dF in op.atoms(sym.Derivative):
        count = dict(dF.variable_count)
        subs[dF] = deriv(count.get(kp, 0), count.get(km, 0))
    return op.xreplace(subs)


def _commutator(G1, G2, f, d):
    """Samples of [G1, G2] f, and the norm of G2 G1 f."""
    g21 = apply_generator(G2, apply_generator(G1, f, d), d)
    g12 = apply_generator(G1, apply_generator(G2, f, d), d)
    return g12.samples - g21.samples, g21.norm()


def algebra_closure_check(G1, G2, f, expr=None, d=2):
    """Compare the grid commutator [G1, G2] f with the exact symbolic one.

    expr must be the sympy expression (in symbols kp, km) matching f.  The
    oracle is exact: [G1, G2] is first built as a differential operator on
    an undefined F(kp, km) (symbolic_generator twice, then expanded to at
    most a few derivative terms, exactly zero for commuting pairs), and
    then F and its derivatives are replaced by those of expr.  The grid
    result must agree with it in relative L2 norm.  The same commutator on
    the grid of half the order is the second opinion: grid_drift is its
    distance from the full-grid result, and ResolutionError is raised when
    both that drift and the discrepancy exceed 0.1.
    """
    import sympy as sym
    if expr is None or f.func is None:
        raise DomainError("algebra_closure_check needs f as a callable and "
                          "its symbolic form")
    comm, scale_ops = _commutator(G1, G2, f, d)
    scale_ops = max(scale_ops, 1e-300)

    names = {s.name: s for s in expr.free_symbols}
    if set(names) != {"kp", "km"}:
        raise DomainError("expr must use exactly the symbols kp and km")
    kp, km = names["kp"], names["km"]
    # no docstring: printing the expression for it would cost as much again
    oracle = sym.lambdify(
        (kp, km), _symbolic_commutator(G1, G2, expr, kp, km, d), "numpy",
        docstring_limit=0)

    kpg, kmg, w = f.grid.mesh()
    want = np.broadcast_to(np.asarray(oracle(kpg, kmg), dtype=complex),
                           comm.shape)
    l2 = lambda a: math.sqrt(0.5 * np.sum(w * np.abs(a) ** 2))
    num, den = l2(comm - want), l2(want)
    rel = num / den if den > 1e-12 * scale_ops else num / scale_ops
    # grid sanity: half the order must not change the answer materially
    # (rounded down to even: every odd order has a node at t = 0, and a
    # node shared with f's grid would divide by zero in the interpolation)
    half = dataclasses.replace(f.grid, n=max(2 * (f.grid.n // 4), 8))
    coarse = _commutator(G1, G2, ModeFunction(half, f.func), d)[0]
    t, bw = _spectral(half)[3:]  # barycentric interpolation onto f's nodes
    lift = bw / (_spectral(f.grid)[3][:, None] - t)
    lift /= lift.sum(axis=1, keepdims=True)
    drift = l2(comm - lift @ coarse @ lift.T) / max(den, scale_ops)
    if drift > 0.1 and num / max(den, scale_ops) > 0.1:
        raise ResolutionError(
            f"commutator not converged on the {f.grid.n}-point grid "
            f"(drift {drift:.2g} from the {half.n}-point grid)")
    return {"relative_discrepancy": rel, "numerator": num, "denominator": den,
            "grid_drift": drift, "vanishes": den <= 1e-12 * scale_ops}


# ---------------------------------------------------------------------------
# special conformal transformation law at the field level

def special_conformal_field_law(f_position, mu, delta, d=2, grid=None):
    """One-particle check of the position-space special conformal law.

    Left side: the momentum generator K(mu, delta) applied (spectrally on
    the grid) to the wavefunction (k^2)^(nu/2) fhat(k) of the
    dimension-delta field smeared with f.  Right side: the wavefunction of
    the field smeared with the position-space transform of f,
        g = -i (-2 x_mu (x . grad f) + x^2 grad_mu f + (2 delta - 2 d) x_mu f),
    whose Fourier transform is computed exactly with sympy.  Returns the
    relative L2 discrepancy.
    """
    import sympy as sym
    if d != 2:
        raise DomainError("implemented for d = 2")
    grid = grid or LightconeGrid()
    nu_par = delta - 0.5 * d

    def h_pow(m2):
        return np.asarray(m2) ** (nu_par / 2.0)

    psi = position_wavefunction(f_position, h_pow, grid)
    left = apply_generator(GeneratorKind("K", mu=mu, delta=delta), psi, d)

    # exact Fourier transform of the transformed test function
    k0s, k1s = sym.symbols("k0 k1", real=True)
    sig = f_position.width
    c = f_position.center.components
    q0 = k0s - f_position.carrier.components[0]
    q1 = k1s - f_position.carrier.components[1]
    fhat = (2 * sym.pi) * sig ** 2 * sym.exp(
        sym.I * (q0 * c[0] - q1 * c[1])
        - sig ** 2 * (q0 ** 2 + q1 ** 2) / 2)

    # momentum-space images: x^nu -> -i d/dk_nu, d/dx^nu -> -i k_nu
    def x_op(nu_i, e):  # multiplication by x^nu_i
        return -sym.I * (sym.diff(e, k0s) if nu_i == 0 else -sym.diff(e, k1s))

    # Operator order matters: multiplications by x sit outside the x-space
    # derivatives, so their momentum images are applied outermost.
    # x . grad f = x^0 d_0 f + x^1 d_1 f; FT(d/dx^nu f) = -i k_nu fhat
    # with the lower-index component k_nu (k_0 = k0, k_1 = -k1).
    d0f = -sym.I * k0s * fhat
    d1f = -sym.I * (-k1s) * fhat
    xdotgrad = x_op(0, d0f) + x_op(1, d1f)
    klow_mu = k0s if mu == 0 else -k1s
    dmu_f = -sym.I * klow_mu * fhat  # FT of d f / d x^mu (index lowered)
    # x^2 (d_mu f): image of x.x = (x^0)^2 - (x^1)^2 applied to FT(d_mu f)
    x2dmu = x_op(0, x_op(0, dmu_f)) - x_op(1, x_op(1, dmu_f))
    xmu = lambda e: (x_op(0, e) if mu == 0 else -x_op(1, e))  # x_mu = eta x^nu

    ghat = -sym.I * (-2 * xmu(xdotgrad) + x2dmu
                     + (2 * delta - 2 * d) * xmu(fhat))
    ghat_fn = sym.lambdify((k0s, k1s), sym.expand(ghat), "numpy")

    def right_func(kp, km):
        k0 = 0.5 * (kp + km)
        k1 = 0.5 * (kp - km)
        return math.sqrt(norm_const(2)) * h_pow(kp * km) * ghat_fn(k0, k1)

    right = ModeFunction(grid, right_func)
    diff = left - right
    denom = right.norm()
    return {"relative_l2": diff.norm() / denom, "right_norm": denom,
            "left_norm": left.norm()}


# ---------------------------------------------------------------------------
# Wick pairing combinatorics

def _pairings(indices):
    """All perfect matchings of the index list as tuples of (i, j), i < j."""
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for pos, j in enumerate(rest):
        pair = (first, j)
        remaining = rest[:pos] + rest[pos + 1:]
        for sub in _pairings(remaining):
            yield (pair,) + sub


def npoint(weights, packets, d=2, n_nodes=120):
    """Gaussian n-point function: sum over pairings of smeared 2-point values.

    Pairs (i, j) with i < j contribute smeared2pt(h_i, f_i, h_j, f_j); odd n
    gives exactly zero.
    """
    if len(weights) != len(packets):
        raise DomainError("weights and packets must have equal length")
    n = len(weights)
    if n % 2 == 1:
        return 0.0 + 0.0j

    @functools.lru_cache(maxsize=None)
    def pair_value(i, j):
        return smeared2pt(weights[i], packets[i], weights[j], packets[j],
                          d=d, n_nodes=n_nodes).value

    return sum((math.prod(pair_value(i, j) for i, j in matching)
                for matching in _pairings(tuple(range(n)))), 0j)
