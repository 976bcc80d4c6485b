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
commutator oracle.  Only the tests apply these formulas literally with
sympy calculus, as the reference for the tables below.

The oracle holds each generator as a coefficient table {(i, j, a, b): c},
the operator sum c k+^i k-^j d^a/dk+^a d^b/dk-^b with c a Python number:
a dyadic rational times a power of i, except nu^2, which is rounded once
(so every c is exact at dyadic delta); nu^2 k_mu / k^2 has i or j = -1.
Tables compose by the Leibniz rule, so a commutator [G1, G2] is a table
too (the standard conformal-algebra relations, Di Francesco, Mathieu &
Senechal, Conformal Field Theory, 1997, sec. 4.1).  Only that table is
applied to the mode, which must be P exp(E) with P and E polynomials:
each derivative of it is Q exp(E) with Q a polynomial, got from the next
lower one by d/dk (Q e^E) = (dQ/dk + Q dE/dk) e^E on coefficient arrays,
so the oracle needs no symbolic calculus.  The special conformal law takes
its right side the same way, from a table applied to the packet's Gaussian
A exp(E).  sympy does no arithmetic here: the mode's sympy expression is
only read, node by node, into those coefficient arrays.
"""

import cmath
import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError
from .correlators import _lower, norm_const, smeared2pt
from .quadrature import _gauss_legendre, _legendre_table

__all__ = ["LightconeGrid", "ModeFunction", "GeneratorKind", "inner_product",
           "apply_generator", "algebra_closure_check",
           "special_conformal_field_law", "npoint", "gaussian_mode",
           "position_wavefunction"]


@functools.lru_cache(maxsize=16)
def _spectral(grid):
    """Nodes k, weights dk and d/ds matrix (s = log k) of a grid, with its
    Gauss-Legendre nodes t and their barycentric weights (Berrut & Trefethen)."""
    t, w = _legendre_table(grid.n)
    bw = (-1.0) ** np.arange(grid.n) * np.sqrt((1.0 - t * t) * w)
    a, b = math.log(grid.kmin), math.log(grid.kmax)
    s_diff = 0.5 * (b - a) * (t[:, None] - t[None, :])
    np.fill_diagonal(s_diff, np.inf)
    ds = bw[None, :] / bw[:, None] / s_diff
    np.fill_diagonal(ds, -ds.sum(axis=1))  # exact on constants
    s, ws = _gauss_legendre(grid.n, a, b)
    k = np.exp(s)
    out = (k, ws * k, ds, t, bw)  # dk = k ds
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
        if not math.isfinite(self.delta):
            raise DomainError(f"delta must be finite, got {self.delta!r}")


def _real_product(m, a):
    """m @ a for real m and complex a, as one real product on a's
    interleaved (re, im) columns: numpy would cast m to complex."""
    return (m @ np.ascontiguousarray(a).view(float)).view(complex)


def apply_generator(G, f):
    """Apply a generator to a mode function, returning a new mode function.

    Axis 0 of the samples is k+ and axis 1 is k-, so k+ d/dk+ is D_s from
    the left and k- d/dk- is D_s^T from the right.
    """
    kp, km, _ = f.grid.mesh()
    ds = _spectral(f.grid)[2]
    F = f.samples
    # a @ ds.T = (ds @ a.T).T
    left = lambda a: _real_product(ds, a)
    right = lambda a: left(a.T).T
    d_plus = lambda a: left(a) / kp
    d_minus = lambda a: right(a) / km
    # d/dk^0 = d/dk+ + d/dk-,  d/dk^1 = d/dk+ - d/dk-
    d_upper = lambda mu, a: d_plus(a) + (1 - 2 * mu) * d_minus(a)
    scaling = lambda a: left(a) + right(a)  # k . d/dk
    klow = None if G.kind == "D" else _lower((kp, km))
    if G.kind == "P":
        out = klow[G.mu] * F
    elif G.kind == "M":
        sgn = G.nu_idx - G.mu  # +1 for M01, -1 for M10, 0 on the diagonal
        out = sgn * 1j * (klow[1] * d_upper(0, F) - klow[0] * d_upper(1, F))
    elif G.kind == "D":
        out = 1j * (scaling(F) + F)
    else:
        nu_par = G.delta - 1.0
        d_mu = d_upper(G.mu, F)
        out = (d_mu + klow[G.mu] * 4.0 * d_plus(d_minus(F)) - scaling(d_mu)
               - d_upper(G.mu, scaling(F)) - 2 * d_mu
               + nu_par ** 2 * klow[G.mu] / (kp * km) * F)
    return ModeFunction(f.grid, samples=out)


# ---------------------------------------------------------------------------
# symbolic oracle: an exact algebra of differential operators

def _table(terms):
    """Sum (key, coefficient) pairs into an operator table, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}


def _combine(*terms):
    """The table of sum w A over the (w, A) pairs."""
    return _table((key, w * c) for w, op in terms for key, c in op.items())


def _compose(A, B):
    """The table of A o B, by the Leibniz rule.

    d^a/dkp^a kp^i = sum_r C(a, r) (i)_r kp^(i-r) d^(a-r)/dkp^(a-r), with
    the falling factorial (i)_r = i (i-1) ... (i-r+1), so i may be negative.
    """
    ff = lambda i, r: math.prod(range(i, i - r, -1))
    return _table(
        ((i1 + i2 - r, j1 + j2 - s, a1 - r + a2, b1 - s + b2),
         c1 * c2 * math.comb(a1, r) * math.comb(b1, s) * ff(i2, r) * ff(j2, s))
        for (i1, j1, a1, b1), c1 in A.items()
        for (i2, j2, a2, b2), c2 in B.items()
        for r in range(a1 + 1) for s in range(b1 + 1))


def _tables():
    """Coefficient tables of k_mu, d/dk^mu (mu = 0, 1) and k . d/dk."""
    k_low = ({(1, 0, 0, 0): 0.5, (0, 1, 0, 0): 0.5},    # k_0
             {(1, 0, 0, 0): -0.5, (0, 1, 0, 0): 0.5})   # k_1
    # d/dk^0 = d/dk+ + d/dk-,  d/dk^1 = d/dk+ - d/dk-
    d_up = ({(0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
            {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1})
    scaling = {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}  # k . d/dk
    return k_low, d_up, scaling


def _operator(G):
    """The coefficient table of G, composed as the module docstring has it."""
    k_low, d_up, scaling = _tables()
    if G.kind == "P":
        return k_low[G.mu]
    if G.kind == "M":
        sgn = G.nu_idx - G.mu  # +1 for M01, -1 for M10, 0 on the diagonal
        return _combine((sgn * 1j, _compose(k_low[1], d_up[0])),
                        (-sgn * 1j, _compose(k_low[0], d_up[1])))
    if G.kind == "D":
        return _combine((1j, scaling), (1j, {(0, 0, 0, 0): 1}))
    nu_sq = (G.delta - 1.0) ** 2  # rounded once; exact at dyadic delta
    klow, d_mu = k_low[G.mu], d_up[G.mu]
    box = {(0, 0, 1, 1): 4}
    return _combine((1, d_mu), (1, _compose(klow, box)),
                    (-1, _compose(scaling, d_mu)),
                    (-1, _compose(d_mu, scaling)), (-2, d_mu),
                    (nu_sq, _compose(klow, {(-1, -1, 0, 0): 1})))


def _polyadd(a, b):
    """The coefficients of the sum of two 2-D polynomials."""
    out = np.zeros(np.maximum(a.shape, b.shape), dtype=complex)
    out[:a.shape[0], :a.shape[1]] += a
    out[:b.shape[0], :b.shape[1]] += b
    return out


def _read_form(expr, kp, km):
    """Coefficient arrays [P, E] of expr = P exp(E), P and E polynomials.

    c[i, j] is the coefficient of kp^i km^j.  The exp factors of the
    top-level product give E, the others P.  Each part is read in one walk
    of its tree, in the order in which sympy's polynomial ring over CC
    would rebuild it: a sum adds, a product multiplies (_polymul), an
    integer power above 1 multiplies its base out, and a finite number is
    its complex value; any other node raises DomainError.  Nothing is
    expanded first and no sympy object is built.
    """
    from sympy import I, exp
    gens = {kp: np.array([[0.0], [1.0]], dtype=complex),
            km: np.array([[0.0, 1.0]], dtype=complex)}

    def read(e):
        if e in gens:
            return gens[e]
        if e.is_Add:
            return functools.reduce(_polyadd, map(read, e.args))
        if e.is_Mul:
            return functools.reduce(_polymul, map(read, e.args))
        if e.is_Pow and e.exp.is_Integer and int(e.exp) > 1:
            base = read(e.base)
            return functools.reduce(_polymul, [base] * int(e.exp))
        if e.is_number:  # Integer, Rational and Float by their float
            c = 1j if e is I else float(e) if e.is_Number else complex(e)
            if cmath.isfinite(c):
                return np.array([[c]], dtype=complex)
        raise DomainError("the symbolic oracle needs expr = P exp(E) with P "
                          f"and E polynomials in kp, km: cannot read {e}")

    factors = expr.args if expr.is_Mul else (expr,)
    P = functools.reduce(_polymul, (read(a) for a in factors
                                    if not isinstance(a, exp)),
                         np.ones((1, 1), dtype=complex))
    E = functools.reduce(_polyadd, (read(a.args[0]) for a in factors
                                    if isinstance(a, exp)),
                         np.zeros((1, 1), dtype=complex))
    return [P, E]


def _polymul(a, b):
    """The coefficients of the product of two 2-D polynomials."""
    out = np.zeros(np.add(a.shape, b.shape) - 1, dtype=complex)
    for (i, j), c in np.ndenumerate(a):
        out[i:i + b.shape[0], j:j + b.shape[1]] += c * b
    return out


def _oracle(op, P, E, k):
    """The table op applied to P e^E, on the tensor grid k x k.

    d/dkp (Q e^E) = (dQ/dkp + Q dE/dkp) e^E, and likewise for km, so each
    derivative of P e^E is Q_ab e^E with a polynomial Q_ab, taken once from
    the next lower one.  An empty table gives exact zeros.
    """
    poly = np.polynomial.polynomial
    dE = (poly.polyder(E, axis=0), poly.polyder(E, axis=1))
    Q = {(0, 0): P}

    def q(a, b):  # d^a/dkp^a d^b/dkm^b (P e^E) = Q_ab e^E
        if (a, b) not in Q:
            axis = 0 if a else 1
            R = q(a - 1, b) if a else q(a, b - 1)
            dR, out = poly.polyder(R, axis=axis), _polymul(R, dE[axis])
            out[:dR.shape[0], :dR.shape[1]] += dR  # out is never smaller
            Q[a, b] = out
        return Q[a, b]

    kp, km = k[:, None], k[None, :]
    want = np.zeros((k.size, k.size), dtype=complex)
    for (i, j, a, b), c in op.items():
        want += complex(c) * kp ** i * km ** j * poly.polygrid2d(k, k, q(a, b))
    return want * np.exp(poly.polygrid2d(k, k, E)) if op else want


def _commutator(G1, G2, f):
    """Samples of [G1, G2] f, and the norm of G2 G1 f."""
    g21 = apply_generator(G2, apply_generator(G1, f))
    g12 = apply_generator(G1, apply_generator(G2, f))
    return g12.samples - g21.samples, g21.norm()


def _require_finite(samples, what, grid):
    if not np.all(np.isfinite(samples)):
        raise DomainError(f"the {what} has non-finite samples on the "
                          f"{grid.n}-point grid")


def algebra_closure_check(G1, G2, f, expr):
    """Compare the grid commutator [G1, G2] f with the exact symbolic one.

    f must be given as a callable, and expr is its sympy expression (in
    symbols kp, km), of the form P exp(E) with P and E polynomials in kp,
    km (exp(E) may come as several exp factors); any other form raises
    DomainError.  expr is only read into coefficient arrays (_read_form),
    with no sympy arithmetic.
    The oracle is exact in form: the coefficient table of [G1, G2] is
    composed from those of G1 and G2 (at most a few terms, none for
    commuting pairs), applied to P e^E by the recurrence of the module
    docstring and summed on the grid; it shares no grid differentiation
    with apply_generator.  The grid
    result must agree with it in relative L2 norm; a non-finite sample of
    either raises DomainError.  The same commutator on the grid of half the
    order is the second opinion: grid_drift is its distance from the
    full-grid result, and ResolutionError is raised when both that drift
    and the discrepancy exceed 0.1.
    """
    if f.func is None:
        raise DomainError("algebra_closure_check needs f as a callable")
    comm, scale_ops = _commutator(G1, G2, f)
    _require_finite(comm, "grid commutator", f.grid)
    scale_ops = max(scale_ops, 1e-300)

    names = {s.name: s for s in expr.free_symbols}
    if set(names) != {"kp", "km"}:
        raise DomainError("expr must use exactly the symbols kp and km")
    P, E = _read_form(expr, names["kp"], names["km"])
    A, B = _operator(G1), _operator(G2)
    op = _combine((1, _compose(A, B)), (-1, _compose(B, A)))
    want = _oracle(op, P, E, f.grid.axis()[0])
    _require_finite(want, "symbolic oracle", f.grid)
    w = f.grid.mesh()[2]
    l2 = lambda a: math.sqrt(0.5 * np.sum(w * np.abs(a) ** 2))
    num, den = l2(comm - want), l2(want)
    rel = num / den if den > 1e-12 * scale_ops else num / scale_ops
    # grid sanity: half the order must not change the answer materially
    # (rounded down to even: every odd order has a node at t = 0, and a
    # node shared with f's grid would divide by zero in the interpolation)
    half = dataclasses.replace(f.grid, n=max(2 * (f.grid.n // 4), 8))
    coarse = _commutator(G1, G2, ModeFunction(half, f.func))[0]
    t, bw = _spectral(half)[3:]  # barycentric interpolation onto f's nodes
    lift = bw / (_spectral(f.grid)[3][:, None] - t)
    lift /= lift.sum(axis=1, keepdims=True)
    # lift @ coarse @ lift.T = (lift @ (lift @ coarse).T).T
    lifted = _real_product(lift, _real_product(lift, coarse).T).T
    drift = l2(comm - lifted) / max(den, scale_ops)
    if drift > 0.1 and num / max(den, scale_ops) > 0.1:
        raise ResolutionError(
            f"commutator not converged on the {f.grid.n}-point grid "
            f"(drift {drift:.2g} from the {half.n}-point grid)")
    return {"relative_discrepancy": rel, "numerator": num, "denominator": den,
            "grid_drift": drift, "vanishes": den <= 1e-12 * scale_ops}


# ---------------------------------------------------------------------------
# special conformal transformation law at the field level

def _special_conformal_image(f_position, mu, delta, grid):
    """Samples of the wavefunction (k^2)^(nu/2) ghat(k) of the field smeared
    with the special conformal transform of f_position,

        g = -i (-2 x_mu (x . grad f) + x^2 grad_mu f + (2 delta - 2 d) x_mu f).

    In momentum space x^nu is -i d/dk_nu and d/dx^nu is -i k_nu (lower
    index), so g is an operator table applied to fhat = A exp(E); the
    multiplications by x sit outside the x-space derivatives, so their
    images are composed outermost.  E's coefficients in (k+, k-) come from
    f_position.gaussian, and _oracle applies the table to A exp(E).
    """
    k_low, d_up, _ = _tables()
    dot = lambda a, b: _combine(*((1, _compose(a[n], b[n])) for n in (0, 1)))
    # x_nu = -i d/dk^nu for both nu; x^1 = -x_1
    x_low = [_combine((-1j, d)) for d in d_up]
    x_up = (x_low[0], _combine((-1, x_low[1])))
    grad = [_combine((-1j, k)) for k in k_low]  # d/dx^nu, index lowered
    op = _combine((2j, _compose(x_low[mu], dot(x_up, grad))),
                  (-1j, _compose(dot(x_up, x_low), grad[mu])),
                  (-1j * (2 * delta - 4), x_low[mu]))
    amp, (s0, s1), (p0, p1), (c0, c1) = f_position.gaussian
    # k^mu - kappa^mu as coefficient arrays in (k+, k-)
    d0 = np.array([[-p0, 0.5], [0.5, 0.0]])
    d1 = np.array([[-p1, -0.5], [0.5, 0.0]])
    E = -0.5 * (s0 * _polymul(d0, d0) + s1 * _polymul(d1, d1))
    E[:2, :2] += 1j * (c0 * d0 - c1 * d1)
    kp, km, _ = grid.mesh()
    return math.sqrt(norm_const(2)) * (kp * km) ** ((delta - 1.0) / 2.0) * \
        _oracle(op, np.array([[amp]]), E, grid.axis()[0])


def special_conformal_field_law(f_position, mu, delta):
    """One-particle check of the position-space special conformal law.

    Left side: the momentum generator K(mu, delta) applied (spectrally on
    the grid) to the wavefunction (k^2)^(nu/2) fhat(k) of the
    dimension-delta field smeared with f.  Right side: the wavefunction of
    the field smeared with the position-space transform of f, exact in form
    (_special_conformal_image).  Returns the relative L2 discrepancy.
    """
    grid = LightconeGrid()
    psi = position_wavefunction(
        f_position, lambda m2: np.asarray(m2) ** ((delta - 1.0) / 2.0), grid)
    left = apply_generator(GeneratorKind("K", mu=mu, delta=delta), psi)
    right = ModeFunction(grid, samples=_special_conformal_image(
        f_position, mu, delta, grid))
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


def npoint(weights, packets):
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
        return smeared2pt(weights[i], packets[i], weights[j], packets[j]).value

    return sum((math.prod(pair_value(i, j) for i, j in matching)
                for matching in _pairings(tuple(range(n)))), 0j)
