import itertools

import numpy as np
import pytest
import sympy as sym
import sympy.polys.rings
from hypothesis import given, settings, strategies as st

from gffads import fock
from gffads.correlators import (GaussianPacket, Power, _lower, norm_const,
                                smeared2pt)
from gffads.errors import DomainError, ResolutionError
from gffads.fock import (GeneratorKind, LightconeGrid, ModeFunction,
                         _combine, _compose, _operator, _oracle, _read_form,
                         _special_conformal_image, _spectral,
                         algebra_closure_check, apply_generator, gaussian_mode,
                         inner_product, npoint, position_wavefunction,
                         special_conformal_field_law)
from gffads.spacetime import MinkVector

from conftest import rel_err

KP, KM = sym.symbols("kp km", positive=True)


def sym_gaussian(center=(3.0, 3.0), width=1.0, phase=None, grid=None):
    """gaussian_mode and its matching sympy expression."""
    f = gaussian_mode(grid or LightconeGrid(), center, width, phase)
    expr = sym.exp(-((KP - center[0]) ** 2 + (KM - center[1]) ** 2)
                   / (2 * width ** 2))
    if phase is not None:
        expr = expr * sym.exp(sym.I * (phase[0] * KP + phase[1] * KM))
    return f, expr


P0, P1 = GeneratorKind("P", mu=0), GeneratorKind("P", mu=1)
M01, D = GeneratorKind("M", mu=0, nu_idx=1), GeneratorKind("D")
K0, K1 = GeneratorKind("K", mu=0, delta=1.5), GeneratorKind("K", mu=1, delta=1.5)


def _literal_generator(G, expr, kp, km, d=2):
    """The generators exactly as the fock docstring writes them.

    Nested derivatives: every composite term is differentiated as it stands.
    """
    k_0, k_1 = (kp + km) / 2, -(kp - km) / 2
    d_up = lambda mu, e: sym.diff(e, kp) + (1 - 2 * mu) * sym.diff(e, km)
    scal = lambda e: kp * sym.diff(e, kp) + km * sym.diff(e, km)
    if G.kind == "P":
        return (k_0 if G.mu == 0 else k_1) * expr
    if G.kind == "M":
        sgn = G.nu_idx - G.mu
        return sgn * sym.I * (k_1 * d_up(0, expr) - k_0 * d_up(1, expr))
    if G.kind == "D":
        return sym.I * (scal(expr) + sym.Rational(d, 2) * expr)
    nu_par = sym.nsimplify(G.delta - d / 2, rational=False)
    klow = k_0 if G.mu == 0 else k_1
    dmu = lambda e: d_up(G.mu, e)
    return (dmu(expr) + klow * 4 * sym.diff(expr, kp, km) - scal(dmu(expr))
            - dmu(scal(expr)) - d * dmu(expr)
            + nu_par ** 2 * klow / (kp * km) * expr)


def _apply(op, expr, kp, km):
    """The operator table op applied to a sympy expression in kp, km.

    The sympy-calculus reference for the library's coefficient recurrence:
    each partial derivative of expr that op needs is taken once, from the
    next lower one.
    """
    derivs = {(0, 0): expr}

    def deriv(a, b):  # d^a/dkp^a d^b/dkm^b expr
        if (a, b) not in derivs:
            derivs[a, b] = (sym.diff(deriv(a - 1, b), kp) if a
                            else sym.diff(deriv(a, b - 1), km))
        return derivs[a, b]

    return sym.Add(*(c * kp ** i * km ** j * deriv(a, b)
                     for (i, j, a, b), c in op.items()))


def _sympy_tables():
    """Coefficient tables of k_mu, d/dk^mu and k . d/dk, sympy-exact."""
    half = sym.Rational(1, 2)
    k_low = ({(1, 0, 0, 0): half, (0, 1, 0, 0): half},    # k_0
             {(1, 0, 0, 0): -half, (0, 1, 0, 0): half})   # k_1
    d_up = ({(0, 0, 1, 0): 1, (0, 0, 0, 1): 1},
            {(0, 0, 1, 0): 1, (0, 0, 0, 1): -1})
    scaling = {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}  # k . d/dk
    return k_low, d_up, scaling


def _sympy_operator(G):
    """The reference coefficient table of G, with sympy-exact coefficients
    (Rational, I, nsimplify(delta - 1)^2); the library's fock._operator
    holds the same table in Python numbers."""
    k_low, d_up, scaling = _sympy_tables()
    if G.kind == "P":
        return k_low[G.mu]
    if G.kind == "M":
        sgn = G.nu_idx - G.mu
        return _combine((sgn * sym.I, _compose(k_low[1], d_up[0])),
                        (-sgn * sym.I, _compose(k_low[0], d_up[1])))
    if G.kind == "D":
        return _combine((sym.I, scaling), (sym.I, {(0, 0, 0, 0): 1}))
    nu_par = sym.nsimplify(G.delta - 1.0, rational=False)
    klow, d_mu = k_low[G.mu], d_up[G.mu]
    box = {(0, 0, 1, 1): 4}
    return _combine((1, d_mu), (1, _compose(klow, box)),
                    (-1, _compose(scaling, d_mu)),
                    (-1, _compose(d_mu, scaling)), (-2, d_mu),
                    (nu_par ** 2, _compose(klow, {(-1, -1, 0, 0): 1})))


def symbolic_generator(G, expr, kp, km):
    """Apply the coefficient table of G to a sympy expression with sympy.

    Shares no code with apply_generator, and checks the tables against the
    literal operators of the fock docstring.
    """
    return _apply(_operator(G), expr, kp, km)


def _direct_commutator(G1, G2, expr):
    """Reference oracle: both orderings applied to expr itself, expanded.

    Returns [G1, G2] expr and G2 G1 expr, the size of what cancels.
    """
    e12 = symbolic_generator(G1, symbolic_generator(G2, expr, KP, KM), KP, KM)
    e21 = symbolic_generator(G2, symbolic_generator(G1, expr, KP, KM), KP, KM)
    return sym.expand(e12 - e21), e21


def _composed_generator(G, f, left=None, right=None):
    """apply_generator as composed before each derivative was taken once:
    every derivative recomputed where the formula uses it, and d/dk as a
    division by k.  left(a) = D_s a and right(a) = a D_s^T are real
    products unless given.  The reference for the shared-derivative route."""
    kp, km, _ = f.grid.mesh()
    ds = _spectral(f.grid).ds
    left = left or (lambda a: fock._real_product(ds, a))
    right = right or (lambda a: left(a.T).T)
    d_plus = lambda a: left(a) / kp
    d_minus = lambda a: right(a) / km
    d_upper = lambda mu, a: d_plus(a) + (1 - 2 * mu) * d_minus(a)
    scaling = lambda a: left(a) + right(a)
    klow = _lower((kp, km))
    F = f.samples
    if G.kind == "P":
        out = klow[G.mu] * F
    elif G.kind == "M":
        sgn = G.nu_idx - G.mu
        out = sgn * 1j * (klow[1] * d_upper(0, F) - klow[0] * d_upper(1, F))
    elif G.kind == "D":
        out = 1j * (scaling(F) + F)
    else:
        d_mu = d_upper(G.mu, F)
        out = (d_mu + klow[G.mu] * 4.0 * d_plus(d_minus(F)) - scaling(d_mu)
               - d_upper(G.mu, scaling(F)) - 2 * d_mu
               + (G.delta - 1.0) ** 2 * klow[G.mu] / (kp * km) * F)
    return ModeFunction(f.grid, samples=out)


def _complex_matmul_generator(G, f):
    """apply_generator's samples by complex matmuls, numpy casting the real
    differentiation matrix to complex: the reference for its real-view
    products."""
    ds = _spectral(f.grid).ds
    return _composed_generator(G, f, lambda a: ds @ a,
                               lambda a: a @ ds.T).samples


ALL_KINDS = [GeneratorKind("P", mu=0), GeneratorKind("P", mu=1),
             GeneratorKind("M", mu=0, nu_idx=1),
             GeneratorKind("M", mu=1, nu_idx=0),
             GeneratorKind("M", mu=1, nu_idx=1), GeneratorKind("D"),
             GeneratorKind("K", mu=0, delta=1.5),
             GeneratorKind("K", mu=1, delta=1.25)]


class TestGridAndModes:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            LightconeGrid(n=4)
        with pytest.raises(DomainError):
            LightconeGrid(kmin=0.0)
        with pytest.raises(DomainError):
            LightconeGrid(kmin=2.0, kmax=1.0)

    def test_mesh_weights_are_cached_and_read_only(self):
        # the weight product is built once per grid, as the outer product of
        # the axis weights, and no caller can write into it
        grid = LightconeGrid(n=24)
        _, wk = grid.axis()
        w = grid.mesh()[2]
        assert grid.mesh()[2] is w
        assert np.array_equal(w, wk[:, None] * wk[None, :])
        with pytest.raises(ValueError):
            w[0, 0] = 0.0

    def test_grid_mismatch(self):
        f = gaussian_mode(LightconeGrid())
        g = gaussian_mode(LightconeGrid(n=80))
        with pytest.raises(DomainError):
            inner_product(f, g)

    def test_inner_product_against_uniform_grid(self):
        # kmin below the default so the cone-boundary strip is not truncated
        grid = LightconeGrid(n=120, kmin=1e-5)
        f = gaussian_mode(grid, (3.0, 2.5), 0.8, phase=(0.2, -0.1))
        g = gaussian_mode(grid, (2.6, 3.1), 1.1)
        got = inner_product(f, g)
        k = np.linspace(1e-6, 12.0, 2401)
        kp, km = np.meshgrid(k, k, indexing="ij")
        want = 0.5 * np.trapezoid(
            np.trapezoid(np.conj(f.func(kp, km)) * g.func(kp, km), k, axis=1),
            k)
        assert abs(got - want) < 1e-8 * abs(want)

    def test_mode_arithmetic(self):
        grid = LightconeGrid()
        f = gaussian_mode(grid, (3.0, 3.0), 1.0)
        g = gaussian_mode(grid, (2.0, 4.0), 0.9)
        d = f - g
        assert d.func is None
        assert np.array_equal(d.samples, f.samples - g.samples)
        assert (f - f).norm() == 0.0
        assert d.norm() ** 2 == pytest.approx(
            f.norm() ** 2 + g.norm() ** 2 - 2.0 * inner_product(f, g).real)
        with pytest.raises(DomainError):
            f - gaussian_mode(LightconeGrid(n=80))


class TestGenerators:
    def test_p_is_exact_multiplication(self):
        grid = LightconeGrid()
        f = gaussian_mode(grid, (3.0, 2.0), 1.0)
        kp, km, _ = grid.mesh()
        p0 = apply_generator(GeneratorKind("P", mu=0), f)
        p1 = apply_generator(GeneratorKind("P", mu=1), f)
        assert np.allclose(p0.samples, 0.5 * (kp + km) * f.samples)
        assert np.allclose(p1.samples, -0.5 * (kp - km) * f.samples)

    def test_d_eigenfunction(self):
        # (kp km)^(a/2) is homogeneous of degree a, so D f = i (a + d/2) f
        grid = LightconeGrid()
        a = 0.8
        f = ModeFunction(grid, lambda kp, km: (kp * km) ** (a / 2.0) + 0j)
        df = apply_generator(GeneratorKind("D"), f)
        kp, km, _ = grid.mesh()
        assert np.allclose(df.samples, 1j * (a + 1.0) * f.samples, rtol=1e-7)

    @pytest.mark.parametrize("G,tol", [
        (GeneratorKind("M", mu=0, nu_idx=1), 1e-7),
        (GeneratorKind("M", mu=1, nu_idx=0), 1e-7),
        (GeneratorKind("D"), 1e-7),
        (GeneratorKind("K", mu=0, delta=1.5), 1e-5),
        (GeneratorKind("K", mu=1, delta=1.5), 1e-5),
    ])
    def test_grid_matches_symbolic(self, G, tol):
        f, expr = sym_gaussian((3.0, 2.6), 0.9, phase=(0.15, -0.1))
        got = apply_generator(G, f)
        oracle = sym.lambdify((KP, KM), sym.expand(
            symbolic_generator(G, expr, KP, KM)), "numpy")
        kp, km, w = f.grid.mesh()
        num = np.sqrt(np.sum(w * np.abs(got.samples - oracle(kp, km)) ** 2))
        den = np.sqrt(np.sum(w * np.abs(oracle(kp, km)) ** 2))
        assert num / den < tol

    @pytest.mark.parametrize("G", [
        P0, P1, M01, GeneratorKind("M", mu=1, nu_idx=0),
        GeneratorKind("M", mu=1, nu_idx=1), D, K0, K1,
        GeneratorKind("K", mu=1, delta=1.25),
    ])
    def test_symbolic_matches_literal_operator(self, G):
        # exact identity on an undefined function, so on every expression
        F = sym.Function("F")(KP, KM)
        diff = symbolic_generator(G, F, KP, KM) - \
            _literal_generator(G, F, KP, KM)
        assert sym.expand(diff) == 0

    @pytest.mark.parametrize("n", [112, 56])
    @pytest.mark.parametrize("G", ALL_KINDS)
    def test_real_products_equal_complex_matmuls(self, G, n):
        f = gaussian_mode(LightconeGrid(n=n), (3.0, 2.6), 0.9,
                          phase=(0.15, -0.1))
        g = apply_generator(G, f)
        assert np.array_equal(g.samples, _complex_matmul_generator(G, f))
        # a generator output as input, as in the commutators
        assert np.array_equal(apply_generator(G, g).samples,
                              _complex_matmul_generator(G, g))

    def test_m_diagonal_vanishes(self):
        f = gaussian_mode(LightconeGrid())
        out = apply_generator(GeneratorKind("M", mu=1, nu_idx=1), f)
        assert np.all(out.samples == 0.0)

    @pytest.mark.parametrize("G", [
        GeneratorKind("P", mu=0),
        GeneratorKind("P", mu=1),
        GeneratorKind("M", mu=0, nu_idx=1),
        GeneratorKind("D"),
    ])
    def test_hermiticity(self, G):
        grid = LightconeGrid()
        f = gaussian_mode(grid, (3.0, 2.5), 0.8, phase=(0.2, -0.1))
        g = gaussian_mode(grid, (2.6, 3.1), 1.1, phase=(-0.1, 0.3))
        lhs = inner_product(f, apply_generator(G, g))
        rhs = inner_product(apply_generator(G, f), g)
        assert abs(lhs - rhs) < 1e-5 * max(abs(lhs), abs(rhs))

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            GeneratorKind("Q")
        with pytest.raises(DomainError):
            GeneratorKind("P", mu=2)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(DomainError, match="finite"):
            GeneratorKind("K", mu=0, delta=delta)


# every kind, K at each Delta of the generators benchmark
SHARED_KINDS = ALL_KINDS[:6] + [GeneratorKind("M", mu=0, nu_idx=0)] + [
    GeneratorKind("K", mu=mu, delta=delta)
    for mu in (0, 1) for delta in (1.25, 1.5, 2.0)]
# the modes (center, width, phase) of the fock verify suite
SUITE_MODES = (((3.0, 2.6), 0.9, (0.15, -0.1)),
               ((2.4, 3.2), 1.1, (-0.2, 0.25)))


class TestDerivativesTakenOnce:
    """apply_generator takes each spectral derivative once and multiplies
    by 1/k: every value equals the composed route's."""

    @pytest.mark.parametrize("n", [112, 56])
    @pytest.mark.parametrize("G", SHARED_KINDS)
    def test_equals_composed_route(self, G, n):
        f = gaussian_mode(LightconeGrid(n=n), (3.0, 2.6), 0.9,
                          phase=(0.15, -0.1))
        g = apply_generator(G, f)
        assert np.array_equal(g.samples, _composed_generator(G, f).samples)
        # a generator output as input, as in the commutators
        assert np.array_equal(apply_generator(G, g).samples,
                              _composed_generator(G, g).samples)

    @pytest.mark.parametrize("mode", SUITE_MODES, ids=["mode0", "mode1"])
    def test_reports_equal_composed_route(self, monkeypatch, mode):
        def reports():
            out = []
            for g1, g2 in itertools.combinations(_named(1.5).values(), 2):
                f, expr = sym_gaussian(*mode)  # fresh: no kept derivatives
                out.append(algebra_closure_check(g1, g2, f, expr))
            return out

        got = reports()
        assert len(got) == 15
        monkeypatch.setattr(fock, "apply_generator", _composed_generator)
        assert got == reports()

    @pytest.mark.parametrize("G,first,again", [
        (P0, 0, 0), (M01, 2, 0), (D, 2, 0), (K1, 7, 5)],
        ids=["P", "M", "D", "K"])
    def test_real_products_per_application(self, monkeypatch, G, first,
                                           again):
        # a fresh mode takes its two first derivatives once; a second
        # generator on the same mode reuses them
        calls = []
        product = fock._real_product
        monkeypatch.setattr(fock, "_real_product",
                            lambda m, a: calls.append(1) or product(m, a))
        f = gaussian_mode(LightconeGrid(n=56), (3.0, 2.6), 0.9)
        apply_generator(G, f)
        assert len(calls) == first
        apply_generator(G, f)
        assert len(calls) == first + again


def _operator_commutator(G1, G2, operator=_operator):
    A, B = operator(G1), operator(G2)
    return _combine((1, _compose(A, B)), (-1, _compose(B, A)))


# [G1, G2] = sum c G over (c, G): the conformal algebra in these conventions
CLOSURE = [
    ("P0", "M01", [(-1j, "P1")]), ("P0", "D", [(-1j, "P0")]),
    ("P0", "K0", [(-2j, "D")]), ("P0", "K1", [(2j, "M01")]),
    ("P1", "M01", [(-1j, "P0")]), ("P1", "D", [(-1j, "P1")]),
    ("P1", "K0", [(-2j, "M01")]), ("P1", "K1", [(2j, "D")]),
    ("M01", "K0", [(1j, "K1")]), ("M01", "K1", [(1j, "K0")]),
    ("D", "K0", [(-1j, "K0")]), ("D", "K1", [(-1j, "K1")]),
    ("P0", "P1", []), ("M01", "D", []), ("K0", "K1", []),
]

def _named(delta):
    """The six generators by their CLOSURE names; delta is used by K only."""
    return {"P0": P0, "P1": P1, "M01": M01, "D": D,
            "K0": GeneratorKind("K", mu=0, delta=delta),
            "K1": GeneratorKind("K", mu=1, delta=delta)}


# random operator tables: powers of kp, km in [-1, 2], derivatives up to 2
_KEYS = st.tuples(st.integers(-1, 2), st.integers(-1, 2),
                  st.integers(0, 2), st.integers(0, 2))
_COEFS = st.builds(sym.Rational, st.integers(-3, 3).filter(bool),
                   st.integers(1, 3))
_TABLES = st.dictionaries(_KEYS, _COEFS, min_size=1, max_size=3)
_COMPLEX = st.builds(lambda re, im: re + sym.I * im,
                     st.floats(-1, 1), st.floats(-1, 1))


class TestOperatorTable:
    @pytest.mark.parametrize("delta", [1.25, 1.5, 2.0])
    @pytest.mark.parametrize("g1,g2,rhs", CLOSURE,
                             ids=[f"{a}-{b}" for a, b, _ in CLOSURE])
    def test_algebra_closes_exactly(self, g1, g2, rhs, delta):
        named = _named(delta)
        want = _combine(*((c, _operator(named[g])) for c, g in rhs))
        assert _operator_commutator(named[g1], named[g2]) == want

    @pytest.mark.parametrize("delta", [1.25, 1.5, 2.0])
    def test_tables_equal_the_sympy_reference(self, delta):
        # every coefficient is a dyadic rational times a power of i here
        named = _named(delta)
        exact = lambda table: {key: complex(c) for key, c in table.items()}
        for G in ALL_KINDS + [named["K0"], named["K1"]]:
            assert _operator(G) == exact(_sympy_operator(G))
        for g1, g2, _ in CLOSURE:
            G1, G2 = named[g1], named[g2]
            assert _operator_commutator(G1, G2) == \
                exact(_operator_commutator(G1, G2, _sympy_operator))

    def test_tables_within_two_ulp_at_any_delta(self):
        # nu^2 is rounded once; the commuting pairs stay exactly empty
        rng = np.random.default_rng(21)
        for i, delta in enumerate(rng.uniform(0.5, 4.0, 200).tolist()):
            named = _named(delta)
            for g1, g2 in (("P0", "P1"), ("M01", "D"), ("K0", "K1")):
                assert _operator_commutator(named[g1], named[g2]) == {}
            G = named[("K0", "K1")[i % 2]]
            got, want = _operator(G), _sympy_operator(G)
            assert got.keys() == want.keys()
            for key, c in got.items():
                w = complex(want[key])
                for a, b in ((c.real, w.real), (c.imag, w.imag)):
                    assert abs(a - b) <= 2 * np.spacing(abs(b))

    @settings(max_examples=40, deadline=None)
    @given(_TABLES, _TABLES)
    def test_compose_is_the_operator_product(self, A, B):
        F = sym.Function("F")(KP, KM)
        nested = _apply(A, _apply(B, F, KP, KM), KP, KM)
        assert sym.expand(_apply(_compose(A, B), F, KP, KM) - nested) == 0


def _ring_read_form(expr, kp, km):
    """[P, E] of expr = P exp(E), each part rebuilt in sympy's polynomial
    ring over CC: the reference for fock._read_form."""
    R = sympy.polys.rings.ring((kp, km), sym.CC)[0]
    factors = sym.Mul.make_args(expr)
    out = []
    for part in (sym.Mul(*(a for a in factors if not isinstance(a, sym.exp))),
                 sym.Add(*(a.args[0] for a in factors
                           if isinstance(a, sym.exp)))):
        terms = R.from_expr(part)
        arr = np.zeros(np.max([(0, 0), *terms], axis=0) + 1, dtype=complex)
        for ij, c in terms.items():
            arr[ij] = complex(c)
        out.append(arr)
    return out


def _quadratic_form(p, widths, rho, center, phase):
    """P exp(E): P of degree <= 2 with coefficients p, E with a
    negative-definite real quadratic part and a linear phase."""
    x, y = KP - center[0], KM - center[1]
    a, d = widths[0] ** -2, widths[1] ** -2
    b = rho * (a * d) ** 0.5
    E = (-(a * x ** 2 + 2 * b * x * y + d * y ** 2) / 2
         + sym.I * (phase[0] * KP + phase[1] * KM))
    P = sum(c * m for c, m in zip(
        p, (1, KP, KM, KP ** 2, KP * KM, KM ** 2)))
    return P * sym.exp(E)


def _grid_oracle(G1, G2, expr, grid):
    """The library's oracle for [G1, G2] expr on the grid's nodes."""
    return _oracle(_operator_commutator(G1, G2), *_read_form(expr, KP, KM),
                   grid.axis()[0])


class TestAlgebraClosure:
    @pytest.mark.parametrize("G1,G2", [
        (GeneratorKind("P", mu=0), GeneratorKind("M", mu=0, nu_idx=1)),
        (GeneratorKind("D"), GeneratorKind("P", mu=1)),
        (GeneratorKind("M", mu=0, nu_idx=1), GeneratorKind("K", mu=0, delta=1.5)),
        (GeneratorKind("D"), GeneratorKind("K", mu=1, delta=1.5)),
    ])
    def test_commutators_close(self, G1, G2):
        f, expr = sym_gaussian((3.0, 2.0), 0.9, phase=(0.3, -0.2))
        rep = algebra_closure_check(G1, G2, f, expr)
        assert rep["relative_discrepancy"] < 1e-4
        # the pair does not commute
        assert np.any(_grid_oracle(G1, G2, expr, f.grid) != 0.0)

    @pytest.mark.parametrize("prefactor", [1, KP * KM],
                             ids=["gaussian", "kp_km_gaussian"])
    @pytest.mark.parametrize("G1,G2", [(D, K1), (M01, K0), (P0, K1), (M01, D)],
                             ids=["D-K1", "M01-K0", "P0-K1", "M01-D"])
    def test_operator_oracle_matches_direct_route(self, G1, G2, prefactor):
        _, gauss = sym_gaussian((3.0, 2.6), 0.9, phase=(0.15, -0.1))
        expr = prefactor * gauss
        want, e21 = _direct_commutator(G1, G2, expr)
        grid = LightconeGrid()
        got = _grid_oracle(G1, G2, expr, grid)
        kp, km, w = grid.mesh()
        on_grid = lambda e: np.broadcast_to(
            sym.lambdify((KP, KM), e, "numpy")(kp, km), w.shape)
        l2 = lambda a: np.sqrt(np.sum(w * np.abs(a) ** 2))
        diff = l2(got - on_grid(want))
        # relative to the terms the commutator cancels (M01, D commute)
        assert diff <= 1e-12 * max(l2(on_grid(want)), l2(on_grid(e21)))

    @pytest.mark.parametrize("G1,G2", [(P0, P1), (M01, D), (K0, K1)],
                             ids=["P0-P1", "M01-D", "K0-K1"])
    def test_commuting_pairs_have_vanishing_oracle(self, G1, G2):
        f, expr = sym_gaussian((3.0, 2.6), 0.9, phase=(0.15, -0.1))
        assert _operator_commutator(G1, G2) == {}
        assert np.all(_grid_oracle(G1, G2, expr, f.grid) == 0.0)
        # the grid commutator vanishes to the grid's accuracy, relative to
        # G2 G1 f
        rep = algebra_closure_check(G1, G2, f, expr)
        assert rep["relative_discrepancy"] < 1e-8

    def test_translations_commute(self):
        # P0 and P1 multiply the samples: their grid commutator is rounding
        f, expr = sym_gaussian((3.0, 2.0), 0.9)
        rep = algebra_closure_check(GeneratorKind("P", mu=0),
                                    GeneratorKind("P", mu=1), f, expr)
        assert rep["relative_discrepancy"] < 1e-14

    @pytest.mark.parametrize("G1,G2", [(D, K1), (M01, K0), (P0, P1)],
                             ids=["D-K1", "M01-K0", "P0-P1"])
    def test_reports_equal_complex_matmul_route(self, monkeypatch, G1, G2):
        # the real-view products, against numpy casting the real matrices
        # (the differentiation matrix and the lift) to complex
        # (a fresh mode each time: a mode keeps its first derivatives)
        f, expr = sym_gaussian((3.0, 2.6), 0.9, phase=(0.15, -0.1))
        rep = algebra_closure_check(G1, G2, f, expr)
        monkeypatch.setattr(fock, "_real_product", lambda m, a: m @ a)
        f, expr = sym_gaussian((3.0, 2.6), 0.9, phase=(0.15, -0.1))
        assert algebra_closure_check(G1, G2, f, expr) == rep

    def test_coarse_grid_raises_resolution_error(self):
        # n = 48 cannot resolve K of this mode: the commutator is off by
        # more than 0.1 and moves by more than that from the n = 24 grid
        f, expr = sym_gaussian((3.0, 2.0), 0.9, phase=(0.3, -0.2),
                               grid=LightconeGrid(n=48))
        with pytest.raises(ResolutionError):
            algebra_closure_check(GeneratorKind("D"),
                                  GeneratorKind("K", mu=1, delta=1.5), f, expr)

    def test_non_finite_grid_commutator_raises(self):
        g, expr = sym_gaussian((3.0, 2.0), 0.9)
        f = ModeFunction(g.grid, lambda kp, km: np.where(kp > 5.0, np.nan,
                                                         g.func(kp, km)))
        with pytest.raises(DomainError, match="grid commutator"):
            algebra_closure_check(D, K1, f, expr)

    def test_non_finite_oracle_raises(self):
        # sqrt(kp - 3) is NaN on the grid nodes below kp = 3
        f, expr = sym_gaussian((3.0, 2.0), 0.9)
        with np.errstate(invalid="ignore"), \
                pytest.raises(DomainError, match="symbolic oracle"):
            algebra_closure_check(D, K1, f, sym.sqrt(KP - 3) * expr)

    def test_expr_symbols_checked(self):
        f, _ = sym_gaussian()
        bad = sym.symbols("q", positive=True) ** 2
        with pytest.raises(DomainError):
            algebra_closure_check(GeneratorKind("P"), GeneratorKind("D"), f,
                                  bad)

    @pytest.mark.parametrize("form", ["exp_sqrt", "sum", "rational"])
    def test_expr_not_polynomial_times_exp_rejected(self, form):
        f, g1 = sym_gaussian((3.0, 2.0), 0.9)
        _, g2 = sym_gaussian((2.5, 2.5), 1.1)
        expr = {"exp_sqrt": sym.exp(sym.sqrt(KP)) * g1, "sum": g1 + g2,
                "rational": g1 / (KP + 1)}[form]
        with pytest.raises(DomainError, match=r"symbolic oracle needs"):
            algebra_closure_check(D, K1, f, expr)

    def test_overflowing_oracle_raises(self):
        # exp(kp^3) overflows on the largest grid nodes (kmax = 12)
        f, expr = sym_gaussian((3.0, 2.0), 0.9)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DomainError, match="symbolic oracle has"):
            algebra_closure_check(D, K1, f, sym.exp(KP ** 3) * expr)

    @pytest.mark.parametrize("G1,G2", [(D, K1), (M01, K0), (P0, K1)],
                             ids=["D-K1", "M01-K0", "P0-K1"])
    def test_single_exp_form_gives_the_same_oracle(self, G1, G2):
        # the form the CLI's fock suite passes: one exp(A + iB)
        _, two = sym_gaussian((3.0, 2.0), 0.9, phase=(0.3, -0.2))
        one = sym.exp(-((KP - 3.0) ** 2 + (KM - 2.0) ** 2) / (2.0 * 0.9 ** 2)
                      + sym.I * (0.3 * KP - 0.2 * KM))
        grid = LightconeGrid()
        a, b = (_grid_oracle(G1, G2, e, grid) for e in (one, two))
        w = grid.mesh()[2]
        l2 = lambda x: np.sqrt(np.sum(w * np.abs(x) ** 2))
        assert l2(a - b) <= 1e-14 * l2(b)

    @pytest.mark.parametrize("prefactor", [1, KP * KM],
                             ids=["gaussian", "kp_km_gaussian"])
    @pytest.mark.parametrize("form", ["two_exp", "one_exp"])
    def test_reader_matches_ring_reader(self, form, prefactor):
        _, two = sym_gaussian((3.0, 2.0), 0.9, phase=(0.3, -0.2))
        one = sym.exp(-((KP - 3.0) ** 2 + (KM - 2.0) ** 2) / (2.0 * 0.9 ** 2)
                      + sym.I * (0.3 * KP - 0.2 * KM))
        expr = prefactor * {"two_exp": two, "one_exp": one}[form]
        for got, want in zip(_read_form(expr, KP, KM),
                             _ring_read_form(expr, KP, KM)):
            assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_COMPLEX, min_size=6, max_size=6),
           st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           st.floats(-0.8, 0.8), st.tuples(st.floats(1, 8), st.floats(1, 8)),
           st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
    def test_reader_matches_ring_reader_on_quadratic_forms(
            self, p, widths, rho, center, phase):
        expr = _quadratic_form(p, widths, rho, center, phase)
        for got, want in zip(_read_form(expr, KP, KM),
                             _ring_read_form(expr, KP, KM)):
            assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_COMPLEX, min_size=6, max_size=6),
           st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
           st.floats(-0.8, 0.8), st.tuples(st.floats(1, 8), st.floats(1, 8)),
           st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
           st.sampled_from(CLOSURE), st.sampled_from([1.25, 1.5, 2.0]))
    def test_oracle_matches_sympy_route(self, p, widths, rho, center, phase,
                                        pair, delta):
        # P of degree <= 2 times exp(E), E with a negative-definite real
        # quadratic part and a linear phase
        G1, G2 = (_named(delta)[g] for g in pair[:2])
        expr = _quadratic_form(p, widths, rho, center, phase)
        grid = LightconeGrid()
        kp, km, w = grid.mesh()
        on_grid = lambda e: np.broadcast_to(
            sym.lambdify((KP, KM), e, "numpy")(kp, km), w.shape)
        want = on_grid(_apply(_operator_commutator(G1, G2), expr, KP, KM))
        f = ModeFunction(grid, lambda kp, km: on_grid(expr))
        scale = apply_generator(G2, apply_generator(G1, f)).norm()
        l2 = lambda z: np.sqrt(0.5 * np.sum(w * np.abs(z) ** 2))
        got = _grid_oracle(G1, G2, expr, grid)
        assert l2(got - want) <= 1e-12 * max(l2(want), scale)

    def test_oracle_needs_no_symbolic_calculus(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not call sympy calculus")

        f, expr = sym_gaussian((3.0, 2.0), 0.9, phase=(0.3, -0.2))
        # nor sympy arithmetic: no polynomial ring, no exact numbers
        for owner, name in ((sym, "diff"), (sym, "Derivative"),
                            (sym, "lambdify"), (sym.Expr, "diff"),
                            (sympy.polys.rings, "ring"), (sym, "nsimplify"),
                            (sym, "Rational")):
            monkeypatch.setattr(owner, name, forbidden)
        rep = algebra_closure_check(D, K1, f, expr)
        assert rep["relative_discrepancy"] < 1e-4
        # the special conformal law builds its right side the same way
        assert special_conformal_field_law(CONFORMAL_PACKETS[0], 0, 1.5) < 1e-4


def _sympy_special_conformal_image(f, mu, delta, grid):
    """The right side of special_conformal_field_law by sympy calculus.

    The reference for the library's operator-table route: fhat is rebuilt
    as a sympy expression in (k^0, k^1), the transform
        g = -i (-2 x_mu (x . grad f) + x^2 grad_mu f + (2 delta - 4) x_mu f)
    is taken literally with x^nu -> -i d/dk_nu and d/dx^nu -> -i k_nu, and
    the result is expanded and lambdified onto the grid.
    """
    k0s, k1s = sym.symbols("k0 k1", real=True)
    sig = f.width
    c = f.center.components
    q0 = k0s - f.carrier.components[0]
    q1 = k1s - f.carrier.components[1]
    fhat = (2 * sym.pi) * sig ** 2 * sym.exp(
        sym.I * (q0 * c[0] - q1 * c[1]) - sig ** 2 * (q0 ** 2 + q1 ** 2) / 2)

    def x_op(nu_i, e):  # multiplication by x^nu_i
        return -sym.I * (sym.diff(e, k0s) if nu_i == 0 else -sym.diff(e, k1s))

    # the multiplications by x sit outside the x-space derivatives, so
    # their momentum images are applied outermost; FT(d/dx^nu f) is
    # -i k_nu fhat with k_0 = k0, k_1 = -k1
    xdotgrad = x_op(0, -sym.I * k0s * fhat) + x_op(1, sym.I * k1s * fhat)
    dmu_f = -sym.I * (k0s if mu == 0 else -k1s) * fhat
    x2dmu = x_op(0, x_op(0, dmu_f)) - x_op(1, x_op(1, dmu_f))
    xmu = lambda e: (x_op(0, e) if mu == 0 else -x_op(1, e))  # x_mu
    ghat = -sym.I * (-2 * xmu(xdotgrad) + x2dmu
                     + (2 * delta - 4) * xmu(fhat))
    ghat_fn = sym.lambdify((k0s, k1s), sym.expand(ghat), "numpy")
    kp, km, _ = grid.mesh()
    return np.sqrt(norm_const(2)) * (kp * km) ** ((delta - 1.0) / 2.0) * \
        ghat_fn(0.5 * (kp + km), 0.5 * (kp - km))


CONFORMAL_PACKETS = [
    GaussianPacket(MinkVector((0.1, -0.3)), 1.1, MinkVector((2.2, 0.4))),
    GaussianPacket(MinkVector((-0.2, 0.4)), 0.9, MinkVector((2.0, -0.5))),
    GaussianPacket(MinkVector((0.0, 0.0)), 1.0, MinkVector((1.5, 0.0))),
    GaussianPacket(MinkVector((0.5, 0.2)), 0.7, MinkVector((3.0, 1.2))),
    GaussianPacket(MinkVector((-0.4, -0.6)), 1.3, MinkVector((1.8, -0.9))),
]


class TestSpecialConformalFieldLaw:
    def test_centered_packet(self):
        f = GaussianPacket(MinkVector((0.1, -0.3)), 1.1,
                           MinkVector((2.2, 0.4)))
        assert special_conformal_field_law(f, mu=0, delta=1.5) < 1e-4

    def test_spatial_index_and_shifted_packet(self):
        f = GaussianPacket(MinkVector((-0.2, 0.4)), 0.9,
                           MinkVector((2.0, -0.5)))
        assert special_conformal_field_law(f, mu=1, delta=1.7) < 1e-4

    @pytest.mark.parametrize("delta", [1.5, 1.7])
    @pytest.mark.parametrize("mu", [0, 1])
    @pytest.mark.parametrize("packet", range(len(CONFORMAL_PACKETS)))
    def test_table_route_matches_sympy_route(self, packet, mu, delta):
        f = CONFORMAL_PACKETS[packet]
        grid = LightconeGrid()
        got = _special_conformal_image(f, mu, delta, grid)
        want = _sympy_special_conformal_image(f, mu, delta, grid)
        w = grid.mesh()[2]
        l2 = lambda z: np.sqrt(np.sum(w * np.abs(z) ** 2))
        assert l2(got - want) <= 1e-12 * l2(want)


class TestPositionWavefunction:
    def test_norm_matches_smeared2pt(self):
        f = GaussianPacket(MinkVector((0.0, 0.0)), 1.0, MinkVector((2.0, 0.3)))
        h = Power(0.5)
        psi = position_wavefunction(f, h, LightconeGrid(n=120, kmin=1e-5))
        got = inner_product(psi, psi)
        want = smeared2pt(h, f, h, f, n_nodes=240).value
        assert rel_err(got, want) < 1e-8


class TestNpoint:
    def setup_method(self):
        self.h = Power(0.5)
        self.fs = [
            GaussianPacket(MinkVector((0.0, 0.0)), 1.0, MinkVector((1.5, 0.2))),
            GaussianPacket(MinkVector((0.3, -0.2)), 0.9, MinkVector((1.2, -0.3))),
            GaussianPacket(MinkVector((-0.2, 0.4)), 1.1, MinkVector((1.8, 0.1))),
            GaussianPacket(MinkVector((0.5, 0.1)), 0.8, MinkVector((1.0, 0.4))),
        ]

    def test_odd_vanishes(self):
        assert npoint([self.h] * 3, self.fs[:3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            npoint([self.h] * 2, self.fs[:3])

    def test_two_point_reduces(self):
        got = npoint([self.h] * 2, self.fs[:2])
        want = smeared2pt(self.h, self.fs[0], self.h, self.fs[1]).value
        assert got == pytest.approx(want)

    def test_four_point_pairing_sum(self):
        got = npoint([self.h] * 4, self.fs)

        def s(i, j):
            return smeared2pt(self.h, self.fs[i], self.h, self.fs[j]).value
        want = s(0, 1) * s(2, 3) + s(0, 2) * s(1, 3) + s(0, 3) * s(1, 2)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_identical_packets_count_pairings(self):
        # all packets equal: n-point = (n - 1)!! times the 2-point power
        f = self.fs[0]
        base = smeared2pt(self.h, f, self.h, f).value
        got = npoint([self.h] * 4, [f] * 4)
        assert rel_err(got, 3.0 * base ** 2) < 1e-12

    def test_reversal_conjugates(self):
        # reversing the operator order conjugates every pair value, so the
        # whole correlator is conjugated
        a = npoint([self.h] * 4, self.fs)
        b = npoint([self.h] * 4, list(reversed(self.fs)))
        assert abs(np.conj(a) - b) < 1e-10 * abs(a)
