import math

import numpy as np
import pytest
import sympy as sym

from gffads.correlators import GaussianPacket, Power, smeared2pt
from gffads.errors import DomainError, ResolutionError
from gffads.fock import (GeneratorKind, LightconeGrid, ModeFunction,
                         _symbolic_commutator, algebra_closure_check,
                         apply_generator, gaussian_mode, inner_product,
                         npoint, position_wavefunction,
                         special_conformal_field_law, symbolic_generator)
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


def _direct_commutator(G1, G2, expr):
    """Reference oracle: both orderings applied to expr itself, expanded.

    Returns [G1, G2] expr and G2 G1 expr, the size of what cancels.
    """
    e12 = symbolic_generator(G1, symbolic_generator(G2, expr, KP, KM), KP, KM)
    e21 = symbolic_generator(G2, symbolic_generator(G1, expr, KP, KM), KP, KM)
    return sym.expand(e12 - e21), e21


class TestGridAndModes:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            LightconeGrid(n=4)
        with pytest.raises(DomainError):
            LightconeGrid(kmin=0.0)
        with pytest.raises(DomainError):
            LightconeGrid(kmin=2.0, kmax=1.0)

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
            np.trapezoid(np.conj(f(kp, km)) * g(kp, km), k, axis=1), k)
        assert abs(got - want) < 1e-8 * abs(want)

    def test_mode_arithmetic(self):
        grid = LightconeGrid()
        f = gaussian_mode(grid, (3.0, 3.0), 1.0)
        g = gaussian_mode(grid, (2.0, 4.0), 0.9)
        s = (f + g) - g
        kp, km, _ = grid.mesh()
        assert np.allclose(s(kp, km), f(kp, km))
        assert f.scale(2.0).norm() == pytest.approx(2.0 * f.norm())


class TestGenerators:
    def test_p_is_exact_multiplication(self):
        grid = LightconeGrid()
        f = gaussian_mode(grid, (3.0, 2.0), 1.0)
        kp, km, _ = grid.mesh()
        p0 = apply_generator(GeneratorKind("P", mu=0), f)
        p1 = apply_generator(GeneratorKind("P", mu=1), f)
        assert np.allclose(p0(kp, km), 0.5 * (kp + km) * f(kp, km))
        assert np.allclose(p1(kp, km), -0.5 * (kp - km) * f(kp, km))

    def test_d_eigenfunction(self):
        # (kp km)^(a/2) is homogeneous of degree a, so D f = i (a + d/2) f
        grid = LightconeGrid()
        a = 0.8
        f = ModeFunction(grid, lambda kp, km: (kp * km) ** (a / 2.0) + 0j)
        df = apply_generator(GeneratorKind("D"), f)
        kp, km, _ = grid.mesh()
        assert np.allclose(df(kp, km), 1j * (a + 1.0) * f(kp, km), rtol=1e-7)

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
        num = np.sqrt(np.sum(w * np.abs(got(kp, km) - oracle(kp, km)) ** 2))
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

    def test_m_diagonal_vanishes(self):
        f = gaussian_mode(LightconeGrid())
        out = apply_generator(GeneratorKind("M", mu=1, nu_idx=1), f)
        kp, km, _ = f.grid.mesh()
        assert np.all(out(kp, km) == 0.0)

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

    def test_output_exists_only_on_its_grid(self):
        grid = LightconeGrid()
        f = gaussian_mode(grid, (3.0, 2.6), 0.9)
        out = apply_generator(GeneratorKind("D"), f)
        kp, km, _ = grid.mesh()
        full = np.meshgrid(grid.axis()[0], grid.axis()[0], indexing="ij")
        assert np.array_equal(out(*full), out(kp, km))
        with pytest.raises(DomainError):
            out(3.0, 2.6)
        with pytest.raises(DomainError):
            out(km, kp)
        other = LightconeGrid(n=80).mesh()
        with pytest.raises(DomainError):
            out(other[0], other[1])
        # a mode built from a callable still evaluates anywhere
        assert f(3.0, 2.6) == pytest.approx(1.0)

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            GeneratorKind("Q")
        with pytest.raises(DomainError):
            GeneratorKind("P", mu=2)


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
        assert not rep["vanishes"]

    @pytest.mark.parametrize("prefactor", [1, KP * KM],
                             ids=["gaussian", "kp_km_gaussian"])
    @pytest.mark.parametrize("G1,G2", [(D, K1), (M01, K0), (P0, K1), (M01, D)],
                             ids=["D-K1", "M01-K0", "P0-K1", "M01-D"])
    def test_operator_oracle_matches_direct_route(self, G1, G2, prefactor):
        _, gauss = sym_gaussian((3.0, 2.6), 0.9, phase=(0.15, -0.1))
        expr = prefactor * gauss
        want, e21 = _direct_commutator(G1, G2, expr)
        got = _symbolic_commutator(G1, G2, expr, KP, KM)
        kp, km, w = LightconeGrid().mesh()
        on_grid = lambda e: np.broadcast_to(
            sym.lambdify((KP, KM), e, "numpy")(kp, km), w.shape)
        l2 = lambda a: np.sqrt(np.sum(w * np.abs(a) ** 2))
        diff = l2(on_grid(got) - on_grid(want))
        # relative to the terms the commutator cancels (M01, D commute)
        assert diff <= 1e-12 * max(l2(on_grid(want)), l2(on_grid(e21)))

    @pytest.mark.parametrize("G1,G2", [(P0, P1), (M01, D), (K0, K1)],
                             ids=["P0-P1", "M01-D", "K0-K1"])
    def test_commuting_pairs_have_vanishing_oracle(self, G1, G2):
        f, expr = sym_gaussian((3.0, 2.6), 0.9, phase=(0.15, -0.1))
        assert _symbolic_commutator(G1, G2, expr, KP, KM) == 0
        rep = algebra_closure_check(G1, G2, f, expr)
        assert rep["denominator"] == 0.0
        assert rep["vanishes"]

    def test_translations_commute(self):
        f, expr = sym_gaussian((3.0, 2.0), 0.9)
        rep = algebra_closure_check(GeneratorKind("P", mu=0),
                                    GeneratorKind("P", mu=1), f, expr)
        assert rep["vanishes"]

    def test_coarse_grid_raises_resolution_error(self):
        # n = 48 cannot resolve K of this mode: the commutator is off by
        # more than 0.1 and moves by more than that from the n = 24 grid
        f, expr = sym_gaussian((3.0, 2.0), 0.9, phase=(0.3, -0.2),
                               grid=LightconeGrid(n=48))
        with pytest.raises(ResolutionError):
            algebra_closure_check(GeneratorKind("D"),
                                  GeneratorKind("K", mu=1, delta=1.5), f, expr)

    def test_expr_required(self):
        f, _ = sym_gaussian()
        with pytest.raises(DomainError):
            algebra_closure_check(GeneratorKind("P"), GeneratorKind("D"), f)

    def test_expr_symbols_checked(self):
        f, _ = sym_gaussian()
        bad = sym.symbols("q", positive=True) ** 2
        with pytest.raises(DomainError):
            algebra_closure_check(GeneratorKind("P"), GeneratorKind("D"), f,
                                  bad)


class TestSpecialConformalFieldLaw:
    def test_centered_packet(self):
        f = GaussianPacket(MinkVector((0.1, -0.3)), 1.1,
                           MinkVector((2.2, 0.4)))
        rep = special_conformal_field_law(f, mu=0, delta=1.5)
        assert rep["relative_l2"] < 1e-4

    def test_spatial_index_and_shifted_packet(self):
        f = GaussianPacket(MinkVector((-0.2, 0.4)), 0.9,
                           MinkVector((2.0, -0.5)))
        rep = special_conformal_field_law(f, mu=1, delta=1.7)
        assert rep["relative_l2"] < 1e-4


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
