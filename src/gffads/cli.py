"""Command-line runner: verification suites, single quantities, parameter scans.

Three subcommands:

    gffads verify <suite>  [--config cfg.json] [--seed N] [--format json|csv]
    gffads compute <name>  [--param k=v ...]
    gffads scan <name> --axis param:start:stop:steps [--param k=v ...]

Suites hold the package's checks, each implemented once and filed under
the acceptance criterion it serves, which a JSON record names as
`criterion`; the gate (tests/test_acceptance.py) asserts `verify all` by
it.  Compute evaluates one public quantity; scan tabulates it along one
numeric parameter (CSV output only; an explicit --format json is a
configuration error).  A compute record's inputs are the parameters its
quantity read, as given, so passing them back as --param reproduces it.

Verdicts are decided once, in _check; library checks return numbers, lists
and Correlators.  A record with a reference r passes iff its value v has
|v - r| <= tolerance * |r| (|r| read as 1 where r = 0) and, where the record
states an estimate, |v - r| <= estimate.  The estimate is the value's plus
the reference's plus any explicit error of the check; where none of these
exists it is null (an empty CSV cell), and 0.0 means a computed exact zero.
A flag record (no reference) passes iff its condition holds; a compute
record has no reference and is info.  A non-finite number fails any record.

Exit codes:

    0  every check passed and every number is finite
    1  a check failed its tolerance, or a record or scan row holds a
       non-finite number
    2  bad usage or configuration: unknown names, malformed parameters,
       guard-band rejections, arguments outside a function's domain
       (ConfigError and the ValueError family of GffadsError)
    3  a numerical method gave up: quadrature budget exhausted, grid too
       coarse, too close to a light cone, overflow
       (the ArithmeticError family of GffadsError, and OverflowError)

Output is deterministic for a fixed config, seed and BLAS thread count (the
last digits of some grid sums depend on how BLAS splits its products).
Wall-clock timings are recorded but only emitted with --timings so that
default output is byte-identical across runs.  A verify record's runtime is
the time since the previous record of its suite (since the suite's start
for the first), so each check shows its own cost.
"""

import argparse
import cmath
import itertools
import json
import math
import sys
import time

import numpy as np
from scipy.special import gammaincc

from . import adsboundary as adsb
from . import correlators as corr
from . import fock
from . import stress
from .errors import GffadsError
from .quadrature import _gauss_legendre, adaptive_finite
from .spacetime import AdSPoint, MinkVector, chordal_distance
from .specfun import Order, bessel_j, bessel_k, gamma, j_even

__all__ = ["main"]


class ConfigError(Exception):
    """Malformed configuration or unknown selector (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration

def _parse_value(text):
    for cast in (int, float, lambda t: tuple(float(p) for p in t.split(","))):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def load_config(args):
    scan = getattr(args, "command", None) == "scan"
    cfg = {"seed": 0, "format": "csv" if scan else "json", "timings": False,
           "params": {}}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        params = doc.pop("params", {})
        if not isinstance(params, dict):
            raise ConfigError("config 'params' must be an object")
        unknown = sorted(set(doc) - {"seed", "format", "timings"})
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; parameters "
                              f"belong under 'params'")
        cfg.update(doc)
        cfg["params"].update(params)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "format", None) is not None:
        cfg["format"] = args.format
    if getattr(args, "timings", False):
        cfg["timings"] = True
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise ConfigError(f"--param expects k=v, got {item!r}")
        key, _, val = item.partition("=")
        cfg["params"][key.strip()] = _parse_value(val.strip())
    # bool is an int to Python, and JSON's true and 1 are distinct
    if isinstance(cfg["seed"], bool) or not isinstance(cfg["seed"], int):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
    if not isinstance(cfg["timings"], bool):
        raise ConfigError(f"timings must be true or false, got "
                          f"{cfg['timings']!r}")
    if cfg["format"] not in ("json", "csv"):
        raise ConfigError(f"unknown output format {cfg['format']!r}")
    if scan and cfg["format"] != "csv":
        raise ConfigError(f"scan writes CSV only, got format "
                          f"{cfg['format']!r}")
    return cfg


def _integer(value):
    """value as an int; a fractional or non-finite number raises."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not an integer")
    return int(value)


class Params:
    """Reader of a request's parameters.  read() casts a parameter (or its
    default) and keeps the value as given in `inputs`, so a record's inputs
    are exactly the --param set that reproduces it."""

    def __init__(self, given):
        self.given = given
        self.inputs = {}

    def __contains__(self, key):
        return key in self.given

    def read(self, key, default, cast=float):
        value = self.given.get(key, default)
        try:
            out = cast(value)
        except (TypeError, ValueError, OSError) as exc:
            raise ConfigError(f"malformed parameter {key}={value!r}: "
                              f"{exc}") from None
        self.inputs[key] = value
        return out


# ---------------------------------------------------------------------------
# report records

def _check(name, value, reference=None, tolerance=None, error=None,
           inputs=None):
    """The record as it is written, and the one verdict site (the rule of
    the module docstring).  value and reference are numbers or results
    (Correlator, QuadratureResult), written as {re, im}."""
    parts = [float(x.error_estimate) for x in (value, reference)
             if hasattr(x, "error_estimate")]
    if error is not None:
        parts.append(float(error))
    estimate = sum(parts) if parts else None
    value, reference = (None if x is None else complex(getattr(x, "value", x))
                        for x in (value, reference))
    passed = None
    if reference is not None:
        gap = abs(value - reference)
        passed = bool(gap <= tolerance * (abs(reference) or 1.0)
                      and (estimate is None or gap <= estimate))
    value = {"re": value.real, "im": value.imag}
    ref = {} if reference is None else {
        "reference": {"re": reference.real, "im": reference.imag}}
    tolerance = None if tolerance is None else float(tolerance)
    inputs = inputs or {}
    numbers = [value, estimate, tolerance, inputs, ref]
    if _finite(numbers) != numbers:  # a non-finite number fails
        passed = False
    return {"name": name, "value": value, "error_estimate": estimate,
            "tolerance": tolerance,
            "status": {True: "pass", False: "fail", None: "info"}[passed],
            "inputs": inputs, **ref, "made": time.perf_counter()}


def _flag(name, condition, value=0.0, inputs=None):
    """A flag: passes iff its condition holds and its numbers are finite."""
    rec = _check(name, value, tolerance=0.0, inputs=inputs)
    return {**rec, "status": "pass" if condition and rec["status"] == "info"
            else "fail"}


def _decreasing(seq):
    """Whether every entry of seq is below the one before it."""
    return all(b < a for a, b in zip(seq, seq[1:]))


def _fmt17(x):
    return f"{float(x):.16e}"


def _finite(x):
    """x with every non-finite float replaced by None (strict JSON)."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_finite(v) for v in x)
    return None if isinstance(x, float) and not math.isfinite(x) else x


# the fields a record writes, in order; runtime_s follows under --timings
FIELDS = ("name", "value", "error_estimate", "tolerance", "status", "inputs",
          "reference", "criterion")


def _emit(records, cfg):
    """Text of the records and whether none failed; JSON nulls inf, nan."""
    out = []
    for r in sorted(records, key=lambda r: r["name"]):
        out.append({k: r[k] for k in FIELDS if k in r})
        if cfg["timings"]:
            out[-1]["runtime_s"] = round(r["runtime"], 3)
    ok = all(item["status"] != "fail" for item in out)
    if cfg["format"] == "csv":
        cols = ["name", "value_re", "value_im", "error_estimate",
                "reference_re", "reference_im", "tolerance", "status"]
        lines = [",".join(cols + ["runtime_s"] * cfg["timings"])]
        for item in out:
            ref = item.get("reference", {"re": "", "im": ""})
            row = [item["name"]] + [
                "" if x in ("", None) else _fmt17(x)
                for x in (item["value"]["re"], item["value"]["im"],
                          item["error_estimate"], ref["re"], ref["im"],
                          item["tolerance"])] + [item["status"]]
            if cfg["timings"]:
                row.append(f"{item['runtime_s']:.3f}")
            lines.append(",".join(row))
        text = "\n".join(lines)
    else:
        text = json.dumps({"status": "pass" if ok else "fail",
                           "records": _finite(out)}, indent=2,
                          allow_nan=False)
    return text, ok


# ---------------------------------------------------------------------------
# verification suites

def _suite_specfun(cfg, rng):
    recs = {1: []}
    x = 0.3
    val = gamma(x) * gamma(1.0 - x)
    recs[1].append(_check("specfun.gamma_reflection", val,
                          np.pi / np.sin(np.pi * x), 1e-12,
                          inputs={"x": x}))
    u = np.linspace(0.5, 40.0, 100)
    h = 1e-3
    for nu in (0.0, 0.5, 1.3):
        jm, j0, jp = (bessel_j(nu, u - h), bessel_j(nu, u),
                      bessel_j(nu, u + h))
        res = (jp - 2.0 * j0 + jm) / h ** 2 + (jp - jm) / (2.0 * h * u) \
            + (1.0 - nu ** 2 / u ** 2) * j0
        recs[1].append(_check(f"specfun.bessel_ode_residual_nu{nu}",
                              float(np.max(np.abs(res))), 0.0, 1e-6,
                              inputs={"nu": nu, "fd_step": h,
                                      "u_range": [0.5, 40.0]}))
        # t^nu e^(-t^2/2) is its own Hankel transform: int_0^inf
        # t^(1+nu) e^(-t^2/2) J_nu(u0 t) dt = u0^nu e^(-u0^2/2).  The
        # integral stops at t = 12; |J_nu| <= 1 bounds the cut tail by
        # int_12^inf t^(1+nu) e^(-t^2/2) dt = 2^(nu/2) Gamma(1 + nu/2, 72)
        u0 = 1.3
        ht = adaptive_finite(lambda t: t ** (1.0 + nu) * np.exp(-t * t / 2.0)
                             * bessel_j(nu, u0 * t), 0.0, 12.0)
        a = 1.0 + nu / 2.0
        tail = 2.0 ** (nu / 2.0) * gammaincc(a, 72.0) * gamma(a)
        recs[1].append(_check(f"specfun.hankel_self_reciprocal_nu{nu}", ht,
                              u0 ** nu * np.exp(-u0 * u0 / 2.0), 1e-8,
                              error=tail, inputs={"nu": nu, "u": u0}))
    # j_even's own power series against each route of bessel_j: j0 at
    # nu = 0, the closed form at nu = 1/2, AMOS jv otherwise
    u0 = 2.3
    for nu in (0.0, 0.5, 1.3):
        recs[1].append(_check(f"specfun.even_series_matches_besselj_nu{nu}",
                              j_even(nu, u0 ** 2) * u0 ** nu, bessel_j(nu, u0),
                              1e-12, inputs={"nu": nu, "u": u0}))
    return recs


def _suite_correlators(cfg, rng):
    recs = {2: [], 5: []}
    x = MinkVector((0.4, 2.0))
    m = 1.3
    a = corr.wightman_kg(m, x)
    b = corr.wightman_kg_momentum_oracle(m, x)
    recs[2].append(_check("correlators.wightman_closed_vs_momentum", a, b,
                          1e-6, inputs={"m": m, "x": list(x.components)}))
    h = corr.Power(0.5)
    s = np.geomspace(0.5, 50.0, 7)
    vals = [corr.gff2pt(h, h, MinkVector((0.0, math.sqrt(si)))).value.real
            for si in s]
    slope = np.polyfit(np.log(s), np.log(np.abs(vals)), 1)[0]
    recs[2].append(_check("correlators.power_weight_loglog_slope", slope, -1.5,
                          0.01, inputs={"nu": 0.5, "s_range": [0.5, 50.0]}))
    # int dm^2 m^(2 nu) W_m(x) = 4^nu Gamma(nu+1)^2 sigma^-(nu+1) / pi in
    # d = 2, sigma = x1^2 - (t - i epsilon)^2 at the default epsilon
    nu = 0.5
    t, x1 = x.components
    sigma = x1 * x1 - complex(t, -corr.EPSILON) ** 2
    closed = 4.0 ** nu * math.gamma(nu + 1.0) ** 2 * sigma ** -(nu + 1.0) \
        / math.pi
    recs[2].append(_check("correlators.power_weight_closed_form",
                          corr.gff2pt(h, h, x), closed, 1e-8,
                          inputs={"nu": nu, "x": list(x.components)}))
    # dilation covariance: gff2pt(h, h, x / lambda) = gff2pt(h_lambda,
    # h_lambda, x) with h_lambda(m^2) = lambda^(d/2) h(lambda^2 m^2), which
    # compresses the mass spectrum by 1/lambda; the i-epsilon regulator
    # scales along with the point
    lam = 1.6
    hl = corr.ScaledWeight(h, lam, x.d)
    recs[2].append(_check("correlators.scaling_covariance",
                          corr.gff2pt(h, h, x.scale(1.0 / lam),
                                      epsilon=corr.EPSILON / lam),
                          corr.gff2pt(hl, hl, x), 1e-10,
                          inputs={"lambda": lam}))
    recs[5].append(_check("correlators.spacelike_commutator_zero",
                          corr.gff_commutator(h, h, x), 0.0, 1e-8,
                          inputs={"x": list(x.components)}))
    # the closed form's constant, which gff_commutator and ads_commutator
    # share, against the eps -> 0 limit of W_m(x) - W_m(-x)
    xt = MinkVector((1.3, 0.4))
    recs[5].append(_check("correlators.commutator_eps_limit",
                          corr.commutator_kg(1.0, xt),
                          corr.commutator_kg_eps(1.0, xt), 1e-7,
                          inputs={"m": 1.0, "x": list(xt.components)}))
    # unit density on [0, M^2]: int_0^M 2m dm (2 pi)^-1 K_0(m r) =
    # (1 - M r K_1(M r)) / (pi r^2), at r_eps = sqrt(r^2 + eps^2) for
    # kallen_lehmann_2pt's eps
    mmax, r = 6.0, 0.8
    kl = corr.kallen_lehmann_2pt(
        corr.MassWeight(np.ones_like, support=(0.0, mmax ** 2)),
        MinkVector((0.0, r)))
    r_eps = math.hypot(r, corr.EPSILON)
    closed = (1.0 - mmax * r_eps * bessel_k(1.0, mmax * r_eps)) / \
        (math.pi * r_eps ** 2)
    recs[2].append(_check("correlators.kallen_lehmann_finite_support", kl,
                          closed, 1e-8,
                          inputs={"support": [0.0, mmax ** 2], "x": [0.0, r]}))
    return recs


def _suite_fock(cfg, rng):
    recs = {7: [], 10: []}
    import sympy as sym
    G = fock.GeneratorKind
    gens = {"P0": G("P", mu=0), "P1": G("P", mu=1),
            "M01": G("M", mu=0, nu_idx=1), "D": G("D"),
            "K0": G("K", mu=0, delta=1.5), "K1": G("K", mu=1, delta=1.5)}
    kp, km = sym.symbols("kp km", positive=True)
    grid = fock.LightconeGrid()
    modes = (((3.0, 2.6), 0.9, (0.15, -0.1)), ((2.4, 3.2), 1.1, (-0.2, 0.25)))
    for mode, (center, width, phase) in enumerate(modes):
        f = fock.gaussian_mode(grid, center, width, phase)
        expr = sym.exp(-((kp - center[0]) ** 2 + (km - center[1]) ** 2)
                       / (2 * width ** 2)) * \
            sym.exp(sym.I * (phase[0] * kp + phase[1] * km))
        for (l1, g1), (l2, g2) in itertools.combinations(gens.items(), 2):
            r = fock.algebra_closure_check(g1, g2, f, expr)
            recs[7].append(_check(f"fock.algebra_closure_mode{mode}_{l1}_{l2}",
                                  r["relative_discrepancy"], 0.0, 1e-4,
                                  inputs={"grid_drift": r["grid_drift"]}))
    packet = corr.GaussianPacket(MinkVector((0.1, -0.3)), 1.1,
                                 MinkVector((2.2, 0.4)))
    recs[7].append(_check("fock.special_conformal_field_law",
                          fock.special_conformal_field_law(packet, 0, 1.5),
                          0.0, 1e-4, inputs={"delta": 1.5}))
    h = corr.Power(0.5)
    packs = [corr.GaussianPacket(MinkVector(x), w, MinkVector(k))
             for x, w, k in (((0.0, 0.0), 1.0, (1.5, 0.2)),
                             ((0.3, -0.2), 0.9, (1.2, -0.3)),
                             ((-0.2, 0.4), 1.1, (1.8, 0.1)),
                             ((0.5, 0.1), 0.8, (1.0, 0.4)))]
    # tolerance 0: odd n must give exactly zero
    recs[10].append(_check("fock.npoint_odd_vanishes",
                           fock.npoint([h] * 3, packs[:3]), 0.0, 0.0))
    s = lambda i, j: corr.smeared2pt(h, packs[i], h, packs[j]).value
    paired = s(0, 1) * s(2, 3) + s(0, 2) * s(1, 3) + s(0, 3) * s(1, 2)
    recs[10].append(_check("fock.npoint_truncated_vanishes",
                           fock.npoint([h] * 4, packs), paired, 1e-12))
    return recs


def _suite_holography(cfg, rng):
    recs = {3: [], 6: [], 9: []}
    dx = MinkVector((0.0, 4.0))
    for nu in (0.0, 0.5):
        bl = adsb.boundary_limit_check(adsb.AdSFieldSpec(Order(nu)),
                                       (0.08, 0.04), dx)
        recs[3].append(_check(f"holography.boundary_limit_deviation_nu{nu}",
                              bl[-1], 0.0, 1e-2,
                              inputs={"nu": nu, "z": [0.08, 0.04],
                                      "dx": list(dx.components)}))
        recs[3].append(_flag(f"holography.boundary_limit_monotone_nu{nu}",
                             _decreasing(bl)))
    spec = adsb.AdSFieldSpec(Order(0.5))
    bump = lambda c, w: lambda x: np.exp(-(x - c) ** 2 / (2.0 * w * w))
    g, f, fp = bump(1.0, 0.12), bump(0.0, 1.0), bump(0.3, 0.8)
    ccr = adsb.ccr_check(spec, g, bump(1.1, 0.15), f, fp, (0.4, 1.6),
                         (0.4, 1.8))
    recs[6].append(_check("holography.ccr_product_formula",
                          ccr["relative_discrepancy"], 0.0, 1e-3,
                          inputs={"nu": 0.5}))
    ccr = adsb.ccr_check(spec, g, bump(2.5, 0.15), f, fp, (0.4, 1.6),
                         (1.9, 3.1))
    recs[6].append(_check("holography.ccr_disjoint_supports",
                          ccr["mode_value"], 0.0, 1e-6, inputs={"nu": 0.5}))
    lam = 1.5
    eps = corr.EPSILON
    a = adsb.ads2pt(spec, 0.6, 0.9, MinkVector((0.2, 3.0)), epsilon=eps)
    # the i-epsilon regulator carries dimension and scales with the point
    b = adsb.ads2pt(spec, lam * 0.6, lam * 0.9, MinkVector((0.3, 4.5)),
                    epsilon=lam * eps)
    recs[3].append(_check("holography.ads2pt_dilation_invariance", a, b, 1e-8,
                          inputs={"lambda": lam}))
    # the AdS_3 propagator of the chordal distance u, with Delta = 1 + nu:
    # e^(-nu s) / (4 pi sinh s), cosh s = 1 + u (D'Hoker & Freedman,
    # hep-th/0201253), u from the same regulated invariant as ads2pt
    for nu, z, zp, dx in ((0.0, 0.6, 0.9, (0.2, 3.0)),
                          (0.5, 1.2, 0.5, (-0.3, 1.5)),
                          (1.3, 0.4, 1.1, (0.4, 2.0))):
        dx = MinkVector(dx)
        bulk = adsb.ads2pt(adsb.AdSFieldSpec(Order(nu)), z, zp, dx)
        u = (corr._sigma_eps(dx, corr.EPSILON) + (z - zp) ** 2) / \
            (2.0 * z * zp)
        s = cmath.acosh(1.0 + u)
        closed = cmath.exp(-nu * s) / (4.0 * math.pi * cmath.sinh(s))
        recs[3].append(_check(
               f"holography.ads2pt_closed_form_nu{nu}", bulk, closed, 1e-9,
               inputs={"nu": nu, "z": z, "zp": zp, "dx": list(dx.components)}))
    # the holographic formula: lifting a boundary wavefunction to depth z
    # multiplies it by h_z, so two lifts' inner product is the smeared bulk
    # two-point function.  The record states no estimate: nearly all of its
    # 1.3e-9 gap is the strips below the grid's kmin, which nothing bounds
    # yet, and the reference's grid estimate (9e-15) would understate it
    packet = corr.GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                                 MinkVector((2.0, 0.3)))
    psi = fock.position_wavefunction(packet, None,
                                     fock.LightconeGrid(n=160, kmin=1e-5))
    lifts = [adsb.holographic_lift(spec, z, psi) for z in (0.3, 0.5)]
    bulk = corr.smeared2pt(corr.BesselZ(0.3, spec.order), packet,
                           corr.BesselZ(0.5, spec.order), packet, n_nodes=240)
    recs[3].append(_check("holography.lift_inner_product",
                          fock.inner_product(*lifts), bulk.value, 1e-8,
                          inputs={"nu": 0.5, "z": [0.3, 0.5], "grid_n": 160,
                                  "n_nodes": 240}))
    mk = adsb.mass_change_kernel_check(0.5, 1.5, 0.7, 1.2)
    recs[9].append(_check("holography.mass_change_kernel", mk, 0.0, 5e-3,
                          inputs={"nu": 0.5, "nu_prime": 1.5, "z": 0.7,
                                  "m": 1.2}))
    return recs


def _suite_locality(cfg, rng):
    p = Params(cfg["params"])
    a, b, c, nu = (p.read(k, v) for k, v in
                   (("a", 0.3), ("b", 1.0), ("c", 1.4), ("nu", 0.5)))
    band = (b - c) ** 2
    if abs(a * a - band) < 0.05 * band:
        raise ConfigError(
            f"(a,b,c)=({a},{b},{c}) lies in the light-cone guard band")
    recs = {4: [], 5: [], 8: []}
    inner = adsb.bonus_locality(0.0, nu, a, b, c)
    ref = adsb.bonus_locality(0.0, nu, 0.5 * (b + c), b, c)
    recs[4].append(_check("locality.bonus_locality_ratio",
                          abs(inner.value) / abs(ref.value), 0.0, 1e-5,
                          error=inner.error_estimate / abs(ref.value),
                          inputs=p.inputs))
    if abs(nu - 0.5) < 1e-12:
        ai = 0.5 * (b + c)
        oracle = 1.0 / (np.pi * math.sqrt(b * c)
                        * math.sqrt(ai * ai - (b - c) ** 2))
        recs[4].append(_check("locality.bonus_locality_interior_oracle",
                              ref, oracle, 1e-4,
                              inputs={"a": ai, "b": b, "c": c}))
    spec = adsb.AdSFieldSpec(Order(nu))
    for z, zp, t in ((1.0, 1.8, 0.5), (0.5, 1.5, 0.6), (0.8, 2.0, 0.9)):
        cv = adsb.ads_commutator(spec, z, zp, MinkVector((t, 0.0)))
        recs[5].append(_check(f"locality.ads_commutator_z{z}_zp{zp}",
                              cv, 0.0, 1e-5,
                              inputs={"z": z, "z_prime": zp, "dt": t,
                                      "nu": p.inputs["nu"]}))
    # where the bulk points are timelike, the commutator is the jump of the
    # AdS_3 propagator e^(-nu s) / (4 pi sinh s), cosh s = 1 + u, across its
    # cut (D'Hoker & Freedman, hep-th/0201253): -i sgn(t) cos(nu theta) /
    # (2 pi sin theta), cos theta = 1 + u, inside the cone -2 < u < 0, and
    # i sgn(t) sin(nu pi) e^(-nu s) / (2 pi sinh s), cosh s = -(1 + u),
    # beyond u = -2, which only a non-integer nu keeps nonzero
    for nu, z, zp, dx in ((0.5, 0.7, 1.1, (1.0, 0.3)),
                          (1.3, 0.7, 1.1, (-1.2, 0.4)),
                          (0.5, 0.6, 0.9, (2.5, -0.5)),
                          (1.3, 0.5, 0.8, (3.0, 1.0))):
        dx = MinkVector(dx)
        cv = adsb.ads_commutator(adsb.AdSFieldSpec(Order(nu)), z, zp, dx)
        u = chordal_distance(AdSPoint(z, dx),
                             AdSPoint(zp, MinkVector((0.0, 0.0))))
        sign = math.copysign(1.0, dx.components[0])
        if u > -2.0:
            region, theta = "cone", math.acos(1.0 + u)
            closed = -1j * sign * math.cos(nu * theta) / \
                (2.0 * math.pi * math.sin(theta))
        else:
            region, s = "beyond", math.acosh(-(1.0 + u))
            closed = 1j * sign * math.sin(nu * math.pi) * \
                math.exp(-nu * s) / (2.0 * math.pi * math.sinh(s))
        recs[5].append(_check(
               f"locality.bulk_commutator_closed_form_nu{nu}_{region}", cv,
               closed, 1e-9,
               inputs={"nu": nu, "z": z, "zp": zp, "dx": list(dx.components)}))
    h1, f1, _, _ = _default_set_args()
    fa = corr.GaussianPacket(MinkVector((0.0, -3.0)), 0.5,
                             MinkVector((0.0, 0.0)))
    gb = corr.GaussianPacket(MinkVector((0.0, 3.0)), 0.5,
                             MinkVector((1.5, -0.3)))
    loc = stress.commutator_locality_check(fa, gb, h1, h1, f1, 0, 0,
                                           n_nodes=120)
    recs[8].append(_check("locality.set_commutator_spacelike", loc, 0.0, 1e-6,
                          inputs={"separation": 6.0, "widths": 0.5}))
    return recs


def _default_set_args():
    h = corr.Power(0.5)
    f1 = corr.GaussianPacket(MinkVector((0.0, 0.0)), 1.0,
                             MinkVector((-2.0, -0.5)))
    f2 = corr.GaussianPacket(MinkVector((0.3, -0.2)), 1.2,
                             MinkVector((1.8, -0.4)))
    f = corr.GaussianPacket(MinkVector((0.0, 0.0)), 0.8,
                            MinkVector((0.0, 0.0)))
    return h, f1, f2, f


QMC_SETS, QMC_LOG2_POINTS = 16, 15


def _matrix_element_qmc(f1, f2, f, rng):
    """Randomized quasi-Monte Carlo of the default matrix element
    <f1| Theta_00(f) |f2> under the Power(0.5) weight, and its standard error.

    The integrand is the one of set_matrix_element written out, with the
    kernel K_00 in full and fhat from Smearing.fourier, over (k1+, k1-,
    k2+) and k2- = k1+ k1- / k2+.  Each axis is sampled from a normal
    truncated to [0, 25] whose mean and width are tuned to the packets of
    _default_set_args, mapped by its inverse CDF from QMC_SETS
    Owen-scrambled Sobol sets of 2^QMC_LOG2_POINTS points seeded by rng.
    The estimate is the mean of the sets' means and the standard error
    their spread over sqrt(QMC_SETS).
    """
    from scipy.special import ndtr, ndtri
    from scipy.stats import qmc
    kmax = 25.0
    mean, width = np.array([2.5, 1.5, 1.4]), np.array([2.0, 2.0, 1.2])
    lo, hi = ndtr(-mean / width), ndtr((kmax - mean) / width)
    means = []
    for _ in range(QMC_SETS):
        # Sobol points are multiples of 2^-30, 0 included: the centre of
        # each cell keeps every k inside (0, kmax)
        u = qmc.Sobol(3, rng=rng).random_base2(QMC_LOG2_POINTS) + 2.0 ** -31
        z = ndtri(lo + u * (hi - lo))
        k1p, k1m, k2p = (mean + width * z).T
        # the product of the three truncated normal densities
        density = np.exp(-0.5 * np.sum(z * z, axis=1)) \
            / np.prod(math.sqrt(2.0 * math.pi) * width * (hi - lo))
        k2m = k1p * k1m / k2p
        k1_0, k1_1 = 0.5 * (k1p + k1m), 0.5 * (k1p - k1m)
        k2_0, k2_1 = 0.5 * (k2p + k2m), 0.5 * (k2p - k2m)
        # lower components q1 = (k1_0, -k1_1), q2 = (-k2_0, k2_1)
        dot = -k1_0 * k2_0 + k1_1 * k2_1
        q1sq, q2sq = k1_0 ** 2 - k1_1 ** 2, k2_0 ** 2 - k2_1 ** 2
        kern = 2.0 * k1_0 * k2_0 + dot + 0.5 * (q1sq + q2sq)
        vals = f1.fourier(-k1_0, -k1_1) * f2.fourier(k2_0, k2_1) * \
            f.fourier(k1_0 - k2_0, k1_1 - k2_1)
        w = corr.norm_const(2) ** 2 * 0.25 * np.sqrt(k1p * k1m) * kern \
            * vals / (k2p * density)
        means.append(np.mean(w))
    return np.mean(means), np.std(means, ddof=1) / math.sqrt(QMC_SETS)


def _divergence_oracle(f, sigma, mu, nu, n, n_inner):
    """||Theta^sigma_mn(f) Omega||^2 of vacuum_fluctuation_divergence as a
    4-fold loop over its nodes: n lightcone nodes on [0, 2 reach + 10] per
    k axis, n_inner Gauss-Legendre nodes in u = m2^2 over m1^2 +- 6 sigma,
    and at each point the kernel from set_kernel and fhat from
    Smearing.fourier, each weight and exponential taken on its own."""
    k, w = corr.lightcone_grid_nodes(n, 2.0 * f.reach + 10.0)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
    total = 0.0
    for a in range(n):
        for b in range(n):
            m1sq = k[a] * k[b]
            u, wu = _gauss_legendre(n_inner, max(m1sq - 6.0 * sigma, 1e-12),
                                    m1sq + 6.0 * sigma)
            k1 = MinkVector((0.5 * (k[a] + k[b]), 0.5 * (k[a] - k[b])))
            for c in range(n):
                for uj, wj in zip(u, wu):
                    k2m = uj / k[c]
                    k2 = MinkVector((0.5 * (k[c] + k2m), 0.5 * (k[c] - k2m)))
                    kern = stress.set_kernel(k1, k2, (1, 1), mu, nu)
                    fv = f.fourier(k1.components[0] + k2.components[0],
                                   k1.components[1] + k2.components[1])
                    hsq = norm ** 2 * math.exp(-((uj - m1sq) / sigma) ** 2)
                    total += (w[a] * w[b] * w[c] * wj * hsq * abs(kern) ** 2
                              * abs(fv) ** 2 / k[c])
    return 0.5 * corr.norm_const(2) ** 2 * 0.25 * total


def _suite_set(cfg, rng):
    recs = {8: [], 9: [], 11: []}
    n = 1000
    k1p = rng.uniform(0.2, 2.0, n)
    k1m = rng.uniform(0.2, 2.0, n)
    k2p = rng.uniform(0.2, 2.0, n)
    worst_cons = 0.0
    worst_sym = 0.0
    for i in range(n):
        m2 = k1p[i] * k1m[i]
        k1 = MinkVector((0.5 * (k1p[i] + k1m[i]), 0.5 * (k1p[i] - k1m[i])))
        k2m = m2 / k2p[i]
        k2 = MinkVector((0.5 * (k2p[i] + k2m), 0.5 * (k2p[i] - k2m)))
        q1 = np.array([k1.components[0], -k1.components[1]])
        q2 = np.array([-k2.components[0], k2.components[1]])
        Q = q1 + q2
        for nu_i in (0, 1):
            con = (Q[0] * stress.set_kernel(k1, k2, (1, -1), 0, nu_i)
                   - Q[1] * stress.set_kernel(k1, k2, (1, -1), 1, nu_i))
            worst_cons = max(worst_cons, abs(con))
        sym = abs(stress.set_kernel(k1, k2, (1, -1), 0, 1)
                  - stress.set_kernel(k1, k2, (1, -1), 1, 0))
        worst_sym = max(worst_sym, sym)
    recs[8].append(_check("set.kernel_onshell_conservation", worst_cons, 0.0,
                          1e-12, inputs={"pairs": n, "seed": cfg["seed"]}))
    recs[8].append(_check("set.kernel_symmetry", worst_sym, 0.0, 1e-14))
    k = MinkVector((1.3, 0.6))
    for nu_i in (0, 1):
        want = 2.0 * 1.3 * (1.3 if nu_i == 0 else -0.6)
        recs[8].append(_check(f"set.kernel_coincidence_0{nu_i}",
                              stress.set_kernel(k, k, (1, -1), 0, nu_i), want,
                              1e-12, inputs={"k": list(k.components)}))

    h, f1, f2, f = _default_set_args()
    herm = stress.set_matrix_element(f, h, f1, h, f1, 0, 0)
    recs[8].append(_check("set.hermiticity_imag_part",
                          herm.value.imag / abs(herm.value), 0.0, 1e-10,
                          error=herm.error_estimate / abs(herm.value)))
    # the estimate is 5 standard errors across the scrambled sets
    est, se = _matrix_element_qmc(f1, f2, f, rng)
    recs[8].append(_check("set.matrix_element_qmc", est,
                          stress.set_matrix_element(f, h, f1, h, f2, 0, 0,
                                                    n_nodes=120),
                          1e-3, error=5.0 * se,
                          inputs={"sets": QMC_SETS,
                                  "points": 2 ** QMC_LOG2_POINTS,
                                  "seed": cfg["seed"], "n_nodes": 120}))
    for nu_i in (0, 1):
        cons = stress.conservation_check(h, f1, h, f2, f, nu_i, n_nodes=96)
        recs[8].append(_check(
            f"set.conservation_nu{nu_i}", cons["relative"], 0.0, 1e-8,
            error=cons["error_estimate"] / cons["term_scale"],
            inputs={"n_nodes": 96}))
    tr = stress.trace_check(h, f1, h, f2, f, n_nodes=96)
    recs[8].append(_flag("set.trace_significant",
                         abs(tr.value) > 10.0 * tr.error_estimate, tr.value))
    md = stress.momentum_density_check(h, f1, h, f2, 0, (2.0, 4.0, 8.0))
    recs[8].append(_check("set.momentum_density_deviation", md[-1], 0.0, 1e-2,
                          inputs={"largest_s": 8.0}))
    recs[8].append(_flag("set.momentum_density_monotone", _decreasing(md)))
    ld = stress.lorentz_density_check(h, f1, h, f2, 0, 1, (4.0, 8.0, 12.0))
    recs[8].append(_check("set.lorentz_density_deviation", ld[-1], 0.0, 2e-2,
                          inputs={"largest_s": 12.0}))
    recs[8].append(_flag("set.lorentz_density_monotone", _decreasing(ld)))

    m1, m2 = 1.1, 0.7
    Z = 40.0
    w = stress.z_integral_weight(0.5, Z, m1 * m1, m2 * m2)
    aa, bb = m1 - m2, m1 + m2
    sine = 0.5 * (np.sin(aa * Z) / aa - np.sin(bb * Z) / bb) \
        / (np.pi * math.sqrt(m1 * m2))
    recs[9].append(_check("set.z_weight_sine_oracle", w, sine, 1e-10,
                          inputs={"nu": 0.5, "Z": Z}))
    m1sq = 1.3
    Z = 200.0 / math.sqrt(m1sq)
    recs[9].append(_check("set.z_weight_delta_smearing",
                          stress.z_integral_weight_delta_check(0.5, Z, m1sq),
                          0.0, 1e-2,
                          inputs={"Z": Z, "m1sq": m1sq, "g_width": 0.2}))
    red = stress.ads_set_reduction(0.5, (2.0, 4.0, 8.0), f, h, f1, h, f2,
                                   0, 0)
    recs[9].append(_check("set.ads_reduction_deviation", red[-1], 0.0, 1e-2,
                          inputs={"Z": 8.0, "nu": 0.5}))
    sig = [0.4 * 0.5 ** i for i in range(6)]
    div = stress.vacuum_fluctuation_divergence(f, sig)
    # how much of the grid entered the sum (the rest is flushed to 0)
    counts = {"grid_points": div["grid_points"],
              "exponentials": div["exponentials"]}
    recs[11].append(_flag("set.vacuum_fluctuation_diverges",
                          div["strictly_increasing"], div["growth_exponent"],
                          inputs=counts))
    recs[11].append(_check("set.vacuum_fluctuation_growth_exponent",
                           div["growth_exponent"], 1.0, 0.3,
                           inputs={"sigmas": sig, **counts}))
    # the narrowest width resolved on a finer grid: the two narrowest widths
    # again (a sequence needs two) at 64 lightcone and 48 inner nodes
    fine = stress.vacuum_fluctuation_divergence(f, sig[-2:], n_nodes=64,
                                                n_inner=48)
    recs[11].append(_check("set.vacuum_fluctuation_resolved",
                           fine["values"][-1], div["values"][-1], 1e-3,
                           inputs={"sigmas": sig[-2:], "n_nodes": 64,
                                   "n_inner": 48}))
    # an absolute reference: the kernel on a small grid against the
    # per-point sum over the same nodes, at both widths
    small = {"n_nodes": 5, "n_inner": 3}
    got = stress.vacuum_fluctuation_divergence(f, (0.4, 0.2), 0, 1, **small)
    want = [_divergence_oracle(f, s, 0, 1, 5, 3) for s in (0.4, 0.2)]
    for sigma, value, oracle in zip((0.4, 0.2), got["values"], want):
        recs[11].append(_check(f"set.vacuum_fluctuation_oracle_sigma{sigma}",
                               value, oracle, 1e-12,
                               inputs={"sigma": sigma, "mu": 0, "nu": 1,
                                       **small}))
    return recs


SUITES = {"specfun": _suite_specfun, "correlators": _suite_correlators,
          "fock": _suite_fock, "holography": _suite_holography,
          "locality": _suite_locality, "set": _suite_set}


def run_verify(suite, cfg):
    if suite != "all" and suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from "
                          f"{sorted(SUITES)} or 'all'")
    names = sorted(SUITES) if suite == "all" else [suite]
    rng = np.random.default_rng(cfg["seed"])
    records = []
    for name in names:
        last = time.perf_counter()
        recs = [{**r, "criterion": criterion} for criterion, rs
                in SUITES[name](cfg, rng).items() for r in rs]
        for r in sorted(recs, key=lambda r: r["made"]):  # creation order
            r["runtime"], last = r["made"] - last, r["made"]
        records += recs
    return records


# ---------------------------------------------------------------------------
# single quantities

def _gff2pt(p):
    h = (p.read("hfile", None, lambda f: corr.Tabulated.from_file(str(f)))
         if "hfile" in p else corr.Power(p.read("nu", 0.5)))
    x = (MinkVector((0.0, p.read("s", None, lambda s: math.sqrt(float(s)))))
         if "s" in p else MinkVector((p.read("t", 0.0), p.read("x", 2.0))))
    return corr.gff2pt(h, h, x)


# largest grid order setMatrixElement accepts: its work grows as n^3 (n = 256
# takes 1.6 s on a 2-vCPU Xeon) and its slices as n^2
MAX_SET_NODES = 512


def _set_nodes(value):
    """value as a grid order of at most MAX_SET_NODES."""
    n = _integer(value)
    if n > MAX_SET_NODES:
        raise ValueError(f"more than {MAX_SET_NODES} nodes")
    return n


def _set_matrix_element(p):
    _, f1, f2, f = _default_set_args()
    h = corr.Power(p.read("hnu", 0.5))
    return stress.set_matrix_element(
        f, h, f1, h, f2, p.read("mu", 0, _integer),
        p.read("nu_idx", 0, _integer),
        ordering=p.read("ordering", "middle", str),
        n_nodes=p.read("n", 72, _set_nodes))


def _point(v):
    return MinkVector(tuple(v))


# Each quantity, keyed by its record name, computed from a Params reader.
QUANTITIES = {
    "gamma": lambda p: gamma(p.read("x", 5.0)),
    "besselj": lambda p: bessel_j(p.read("nu", 0.5), p.read("u", 1.0)),
    "besselk": lambda p: bessel_k(p.read("nu", 0.5), p.read("u", 1.0)),
    "wightman": lambda p: corr.wightman_kg(
        p.read("m", 1.0), MinkVector((p.read("t", 0.0), p.read("x", 2.0))),
        epsilon=p.read("epsilon", corr.EPSILON)),
    "gff2pt": _gff2pt,
    "ads2pt": lambda p: adsb.ads2pt(
        adsb.AdSFieldSpec(Order(p.read("nu", 0.5))), p.read("z", 0.5),
        p.read("zp", 0.8), MinkVector((p.read("t", 0.0), p.read("x", 2.0)))),
    "bonusLocality": lambda p: adsb.bonus_locality(
        0.5 * p.read("d", 2, _integer) - 1.0, p.read("nu", 0.5),
        p.read("a", 0.3), p.read("b", 1.0), p.read("c", 1.4)),
    "adsCommutator": lambda p: adsb.ads_commutator(
        adsb.AdSFieldSpec(Order(p.read("nu", 0.5))), p.read("z", 0.5),
        p.read("zp", 1.5), MinkVector((p.read("t", 0.6), p.read("x", 0.0)))),
    "chordalDistance": lambda p: chordal_distance(
        AdSPoint(p.read("z", 0.5), MinkVector((0.0, 0.0))),
        AdSPoint(p.read("zp", 0.8),
                 MinkVector((p.read("t", 0.0), p.read("x", 2.0))))),
    "boundaryLimitConst": lambda p: adsb.boundary_limit_const(
        p.read("nu", 0.5)),
    "boundaryLimitCheck": lambda p: adsb.boundary_limit_check(
        adsb.AdSFieldSpec(Order(p.read("nu", 0.5))), (p.read("z", 0.02),),
        MinkVector((p.read("t", 0.0), p.read("x", 4.0))))[0],
    "zIntegralWeight": lambda p: stress.z_integral_weight(
        p.read("nu", 0.5), p.read("Z", 20.0), p.read("m1sq", 1.0),
        p.read("m2sq", 1.2)),
    "setKernel": lambda p: stress.set_kernel(
        p.read("k1", (1.3, 0.4), _point), p.read("k2", (1.1, -0.2), _point),
        (p.read("eps1", 1, _integer), p.read("eps2", -1, _integer)),
        p.read("mu", 0, _integer), p.read("nu_idx", 0, _integer),
        improvement=p.read("improvement", 0.0)),
    "setMatrixElement": _set_matrix_element,
}


def _lookup_quantity(name):
    """Record name of a quantity, matched ignoring case, '_' and '-'."""
    key = name.lower().replace("_", "").replace("-", "")
    for record in QUANTITIES:
        if record.lower() == key:
            return record
    raise ConfigError(f"unknown quantity {name!r}; choose from "
                      f"{sorted(QUANTITIES)}")


def run_compute(name, cfg):
    name = _lookup_quantity(name)
    p = Params(cfg["params"])
    t0 = time.perf_counter()
    rec = _check(name, QUANTITIES[name](p), inputs=p.inputs)
    rec["runtime"] = time.perf_counter() - t0
    return [rec]


def run_scan(name, axis, cfg):
    """CSV text of the scan and whether every number in it is finite."""
    fn = QUANTITIES[_lookup_quantity(name)]
    try:
        param, start, stop, steps = axis.split(":")
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError:
        raise ConfigError("--axis expects param:start:stop:steps")
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    lines = [",".join([param, "value_re", "value_im", "error_estimate"])]
    ok = True
    for v in np.linspace(start, stop, steps):
        rec = _check(name, fn(Params({**cfg["params"], param: float(v)})))
        row = (v, rec["value"]["re"], rec["value"]["im"],
               rec["error_estimate"])
        ok = ok and all(x is None or math.isfinite(x) for x in row)
        lines.append(",".join("" if x is None else _fmt17(x) for x in row))
    return "\n".join(lines), ok


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="gffads",
        description="Generalized free fields, AdS lift and stress tensor: "
                    "verification suites, single quantities, parameter scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
        sp.add_argument("--format", choices=("json", "csv"))
        sp.add_argument("--param", action="append", metavar="K=V",
                        help="parameter override (repeatable)")
        sp.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the output")

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", help="one of %s or 'all'" % ", ".join(
        sorted(SUITES)))
    common(sp)

    sp = sub.add_parser("compute", help="evaluate a single quantity")
    sp.add_argument("quantity")
    common(sp)

    sp = sub.add_parser("scan", help="tabulate a quantity along one parameter")
    sp.add_argument("quantity")
    sp.add_argument("--axis", required=True, metavar="PARAM:START:STOP:STEPS")
    common(sp)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "verify":
            records = run_verify(args.suite, cfg)
            text, ok = _emit(records, cfg)
        elif args.command == "compute":
            records = run_compute(args.quantity, cfg)
            text, ok = _emit(records, cfg)
        else:
            text, ok = run_scan(args.quantity, args.axis, cfg)
    except (ConfigError, GffadsError, OverflowError) as exc:
        step = args.suite if args.command == "verify" else args.quantity
        print(f"error: {args.command} {step}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ArithmeticError) else 2
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
