"""Command-line runner: verification suites, single quantities, parameter scans.

Three subcommands:

    gffads verify <suite>  [--config cfg.json] [--seed N] [--format json|csv]
    gffads compute <name>  [--param k=v ...]
    gffads scan <name> --axis param:start:stop:steps [--param k=v ...]

Suites hold the package's checks, each implemented once; the acceptance gate
(tests/test_acceptance.py) asserts the records of `verify all`.  Compute
evaluates one public quantity; scan tabulates it along one numeric parameter
(CSV output only; an explicit --format json is a configuration error).  A
compute record's inputs are the parameters its quantity read, as given, so
passing them back as --param reproduces the record.

Exit codes:

    0  every check passed and every number is finite
    1  a check failed its tolerance, or a record or scan row holds a
       non-finite number
    2  bad usage or configuration: unknown names, malformed parameters,
       guard-band rejections, arguments outside a function's domain
       (ConfigError and the ValueError family of GffadsError)
    3  a numerical method gave up: quadrature budget exhausted, divergent
       extrapolation, grid too coarse, too close to a light cone, overflow
       (the ArithmeticError family of GffadsError, and OverflowError)

Output is deterministic for a fixed config and seed.  Wall-clock timings are
recorded but only emitted with --timings so that default output is
byte-identical across runs.  A verify record's runtime is the time since the
previous record of its suite (since the suite's start for the first), so each
check shows its own cost.
"""

import argparse
import itertools
import json
import math
import sys
import time

import numpy as np

from . import adsboundary as adsb
from . import correlators as corr
from . import fock
from . import stress
from .errors import GffadsError
from .quadrature import hankel_transform
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
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")
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

def _record(name, value, error=0.0, reference=None, tolerance=None,
            passed=None, inputs=None):
    if hasattr(value, "error_estimate"):   # Correlator / QuadratureResult
        # estimate first: max keeps its first argument, so a NaN survives
        error = max(float(value.error_estimate), float(error))
        value = value.value
    if hasattr(reference, "error_estimate"):
        reference = reference.value
    return {"name": name, "value": complex(value), "error_estimate": float(error),
            "reference": None if reference is None else complex(reference),
            "tolerance": None if tolerance is None else float(tolerance),
            "passed": None if passed is None else bool(passed),
            "runtime": 0.0, "made": time.perf_counter(),
            "inputs": inputs or {}}


def _check(name, value, reference, tolerance, error=0.0, inputs=None):
    rec = _record(name, value, error=error, reference=reference,
                  tolerance=tolerance, inputs=inputs)
    ref = rec["reference"]
    scale = abs(ref) if ref != 0 else 1.0
    rec["passed"] = bool(abs(rec["value"] - ref) <= tolerance * scale)
    return rec


def _flag(name, condition, value=0.0, inputs=None):
    return _record(name, complex(value), passed=bool(condition), tolerance=0.0,
                   inputs=inputs)


def _fmt17(x):
    return f"{float(x):.16e}"


def _finite(x):
    """x with every non-finite float replaced by None (strict JSON)."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_finite(v) for v in x)
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _emit(records, cfg):
    """Text of the records and whether all passed.  A record holding a
    non-finite number fails, and JSON writes that number as null."""
    out = []
    for r in sorted(records, key=lambda r: r["name"]):
        item = {"name": r["name"],
                "value": {"re": r["value"].real, "im": r["value"].imag},
                "error_estimate": r["error_estimate"],
                "tolerance": r["tolerance"], "status": None,
                "inputs": r["inputs"]}
        if r["reference"] is not None:
            item["reference"] = {"re": r["reference"].real,
                                 "im": r["reference"].imag}
        if cfg["timings"]:
            item["runtime_s"] = round(r["runtime"], 3)
        passed = r["passed"] if _finite(item) == item else False
        item["status"] = {True: "pass", False: "fail", None: "info"}[passed]
        out.append(item)
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
                          item["tolerance"])]
            row.append(item["status"])
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
    recs = []
    x = 0.3
    val = gamma(x) * gamma(1.0 - x)
    recs.append(_check("specfun.gamma_reflection", val,
                       np.pi / np.sin(np.pi * x), 1e-12,
                       inputs={"x": x}))
    u = np.linspace(0.5, 40.0, 100)
    h = 1e-3
    for nu in (0.0, 0.5, 1.3):
        jm, j0, jp = (bessel_j(nu, u - h), bessel_j(nu, u),
                      bessel_j(nu, u + h))
        res = (jp - 2.0 * j0 + jm) / h ** 2 + (jp - jm) / (2.0 * h * u) \
            + (1.0 - nu ** 2 / u ** 2) * j0
        recs.append(_check(f"specfun.bessel_ode_residual_nu{nu}",
                           float(np.max(np.abs(res))), 0.0, 1e-6,
                           inputs={"nu": nu, "fd_step": h,
                                   "u_range": [0.5, 40.0]}))
        u0 = 1.3
        ht = hankel_transform(nu, lambda t: t ** nu * np.exp(-t * t / 2.0), u0)
        recs.append(_check(f"specfun.hankel_self_reciprocal_nu{nu}",
                           ht.value, u0 ** nu * np.exp(-u0 * u0 / 2.0), 1e-8,
                           error=ht.error_estimate,
                           inputs={"nu": nu, "u": u0}))
    # j_even's own power series against each route of bessel_j: j0 at
    # nu = 0, the closed form at nu = 1/2, AMOS jv otherwise
    u0 = 2.3
    for nu in (0.0, 0.5, 1.3):
        recs.append(_check(f"specfun.even_series_matches_besselj_nu{nu}",
                           j_even(nu, u0 ** 2) * u0 ** nu, bessel_j(nu, u0),
                           1e-12, inputs={"nu": nu, "u": u0}))
    return recs


def _suite_correlators(cfg, rng):
    recs = []
    x = MinkVector((0.4, 2.0))
    m = 1.3
    a = corr.wightman_kg(m, x, epsilon=1e-3)
    b = corr.wightman_kg_momentum_oracle(m, x, epsilon=1e-3)
    recs.append(_check("correlators.wightman_closed_vs_momentum", a, b, 1e-6,
                       inputs={"m": m, "x": list(x.components)}))
    h = corr.Power(0.5)
    s = np.geomspace(0.5, 50.0, 7)
    vals = [corr.gff2pt(h, h, MinkVector((0.0, math.sqrt(si)))).value.real
            for si in s]
    slope = np.polyfit(np.log(s), np.log(np.abs(vals)), 1)[0]
    recs.append(_check("correlators.power_weight_loglog_slope", slope, -1.5,
                       0.01, inputs={"nu": 0.5, "s_range": [0.5, 50.0]}))
    # int dm^2 m^(2 nu) W_m(x) = 4^nu Gamma(nu+1)^2 sigma^-(nu+1) / pi in
    # d = 2, sigma = x1^2 - (t - i epsilon)^2 at the default epsilon 1e-3
    nu = 0.5
    t, x1 = x.components
    sigma = x1 * x1 - complex(t, -1e-3) ** 2
    closed = 4.0 ** nu * math.gamma(nu + 1.0) ** 2 * sigma ** -(nu + 1.0) \
        / math.pi
    recs.append(_check("correlators.power_weight_closed_form",
                       corr.gff2pt(h, h, x), closed, 1e-8,
                       inputs={"nu": nu, "x": list(x.components)}))
    sc = corr.scaling_covariance_check(h, 1.6, x)
    recs.append(_record("correlators.scaling_covariance",
                        sc["discrepancy"], error=sc["combined_error"],
                        reference=0.0, tolerance=sc["tolerance"],
                        passed=sc["pass"], inputs={"lambda": 1.6}))
    cv = corr.gff_commutator(h, h, x)
    recs.append(_check("correlators.spacelike_commutator_zero", cv.value, 0.0,
                       1e-8, error=cv.error_estimate,
                       inputs={"x": list(x.components)}))
    return recs


def _suite_fock(cfg, rng):
    recs = []
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
            recs.append(_check(f"fock.algebra_closure_mode{mode}_{l1}_{l2}",
                               r["relative_discrepancy"], 0.0, 1e-4,
                               inputs={"grid_drift": r["grid_drift"]}))
    packet = corr.GaussianPacket(MinkVector((0.1, -0.3)), 1.1,
                                 MinkVector((2.2, 0.4)))
    law = fock.special_conformal_field_law(packet, 0, 1.5)
    recs.append(_check("fock.special_conformal_field_law",
                       law["relative_l2"], 0.0, 1e-4, inputs={"delta": 1.5}))
    h = corr.Power(0.5)
    packs = [corr.GaussianPacket(MinkVector(x), w, MinkVector(k))
             for x, w, k in (((0.0, 0.0), 1.0, (1.5, 0.2)),
                             ((0.3, -0.2), 0.9, (1.2, -0.3)),
                             ((-0.2, 0.4), 1.1, (1.8, 0.1)),
                             ((0.5, 0.1), 0.8, (1.0, 0.4)))]
    # tolerance 0: odd n must give exactly zero
    recs.append(_check("fock.npoint_odd_vanishes",
                       fock.npoint([h] * 3, packs[:3]), 0.0, 0.0))
    s = lambda i, j: corr.smeared2pt(h, packs[i], h, packs[j]).value
    paired = s(0, 1) * s(2, 3) + s(0, 2) * s(1, 3) + s(0, 3) * s(1, 2)
    recs.append(_check("fock.npoint_truncated_vanishes",
                       fock.npoint([h] * 4, packs), paired, 1e-12))
    return recs


def _suite_holography(cfg, rng):
    recs = []
    dx = MinkVector((0.0, 4.0))
    for nu in (0.0, 0.5):
        bl = adsb.boundary_limit_check(adsb.AdSFieldSpec(Order(nu)),
                                       (0.08, 0.04), dx)
        recs.append(_check(f"holography.boundary_limit_deviation_nu{nu}",
                           bl["relative_deviations"][-1], 0.0, 1e-2,
                           inputs={"nu": nu, "z": [0.08, 0.04],
                                   "dx": list(dx.components)}))
        recs.append(_flag(f"holography.boundary_limit_monotone_nu{nu}",
                          bl["monotone"]))
    spec = adsb.AdSFieldSpec(Order(0.5))
    bump = lambda c, w: lambda x: np.exp(-(x - c) ** 2 / (2.0 * w * w))
    g, f, fp = bump(1.0, 0.12), bump(0.0, 1.0), bump(0.3, 0.8)
    ccr = adsb.ccr_check(spec, g, bump(1.1, 0.15), f, fp, (0.4, 1.6),
                         (0.4, 1.8))
    recs.append(_check("holography.ccr_product_formula",
                       ccr["relative_discrepancy"], 0.0, 1e-3,
                       inputs={"nu": 0.5}))
    ccr = adsb.ccr_check(spec, g, bump(2.5, 0.15), f, fp, (0.4, 1.6),
                         (1.9, 3.1))
    recs.append(_check("holography.ccr_disjoint_supports", ccr["mode_value"],
                       0.0, 1e-6, inputs={"nu": 0.5}))
    lam = 1.5
    eps = 1e-3
    a = adsb.ads2pt(spec, 0.6, 0.9, MinkVector((0.2, 3.0)), epsilon=eps)
    # the i-epsilon regulator carries dimension and scales with the point
    b = adsb.ads2pt(spec, lam * 0.6, lam * 0.9, MinkVector((0.3, 4.5)),
                    epsilon=lam * eps)
    tol = max(3.0 * (a.error_estimate + b.error_estimate),
              1e-8 * abs(a.value))
    recs.append(_record("holography.ads2pt_dilation_invariance",
                        a.value - b.value,
                        error=a.error_estimate + b.error_estimate,
                        reference=0.0, tolerance=tol,
                        passed=abs(a.value - b.value) <= tol,
                        inputs={"lambda": lam}))
    mk = adsb.mass_change_kernel_check(0.5, 1.5, 0.7, 1.2)
    recs.append(_check("holography.mass_change_kernel",
                       mk["relative_deviation"], 0.0, 5e-3,
                       inputs={"nu": 0.5, "nu_prime": 1.5, "z": 0.7, "m": 1.2}))
    return recs


def _suite_locality(cfg, rng):
    p = Params(cfg["params"])
    a, b, c, nu = (p.read(k, v) for k, v in
                   (("a", 0.3), ("b", 1.0), ("c", 1.4), ("nu", 0.5)))
    band = (b - c) ** 2
    if abs(a * a - band) < 0.05 * band:
        raise ConfigError(
            f"(a,b,c)=({a},{b},{c}) lies in the light-cone guard band")
    recs = []
    inner = adsb.bonus_locality(0.0, nu, a, b, c)
    ref = adsb.bonus_locality(0.0, nu, 0.5 * (b + c), b, c)
    recs.append(_check("locality.bonus_locality_ratio",
                       abs(inner.value) / abs(ref.value), 0.0, 1e-5,
                       error=inner.error_estimate / abs(ref.value),
                       inputs=p.inputs))
    if abs(nu - 0.5) < 1e-12:
        ai = 0.5 * (b + c)
        oracle = 1.0 / (np.pi * math.sqrt(b * c)
                        * math.sqrt(ai * ai - (b - c) ** 2))
        recs.append(_check("locality.bonus_locality_interior_oracle",
                           ref.value, oracle, 1e-4,
                           error=ref.error_estimate,
                           inputs={"a": ai, "b": b, "c": c}))
    spec = adsb.AdSFieldSpec(Order(nu))
    for z, zp, t in ((1.0, 1.8, 0.5), (0.5, 1.5, 0.6), (0.8, 2.0, 0.9)):
        cv = adsb.ads_commutator(spec, z, zp, MinkVector((t, 0.0)))
        recs.append(_check(f"locality.ads_commutator_z{z}_zp{zp}",
                           cv.value, 0.0, 1e-5, error=cv.error_estimate,
                           inputs={"z": z, "z_prime": zp, "dt": t,
                                   "nu": p.inputs["nu"]}))
    h1, f1, _, _ = _default_set_args()
    fa = corr.GaussianPacket(MinkVector((0.0, -3.0)), 0.5,
                             MinkVector((0.0, 0.0)))
    gb = corr.GaussianPacket(MinkVector((0.0, 3.0)), 0.5,
                             MinkVector((1.5, -0.3)))
    loc = stress.commutator_locality_check(fa, gb, h1, h1, f1, 0, 0,
                                           n_nodes=120)
    recs.append(_check("locality.set_commutator_spacelike", loc["commutator"],
                       0.0, 1e-6, error=loc["error_estimate"],
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


def _suite_set(cfg, rng):
    recs = []
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
    recs.append(_check("set.kernel_onshell_conservation", worst_cons, 0.0,
                       1e-12, inputs={"pairs": n, "seed": cfg["seed"]}))
    recs.append(_check("set.kernel_symmetry", worst_sym, 0.0, 1e-14))
    k = MinkVector((1.3, 0.6))
    for nu_i in (0, 1):
        want = 2.0 * 1.3 * (1.3 if nu_i == 0 else -0.6)
        recs.append(_check(f"set.kernel_coincidence_0{nu_i}",
                           stress.set_kernel(k, k, (1, -1), 0, nu_i), want,
                           1e-12, inputs={"k": list(k.components)}))

    h, f1, f2, f = _default_set_args()
    herm = stress.set_matrix_element(f, h, f1, h, f1, 0, 0)
    recs.append(_check("set.hermiticity_imag_part",
                       herm.value.imag / abs(herm.value), 0.0, 1e-10,
                       error=herm.error_estimate))
    # the estimate is 5 standard errors across the scrambled sets
    est, se = _matrix_element_qmc(f1, f2, f, rng)
    recs.append(_check("set.matrix_element_qmc", est,
                       stress.set_matrix_element(f, h, f1, h, f2, 0, 0,
                                                 n_nodes=120),
                       1e-3, error=5.0 * se,
                       inputs={"sets": QMC_SETS,
                               "points": 2 ** QMC_LOG2_POINTS,
                               "seed": cfg["seed"], "n_nodes": 120}))
    for nu_i in (0, 1):
        cons = stress.conservation_check(h, f1, h, f2, f, nu_i, n_nodes=96)
        recs.append(_check(f"set.conservation_nu{nu_i}", cons["relative"],
                           0.0, 1e-8, error=cons["error_estimate"],
                           inputs={"n_nodes": 96}))
    tr = stress.trace_check(h, f1, h, f2, f, n_nodes=96)
    recs.append(_flag("set.trace_significant", tr["significant"], tr["trace"]))
    md = stress.momentum_density_check(h, f1, h, f2, 0, (2.0, 4.0, 8.0))
    recs.append(_check("set.momentum_density_deviation",
                       md["relative_deviations"][-1], 0.0, 1e-2,
                       inputs={"largest_s": 8.0}))
    recs.append(_flag("set.momentum_density_monotone", md["monotone"]))

    m1, m2 = 1.1, 0.7
    Z = 40.0
    w = stress.z_integral_weight(0.5, Z, m1 * m1, m2 * m2)
    aa, bb = m1 - m2, m1 + m2
    sine = 0.5 * (np.sin(aa * Z) / aa - np.sin(bb * Z) / bb) \
        / (np.pi * math.sqrt(m1 * m2))
    recs.append(_check("set.z_weight_sine_oracle", w, sine, 1e-10,
                       inputs={"nu": 0.5, "Z": Z}))
    m1sq = 1.3
    Z = 200.0 / math.sqrt(m1sq)
    dc = stress.z_integral_weight_delta_check(0.5, Z, m1sq)
    recs.append(_check("set.z_weight_delta_smearing",
                       dc["relative_deviation"], 0.0, 1e-2,
                       inputs={"Z": Z, "m1sq": m1sq, "g_width": 0.2}))
    red = stress.ads_set_reduction(0.5, (2.0, 4.0, 8.0), f, h, f1, h, f2,
                                   0, 0)
    recs.append(_check("set.ads_reduction_deviation",
                       red["final_relative_deviation"], 0.0, 1e-2,
                       inputs={"Z": 8.0, "nu": 0.5}))
    sig = [0.4 * 0.5 ** i for i in range(6)]
    div = stress.vacuum_fluctuation_divergence(f, sig)
    # how much of the grid took an exponential (the rest is exactly 0)
    counts = {key: div[key] for key in ("grid_points", "exponentials")}
    recs.append(_flag("set.vacuum_fluctuation_diverges",
                      div["strictly_increasing"], div["growth_exponent"],
                      inputs=counts))
    recs.append(_check("set.vacuum_fluctuation_growth_exponent",
                       div["growth_exponent"], 1.0, 0.3,
                       inputs={"sigmas": sig, **counts}))
    # the narrowest width resolved on a finer grid: the two narrowest widths
    # again (a sequence needs two) at 64 lightcone and 48 inner nodes
    fine = stress.vacuum_fluctuation_divergence(f, sig[-2:], n_nodes=64,
                                                n_inner=48)
    recs.append(_check("set.vacuum_fluctuation_resolved", fine["values"][-1],
                       div["values"][-1], 1e-3,
                       inputs={"sigmas": sig[-2:], "n_nodes": 64,
                               "n_inner": 48}))
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
        for r in SUITES[name](cfg, rng):  # time since the previous record
            r["runtime"], last = r["made"] - last, r["made"]
            records.append(r)
    return records


# ---------------------------------------------------------------------------
# single quantities

def _gff2pt(p):
    h = (p.read("hfile", None, lambda f: corr.Tabulated.from_file(str(f)))
         if "hfile" in p else corr.Power(p.read("nu", 0.5)))
    x = (MinkVector((0.0, p.read("s", None, lambda s: math.sqrt(float(s)))))
         if "s" in p else MinkVector((p.read("t", 0.0), p.read("x", 2.0))))
    return corr.gff2pt(h, h, x)


def _set_matrix_element(p):
    _, f1, f2, f = _default_set_args()
    h = corr.Power(p.read("hnu", 0.5))
    return stress.set_matrix_element(
        f, h, f1, h, f2, p.read("mu", 0, _integer),
        p.read("nu_idx", 0, _integer),
        ordering=p.read("ordering", "middle", str),
        n_nodes=p.read("n", 72, _integer))


def _point(v):
    return MinkVector(tuple(v))


# Each quantity, keyed by its record name, computed from a Params reader.
QUANTITIES = {
    "gamma": lambda p: gamma(p.read("x", 5.0)),
    "besselj": lambda p: bessel_j(p.read("nu", 0.5), p.read("u", 1.0)),
    "besselk": lambda p: bessel_k(p.read("nu", 0.5), p.read("u", 1.0)),
    "wightman": lambda p: corr.wightman_kg(
        p.read("m", 1.0), MinkVector((p.read("t", 0.0), p.read("x", 2.0))),
        epsilon=p.read("epsilon", 1e-3)),
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
        MinkVector((p.read("t", 0.0), p.read("x", 4.0))),
    )["relative_deviations"][0],
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
    rec = _record(name, QUANTITIES[name](p), inputs=p.inputs)
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
        rec = _record(name, fn(Params({**cfg["params"], param: float(v)})))
        row = (v, rec["value"].real, rec["value"].imag, rec["error_estimate"])
        ok = ok and all(math.isfinite(x) for x in row)
        lines.append(",".join(_fmt17(x) for x in row))
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
