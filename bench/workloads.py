"""Seeded request streams for the four benchmark workloads.

Each workload turns a numpy Generator into an endless sequence of *passes*.
A pass is a list of requests with a fixed composition (which check, which
design point); only the drawn values come from the seed.  Timed runs
execute whole passes, so two seeds load the library with the same mix and
differ only in the drawn values.

A request is a zero-argument callable that calls the library, checks the
result against an oracle owned by this file or by the library's own
verdict, and returns a Verdict.  Library functions are looked up on their
module at call time, so the tracing wrappers installed by tracing.py are
seen without rebinding anything here.
"""

import math
from dataclasses import dataclass

import numpy as np

from gffads import adsboundary, correlators, fock, quadrature, stress
from gffads.spacetime import MinkVector


@dataclass(frozen=True)
class Verdict:
    """Outcome of one request.

    ok: the value met its oracle tolerance.  error: |value - oracle| where
    the oracle gives a value.  estimate: the library's own error_estimate
    for that value, where it reports one.
    """

    ok: bool
    error: float = None
    estimate: float = None

    @property
    def estimate_missed(self):
        return (self.error is not None and self.estimate is not None
                and self.error > self.estimate)


@dataclass(frozen=True)
class Request:
    label: str
    call: object

    def __call__(self):
        return self.call()


# ---------------------------------------------------------------------------
# locality: triple-Bessel integral against the Sonine-Gegenbauer closed form

LOCALITY_NUS = (0.0, 0.5, 1.3)
GUARD = 0.05            # relative guard band at a = |b - c| and a = b + c
VANISH_TOL = 1e-5       # |I| / mid-band envelope in the vanishing region
INTERIOR_TOL = 1e-4     # |I - oracle| / envelope in the interior band

# Design points (t, dn, mn) of a pass, used in both regions: t places a
# within its region, dn places |b - c| in [0.3, 1.5], mn places min(b, c) in
# [0.5, 2 - |b - c|].  Cost per request varies about tenfold with these
# three coordinates and hardly with nu, and a run holds only a dozen
# requests, so full-range draws would make each run's median a property of
# its draw.  The seed jitters each point by LOCALITY_JITTER, orders b and c,
# and assigns nu.
LOCALITY_DESIGN = ((1 / 12, 5 / 12, 9 / 12), (3 / 12, 11 / 12, 3 / 12),
                   (5 / 12, 1 / 12, 7 / 12), (7 / 12, 7 / 12, 1 / 12),
                   (9 / 12, 3 / 12, 11 / 12), (11 / 12, 9 / 12, 5 / 12))
LOCALITY_JITTER = 0.002


def _envelope(b, c, cos_phi):
    """1 / (pi b c sin phi): the magnitude of the interior closed form."""
    return 1.0 / (math.pi * b * c * math.sqrt(1.0 - cos_phi ** 2))


def locality_oracle(nu, a, b, c):
    """Closed form of int_0^inf u J_0(au) J_nu(bu) J_nu(cu) du.

    Returns (value, scale): 0 for a < |b - c|, cos(nu phi) / (pi b c sin phi)
    with a^2 = b^2 + c^2 - 2 b c cos phi for |b - c| < a < b + c.  scale is
    the envelope 1 / (pi b c sin phi) at the interior point, or at the
    mid-band point a = max(b, c) in the vanishing region.  Tolerances are
    relative to this envelope because cos(nu phi) has zeros inside the band
    for nu = 1.3.
    """
    if a < abs(b - c):
        mid = max(b, c)
        return 0.0, _envelope(b, c, (b * b + c * c - mid * mid) / (2 * b * c))
    cos_phi = (b * b + c * c - a * a) / (2 * b * c)
    scale = _envelope(b, c, cos_phi)
    return math.cos(nu * math.acos(cos_phi)) * scale, scale


def _locality_request(nu, a, b, c):
    def call():
        res = adsboundary.bonus_locality(0.0, nu, a, b, c,
                                         quadrature.FINE_SCHEDULE)
        oracle, scale = locality_oracle(nu, a, b, c)
        err = abs(res.value - oracle)
        tol = (VANISH_TOL if oracle == 0.0 else INTERIOR_TOL) * scale
        return Verdict(bool(err <= tol), err, res.error_estimate)
    region = "vanishing" if a < abs(b - c) else "interior"
    return Request(f"locality nu={nu} {region} a={a:.4f} b={b:.4f} c={c:.4f}",
                   call)


def locality_passes(rng):
    """Each pass: every design point once in each region, a different nu
    order per region, each nu twice.

    b, c lie in [0.5, 2] with |b - c| >= 0.3.  a lies in the vanishing
    region a < |b - c| or the interior band |b - c| < a < b + c, clear of
    the guard bands.
    """
    nus = np.repeat(LOCALITY_NUS, len(LOCALITY_DESIGN) // len(LOCALITY_NUS))
    while True:
        regions = []
        for vanishing in (True, False):
            reqs = []
            for (t, dn, mn), nu in zip(LOCALITY_DESIGN, rng.permutation(nus)):
                t, dn, mn = np.array((t, dn, mn)) + \
                    rng.uniform(-LOCALITY_JITTER, LOCALITY_JITTER, 3)
                d = 0.3 + 1.2 * dn
                lo_bc = 0.5 + (1.5 - d) * mn
                b, c = (lo_bc, lo_bc + d) if rng.random() < 0.5 \
                    else (lo_bc + d, lo_bc)
                if vanishing:
                    a = (1.0 - GUARD) * d * (1.0 - t)
                else:
                    a_lo, a_hi = (1 + GUARD) * d, (1 - GUARD) * (b + c)
                    a = a_lo + t * (a_hi - a_lo)
                reqs.append(_locality_request(float(nu), float(a), float(b),
                                              float(c)))
            regions.append(reqs)
        yield [r for pair in zip(*regions) for r in pair]


def locality_warm_up():
    adsboundary.bonus_locality(0.0, 0.5, 1.2, 1.0, 1.4)


# ---------------------------------------------------------------------------
# generators: commutators of the conformal generators against sympy

GENERATOR_DELTAS = (1.25, 1.5, 2.0)
DISCREPANCY_TOL = 1e-4


def _generator(name, delta):
    """P0, P1, M01, D, K0, K1 by name; delta is used by K only."""
    if name == "M01":
        return fock.GeneratorKind("M", mu=0, nu_idx=1)
    return fock.GeneratorKind(name[0], mu=int(name[1:] or 0), delta=delta)


# The 15 pairs of {P0, P1, M01, D, K0, K1} except K0 o K1, which takes ~40 s
# for one instance and would dominate every run.  Cheap and expensive pairs
# alternate, so the first half of a pass (the traced set) has every kind.
GENERATOR_PAIRS = (("P0", "P1"), ("D", "K1"), ("P0", "M01"), ("D", "K0"),
                   ("P0", "D"), ("M01", "K1"), ("P0", "K0"), ("M01", "K0"),
                   ("P0", "K1"), ("M01", "D"), ("P1", "M01"), ("P1", "K1"),
                   ("P1", "D"), ("P1", "K0"))


def gaussian_expr(center, width, phase):
    """The sympy form of fock.gaussian_mode(grid, center, width, phase)."""
    import sympy as sym
    kp, km = sym.symbols("kp km", positive=True)
    return sym.exp(-((kp - center[0]) ** 2 + (km - center[1]) ** 2)
                   / (2 * width ** 2)) * \
        sym.exp(sym.I * (phase[0] * kp + phase[1] * km))


class GeneratorsWorkload:
    """One pass is the 14 generator pairs, each on its own seeded mode.

    base_wrapper, when set, wraps the mode's base function (the tracer uses
    it to count the grid points at which the base function is evaluated).
    """

    def __init__(self):
        self.base_wrapper = None
        self.grid = fock.LightconeGrid()

    def mode(self, center, width, phase):
        f = fock.gaussian_mode(self.grid, center, width, phase)
        if self.base_wrapper is None:
            return f
        return fock.ModeFunction(self.grid, self.base_wrapper(f.func))

    def request(self, g1, g2, center, width, phase, delta):
        expr = gaussian_expr(center, width, phase)

        def call():
            f = self.mode(center, width, phase)
            rep = fock.algebra_closure_check(_generator(g1, delta),
                                             _generator(g2, delta), f, expr)
            rel = rep["relative_discrepancy"]
            return Verdict(bool(rel <= DISCREPANCY_TOL))
        return Request(f"generators [{g1},{g2}] delta={delta}", call)

    def passes(self, rng):
        while True:
            reqs = []
            for g1, g2 in GENERATOR_PAIRS:
                center = tuple(rng.uniform(2.4, 3.2, 2))
                width = float(rng.uniform(0.9, 1.1))
                phase = tuple(rng.uniform(-0.25, 0.25, 2))
                delta = GENERATOR_DELTAS[rng.integers(len(GENERATOR_DELTAS))]
                reqs.append(self.request(g1, g2, center, width, phase, delta))
            yield reqs

    def warm_up(self):
        center, width, phase = (3.0, 2.6), 0.9, (0.15, -0.1)
        fock.algebra_closure_check(_generator("P0", 1.5), _generator("D", 1.5),
                                   self.mode(center, width, phase),
                                   gaussian_expr(center, width, phase))


# ---------------------------------------------------------------------------
# tensor: stress-tensor matrix elements on dense momentum grids

CONSERVATION_TOL = 1e-8
REDUCTION_TOL = 1e-2
SIGMAS = tuple(0.4 * 2.0 ** -i for i in range(6))
TENSOR_WEIGHT = correlators.Power(0.5)


def _packet(rng, center, width, carrier):
    """GaussianPacket with each parameter drawn from center +- spread."""
    def draw(mid_spread):
        return tuple(float(rng.uniform(m - s, m + s)) for m, s in mid_spread)
    return correlators.GaussianPacket(MinkVector(draw(center)),
                                      float(rng.uniform(*width)),
                                      MinkVector(draw(carrier)))


def tensor_packets(rng):
    """Bra, ket and tensor smearing near the acceptance-test packets.

    The bra enters matrix elements through fhat(-k), so its carrier points
    into the backward cone.
    """
    f1 = _packet(rng, ((0.0, 0.2), (0.0, 0.2)), (0.9, 1.1),
                 ((-2.0, 0.2), (-0.5, 0.2)))
    f2 = _packet(rng, ((0.3, 0.2), (-0.2, 0.2)), (1.1, 1.3),
                 ((1.8, 0.2), (-0.4, 0.2)))
    f = _packet(rng, ((0.0, 0.2), (0.0, 0.2)), (0.7, 0.9),
                ((0.0, 0.0), (0.0, 0.0)))
    return f1, f2, f


def _conservation(f1, f2, f):
    h = TENSOR_WEIGHT
    rep = stress.conservation_check(h, f1, h, f2, f, 0, n_nodes=96)
    return Verdict(bool(rep["relative"] <= CONSERVATION_TOL),
                   abs(rep["contraction"]), rep["error_estimate"])


def _reduction(f1, f2, f):
    h = TENSOR_WEIGHT
    bulk = stress.ads_set_matrix_element(0.5, 8.0, f, h, f1, h, f2, 0, 0,
                                         n_outer=32, n_inner=600)
    sharp = stress.set_matrix_element(f, h, f1, h, f2, 0, 0, n_nodes=64)
    err = abs(bulk - sharp.value)
    return Verdict(bool(err <= REDUCTION_TOL * abs(sharp.value)), err)


def _divergence(f1, f2, f):
    rep = stress.vacuum_fluctuation_divergence(f, SIGMAS)
    return Verdict(bool(rep["strictly_increasing"]))


TENSOR_CHECKS = (("conservation", _conservation),
                 ("reduction", _reduction),
                 ("divergence", _divergence))


def tensor_passes(rng):
    while True:
        reqs = []
        for name, check in TENSOR_CHECKS:
            packets = tensor_packets(rng)
            reqs.append(Request(f"tensor {name}",
                                lambda c=check, p=packets: c(*p)))
        yield reqs


def tensor_warm_up():
    f1, f2, f = tensor_packets(np.random.default_rng(0))
    h = TENSOR_WEIGHT
    stress.conservation_check(h, f1, h, f2, f, 0, n_nodes=16)
    stress.ads_set_matrix_element(0.5, 8.0, f, h, f1, h, f2, 0, 0,
                                  n_outer=4, n_inner=16)
    stress.vacuum_fluctuation_divergence(f, SIGMAS[:2], n_nodes=8, n_inner=4)


# ---------------------------------------------------------------------------
# scan: power-weight Kallen-Lehmann two-point function

SCAN_PASS = 250
SCAN_TOL = 1e-6
SCAN_EPSILON = 1e-3  # gff2pt's default i-epsilon


def scan_oracle(nu, t, x1, epsilon=SCAN_EPSILON):
    """int_0^inf dm^2 m^(2 nu) W_m(x) = 4^nu Gamma(nu+1)^2 sigma^-(nu+1) / pi.

    sigma = x1^2 - (t - i eps)^2, principal branch (Mellin transform of K_0).
    """
    sigma = x1 * x1 - complex(t, -epsilon) ** 2
    return 4.0 ** nu * math.gamma(nu + 1.0) ** 2 * sigma ** (-(nu + 1.0)) \
        / math.pi


def _scan_request(nu, t, x1):
    def call():
        h = correlators.Power(nu)
        res = correlators.gff2pt(h, h, MinkVector((t, x1)))
        oracle = scan_oracle(nu, t, x1)
        err = abs(res.value - oracle)
        return Verdict(bool(err <= SCAN_TOL * abs(oracle)), err,
                       res.error_estimate)
    return Request(f"scan nu={nu:.4f} x=({t:.4f},{x1:.4f})", call)


def scan_passes(rng):
    """nu in (-0.4, 2); spacelike x with log-uniform |x| in [0.3, 10]."""
    while True:
        nus = rng.uniform(-0.4, 2.0, SCAN_PASS)
        rs = np.exp(rng.uniform(math.log(0.3), math.log(10.0), SCAN_PASS))
        etas = rng.uniform(-1.0, 1.0, SCAN_PASS)
        signs = rng.choice((-1.0, 1.0), SCAN_PASS)
        yield [_scan_request(float(nu), float(r * math.sinh(eta)),
                             float(s * r * math.cosh(eta)))
               for nu, r, eta, s in zip(nus, rs, etas, signs)]


def scan_warm_up():
    h = correlators.Power(0.5)
    correlators.gff2pt(h, h, MinkVector((0.0, 2.0)))


# ---------------------------------------------------------------------------

def _no_reset():
    pass


def _clear_sympy_cache():
    import sympy
    sympy.core.cache.clear_cache()


@dataclass(frozen=True)
class Workload:
    name: str
    passes: object     # rng -> iterator of request lists
    warm_up: object    # fixed, unseeded call that touches the same code
    trace_requests: int  # size of the fixed request set of a traced run
    modes: object = None  # GeneratorsWorkload; a traced run sets base_wrapper
    # called before every timed run of a request, outside the timing, so a
    # repeated request does not find its own results in a cache
    reset: object = _no_reset


def make(name):
    if name == "locality":
        return Workload(name, locality_passes, locality_warm_up,
                        len(LOCALITY_DESIGN))
    if name == "generators":
        gw = GeneratorsWorkload()
        return Workload(name, gw.passes, gw.warm_up,
                        len(GENERATOR_PAIRS) // 2, gw, _clear_sympy_cache)
    if name == "tensor":
        # two passes: each check runs once untraced-first, once traced-first
        return Workload(name, tensor_passes, tensor_warm_up,
                        2 * len(TENSOR_CHECKS))
    if name == "scan":
        return Workload(name, scan_passes, scan_warm_up, 8 * SCAN_PASS)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("locality", "generators", "tensor", "scan")
