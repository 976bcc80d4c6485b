"""End-to-end acceptance gate: eleven numbered criteria, one line each.

The verify suites in gffads.cli are the one implementation of the checks,
and each suite files every record under the criterion it serves: the
`criterion` that `gffads verify` writes with the record.  `verify all` runs
once for the file, and each criterion asserts its records, with the status
they are written with (a non-finite number fails).  Every record names a
criterion of CRITERIA, every criterion owns a record and a row of the
mutation table, and no test computes a check of its own.  Each test prints
one PASS/FAIL line, visible even under output capture, and then asserts, so
the summary and the pytest verdict always agree.  The last test recomputes
each status from the numbers its record writes, under the one verdict rule.
"""

import json

import pytest

from gffads import cli
from test_mutations import ROWS

CRITERIA = {
    1: "Bessel ODE residual 1e-6 on [0.5, 40], Hankel self-reciprocity 1e-8, "
       "Gamma reflection, even Bessel series",
    2: "2pt log-log slope within 1% of -1.5, scaling covariance, Wightman "
       "closed form = momentum route, Kallen-Lehmann measure on a finite "
       "support to 1e-8",
    3: "scaled bulk 2pt reaches the boundary field within 1% at nu in "
       "{0, 0.5}; bulk 2pt dilation invariant and the AdS_3 propagator "
       "to 1e-9; holographic lifts reproduce the smeared bulk 2pt to 1e-8",
    4: "triple-Bessel integral vanishes at (0.3, 1, 1.4) and matches the "
       "interior closed form to 1e-4",
    5: "bulk commutator <= 1e-5 at three bulk-spacelike points and = the "
       "AdS_3 closed form to 1e-9 inside the cone and beyond u = -2; "
       "boundary commutator zero at spacelike dx; its constant = the "
       "eps -> 0 limit of the Wightman difference to 1e-7",
    6: "equal-time commutator = product formula to 1e-3, zero for disjoint "
       "depth supports",
    7: "15 generator commutators on two modes match the symbolic oracle to "
       "1e-4; special conformal field law",
    8: "kernel conservation 1e-12, conservation 1e-8, momentum density 1%, "
       "Lorentz density 2%, nonzero trace, locality, scrambled-Sobol matrix "
       "element 1e-3",
    9: "depth-integrated Bessel weight -> mass delta, bulk matrix element "
       "-> sharp one within 1%, mass-change kernel",
    10: "truncated 4-point function vanishes to 1e-12, odd n exactly zero",
    11: "vacuum fluctuation grows along the sigma halvings, exponent 1 +- "
        "0.3; narrowest width resolved to 1e-3 on a finer grid; the kernel "
        "equals its per-point sum to 1e-12",
}


@pytest.fixture(scope="module")
def written():
    """The records one `verify all` run writes, as parsed JSON."""
    cfg = cli.load_config(None)
    text, _ = cli._emit(cli.run_verify("all", cfg), cfg)
    return json.loads(text)["records"]


@pytest.fixture(scope="module")
def claimed(written):
    """Statuses of the records, by criterion and name."""
    out = {num: {} for num in CRITERIA}
    for r in written:
        assert r["criterion"] in CRITERIA, \
            f"{r['name']} names criterion {r['criterion']}"
        out[r["criterion"]][r["name"]] = r["status"]
    return out


@pytest.fixture
def criterion(claimed, capsys):
    def _report(num):
        mine = claimed[num]
        failed = sorted(n for n, s in mine.items() if s != "pass")
        ok = bool(mine) and not failed
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: "
                  f"{CRITERIA[num]}")
        assert ok, (f"criterion {num} failed: records {failed}" if mine
                    else f"criterion {num} owns no record")
    return _report


def test_criterion_01_bessel_ode_and_hankel(criterion):
    criterion(1)


def test_criterion_02_power_law_slope(criterion):
    criterion(2)


def test_criterion_03_boundary_limit(criterion):
    criterion(3)


def test_criterion_04_bonus_locality(criterion):
    criterion(4)


def test_criterion_05_ads_locality(criterion):
    criterion(5)


def test_criterion_06_smeared_ccr(criterion):
    criterion(6)


def test_criterion_07_generator_algebra(criterion):
    criterion(7)


def test_criterion_08_stress_tensor(criterion):
    criterion(8)


def test_criterion_09_depth_integral_reduction(criterion):
    criterion(9)


def test_criterion_10_gaussian_factorization(criterion):
    criterion(10)


def test_criterion_11_divergence_diagnostics(criterion):
    criterion(11)


def test_every_criterion_owns_a_mutation_row(written):
    # a planted defect that fails one of a criterion's records shows that
    # the criterion's check can fail
    criterion = {r["name"]: r["criterion"] for r in written}
    owned = {criterion[name] for *_, records in ROWS for name in records}
    assert sorted(set(CRITERIA) - owned) == [], "criteria with no row"


def test_every_status_follows_the_verdict_rule(written):
    # the status a record writes is the one rule recomputed from the numbers
    # it writes (JSON floats read back exactly): with a reference r, the
    # value v passes iff |v - r| <= tolerance * |r| (|r| read as 1 where
    # r = 0) and, where the record writes an estimate, |v - r| <= estimate.
    # A record without a reference is a flag: its status is its condition,
    # it states no estimate and a tolerance of 0
    for r in written:
        if "reference" not in r:
            assert r["error_estimate"] is None and r["tolerance"] == 0.0, \
                r["name"]
            continue
        v = complex(r["value"]["re"], r["value"]["im"])
        ref = complex(r["reference"]["re"], r["reference"]["im"])
        gap, est = abs(v - ref), r["error_estimate"]
        rule = (gap <= r["tolerance"] * (abs(ref) or 1.0)
                and (est is None or gap <= est))
        assert r["status"] == ("pass" if rule else "fail"), r["name"]
