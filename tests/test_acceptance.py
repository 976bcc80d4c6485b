"""End-to-end acceptance gate: eleven numbered criteria, one line each.

The verify suites in gffads.cli are the one implementation of the checks.
`verify all` runs once for the file, and each criterion asserts the records
whose names match its CRITERIA patterns, with the status `gffads verify`
writes (a non-finite number fails).  Every record belongs to exactly one
criterion.  Criterion 8 adds a seeded Monte Carlo oracle computed here.
Each test prints one PASS/FAIL line, visible even under output capture, and
then asserts, so the summary and the pytest verdict always agree.
"""

import json
from fnmatch import fnmatch

import numpy as np
import pytest
from scipy.stats import truncnorm

from gffads import cli
from gffads.correlators import norm_const
from gffads.stress import set_matrix_element

# number: (description, fnmatch patterns of its record names)
CRITERIA = {
    1: ("Bessel ODE residual 1e-6 on [0.5, 40], Hankel self-reciprocity 1e-8, "
        "Gamma reflection, even Bessel series", ["specfun.*"]),
    2: ("2pt log-log slope within 1% of -1.5, scaling covariance, Wightman "
        "closed form = momentum route", ["correlators.power_weight_*",
                                        "correlators.scaling_covariance",
                                        "correlators.wightman_*"]),
    3: ("scaled bulk 2pt reaches the boundary field within 1% at nu in "
        "{0, 0.5}; bulk 2pt dilation invariant",
        ["holography.boundary_limit_*", "holography.ads2pt_*"]),
    4: ("triple-Bessel integral vanishes at (0.3, 1, 1.4) and matches the "
        "interior closed form to 1e-4", ["locality.bonus_locality_*"]),
    5: ("bulk commutator <= 1e-5 at three bulk-spacelike points; boundary "
        "commutator zero at spacelike dx",
        ["locality.ads_commutator_*", "correlators.spacelike_*"]),
    6: ("equal-time commutator = product formula to 1e-3, zero for disjoint "
        "depth supports", ["holography.ccr_*"]),
    7: ("15 generator commutators on two modes match the symbolic oracle to "
        "1e-4; special conformal field law",
        ["fock.algebra_closure_*", "fock.special_conformal_*"]),
    8: ("kernel conservation 1e-12, conservation 1e-8, momentum density 1%, "
        "nonzero trace, locality, Monte Carlo 1e-3",
        ["set.kernel_*", "set.hermiticity_*", "set.conservation_*",
         "set.trace_*", "set.momentum_density_*", "locality.set_*"]),
    9: ("depth-integrated Bessel weight -> mass delta, bulk matrix element "
        "-> sharp one within 1%, mass-change kernel",
        ["set.z_weight_*", "set.ads_reduction_*", "holography.mass_change_*"]),
    10: ("truncated 4-point function vanishes to 1e-12, odd n exactly zero",
         ["fock.npoint_*"]),
    11: ("vacuum fluctuation grows along the sigma halvings, exponent 1 +- "
         "0.3; smooth-weight control flat", ["set.vacuum_fluctuation_*"]),
}


@pytest.fixture(scope="module")
def claimed():
    """Statuses of one `verify all` run's records, by criterion and name."""
    cfg = cli.load_config(None)
    text, _ = cli._emit(cli.run_verify("all", cfg), cfg)
    out = {num: {} for num in CRITERIA}
    for r in json.loads(text)["records"]:
        nums = [num for num, (_, patterns) in CRITERIA.items()
                if any(fnmatch(r["name"], p) for p in patterns)]
        assert len(nums) == 1, f"{r['name']} claimed by criteria {nums}"
        out[nums[0]][r["name"]] = r["status"]
    return out


@pytest.fixture
def criterion(claimed, capsys):
    def _report(num, oracle=True):
        desc, patterns = CRITERIA[num]
        mine = claimed[num]
        unmatched = [p for p in patterns
                     if not any(fnmatch(n, p) for n in mine)]
        failed = sorted(n for n, s in mine.items() if s != "pass")
        ok = oracle and not unmatched and not failed
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {desc}")
        assert ok, (f"criterion {num} failed: records {failed}, patterns "
                    f"without a record {unmatched}, test-side oracle {oracle}")
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


def _mc_matrix_element(f1, f2, f, n_chunks=12, chunk=1_000_000, seed=12345):
    """Importance-sampled Monte Carlo of the default matrix element."""
    kmax = 25.0
    means, widths = (2.5, 1.5, 1.4), (2.0, 2.0, 1.2)
    rng = np.random.default_rng(seed)

    def draw(n, mean, width):
        a, b = (0.0 - mean) / width, (kmax - mean) / width
        dist = truncnorm(a, b, loc=mean, scale=width)
        x = dist.rvs(size=n, random_state=rng)
        return x, dist.pdf(x)

    total, n_tot = 0.0 + 0.0j, 0
    for _ in range(n_chunks):
        k1p, p1 = draw(chunk, means[0], widths[0])
        k1m, p2 = draw(chunk, means[1], widths[1])
        k2p, p3 = draw(chunk, means[2], widths[2])
        k2m = k1p * k1m / k2p
        k1_0, k1_1 = 0.5 * (k1p + k1m), 0.5 * (k1p - k1m)
        k2_0, k2_1 = 0.5 * (k2p + k2m), 0.5 * (k2p - k2m)
        q1 = (k1_0, -k1_1)
        q2 = (-k2_0, k2_1)
        dot = q1[0] * q2[0] - q1[1] * q2[1]
        q1sq = q1[0] ** 2 - q1[1] ** 2
        q2sq = q2[0] ** 2 - q2[1] ** 2
        kern = (-q1[0] * q2[0] + 0.5 * (dot + q2sq)) + \
            (-q2[0] * q1[0] + 0.5 * (dot + q1sq))
        vals = f1.fourier(-k1_0, -k1_1) * f2.fourier(k2_0, k2_1) * \
            f.fourier(k1_0 - k2_0, k1_1 - k2_1)
        w = norm_const(2) ** 2 * 0.25 * np.sqrt(k1p * k1m) * kern * vals \
            / (k2p * p1 * p2 * p3)
        total += np.sum(w)
        n_tot += chunk
    return total / n_tot


def test_criterion_08_stress_tensor(criterion):
    h, f1, f2, f = cli._default_set_args()
    sharp = set_matrix_element(f, h, f1, h, f2, 0, 0, n_nodes=120).value
    mc = _mc_matrix_element(f1, f2, f)
    criterion(8, bool(abs(mc - sharp) <= 1e-3 * abs(sharp)))


def test_criterion_09_depth_integral_reduction(criterion):
    criterion(9)


def test_criterion_10_gaussian_factorization(criterion):
    criterion(10)


def test_criterion_11_divergence_diagnostics(criterion):
    criterion(11)
