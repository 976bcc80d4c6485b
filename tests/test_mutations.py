"""Mutation table: planted defects that the verify suites must catch.

Each row plants one defect in a public function (monkeypatched, where the
row's module binds it, to return its value times 1.01), runs only the suite
that holds the row's records, and asserts that each of them fails.  A defect
under which every record passes marks a number the acceptance gate does not
check (mutation analysis: DeMillo, Lipton & Sayward, Computer 11, 1978).

The last test holds the estimate of the randomized quasi-Monte Carlo
record against its reference over several seeds.
"""

import dataclasses

import numpy as np
import pytest

from gffads import adsboundary, cli, correlators, fock, quadrature, stress


def scaled(fn, factor):
    """fn with its Correlator value times factor and its estimate kept."""
    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dataclasses.replace(out, value=factor * out.value)
    return planted


def scaled_array(fn, factor):
    """fn with its value, a number or an array, times factor."""
    def planted(*args, **kwargs):
        return factor * fn(*args, **kwargs)
    return planted


def scaled_mode(fn, factor):
    """fn with the samples of the mode it returns times factor."""
    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return fock.ModeFunction(out.grid, samples=factor * out.samples)
    return planted


def scaled_values(fn, factor):
    """fn with the values of the report it returns times factor."""
    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return {**out, "values": [factor * v for v in out["values"]]}
    return planted


# (module, public function, planting, suite, records that must fail under
# the defect).  The bessel_ode_residual records cannot see a scale defect
# of bessel_j: the ODE is linear and homogeneous.  apply_generator must
# fail a closure record too: the grid commutators go through it.  Only the
# closed side of the commutator record is scaled: commutator_kg_eps goes
# through wightman_kg.  Likewise only the pairing sum of the npoint record:
# fock.npoint calls the smeared2pt that fock binds.  The bessel_j that
# adsboundary binds reaches the mode sums of ccr_check and the kernel of
# mass_change_kernel_check; the Bessel weights of correlators bind their own.
ROWS = [
    (stress, "set_matrix_element", scaled, "set", ["set.matrix_element_qmc"]),
    (correlators, "gff2pt", scaled, "correlators",
     ["correlators.power_weight_closed_form"]),
    (cli, "bessel_j", scaled_array, "specfun",
     ["specfun.hankel_self_reciprocal_nu0.0"]),
    (quadrature, "hankel_scaled", scaled_array, "locality",
     ["locality.bonus_locality_interior_oracle"]),
    (adsboundary, "ads2pt", scaled, "holography",
     [f"holography.ads2pt_closed_form_nu{nu}" for nu in (0.0, 0.5, 1.3)]),
    (fock, "apply_generator", scaled_mode, "fock",
     ["fock.special_conformal_field_law", "fock.algebra_closure_mode0_D_K1",
      "fock.algebra_closure_mode1_M01_K0"]),
    (stress, "vacuum_fluctuation_divergence", scaled_values, "set",
     ["set.vacuum_fluctuation_oracle_sigma0.4",
      "set.vacuum_fluctuation_oracle_sigma0.2"]),
    (correlators, "commutator_kg", scaled, "correlators",
     ["correlators.commutator_eps_limit"]),
    (correlators, "kallen_lehmann_2pt", scaled, "correlators",
     ["correlators.kallen_lehmann_finite_support"]),
    (adsboundary, "holographic_lift", scaled_mode, "holography",
     ["holography.lift_inner_product"]),
    (correlators, "smeared2pt", scaled, "fock",
     ["fock.npoint_truncated_vanishes"]),
    (adsboundary, "gff_commutator", scaled, "locality",
     [f"locality.bulk_commutator_closed_form_nu{nu}_{region}"
      for nu in (0.5, 1.3) for region in ("cone", "beyond")]),
    (adsboundary, "bessel_j", scaled_array, "holography",
     ["holography.ccr_product_formula", "holography.mass_change_kernel"]),
]
# a row's id is its function's name, qualified by its module where an
# earlier row plants the same name
IDS = []
for module, name, *_ in ROWS:
    IDS.append(f"{module.__name__.rpartition('.')[2]}.{name}"
               if name in IDS else name)


@pytest.mark.parametrize("module,name,plant,suite,records", ROWS, ids=IDS)
def test_defect_fails_its_record(monkeypatch, module, name, plant, suite,
                                 records):
    monkeypatch.setattr(module, name, plant(getattr(module, name), 1.01))
    status = {r["name"]: r["status"]
              for r in cli.run_verify(suite, cli.load_config(None))}
    assert [status[rec] for rec in records] == ["fail"] * len(records)


def test_qmc_estimate_covers_its_error():
    h, f1, f2, f = cli._default_set_args()
    ref = stress.set_matrix_element(f, h, f1, h, f2, 0, 0, n_nodes=120).value
    for seed in range(1, 6):
        est, se = cli._matrix_element_qmc(f1, f2, f,
                                          np.random.default_rng(seed))
        # the record's estimate is 5 standard errors
        assert abs(est - ref) <= 5.0 * se, seed
