"""Mutation table: planted defects that the verify suites must catch.

Each row plants one defect in a public function (monkeypatched to return
its value times 1.01), runs only the suite that holds the row's record, and
asserts that the record fails.  A defect under which every record passes
marks a number the acceptance gate does not check (mutation analysis:
DeMillo, Lipton & Sayward, Computer 11, 1978).

The last test holds the estimate of the randomized quasi-Monte Carlo
record against its reference over several seeds.
"""

import dataclasses

import numpy as np
import pytest

from gffads import cli, correlators, stress

# (module, public function, suite, record that must fail under the defect)
ROWS = [
    (stress, "set_matrix_element", "set", "set.matrix_element_qmc"),
    (correlators, "gff2pt", "correlators",
     "correlators.power_weight_closed_form"),
]


def scaled(fn, factor):
    """fn with its Correlator value times factor and its estimate kept."""
    def planted(*args, **kwargs):
        out = fn(*args, **kwargs)
        return dataclasses.replace(out, value=factor * out.value)
    return planted


@pytest.mark.parametrize("module,name,suite,record", ROWS,
                         ids=[row[1] for row in ROWS])
def test_defect_fails_its_record(monkeypatch, module, name, suite, record):
    monkeypatch.setattr(module, name, scaled(getattr(module, name), 1.01))
    passed = {r["name"]: r["passed"]
              for r in cli.run_verify(suite, cli.load_config(None))}
    assert passed[record] is False


def test_qmc_estimate_covers_its_error():
    h, f1, f2, f = cli._default_set_args()
    ref = stress.set_matrix_element(f, h, f1, h, f2, 0, 0, n_nodes=120).value
    for seed in range(1, 6):
        est, se = cli._matrix_element_qmc(f1, f2, f,
                                          np.random.default_rng(seed))
        # the record's estimate is 5 standard errors
        assert abs(est - ref) <= 5.0 * se, seed
