import json
import math
import time

import numpy as np
import pytest

from gffads import cli
from gffads.errors import (BudgetExceededError, DivergenceError, DomainError,
                           RangeError)
from gffads.specfun import bessel_j


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def strict_json(out):
    """out parsed as JSON, refusing the non-standard NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(out, parse_constant=reject)


def read_x(p):
    """A quantity that returns its parameter x as read."""
    return p.read("x", 1.0)


def as_param(key, value):
    """--param argument that reads back as value (str of a float is repr)."""
    if isinstance(value, list):
        value = ",".join(repr(v) for v in value)
    return f"{key}={value}"


# non-default values of every parameter each quantity reads
NON_DEFAULT = {
    "gamma": ["x=3.5"],
    "besselj": ["nu=1.3", "u=2.5"],
    "besselk": ["nu=1.3", "u=2.5"],
    "wightman": ["m=1.4", "t=0.3", "x=2.5", "epsilon=0.01"],
    "gff2pt": ["nu=1.3", "s=3.0"],
    "ads2pt": ["nu=1.3", "z=0.6", "zp=0.9", "t=0.2", "x=2.5"],
    "bonusLocality": ["d=3", "nu=1.3", "a=0.2", "b=1.1", "c=1.5"],
    "adsCommutator": ["nu=1.3", "z=0.6", "zp=1.5", "t=0.7", "x=0.1"],
    "chordalDistance": ["z=0.6", "zp=0.9", "t=0.2", "x=2.5"],
    "boundaryLimitConst": ["nu=1.3"],
    "boundaryLimitCheck": ["nu=1.3", "z=0.03", "t=0.1", "x=3.5"],
    "zIntegralWeight": ["nu=1.3", "Z=30.0", "m1sq=1.5", "m2sq=0.8"],
    "setKernel": ["k1=1.5,0.2", "k2=0.9,0.3", "eps1=-1", "eps2=1", "mu=1",
                  "nu_idx=1", "improvement=0.3"],
    "setMatrixElement": ["hnu=1.3", "mu=1", "nu_idx=1", "ordering=left",
                         "n=40"],
}


class TestCompute:
    def test_gamma(self, capsys):
        rc, out = run(capsys, ["compute", "gamma", "--param", "x=5"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["records"][0]["value"]["re"] == pytest.approx(24.0)

    def test_unknown_quantity(self, capsys):
        assert cli.main(["compute", "nope"]) == 2

    def test_bad_param(self, capsys):
        assert cli.main(["compute", "gamma", "--param", "x"]) == 2

    @pytest.mark.parametrize("argv", [
        ["compute", "setkernel", "--param", "k1=1.3"],
        ["compute", "setkernel", "--param", "k1=1.3,abc"],
        ["verify", "locality", "--param", "a=abc"],
        ["compute", "besselj", "--param", "nu=nan"],
        ["compute", "setkernel", "--param", "mu=1.7"],
        ["compute", "setmatrixelement", "--param", "n=40.5"],
        ["compute", "bonusLocality", "--param", "d=2.5"],
        ["compute", "setkernel", "--param", "eps1=inf"],
        ["compute", "setMatrixElement", "--param", "mu=2"],
        ["compute", "setMatrixElement", "--param", "n=0"],
        ["compute", "setMatrixElement", "--param", "nu_idx=-1"],
    ])
    def test_malformed_param_value(self, capsys, argv):
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_integral_float_reads_as_integer(self, capsys):
        values = []
        for mu in ("1", "1.0"):
            rc, out = run(capsys, ["compute", "setkernel", "--param",
                                   f"mu={mu}"])
            assert rc == 0
            values.append(json.loads(out)["records"][0]["value"])
        assert values[0] == values[1]

    def test_non_finite_value_fails_as_strict_json(self, capsys,
                                                   monkeypatch):
        monkeypatch.setitem(cli.QUANTITIES, "gamma", read_x)
        rc, out = run(capsys, ["compute", "gamma", "--param", "x=nan"])
        assert rc == 1
        doc = strict_json(out)
        assert doc["status"] == "fail"
        rec = doc["records"][0]
        assert rec["status"] == "fail"
        assert rec["value"]["re"] is None and rec["inputs"]["x"] is None

    def test_besselj_at_infinity_is_zero(self, capsys):
        # the value is the limit 0; the input u = inf itself is non-finite,
        # so strict JSON writes it as null and the record fails
        rc, out = run(capsys, ["compute", "besselj", "--param", "u=inf"])
        rec = json.loads(out)["records"][0]
        assert rec["value"] == {"re": 0.0, "im": 0.0}
        assert rec["inputs"]["u"] is None
        assert rc == 1

    def test_ads_commutator_wide_ratio(self, capsys):
        # tau = 0.0279 against depths 18.9 and 14.8: a wide-ratio point deep
        # in the vanishing region
        rc, out = run(capsys, ["compute", "adsCommutator",
                               "--param", "z=18.9", "--param", "zp=14.8",
                               "--param", "t=0.0279"])
        assert rc == 0
        doc = strict_json(out)
        assert doc["status"] == "pass"
        rec = doc["records"][0]
        assert abs(complex(rec["value"]["re"], rec["value"]["im"])) <= \
            rec["error_estimate"]

    def test_weight_table_file(self, capsys, tmp_path):
        grid = np.linspace(0.0, 130.0, 40000)
        path = tmp_path / "weights.txt"
        np.savetxt(path, np.column_stack([grid, grid ** 0.25]),
                   header="m2 h")
        rc, out = run(capsys, ["compute", "gff2pt",
                               "--param", f"hfile={path}",
                               "--param", "x=2.0"])
        assert rc == 0
        rec = json.loads(out)["records"][0]
        # same weight as nu = 0.5, closed value r^-3 / 2 = 0.0625
        assert rec["value"]["re"] == pytest.approx(0.0625, rel=1e-3)

    def test_weight_table_missing_file(self, capsys):
        assert cli.main(["compute", "gff2pt",
                         "--param", "hfile=/no/such/file"]) == 2

    # lower-case names: quantities are looked up ignoring case
    @pytest.mark.parametrize("name", sorted(q.lower() for q in cli.QUANTITIES))
    def test_quantity_defaults(self, capsys, name):
        rc, out = run(capsys, ["compute", name])
        assert rc == 0
        value = json.loads(out)["records"][0]["value"]
        assert math.isfinite(value["re"]) and math.isfinite(value["im"])

    @pytest.mark.parametrize("name", sorted(cli.QUANTITIES))
    def test_record_replays(self, capsys, name):
        # a record's inputs, passed back as --param, reproduce its numbers
        argv = ["compute", name]
        for item in NON_DEFAULT[name]:
            argv += ["--param", item]
        rc, out = run(capsys, argv)
        assert rc == 0
        rec = json.loads(out)["records"][0]
        assert {item.partition("=")[0] for item in NON_DEFAULT[name]} \
            <= set(rec["inputs"])
        argv = ["compute", name]
        for key, value in rec["inputs"].items():
            argv += ["--param", as_param(key, value)]
        rc, out = run(capsys, argv)
        assert rc == 0
        again = json.loads(out)["records"][0]
        assert again["inputs"] == rec["inputs"]
        assert again["value"] == rec["value"]
        assert again["error_estimate"] == rec["error_estimate"]

    def test_determinism(self, capsys):
        argv = ["compute", "setmatrixelement", "--param", "n=48"]
        rc1, out1 = run(capsys, argv)
        rc2, out2 = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestScan:
    def test_values(self, capsys):
        rc, out = run(capsys, ["scan", "besselj",
                               "--axis", "u:0.5:2.0:4",
                               "--param", "nu=0.5"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,value_re,value_im,error_estimate"
        assert len(lines) == 5
        u, vre, vim, err = (float(t) for t in lines[1].split(","))
        assert u == pytest.approx(0.5)
        assert vre == pytest.approx(float(bessel_j(0.5, 0.5)), rel=1e-12)

    def test_empty_scan(self, capsys):
        rc, out = run(capsys, ["scan", "gamma", "--axis", "x:1:2:0"])
        assert rc == 0
        assert out.strip() == "x,value_re,value_im,error_estimate"

    def test_bad_axis(self, capsys):
        assert cli.main(["scan", "gamma", "--axis", "x:1:2"]) == 2

    def test_non_finite_row_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.QUANTITIES, "gamma", read_x)
        rc, out = run(capsys, ["scan", "gamma", "--axis", "u:0:1:3",
                               "--param", "x=nan"])
        assert rc == 1
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[1] == "nan" for line in lines[1:])

    def test_json_format_is_config_error(self, capsys, tmp_path):
        assert cli.main(["scan", "gamma", "--axis", "x:1:2:3",
                         "--format", "json"]) == 2
        assert capsys.readouterr().out == ""
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"format": "json"}))
        assert cli.main(["scan", "gamma", "--axis", "x:1:2:3",
                         "--config", str(cfgfile)]) == 2
        rc, out = run(capsys, ["scan", "gamma", "--axis", "x:1:2:3",
                               "--format", "csv"])
        assert rc == 0 and len(out.strip().splitlines()) == 4


class TestVerify:
    def test_specfun_suite_passes(self, capsys):
        rc, out = run(capsys, ["verify", "specfun"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert all(r["status"] in ("pass", "info") for r in doc["records"])

    @pytest.mark.parametrize("suite", ["correlators", "fock", "holography",
                                       "set"])
    def test_suite_passes(self, capsys, suite):
        rc, out = run(capsys, ["verify", suite])
        assert rc == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert all(r["status"] in ("pass", "info") for r in doc["records"])

    def test_guard_band_is_config_error(self, capsys):
        assert cli.main(["verify", "locality", "--param", "a=0.4"]) == 2

    def test_locality_commutators_record_nu(self, capsys):
        # their values depend on nu, so their inputs must name it
        rc, out = run(capsys, ["verify", "locality", "--param", "nu=1.3"])
        assert rc == 0
        recs = [r for r in json.loads(out)["records"]
                if r["name"].startswith("locality.ads_commutator_")]
        assert len(recs) == 3
        assert all(r["inputs"]["nu"] == 1.3 for r in recs)

    def test_tolerance_failure_exits_one(self, capsys):
        # a = 0.6 leaves the vanishing region, so the ratio bound must fail
        rc, out = run(capsys, ["verify", "locality", "--param", "a=0.6"])
        assert rc == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"

    def test_unknown_suite(self, capsys):
        assert cli.main(["verify", "nope"]) == 2


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (BudgetExceededError("budget"), 3),
        (DivergenceError("diverges"), 3),
        (RangeError("overflow"), 3),
        (DomainError("domain"), 2),
        (cli.ConfigError("config"), 2),
    ])
    def test_error_family_sets_exit_code(self, capsys, monkeypatch, error,
                                         code):
        def quantity(p):
            raise error
        monkeypatch.setitem(cli.QUANTITIES, "gamma", quantity)
        assert cli.main(["compute", "gamma"]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    # a builtin OverflowError of float arithmetic is exit 3, not a traceback;
    # numpy warns on the way, on purpose here
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, param", [
        ("chordalDistance", "z=1e308"), ("chordalDistance", "zp=1e308"),
        ("zIntegralWeight", "Z=1e308"), ("boundaryLimitCheck", "z=1e308"),
        ("adsCommutator", "z=1e308"), ("adsCommutator", "zp=1e308"),
    ])
    def test_overflow_exits_three(self, capsys, name, param):
        assert cli.main(["compute", name, "--param", param]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


class TestOutputOptions:
    def test_csv_format(self, capsys):
        rc, out = run(capsys, ["compute", "gamma", "--format", "csv",
                               "--param", "x=5"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("name,value_re,value_im,error_estimate,"
                            "reference_re,reference_im,tolerance,status")
        fields = lines[1].split(",")
        assert fields[0] == "gamma"
        assert fields[1] == f"{24.0:.16e}"

    def test_timings_only_on_request(self, capsys):
        _, plain = run(capsys, ["compute", "gamma"])
        _, timed = run(capsys, ["compute", "gamma", "--timings"])
        assert "runtime_s" not in plain
        assert "runtime_s" in timed

    def test_verify_timings_per_record(self, monkeypatch):
        # each record carries the time since the previous one, not an even
        # share of its suite's wall time
        def suite(cfg, rng):
            time.sleep(0.05)
            slow = cli._flag("fake.slow", True)
            return [slow, cli._flag("fake.fast", True)]
        monkeypatch.setitem(cli.SUITES, "fake", suite)
        slow, fast = cli.run_verify("fake", {"seed": 0})
        assert slow["runtime"] >= 0.05
        assert fast["runtime"] < 0.01

    def test_config_file_with_override(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"format": "csv", "params": {"x": 5.0}}))
        rc, out = run(capsys, ["compute", "gamma", "--config", str(cfgfile)])
        assert rc == 0
        assert out.splitlines()[1].startswith("gamma,")
        rc, out = run(capsys, ["compute", "gamma", "--config", str(cfgfile),
                               "--param", "x=1.0"])
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(1.0)

    def test_malformed_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.json"
        # not an object; a parameter outside "params"
        for text in ("[1, 2]", json.dumps({"x": 5.0})):
            cfgfile.write_text(text)
            assert cli.main(["compute", "gamma", "--config",
                             str(cfgfile)]) == 2
            assert capsys.readouterr().out == ""
