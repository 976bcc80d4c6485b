import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gffads import cli
from gffads.correlators import Correlator
from gffads.errors import BudgetExceededError, DomainError, ResolutionError
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


def nan_estimate(p):
    """A quantity whose value carries a NaN estimate."""
    return Correlator(p.read("x", 1.0), math.nan)


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

    def test_unestimated_value_writes_null(self, capsys):
        # gamma states no estimate: null, not a made-up 0.0
        rc, out = run(capsys, ["compute", "gamma"])
        assert rc == 0
        rec = strict_json(out)["records"][0]
        assert rec["error_estimate"] is None and rec["status"] == "info"

    def test_nan_estimate_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.QUANTITIES, "gamma", nan_estimate)
        rc, out = run(capsys, ["compute", "gamma"])
        assert rc == 1
        doc = strict_json(out)
        assert doc["status"] == "fail"
        assert doc["records"][0]["error_estimate"] is None

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

    @pytest.mark.parametrize("row", ["1 nan", "nan 1", "1 inf", "-inf 1"])
    def test_weight_table_non_finite_entry(self, capsys, tmp_path, row):
        # malformed input, not a quadrature that burns its budget on NaN
        path = tmp_path / "weights.txt"
        path.write_text(f"0 0\n{row}\n")
        rc = cli.main(["compute", "gff2pt", "--param", f"hfile={path}"])
        assert rc == 2
        assert "entries must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity,param", [
        ("gff2pt", "nu=inf"), ("gff2pt", "nu=nan"),
        ("setMatrixElement", "hnu=nan")])
    def test_power_order_non_finite(self, capsys, quantity, param):
        # malformed input, rejected before a quadrature can burn its budget
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["compute", quantity, "--param", param])
        assert rc == 2
        assert "finite nu" in capsys.readouterr().err
        assert not caught

    def test_weight_table_without_rows(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("# m2 h\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["compute", "gff2pt", "--param", f"hfile={path}"])
        assert rc == 2
        assert "weight table has no rows" in capsys.readouterr().err
        assert not caught

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
        fields = lines[1].split(",")
        u, vre, vim = (float(t) for t in fields[:3])
        assert u == pytest.approx(0.5)
        assert vre == pytest.approx(float(bessel_j(0.5, 0.5)), rel=1e-12)
        # bessel_j states no estimate: an empty cell, not 0.0
        assert all(line.split(",")[3] == "" for line in lines[1:])

    def test_nan_estimate_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.QUANTITIES, "gamma", nan_estimate)
        rc, out = run(capsys, ["scan", "gamma", "--axis", "u:0:1:2"])
        assert rc == 1
        lines = out.strip().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["nan", "nan"]

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
        # the exit code and strict JSON of one suite run; the acceptance
        # gate asserts every record of `verify all`
        rc, out = run(capsys, ["verify", "specfun"])
        assert rc == 0
        assert strict_json(out)["status"] == "pass"

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
        assert capsys.readouterr().err.startswith("error: verify nope: ")

    def test_records_carry_the_written_status(self, monkeypatch):
        # the status a record is made with is the one verify writes: an
        # infinite estimate fails a comparison its value passes, and a NaN
        # value fails a flag whose condition holds
        def suite(cfg, rng):
            yield 1, cli._check("fake.inf_estimate", 1.0, 1.0, 1e-8,
                                error=math.inf)
            yield 1, cli._flag("fake.nan_flag", True, math.nan)
            yield 2, cli._check("fake.finite", 1.0, 1.0, 1e-8)
        monkeypatch.setitem(cli.SUITES, "fake", suite)
        cfg = {"seed": 0, "format": "json", "timings": False}
        recs = list(cli.run_verify("fake", cfg))
        made = {r["name"]: (r["status"], r["criterion"]) for r in recs}
        assert made == {"fake.inf_estimate": ("fail", 1),
                        "fake.nan_flag": ("fail", 1),
                        "fake.finite": ("pass", 2)}
        text, ok = cli._emit(recs, cfg)
        written = {r["name"]: (r["status"], r["criterion"])
                   for r in strict_json(text)["records"]}
        assert written == made and not ok

    def test_records_stream_as_their_suite_yields_them(self, monkeypatch):
        # a record is handed out before its suite goes on, so a consumer
        # that stops early runs none of the later checks
        def suite(cfg, rng):
            yield 1, cli._flag("fake.first", True)
            raise RuntimeError("a later check")
        monkeypatch.setitem(cli.SUITES, "fake", suite)
        first = next(cli.run_verify("fake", {"seed": 0}))
        assert (first["name"], first["status"]) == ("fake.first", "pass")


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (BudgetExceededError("budget"), 3),
        (ResolutionError("resolution"), 3),
        (OverflowError("overflow"), 3),
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
        assert out == "" and err.startswith("error: compute gamma: ")

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
        assert out == "" and err.startswith(f"error: compute {name}: ")

    @pytest.mark.parametrize("params, code", [
        (["k1=nan,0.4"], 2), (["k2=1.1,nan"], 2), (["k1=inf,0.4"], 2),
        (["improvement=nan"], 2), (["improvement=inf"], 2),
        (["k1=1e200,0.4", "k2=1e200,0.1"], 3)])
    def test_set_kernel_non_finite(self, capsys, params, code):
        # a non-finite input is a domain error and a finite one whose
        # kernel overflows exit 3, never a null value with exit 1
        argv = ["compute", "setKernel"]
        for item in params:
            argv += ["--param", item]
        assert cli.main(argv) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: compute setKernel: ")

    def test_set_kernel_nan_in_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"params": {"k1": [NaN, 0.4]}}')
        assert cli.main(["compute", "setKernel", "--config",
                         str(cfgfile)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "forward cone" in err


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

    @staticmethod
    def slow_then_fast(cfg, rng):
        """A suite whose first check takes 0.05 s and whose second none."""
        time.sleep(0.05)
        yield 2, cli._flag("fake.slow", True)
        yield 1, cli._flag("fake.fast", True)

    def test_verify_timings_per_record(self, monkeypatch):
        # each record carries the time its suite spent making it, not an
        # even share of its suite's wall time
        monkeypatch.setitem(cli.SUITES, "fake", self.slow_then_fast)
        recs = {r["name"]: r for r in cli.run_verify("fake", {"seed": 0})}
        assert recs["fake.slow"]["runtime"] >= 0.05
        assert recs["fake.fast"]["runtime"] < 0.01

    def test_consumer_time_is_no_record_time(self, monkeypatch):
        # the time a consumer takes between records is booked to none
        monkeypatch.setitem(cli.SUITES, "fake", self.slow_then_fast)
        runtime = {}
        for r in cli.run_verify("fake", {"seed": 0}):
            runtime[r["name"]] = r["runtime"]
            time.sleep(0.05)
        assert runtime["fake.fast"] < 0.01

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

    @pytest.mark.parametrize("doc, message", [
        ({"timings": "yes"}, "timings must be true or false, got 'yes'"),
        ({"timings": 2}, "timings must be true or false, got 2"),
        ({"seed": True}, "seed must be an integer, got True"),
    ])
    def test_config_value_of_wrong_json_type(self, capsys, tmp_path, doc,
                                             message):
        # JSON true is not the integer 1, nor 2 a boolean
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(doc))
        assert cli.main(["verify", "specfun", "--config", str(cfgfile),
                         "--format", "csv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: verify specfun: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "specfun"], ["compute", "gamma"],
        ["scan", "gamma", "--axis", "x:1:2:2"]])
    def test_negative_seed_is_config_error(self, capsys, tmp_path, argv):
        # numpy's generator takes no negative seed: exit 2 for every
        # subcommand, from the flag or from the config file
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"seed": -5}))
        for given in (["--seed", "-1"], ["--config", str(cfgfile)]):
            assert cli.main(argv + given) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")
            assert "seed must be non-negative" in err

    def test_negative_seed_prints_no_traceback(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"seed": -5}))
        env = {**os.environ,
               "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        for given in (["--seed", "-1"], ["--config", str(cfgfile)]):
            run = subprocess.run([sys.executable, "-m", "gffads.cli",
                                  "verify", "specfun", *given],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 2 and run.stdout == ""
            assert run.stderr.startswith("error: ")
            assert "Traceback" not in run.stderr


# parameters each quantity reads, for the fuzz below; "junk" is read by none
FUZZ_KEYS = {name: sorted({item.partition("=")[0] for item in items}
                          | {"junk"})
             for name, items in NON_DEFAULT.items()}
FUZZ_KEYS["gff2pt"] += ["t", "x"]
# values as --param text: bounded numbers (the grid order n of
# setMatrixElement is cubed), non-finite and extreme ones, malformed text
FUZZ_VALUES = st.one_of(
    st.floats(-30.0, 30.0).map(repr), st.integers(-3, 40).map(str),
    st.sampled_from(["0", "-0.0", "1e300", "-1e300", "1e-300", "nan", "inf",
                     "-inf", "1e999", "", "abc", "1,2", "1,nan", "--", "1=2",
                     " "]))


@st.composite
def compute_argv(draw):
    """argv of one `gffads compute` run with random --param items."""
    name = draw(st.sampled_from(sorted(cli.QUANTITIES)))
    argv = ["compute", name]
    for _ in range(draw(st.integers(0, 4))):
        item = draw(st.one_of(
            st.tuples(st.sampled_from(FUZZ_KEYS[name]), FUZZ_VALUES).map(
                "=".join),
            st.sampled_from(["", "=", "nu", "=1"])))
        argv += ["--param", item]
    return argv


class TestFuzz:
    @staticmethod
    def check_run(argv):
        """One compute run: exit 0-3, strict JSON on stdout for 0 and 1, a
        one-line error on stderr and nothing on stdout for 2 and 3."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2, 3), argv
        if rc in (0, 1):
            doc = strict_json(out)
            assert doc["status"] == ("pass" if rc == 0 else "fail"), argv
            assert err == "", argv
        else:
            assert out == "" and err.startswith("error: compute "), argv
            assert err.count("\n") == 1, argv
        return rc

    # the numbers themselves may overflow on the way to exit 3, and numpy
    # warns there (as test_overflow_exits_three allows); a command-line run
    # prints such a warning, it does not stop on it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(argv=compute_argv())
    def test_every_quantity_exits_cleanly(self, argv):
        self.check_run(argv)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("name, key", [
        ("bonusLocality", "a"), ("bonusLocality", "b"), ("bonusLocality", "c"),
        ("ads2pt", "z"), ("ads2pt", "zp"), ("adsCommutator", "z"),
        ("adsCommutator", "zp"), ("chordalDistance", "z"),
        ("chordalDistance", "zp"), ("boundaryLimitCheck", "z"),
        ("wightman", "m"), ("zIntegralWeight", "Z"),
        ("zIntegralWeight", "m1sq"), ("zIntegralWeight", "m2sq")])
    def test_non_finite_depth_or_scale_is_a_domain_error(self, name, key,
                                                         value):
        assert self.check_run(["compute", name, "--param",
                               f"{key}={value}"]) == 2

    def test_set_matrix_element_grid_order_is_bounded(self, monkeypatch):
        # one past the bound is refused before set_matrix_element is
        # reached, so nothing of its n^2 slices is allocated
        orders = []

        def fake(*args, n_nodes, **kwargs):
            orders.append(n_nodes)
            return 0.0

        monkeypatch.setattr(cli.stress, "set_matrix_element", fake)
        bound = cli.MAX_SET_NODES
        for n, code in ((bound + 1, 2), (bound, 0)):
            assert self.check_run(["compute", "setMatrixElement", "--param",
                                   f"n={n}"]) == code
        assert orders == [bound]

    @pytest.mark.parametrize("u, code", [
        ("0", None), ("inf", 1), ("nan", 2), ("-1", 2), ("1e300", 0)])
    @pytest.mark.parametrize("nu", ["0", "0.5", "-0.5"])
    def test_besselj_routes_at_their_edges(self, nu, u, code):
        # J_(-1/2)(0) = +inf fails its record as null; J_0(0) = 1 and
        # J_(1/2)(0) = 0 pass; u = inf gives the limit 0 but is itself
        # written as null
        if code is None:
            code = 1 if nu == "-0.5" else 0
        assert self.check_run(["compute", "besselj", "--param", f"nu={nu}",
                               "--param", f"u={u}"]) == code
