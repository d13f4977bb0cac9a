import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import circlestab

from circlestab.arithmetic import GOLDEN_MEAN, continued_fraction
from circlestab.cli import run_cli
from circlestab.errors import InsufficientDataError
from circlestab.experiments import (
    ExperimentConfig,
    HolderFit,
    ScalingRecord,
    discretization_scan,
    holder_fit,
    read_records_csv,
    resolve_alpha,
    run_dk_suite,
    stability_scan,
    write_records_csv,
)
from circlestab.fourier import FourierSeries
from circlestab.invariant import birkhoff_measure
from circlestab.maps import (
    AttractorRepeller,
    ConjugacyDiffeo,
    Rotation,
    TunedFamily,
)
from circlestab.measures import (
    AtomicMeasure,
    BVObservable,
    discrepancy,
    dk_check,
)
from circlestab.response import fd_response


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------ records

def test_record_validation():
    with pytest.raises(ValueError):
        ScalingRecord("f", 0.0, 0.1, "physical")
    with pytest.raises(ValueError):
        ScalingRecord("f", 0.1, -0.1, "physical")
    with pytest.raises(ValueError):
        ScalingRecord("f", 0.1, 0.1, "bogus")


def test_csv_round_trip_and_order():
    recs = [ScalingRecord("b", 0.1, 0.2, "physical"),
            ScalingRecord("a", 0.3, 0.4, "worst-cycle"),
            ScalingRecord("a", 0.2, 0.5, "best-cycle")]
    text = write_records_csv(recs)
    lines = text.strip().splitlines()
    assert lines[0] == "family_id,size_param,w_distance,measure_kind"
    # sorted by family then size
    assert [l.split(",")[0] for l in lines[1:]] == ["a", "a", "b"]
    back = read_records_csv(text)
    assert [(r.family_id, r.size_param, r.w_distance, r.measure_kind)
            for r in back] == [("a", 0.2, 0.5, "best-cycle"),
                               ("a", 0.3, 0.4, "worst-cycle"),
                               ("b", 0.1, 0.2, "physical")]
    with pytest.raises(ValueError):
        read_records_csv("wrong,header\n1,2\n")


CSV_HEADER = "family_id,size_param,w_distance,measure_kind\n"
NONFINITE_INPUTS = {
    "atomic nan weight": lambda: AtomicMeasure([0.1, 0.2], [math.nan, 1.0]),
    "atomic inf weight": lambda: AtomicMeasure([0.1, 0.2], [math.inf, 0.5]),
    "diffeo nan a": lambda: ConjugacyDiffeo([math.nan]),
    "diffeo inf b": lambda: ConjugacyDiffeo([0.1], [math.inf]),
    "tuned nan eps": lambda: TunedFamily(FourierSeries.cosine(), math.nan, 0),
    "tuned inf c": lambda: TunedFamily(FourierSeries.cosine(), 0, math.inf),
    "fourier nan mean": lambda: FourierSeries({0: math.nan}),
    "fourier inf mode": lambda: FourierSeries([0.0, complex(0.0, math.inf)]),
    "fourier nan mode": lambda: FourierSeries({-1: math.nan, 1: math.nan}),
    "record nan w": lambda: ScalingRecord("f", 0.1, math.nan, "physical"),
    "record inf w": lambda: ScalingRecord("f", 0.1, math.inf, "physical"),
    "record nan size": lambda: ScalingRecord("f", math.nan, 0.1, "physical"),
    "record inf size": lambda: ScalingRecord("f", math.inf, 0.1, "physical"),
    "csv nan w": lambda: read_records_csv(CSV_HEADER + "f,1,nan,physical"),
    "csv inf size": lambda: read_records_csv(CSV_HEADER + "f,inf,1,physical"),
}


@pytest.mark.parametrize("build", NONFINITE_INPUTS.values(),
                         ids=NONFINITE_INPUTS.keys())
def test_constructors_reject_nonfinite(build):
    with pytest.raises(ValueError):
        build()


# samples and sizes out of the domain: non-finite, negative or empty
LINE = [(0.1, 0.2), (0.01, 0.05), (0.001, 0.01)]
OUT_OF_DOMAIN_SAMPLES = {
    "discrepancy nan": lambda: discrepancy([0.1, math.nan]),
    "discrepancy inf": lambda: discrepancy([0.1, math.inf]),
    "dk_check nan": lambda: dk_check(BVObservable.constant(1.0),
                                     [0.1, math.nan]),
    "holder_fit nan w": lambda: holder_fit([(1, 1), (2, 2), (3, math.nan)]),
    "holder_fit inf w": lambda: holder_fit([(1, 1), (2, 2), (3, math.inf)]),
    "holder_fit nan size": lambda: holder_fit([(1, 1), (2, 2), (math.nan, 3)]),
    "holder_fit inf size": lambda: holder_fit([(1, 1), (2, 2), (math.inf, 3)]),
    "holder_fit negative w": lambda: holder_fit([(1, 1), (2, 2), (3, -1)]),
    "holder_fit bootstrap -1": lambda: holder_fit(LINE, bootstrap=-1),
    "holder_fit bootstrap 2.5": lambda: holder_fit(LINE, bootstrap=2.5),
    "holder_fit bootstrap 10.0": lambda: holder_fit(LINE, bootstrap=10.0),
    "holder_fit bootstrap True": lambda: holder_fit(LINE, bootstrap=True),
    "holder_fit bootstrap '10'": lambda: holder_fit(LINE, bootstrap="10"),
    "dk suite cases -5": lambda: run_dk_suite(cases=-5),
    "dk suite cases 0": lambda: run_dk_suite(cases=0),
    "dk suite cases True": lambda: run_dk_suite(cases=True),
    "dk suite cases 2.5": lambda: run_dk_suite(cases=2.5),
    "dk suite cases 10.0": lambda: run_dk_suite(cases=10.0),
    "dk suite cases '10'": lambda: run_dk_suite(cases="10"),
    "orbit length 2.5": lambda: Rotation(GOLDEN_MEAN).orbit(0.0, 2.5),
    "orbit length True": lambda: TunedFamily(FourierSeries.cosine(), 0.1,
                                             0.3).orbit(0.0, True),
    "orbit burn-in 2.5": lambda: Rotation(GOLDEN_MEAN).orbit(0.0, 3, 2.5),
    "birkhoff_measure n 2.5": lambda: birkhoff_measure(Rotation(GOLDEN_MEAN),
                                                       0.1, 2.5),
    "fd_response orbit_len 2.5": lambda: fd_response(
        FourierSeries.cosine(), GOLDEN_MEAN, FourierSeries.cosine(), [1e-2],
        orbit_len=2.5),
    "continued_fraction k 2.5": lambda: continued_fraction(GOLDEN_MEAN, 2.5),
    "continued_fraction k 3.0": lambda: continued_fraction(GOLDEN_MEAN, 3.0),
    "continued_fraction k True": lambda: continued_fraction(GOLDEN_MEAN, True),
}


@pytest.mark.parametrize("run", OUT_OF_DOMAIN_SAMPLES.values(),
                         ids=OUT_OF_DOMAIN_SAMPLES.keys())
def test_samples_reject_nonfinite(run):
    with pytest.raises(ValueError):
        run()


def test_csv_17_digits():
    r = ScalingRecord("f", 1 / 3, 2 / 3, "physical")
    text = write_records_csv([r])
    assert "0.33333333333333331" in text and "0.66666666666666663" in text


# ------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ladder=(5, 4, 6)).validate()  # not monotone
    with pytest.raises(ValueError):
        ExperimentConfig(family="bogus", ladder=(1, 2)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(ladder=(5, 6), depth=6).validate()  # too shallow
    with pytest.raises(ValueError):
        ExperimentConfig(ladder=(5, 6), bump_strength=1.5).validate()
    ExperimentConfig(ladder=(15, 10, 5), depth=20).validate()  # decreasing ok
    # an empty ladder still gets every other field checked
    with pytest.raises(ValueError):
        ExperimentConfig(ladder=(), bump_strength=5.0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(family="diffeo", ladder=(), h_a=(0.7,),
                         h_b=(0.4,)).validate()


def test_config_json_round_trip():
    cfg = ExperimentConfig(alpha="golden", family="rotation",
                           ladder=(100, 1000), burn_in=3)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('{"nonsense_key": 1}')


def test_resolve_alpha():
    v, label = resolve_alpha("golden")
    assert v == GOLDEN_MEAN and label == "golden"
    assert resolve_alpha(0.25)[0] == 0.25
    assert resolve_alpha("0.25")[0] == 0.25
    with pytest.raises(ValueError):
        resolve_alpha("nonsense")
    for spec in ("nan", "inf", "-inf", math.inf):
        with pytest.raises(ValueError):
            resolve_alpha(spec)


# ------------------------------------------------------------ scans

def test_stability_attractor_repeller_exact_w():
    cfg = ExperimentConfig(family="attractor_repeller",
                           ladder=tuple(range(5, 16)), depth=20)
    recs = stability_scan(cfg)
    assert not recs.failures
    prof = continued_fraction(GOLDEN_MEAN, 20)
    assert len(recs) == 22  # physical + worst-cycle per j
    for r in recs:
        q = prof.convergents[r.metadata["j"]].q
        assert abs(r.w_distance - 1 / (4 * q)) <= 1e-10
        assert r.size_param == prof.convergents[r.metadata["j"]].delta


def test_stability_snap_matches_attractor_repeller():
    lad = tuple(range(5, 16))
    ar = stability_scan(ExperimentConfig(family="attractor_repeller",
                                         ladder=lad, depth=20))
    snap = stability_scan(ExperimentConfig(family="rational_snap",
                                           ladder=lad, depth=20))
    a = {r.metadata["j"]: r.w_distance for r in ar
         if r.measure_kind == "physical"}
    s = {r.metadata["j"]: r.w_distance for r in snap}
    assert all(abs(a[j] - s[j]) <= 1e-12 for j in s)


def test_stability_empty_ladder():
    assert stability_scan(ExperimentConfig(family="rational_snap",
                                           ladder=())) == []


def test_stability_per_point_failure_in_band():
    # j = 1 has delta*2*pi*q >= 1 at full bump: invalid, scan continues
    cfg = ExperimentConfig(family="attractor_repeller", ladder=(1, 5),
                           depth=10)
    recs = stability_scan(cfg)
    assert len(recs) == 2  # j = 5 records survived
    assert len(recs.failures) == 1 and recs.failures[0][0] == 1


def test_stability_record_reproducible_from_metadata():
    cfg = ExperimentConfig(family="attractor_repeller", ladder=(7,),
                           depth=12)
    rec = stability_scan(cfg)[0]
    prof = continued_fraction(GOLDEN_MEAN, 12)
    rebuilt = AttractorRepeller(rec.metadata["j"], prof, 1.0)
    assert (rebuilt.p, rebuilt.q) == (rec.metadata["p"], rec.metadata["q"])
    assert rec.size_param == rebuilt.delta


def test_discretization_grid_one_is_dirac():
    recs = discretization_scan(ExperimentConfig(family="rotation",
                                                ladder=(1,)))
    assert len(recs) == 3
    assert all(r.w_distance == pytest.approx(0.25, abs=1e-14) for r in recs)


def test_discretization_third_n300():
    recs = discretization_scan(ExperimentConfig(family="rotation",
                                                alpha=1 / 3, ladder=(300,)))
    by_kind = {r.measure_kind: r.w_distance for r in recs}
    assert by_kind["worst-cycle"] == pytest.approx(1 / 12, abs=1e-10)
    assert by_kind["best-cycle"] == pytest.approx(1 / 12, abs=1e-10)
    assert by_kind["physical"] < by_kind["worst-cycle"]


def test_discretization_diffeo_records():
    recs = discretization_scan(ExperimentConfig(family="diffeo",
                                                ladder=(100, 1000)))
    assert len(recs) == 6 and not recs.failures
    for r in recs:
        assert r.w_distance > 0
        assert r.family_id == "diffeo"
    w100 = {r.measure_kind: r.w_distance for r in recs
            if r.metadata["N"] == 100}
    w1000 = {r.measure_kind: r.w_distance for r in recs
             if r.metadata["N"] == 1000}
    assert w1000["physical"] < w100["physical"]


# ------------------------------------------------------------ holder fit

def test_holder_fit_synthetic():
    ds = [10.0 ** -k for k in range(1, 6)]
    fit = holder_fit([(d, d ** 0.5) for d in ds])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit2 = holder_fit([(d, 3 * d) for d in ds])
    assert fit2.slope == pytest.approx(1.0, abs=1e-12)
    assert fit2.intercept == pytest.approx(math.log(3), abs=1e-12)
    assert fit2.ci[0] <= fit2.slope <= fit2.ci[1]


def test_holder_fit_order_invariant():
    rng = np.random.default_rng(4)
    pts = [(float(s), float(s ** 0.47 * math.exp(rng.normal() * 0.05)))
           for s in 10.0 ** -np.arange(1, 9)]
    f1 = holder_fit(pts)
    f2 = holder_fit(list(reversed(pts)))
    rng.shuffle(pts)
    f3 = holder_fit(pts)
    assert f1 == f2 == f3


def test_holder_fit_bootstrap_zero_gives_point_ci():
    fit = holder_fit(LINE, bootstrap=0)
    assert fit.ci == (fit.slope, fit.slope)
    assert holder_fit(LINE, bootstrap=np.int64(50)) == holder_fit(
        LINE, bootstrap=50)


def test_holder_fit_excludes_zero_w():
    ds = [10.0 ** -k for k in range(1, 6)]
    pts = [(d, d ** 0.5) for d in ds] + [(0.5, 0.0)]
    assert holder_fit(pts).slope == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(InsufficientDataError):
        holder_fit([(0.1, 0.0), (0.2, 0.1), (0.3, 0.2)])


# ------------------------------------------------------------ CLI

def test_cli_profile_alpha():
    code, out, _ = cli(["profile-alpha", "--alpha", "golden",
                        "--depth", "20"])
    assert code == 0
    doc = json.loads(out)
    assert doc["partial_quotients"][:5] == [1, 1, 1, 1, 1]
    assert doc["gamma_hat"] == pytest.approx(1.0, abs=0.05)


def test_cli_dk_check():
    code, out, _ = cli(["dk-check", "--cases", "60"])
    assert code == 0
    assert out.strip() == "violations: 0"


def test_cli_holder_fit_and_stability_round_trip(tmp_path):
    csv_path = tmp_path / "scan.csv"
    code, _, _ = cli(["stability", "--j-min", "5", "--j-max", "12",
                      "--depth", "16", "--output", str(csv_path)])
    assert code == 0
    code, out, _ = cli(["holder-fit", "--input", str(csv_path)])
    assert code == 0
    assert json.loads(out)["slope"] == pytest.approx(0.5, abs=0.05)


def test_cli_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["stability", "--j-min", "5", "--j-max", "10", "--depth", "15"]
    assert cli(argv + ["--output", str(a)])[0] == 0
    assert cli(argv + ["--output", str(b)])[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_discrepancy_enclosure(tmp_path):
    code, out, _ = cli(["discrepancy", "--ladder", "100", "1000", "10000",
                        "--mode", "enclosure"])
    assert code == 0
    doc = json.loads(out)
    assert doc["slope_lower"] == pytest.approx(doc["slope_upper"], abs=1e-12)
    assert all(p["upper"] == 2 * p["lower"] for p in doc["points"])


def test_cli_discretize(tmp_path):
    out_csv = tmp_path / "d.csv"
    code, _, _ = cli(["discretize", "--family", "rotation",
                      "--ladder", "100", "1000", "--output", str(out_csv)])
    assert code == 0
    recs = read_records_csv(out_csv.read_text())
    assert len(recs) == 6
    assert {r.measure_kind for r in recs} == {"physical", "worst-cycle",
                                              "best-cycle"}


def test_cli_exit_codes(tmp_path):
    assert cli(["stability", "--bogus"])[0] == 1       # unknown flag
    assert cli([])[0] == 1                             # missing command
    assert cli(["holder-fit", "--input", "/nonexistent.csv"])[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "nope"}')
    assert cli(["stability", "--config", str(bad)])[0] == 1
    bad.write_text('{"seed": 0}')  # scans take no seed
    code, _, err = cli(["discretize", "--config", str(bad)])
    assert code == 1 and "unknown config keys" in err
    for cases in ("-5", "0"):
        code, _, err = cli(["dk-check", "--cases", cases])
        assert code == 1 and "cases must be >= 1" in err
    assert cli(["--help"])[0] == 0


def test_dk_suite_function():
    bad, total = run_dk_suite(cases=100, seed=5)
    assert bad == 0 and total == 100


# ------------------------------------------------------------ flags

# small sizes with which each subcommand runs and exits 0 (scan.csv is
# in the fuzz directory below)
SMALL = {
    "stability": ["--j-max", "8"],
    "discretize": ["--ladder", "5", "50"],
    "discrepancy": ["--ladder", "100"],
    "dk-check": ["--cases", "5"],
    "response": ["--eps", "0.01", "--orbit-len", "1000"],
    "holder-fit": ["--input", "scan.csv"],
    "profile-alpha": ["--depth", "5"],
}
UNREAD_FLAGS = [(cmd, flag) for cmd, flags in (
    ("stability", ("--seed",)),
    ("discretize", ("--seed",)),
    ("discrepancy", ("--seed", "--json", "--config")),
    ("dk-check", ("--suite", "--output", "--json", "--config")),
    ("response", ("--seed", "--output", "--config")),
    ("profile-alpha", ("--seed", "--output", "--config")),
) for flag in flags]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[f"{c} {f}" for c, f in UNREAD_FLAGS])
def test_subcommand_rejects_flags_it_does_not_read(command, flag, tmp_path):
    value = "1" if flag == "--seed" else str(tmp_path / "unused")
    code, _, err = cli([command, *SMALL[command], flag, value])
    assert code == 1 and "unrecognized arguments" in err


BASE_CONFIG = {"family": "attractor_repeller", "ladder": [5, 6], "depth": 10}
WRONG_TYPES = {
    "ladder 5": dict(BASE_CONFIG, ladder=5),
    "depth x": dict(BASE_CONFIG, depth="x"),
    "bump_strength '1'": dict(BASE_CONFIG, bump_strength="1"),
    "h_a 0.2": dict(BASE_CONFIG, h_a=0.2),
    "orbit_len '5'": dict(BASE_CONFIG, orbit_len="5"),
    "seed 1.5": dict(BASE_CONFIG, seed=1.5),  # not a config key
    "alpha [0.5]": dict(BASE_CONFIG, alpha=[0.5]),
    "not an object": 5,
}


@pytest.mark.parametrize("doc", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_config_rejects_wrong_types(doc, tmp_path):
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_json(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code, _, err = cli(["stability", "--config", str(path)])
    assert code == 1 and err.startswith(f"config error: {exc.value}")


def test_cli_discrepancy_caps_the_ladder():
    # far beyond any allocation, so only the cap can give this exit
    code, _, err = cli(["discrepancy", "--ladder", str(10 ** 15)])
    assert code == 2 and "exceeds the cap" in err


def test_cli_response_caps_the_orbit():
    code, _, err = cli(["response", "--eps", "0.01",
                        "--orbit-len", str(10 ** 15)])
    assert code == 2 and "exceeds the cap" in err


def test_cli_response_rejects_negative_burn_in(tmp_path):
    path = tmp_path / "response.json"
    code, _, err = cli(["response", "--eps", "0.01", "--orbit-len", "1000",
                        "--burn-in", "-5", "--json", str(path)])
    assert code == 1 and "burn-in -5" in err
    assert not path.exists()


@pytest.mark.parametrize("eps", [["nan"], ["inf"], ["0.01", "nan"]])
def test_cli_response_rejects_non_finite_eps(eps, tmp_path):
    path = tmp_path / "response.json"
    code, _, err = cli(["response", "--eps", *eps, "--json", str(path)])
    assert code == 1 and "eps values must be finite" in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["profile-alpha", "--depth", "20"],
    ["response", "--eps", "0.01", "--orbit-len", "1000"],
    ["stability", "--j-min", "5", "--j-max", "6"],
])
def test_cli_lacunary_is_not_a_float_preset(argv):
    # a double cannot hold 2^-4 + 2^-16 + 2^-64: it would be rational
    code, out, err = cli([*argv, "--alpha", "lacunary"])
    assert code == 1 and out == ""
    assert "unknown alpha spec 'lacunary'" in err
    assert "['golden', 'sqrt2']" in err


def test_config_rejects_negative_burn_in(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(**dict(BASE_CONFIG, burn_in=-1)).validate()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, burn_in=-1)))
    assert cli(["stability", "--config", str(path)])[0] == 1


def test_config_validates_the_conjugacy_the_scan_builds():
    doc = dict(BASE_CONFIG, family="diffeo", ladder=[4], h_a=[], h_b=[0.1])
    with pytest.raises(ValueError, match="equal length"):
        ExperimentConfig.from_json(json.dumps(doc))
    # no coefficients at all is the identity h, for validate and scan alike
    doc = dict(BASE_CONFIG, family="diffeo", ladder=[4], h_a=[])
    recs = discretization_scan(ExperimentConfig.from_json(json.dumps(doc)))
    assert len(recs) == 3 and not recs.failures


def test_cli_config_caps_the_orbit(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, orbit_len=10 ** 15)))
    code, _, err = cli(["stability", "--config", str(path)])
    assert code == 2 and "exceeds the cap" in err


def test_holder_fit_needs_two_sizes():
    with pytest.raises(InsufficientDataError):
        holder_fit([(0.5, 0.1), (0.5, 0.2), (0.5, 0.3)])


def test_cli_scan_without_two_sizes_exits_2(capfd):
    # one grid size gives three records at the same size: no slope
    code = run_cli(["discretize", "--ladder", "1"])
    out, err = capfd.readouterr()
    assert code == 2
    assert '"fit": null' in err and "DLASCL" not in err


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(circlestab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                       env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "circlestab.cli", "profile-alpha",
         "--depth", "5"], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["partial_quotients"] == [1] * 5
    assert "RuntimeWarning" not in proc.stderr


# ------------------------------------------------------------ fuzzed argv

SCAN_FLAGS = ["--alpha", "--output", "--json", "--config", "--family"]
OWN_FLAGS = {
    "stability": SCAN_FLAGS + ["--j-min", "--j-max", "--bump", "--depth"],
    "discretize": SCAN_FLAGS + ["--ladder", "--h-amp"],
    "discrepancy": ["--alpha", "--output", "--ladder", "--mode"],
    "dk-check": ["--alpha", "--seed", "--cases"],
    "response": ["--alpha", "--json", "--eps", "--orbit-len", "--burn-in"],
    "holder-fit": ["--input"],
    "profile-alpha": ["--alpha", "--json", "--depth"],
    "bogus": [],
}
ALL_FLAGS = sorted(set().union(*OWN_FLAGS.values())) + ["--help", "--bogus"]
# relative paths resolve in the fuzz directory: config.json is rewritten
# for every example and scan.csv holds valid records.  "diffeo" is left
# out because its reference measure alone takes seconds to build.
VALUES = ["nan", "inf", "-1", "0", "1", "5", "0.5", "x", "golden",
          "rotation", "rational_snap", "enclosure", "config.json",
          "scan.csv", "missing.csv", ".", None]
# a valid eps costs seconds of tuning, so the fuzzed response never has one
FUZZ_SMALL = dict(SMALL, response=["--eps", "0", "--orbit-len", "1000"])
CONFIG_KEYS = ["alpha", "family", "ladder", "depth", "bump_strength", "h_a",
               "h_b", "orbit_len", "burn_in", "seed", "bogus"]
CONFIG_VALUES = [math.nan, math.inf, -1, 0, 1, 5, 0.5, "x", "1", "golden",
                 "rotation", "attractor_repeller", "rational_snap", [5, 6],
                 [0.2], [], None, True]


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(list(OWN_FLAGS)))
    # drawn flags come after the small sizes, so a drawn value wins
    argv = [command, *FUZZ_SMALL.get(command, [])]
    if command in ("stability", "discretize") and draw(st.booleans()):
        argv += ["--config", "config.json"]
    # half of the flags from the command's own, half from all of them
    flags = st.sampled_from(OWN_FLAGS[command] or ALL_FLAGS) | \
        st.sampled_from(ALL_FLAGS)
    for flag, value in draw(st.lists(st.tuples(flags, st.sampled_from(VALUES)),
                                     max_size=4)):
        argv += [flag] if value is None else [flag, value]
    return argv


fuzzed_config = st.one_of(
    st.dictionaries(st.sampled_from(CONFIG_KEYS),
                    st.sampled_from(CONFIG_VALUES),
                    max_size=4).map(json.dumps),
    st.sampled_from(["", "not json", "5", "[1]"]))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "scan.csv").write_text(write_records_csv(
        [ScalingRecord("f", 10.0 ** -k, 10.0 ** -k / 2, "physical")
         for k in range(1, 5)]))
    return path


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(argv=fuzzed_argv(), config=fuzzed_config)
def test_fuzzed_argv_exits_0_1_or_2(argv, config, fuzz_dir):
    (fuzz_dir / "config.json").write_text(config)
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        code = cli(argv)[0]
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
