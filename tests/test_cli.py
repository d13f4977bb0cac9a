import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import circlestab

from circlestab import cli as cli_module
from circlestab.arithmetic import (
    GOLDEN_MEAN,
    continued_fraction,
    lacunary_alpha,
)
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
from circlestab.invariant import birkhoff_average, birkhoff_measure
from circlestab.maps import (
    AttractorRepeller,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Rotation,
    TunedFamily,
    rotation_number,
    tune_rotation_number,
    weighted_birkhoff_weights,
)
from circlestab.measures import (
    AtomicMeasure,
    BVObservable,
    DiffeoInvariantDensity,
    cesaro_average,
    discrepancy,
    dk_check,
    prop30_observable,
)
from circlestab.response import (
    fd_response,
    linear_response_density,
    response_pairing,
    solve_homological,
)


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
    "harmonic nan amplitude": lambda: BVObservable.harmonic(1, math.nan),
    "harmonic inf amplitude": lambda: BVObservable.harmonic(2, -math.inf),
    "hat nan height": lambda: BVObservable.hat(0.5, height=math.nan),
    "hat inf height": lambda: BVObservable.hat(0.5, height=math.inf),
    "constant nan": lambda: BVObservable.constant(math.nan),
    "constant inf": lambda: BVObservable.constant(-math.inf),
}


@pytest.mark.parametrize("build", NONFINITE_INPUTS.values(),
                         ids=NONFINITE_INPUTS.keys())
def test_constructors_reject_nonfinite(build):
    with pytest.raises(ValueError):
        build()


# samples and sizes out of the domain: non-finite, negative or empty
DIRAC = AtomicMeasure.dirac(0.0)


def discrepancy_ladder(*ladder):
    """The discrepancy command's handler on the parsed --ladder entries."""
    args = cli_module._build_parser().parse_args(
        ["discrepancy", "--ladder", *map(str, ladder)])
    return args.handler(args)


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
    "dk suite cases -5": lambda: run_dk_suite(cases=-5),
    "dk suite cases 0": lambda: run_dk_suite(cases=0),
    "dk suite cases True": lambda: run_dk_suite(cases=True),
    "dk suite cases 2.5": lambda: run_dk_suite(cases=2.5),
    "dk suite cases 10.0": lambda: run_dk_suite(cases=10.0),
    "dk suite cases '10'": lambda: run_dk_suite(cases="10"),
    "dk suite alpha 1e305": lambda: run_dk_suite(cases=5, alpha=1e305),
    "dk suite alpha -1e305": lambda: run_dk_suite(cases=5, alpha=-1e305),
    "dk suite alpha True": lambda: run_dk_suite(cases=5, alpha=True),
    "dk suite alpha [0.3]": lambda: run_dk_suite(cases=5, alpha=[0.3]),
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
    "harmonic k -2": lambda: BVObservable.harmonic(-2),
    "harmonic k 0": lambda: BVObservable.harmonic(0),
    "harmonic k 1.5": lambda: BVObservable.harmonic(1.5),
    "harmonic k 2.0": lambda: BVObservable.harmonic(2.0),
    "harmonic k True": lambda: BVObservable.harmonic(True),
    "fourier mode 1.5": lambda: FourierSeries({0: 0.5, 1.5: 1.0}),
    "fourier mode True": lambda: FourierSeries({True: 1.0}),
    "fourier cosine 1.5": lambda: FourierSeries.cosine(1.5),
    "discrepancy ladder 100 0": lambda: discrepancy_ladder(100, 0),
    "discrepancy ladder -5": lambda: discrepancy_ladder(-5),
    "discrepancy ladder 0 100": lambda: discrepancy_ladder(0, 100),
    "cesaro n 0": lambda: cesaro_average(DIRAC, GOLDEN_MEAN, 0),
    "cesaro n True": lambda: cesaro_average(DIRAC, GOLDEN_MEAN, True),
    "cesaro n 2.5": lambda: cesaro_average(DIRAC, GOLDEN_MEAN, 2.5),
    "cesaro n 3.0": lambda: cesaro_average(DIRAC, GOLDEN_MEAN, 3.0),
    "cesaro alpha nan": lambda: cesaro_average(DIRAC, math.nan, 3),
    "cesaro alpha inf": lambda: cesaro_average(DIRAC, math.inf, 3),
    "cesaro alpha -inf": lambda: cesaro_average(DIRAC, -math.inf, 3),
    "uniform empty": lambda: AtomicMeasure.uniform([]),
}
COS = FourierSeries.cosine()
# every entry point a non-finite alpha reaches a homological divisor by
NONFINITE_ALPHA_ENTRY_POINTS = {
    "tune_rotation_number": lambda a: tune_rotation_number(COS, 1e-2, a),
    "fd_response": lambda a: fd_response(COS, a, COS, [1e-2]),
    "solve_homological": lambda a: solve_homological(COS, a),
    "linear_response_density": lambda a: linear_response_density(COS, a),
    "response_pairing": lambda a: response_pairing(COS, a, COS),
}
OUT_OF_DOMAIN_SAMPLES.update({
    f"{name} alpha {a}": functools.partial(run, a)
    for name, run in NONFINITE_ALPHA_ENTRY_POINTS.items()
    for a in (math.nan, math.inf, -math.inf)})

# every map of the conjugacy h^-1 evaluates at a point
H = ConjugacyDiffeo([0.2], [0.05])
INVERSE_ENTRY_POINTS = {
    "ConjugacyDiffeo.inverse": H.inverse,
    "ConjugatedRotation.eval": ConjugatedRotation(GOLDEN_MEAN, H).eval,
    "DiffeoInvariantDensity.cdf": DiffeoInvariantDensity(H).cdf,
}
OUT_OF_DOMAIN_SAMPLES.update({
    f"{name} {y}": functools.partial(run, y)
    for name, run in INVERSE_ENTRY_POINTS.items()
    for y in (math.nan, math.inf, -math.inf)})

# a tol that no error bound can exceed (nan) or always exceeds (negative)
# is refused before the exact Rotation shortcut, too
BAD_TOLS = (math.nan, math.inf, -math.inf, -1e-9)
TOL_MAPS = {"Rotation": Rotation(GOLDEN_MEAN),
            "TunedFamily": TunedFamily(COS, 0.1, 0.3)}
OUT_OF_DOMAIN_SAMPLES.update({
    f"rotation_number {name} tol {tol}": functools.partial(
        rotation_number, m, tol=tol)
    for name, m in TOL_MAPS.items() for tol in BAD_TOLS})


@pytest.mark.parametrize("run", OUT_OF_DOMAIN_SAMPLES.values(),
                         ids=OUT_OF_DOMAIN_SAMPLES.keys())
def test_samples_reject_nonfinite(run):
    with pytest.raises(ValueError):
        run()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("run", NONFINITE_ALPHA_ENTRY_POINTS.values(),
                         ids=NONFINITE_ALPHA_ENTRY_POINTS.keys())
def test_nonfinite_alpha_is_named(run, alpha):
    with pytest.raises(ValueError, match="^alpha must be finite"):
        run(alpha)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("run", INVERSE_ENTRY_POINTS.values(),
                         ids=INVERSE_ENTRY_POINTS.keys())
def test_nonfinite_y_is_named_before_newton(run, y):
    # refused before any Newton step, which would warn on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^y must be finite, got {y}$"):
            run(y)
        with pytest.raises(ValueError, match=f"^y must be finite, got {y}$"):
            run(np.array([0.25, y, 0.75]))


@pytest.mark.parametrize("tol", BAD_TOLS)
@pytest.mark.parametrize("m", TOL_MAPS.values(), ids=TOL_MAPS.keys())
def test_rotation_number_tol_is_named(m, tol):
    with pytest.raises(ValueError, match="^tol must be finite"):
        rotation_number(m, tol=tol)
    assert rotation_number(m, tol=None) == rotation_number(m, tol=1.0)


TUNED = TunedFamily(FourierSeries.cosine(), 0.1, 0.3)

# every count a caller passes is checked by arithmetic._check_count, whose
# message names the argument as the caller passed it
COUNT_ARGUMENTS = {
    "birkhoff_measure n 0": ("n", lambda: birkhoff_measure(
        Rotation(GOLDEN_MEAN), 0.1, 0)),
    "birkhoff_measure n 2.5": ("n", lambda: birkhoff_measure(
        Rotation(GOLDEN_MEAN), 0.1, 2.5)),
    "birkhoff_measure n True": ("n", lambda: birkhoff_measure(
        Rotation(GOLDEN_MEAN), 0.1, True)),
    "birkhoff_average n 0": ("n", lambda: birkhoff_average(
        Rotation(GOLDEN_MEAN), np.cos, 0)),
    "birkhoff_average n 2.5": ("n", lambda: birkhoff_average(
        Rotation(GOLDEN_MEAN), np.cos, 2.5)),
    "birkhoff_average n 3.0": ("n", lambda: birkhoff_average(
        Rotation(GOLDEN_MEAN), np.cos, 3.0)),
    "rotation_number iters 3": ("iters", lambda: rotation_number(
        TUNED, iters=3)),
    "rotation_number iters 4.5": ("iters", lambda: rotation_number(
        TUNED, iters=4.5)),
    "rotation_number iters 5.0": ("iters", lambda: rotation_number(
        TUNED, iters=5.0)),
    "rotation_number iters True": ("iters", lambda: rotation_number(
        TUNED, iters=True)),
    "rotation_number Rotation iters 4.5": ("iters", lambda: rotation_number(
        Rotation(GOLDEN_MEAN), iters=4.5)),
    "fd_response orbit_len 0": ("orbit_len", lambda: fd_response(
        FourierSeries.cosine(), GOLDEN_MEAN, FourierSeries.cosine(), [1e-2],
        orbit_len=0)),
    "fd_response orbit_len 2.5": ("orbit_len", lambda: fd_response(
        FourierSeries.cosine(), GOLDEN_MEAN, FourierSeries.cosine(), [1e-2],
        orbit_len=2.5)),
    "fd_response orbit_len True": ("orbit_len", lambda: fd_response(
        FourierSeries.cosine(), GOLDEN_MEAN, FourierSeries.cosine(), [1e-2],
        orbit_len=True)),
    "AttractorRepeller j 2.5": ("j", lambda: AttractorRepeller(
        2.5, continued_fraction(GOLDEN_MEAN, 20), 1.0)),
    "AttractorRepeller j True": ("j", lambda: AttractorRepeller(
        True, continued_fraction(GOLDEN_MEAN, 20), 1.0)),
    "prop30_observable terms 2.5": ("terms", lambda: prop30_observable(2.5)),
    "prop30_observable terms True": ("terms",
                                     lambda: prop30_observable(True)),
    "lacunary_alpha terms 2.5": ("terms", lambda: lacunary_alpha(2.5)),
    "lacunary_alpha terms True": ("terms", lambda: lacunary_alpha(True)),
    "cosine k 0": ("k", lambda: FourierSeries.cosine(0)),
    "cosine k -1": ("k", lambda: FourierSeries.cosine(-1)),
    "cosine k True": ("k", lambda: FourierSeries.cosine(True)),
    "cosine k 1.5": ("k", lambda: FourierSeries.cosine(1.5)),
    "weighted_birkhoff_weights n 0": (
        "n", lambda: weighted_birkhoff_weights(0)),
    "weighted_birkhoff_weights n 2.5": (
        "n", lambda: weighted_birkhoff_weights(2.5)),
    "weighted_birkhoff_weights n True": (
        "n", lambda: weighted_birkhoff_weights(True)),
}


@pytest.mark.parametrize("name, run", COUNT_ARGUMENTS.values(),
                         ids=COUNT_ARGUMENTS.keys())
def test_counts_are_checked_under_the_callers_name(name, run):
    with pytest.raises(ValueError, match=f"^got {name} .*; {name} must be"):
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
                           ladder=(100, 1000), orbit_len=3)
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
    # a bool is no number, and a list or None no alpha at all
    for spec in (True, False, np.True_, [0.3], None, 0.3j):
        with pytest.raises(ValueError,
                           match="^alpha must be a preset name or a number$"):
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
    # i*alpha overflows: a config error, not three DK violations
    code, out, err = cli(["dk-check", "--cases", "3", "--alpha", "1e305"])
    assert code == 1 and "overflows" in err and "violations" not in out
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
    ("response", ("--seed", "--output", "--config", "--burn-in")),
    ("profile-alpha", ("--seed", "--output", "--config")),
) for flag in flags]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[f"{c} {f}" for c, f in UNREAD_FLAGS])
def test_subcommand_rejects_flags_it_does_not_read(command, flag, tmp_path):
    value = {"--seed": "1", "--burn-in": "5"}.get(flag,
                                                  str(tmp_path / "unused"))
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
    "burn_in 1000": dict(BASE_CONFIG, burn_in=1000),  # nor this one
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


def test_cli_discrepancy_checks_every_ladder_entry_first(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return discrepancy(*args, **kwargs)

    monkeypatch.setattr(cli_module, "discrepancy", counted)
    for ladder in (["100", "0"], ["-5"], ["100", "1000", "-1"]):
        code, out, err = cli(["discrepancy", "--ladder", *ladder])
        assert code == 1 and out == ""
        assert err.startswith("config error: got N") and "must be >= 1" in err
    assert calls == []  # no entry was computed


def test_cli_response_caps_the_orbit():
    code, _, err = cli(["response", "--eps", "0.01",
                        "--orbit-len", str(10 ** 15)])
    assert code == 2 and "exceeds the cap" in err


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
    "response": ["--alpha", "--json", "--eps", "--orbit-len"],
    "holder-fit": ["--input"],
    "profile-alpha": ["--alpha", "--json", "--depth"],
    "bogus": [],
}
ALL_FLAGS = sorted(set().union(*OWN_FLAGS.values())) + ["--help", "--bogus",
                                                         "--burn-in"]
# relative paths resolve in the fuzz directory: config.json is rewritten
# for every example and scan.csv holds valid records.  "diffeo" is left
# out because its reference measure alone takes seconds to build.
VALUES = ["nan", "inf", "-1", "0", "1", "5", "0.5", "x", "golden",
          "rotation", "rational_snap", "enclosure", "config.json",
          "scan.csv", "missing.csv", ".", None]
# a valid eps costs seconds of tuning, so the fuzzed response never has one
FUZZ_SMALL = dict(SMALL, response=["--eps", "0", "--orbit-len", "1000"])
CONFIG_FIELDS = ("alpha", "family", "ladder", "depth", "bump_strength", "h_a",
                 "h_b", "orbit_len")
CONFIG_KEYS = [*CONFIG_FIELDS, "burn_in", "seed", "bogus"]
CONFIG_VALUES = [math.nan, math.inf, -1, 0, 1, 5, 0.5, "x", "1", "golden",
                 "rotation", "attractor_repeller", "rational_snap", [5, 6],
                 [0.2], [], None, True]


def test_settable_surface_is_listed():
    # a flag or a config field added or removed is a diff of one list
    parser = cli_module._build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(OWN_FLAGS) - {"bogus"}
    for command, sp in subparsers.choices.items():
        flags = [f for a in sp._actions for f in a.option_strings
                 if f not in ("-h", "--help")]
        assert sorted(flags) == sorted(OWN_FLAGS[command]), command
    assert tuple(f.name for f in dataclasses.fields(ExperimentConfig)) \
        == CONFIG_FIELDS


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
