"""Tests of the benchmark itself: output checks and a smoke run.

    python3 -m pytest -q bench

The check tests feed each check a correct output and a perturbed one;
the smoke test runs every workload at tiny sizes, untraced and traced,
and asserts that every metric BENCHMARK.json names is emitted with its
unit.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from circlestab import GOLDEN_MEAN, continued_fraction  # noqa: E402

PROFILE = continued_fraction(GOLDEN_MEAN, 30)


def _perturbed(check, good, bad):
    assert check(good) == []
    assert check(bad) != []


def test_snap_check():
    rows = [(j, PROFILE.convergents[j].q, 1 / (4 * PROFILE.convergents[j].q))
            for j in range(5, 24)]
    bad = rows[:-1] + [(23, rows[-1][1], rows[-1][2] * (1 + 1e-6))]
    _perturbed(checks.snap_failures, rows, bad)
    assert checks.snap_failures([(None, None, 0.1)]) != []


def test_criterion2_check():
    rows = [(j, PROFILE.convergents[j].delta, 1 / (4 * PROFILE.convergents[j].q))
            for j in range(5, 16)]
    j, delta, w = rows[3]
    bad = rows[:3] + [(j, delta, 0.9 * 0.25 * delta ** (1 / 2.01))] + rows[4:]
    _perturbed(checks.criterion2_failures, rows, bad)


def test_cesaro_check():
    ns = [100, 1000, 10000, 100000]
    _perturbed(lambda ws: checks.cesaro_failures(ns, ws),
               [0.3 / n for n in ns], [0.3 / n ** 0.5 for n in ns])
    assert len(checks.cesaro_failures(ns, [0.0, 1e-3, 1e-4, 1e-5])) == 4


def test_discrepancy_check():
    good = [{"n": n, "lower": 2.0 / n, "upper": 4.0 / n} for n in (100, 1000)]
    bad = good[:1] + [{"n": 1000, "lower": 4e-3, "upper": 2e-3}]
    _perturbed(checks.discrepancy_failures, good, bad)


def test_dk_check():
    _perturbed(lambda v: checks.dk_failures(v, 1000), 0, 3)
    assert len(checks.dk_failures(3, 1000)) == 3


def test_rotation_check():
    rows = []
    for N in (100, 1000, 10 ** 4):
        g = math.gcd(math.floor(N * GOLDEN_MEAN), N)
        rows += [(N, "physical", 1 / (4 * N)), (N, "worst-cycle", g / (4 * N)),
                 (N, "best-cycle", g / (4 * N))]
    bad = rows[:-1] + [(10 ** 4, "best-cycle", rows[-1][2] + 1e-12)]
    _perturbed(lambda r: checks.rotation_failures(r, GOLDEN_MEAN), rows, bad)


def test_convexity_check():
    good = [("diffeo", 100, "physical", 0.01), ("diffeo", 100, "worst-cycle", 0.02),
            ("diffeo", 100, "best-cycle", 0.005)]
    bad = [("diffeo", 100, "physical", 0.03)] + good[1:]
    _perturbed(checks.convexity_failures, good, bad)


def test_basin_check():
    _perturbed(checks.basin_failures, [("diffeo", 1000, [600, 400])],
               [("diffeo", 1000, [600, 401])])


def test_response_check():
    doc = {"formula_value": 0.61, "extrapolated_estimate": 0.61 * (1 + 2e-4),
           "per_eps": [{"epsilon": 1e-2}, {"epsilon": 1e-3}]}
    bad = dict(doc, extrapolated_estimate=0.61 * 1.06)
    _perturbed(checks.response_failures, doc, bad)
    assert checks.fd_rel_err(doc) == pytest.approx(2e-4)


def test_pipeline_exception_fails_every_operation():
    import workloads
    for name, inputs in (("equidistribution", {}), ("discretize", {}),
                         ("response", {"eps": [1e-2, 1e-3]})):
        ops, _ = workloads.check(name, inputs, "tiny", None, [])
        assert len(ops.keys) >= 2
        assert len(ops.failed) == len(ops.keys)


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["equidistribution", "discretize",
                                      "response"])
def test_smoke_every_metric_emitted(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert math.isfinite(result["metrics"][m["name"]]["value"])
    printed = proc.stdout
    for name in ("wall_s", "ref_s", "setup_s", "setup_raw_s",
                 "peak_rss_mib", "fail_ratio"):
        assert f"\n{name} = " in printed
    if workload == "response":
        assert "\nfd_rel_err = " in printed


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(["--workload", "response", "--seed", "1", "--seconds", "1"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
