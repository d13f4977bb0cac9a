"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints a single summary line and enforces both the numeric
target and the runtime budget.  Run with `pytest -v` to get the
per-criterion pass/fail listing.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from circlestab.arithmetic import GOLDEN_MEAN, continued_fraction, frac
from circlestab.experiments import (
    ExperimentConfig,
    discretization_scan,
    holder_fit,
    run_dk_suite,
    stability_scan,
)
from circlestab.fourier import FourierSeries
from circlestab.measures import (
    AtomicMeasure,
    LebesgueMeasure,
    cesaro_average,
    discrepancy,
    prop30_integral_exact,
    prop30_observable,
    wasserstein,
)
from circlestab.response import fd_response, response_pairing, solve_homological

G = GOLDEN_MEAN


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, \
        f"criterion {num} exceeded budget: {elapsed:.1f}s >= {budget}s"


@pytest.fixture(scope="module")
def ar_scan():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(family="attractor_repeller",
                           ladder=tuple(range(5, 16)), depth=20)
    recs = stability_scan(cfg)
    assert not recs.failures
    return recs, time.perf_counter() - t0


def test_criterion_01_lower_bound_exponent(ar_scan):
    recs, setup = ar_scan
    t0 = time.perf_counter()
    fit = holder_fit(recs)
    elapsed = setup + (time.perf_counter() - t0)
    ok = abs(fit.slope - 0.50) <= 0.05
    report(1, ok, f"holder slope {fit.slope:.4f} within 0.50 +- 0.05",
           elapsed, 60)


def test_criterion_02_lower_bound_constant(ar_scan):
    recs, setup = ar_scan
    t0 = time.perf_counter()
    margin = min(r.w_distance - 0.25 * r.size_param ** (1 / 2.01)
                 for r in recs)
    elapsed = setup + (time.perf_counter() - t0)
    ok = margin >= 0.0
    report(2, ok, f"W - (1/4) delta^(1/2.01) >= 0 at every j "
                  f"(min margin {margin:.3g})", elapsed, 60)


def test_criterion_03_denjoy_koksma_suite():
    t0 = time.perf_counter()
    bad, total = run_dk_suite(cases=1000, seed=0)
    elapsed = time.perf_counter() - t0
    report(3, bad == 0, f"DK violations {bad}/{total}", elapsed, 120)


def test_criterion_04_discrepancy_rate():
    t0 = time.perf_counter()
    ns = [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    lo, hi = [], []
    for n in ns:
        d = discrepancy(frac(np.arange(1, n + 1) * G), mode="enclosure")
        lo.append(d.lower)
        hi.append(d.upper)
    s_lo = float(np.polyfit(np.log(ns), np.log(lo), 1)[0])
    s_hi = float(np.polyfit(np.log(ns), np.log(hi), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -1.0 <= s_lo <= -0.88 and -1.0 <= s_hi <= -0.88
    report(4, ok, f"discrepancy slopes [{s_lo:.4f}, {s_hi:.4f}] "
                  f"in [-1.0, -0.88]", elapsed, 120)


def test_criterion_05_cesaro_convergence():
    t0 = time.perf_counter()
    m = LebesgueMeasure()
    d0 = AtomicMeasure.dirac(0.0)
    ns = [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    ws = [wasserstein(m, cesaro_average(d0, G, n)) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(ws), 1)[0])
    elapsed = time.perf_counter() - t0
    report(5, slope <= -0.88, f"cesaro W slope {slope:.4f} <= -0.88",
           elapsed, 60)


def test_criterion_06_linear_response():
    t0 = time.perf_counter()
    u = FourierSeries.cosine(1)
    formula = response_pairing(u, G, u)
    est, _ = fd_response(u, G, u, [1e-2, 1e-3], orbit_len=10 ** 7)
    rel = abs(est - formula) / abs(formula)
    elapsed = time.perf_counter() - t0
    report(6, rel <= 0.05, f"fd estimate {est:.6f} vs formula "
                           f"{formula:.6f}, rel err {rel:.2e} <= 5%",
           elapsed, 180)


def test_criterion_07_homological_residual():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    grid = np.arange(10 ** 4) / 10 ** 4
    worst = 0.0
    for _ in range(100):
        n_max = int(rng.integers(1, 33))
        c = {0: 0.0, **{n: complex(rng.normal(), rng.normal())
                        for n in range(1, n_max + 1)}}
        scale = 1.0 / FourierSeries(c).sup_norm_bound()
        u = FourierSeries({n: v * scale for n, v in c.items()})  # sup <= 1
        v = solve_homological(u, G)
        res = np.max(np.abs(v.eval((grid + G) % 1.0) - v.eval(grid)
                            - (u.eval(grid) - u.mean)))
        worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    report(7, worst <= 1e-12, f"worst residual {worst:.3g} <= 1e-12 "
                              f"over 100 random u", elapsed, 10)


def test_criterion_08_wasserstein_lp_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    def lp_w(mu, nu):
        P, Q = mu.positions, nu.positions
        C = np.abs(P[:, None] - Q[None, :])
        C = np.minimum(C, 1.0 - C)
        na, nb = len(P), len(Q)
        A_eq = np.zeros((na + nb, na * nb))
        for i in range(na):
            A_eq[i, i * nb:(i + 1) * nb] = 1.0
        for j in range(nb):
            A_eq[na + j, j::nb] = 1.0
        res = linprog(C.ravel(), A_eq=A_eq,
                      b_eq=np.concatenate([mu.weights, nu.weights]),
                      bounds=(0, None), method="highs")
        assert res.status == 0
        return res.fun

    worst = 0.0
    for _ in range(200):
        k1, k2 = rng.integers(1, 13, 2)
        mu = AtomicMeasure(rng.uniform(0, 1, k1), rng.dirichlet(np.ones(k1)))
        nu = AtomicMeasure(rng.uniform(0, 1, k2), rng.dirichlet(np.ones(k2)))
        worst = max(worst, abs(wasserstein(mu, nu) - lp_w(mu, nu)))
    elapsed = time.perf_counter() - t0
    report(8, worst <= 1e-9, f"max |closed form - LP| {worst:.3g} <= 1e-9 "
                             f"over 200 pairs", elapsed, 60)


def test_criterion_09_discretization_stability():
    t0 = time.perf_counter()
    ladder = (100, 1000, 10000, 100000, 1000000)
    rot = discretization_scan(ExperimentConfig(family="rotation",
                                               ladder=ladder))
    dif = discretization_scan(ExperimentConfig(family="diffeo",
                                               ladder=ladder, h_a=(0.2,)))
    assert not rot.failures and not dif.failures
    allrec = list(rot) + list(dif)
    C = max(r.w_distance / 100.0 ** -0.45 for r in allrec
            if r.metadata["N"] == 100)
    margin = min(C * r.metadata["N"] ** -0.45 * (1 + 1e-12) - r.w_distance
                 for r in allrec)
    elapsed = time.perf_counter() - t0
    ok = margin >= 0.0
    report(9, ok, f"all {len(allrec)} records satisfy W <= C*N^-0.45 "
                  f"with C={C:.4g} fitted at N=100", elapsed, 300)


def test_criterion_10_prop30_lower_bound():
    t0 = time.perf_counter()
    psi = prop30_observable(3)
    mu1 = AtomicMeasure.uniform(np.arange(16) / 16.0)
    v1 = prop30_integral_exact(psi, mu1, 16)
    bound = Fraction(1, 2) * Fraction(1, 2 ** 4) ** 2
    elapsed = time.perf_counter() - t0
    ok = v1 >= bound
    report(10, ok, f"exact v_1 = {v1} >= (1/2)(2^-4)^2 = {bound}",
           elapsed, 1)
