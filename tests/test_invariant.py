import time
import tracemalloc

import numpy as np
import pytest

from circlestab.arithmetic import GOLDEN_MEAN, continued_fraction
from circlestab.errors import ResourceLimitError
from circlestab.invariant import (
    DiffeoInvariantDensity,
    analyze_functional_graph,
    birkhoff_average,
    birkhoff_measure,
    invariant_measure_of_diffeo,
)
from circlestab.maps import (
    AttractorRepeller,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Discretized,
    Rotation,
)
from circlestab.measures import AtomicMeasure, pushforward, wasserstein


def constant_to_zero(N):
    # P_N o P_1 sends every point to 0; a constant map within the algebra
    return Discretized(Discretized(Rotation(0.3), 1), N)


# ------------------------------------------------- functional graph

def test_rotation_third_single_cycle():
    a = analyze_functional_graph(Discretized(Rotation(1 / 3), 3), 3)
    assert a.cycle_count == 1
    assert np.allclose(a.cycle_measures[0].positions, [0, 1 / 3, 2 / 3])
    assert a.basin_sizes == [3]
    assert np.allclose(a.physical_measure.positions, [0, 1 / 3, 2 / 3])
    assert np.allclose(a.physical_measure.weights, 1 / 3)


def test_constant_map_fixed_point():
    a = analyze_functional_graph(constant_to_zero(50), 50)
    assert a.cycle_measures == [AtomicMeasure.dirac(0.0)]
    assert a.basin_sizes == [50]
    assert a.physical_measure == AtomicMeasure.dirac(0.0)


def test_golden_n10_two_five_cycles():
    T = Discretized(Rotation(GOLDEN_MEAN), 10)
    assert np.array_equal(T.grid_image(), (np.arange(10) + 6) % 10)
    a = analyze_functional_graph(T, 10)
    assert [len(m) for m in a.cycle_measures] == [5, 5]
    assert a.basin_sizes == [5, 5]
    assert np.allclose(a.physical_measure.positions, np.arange(10) / 10)
    assert np.allclose(a.physical_measure.weights, 0.1)


def test_basins_partition_nodes():
    for N in (17, 64, 1001):
        a = analyze_functional_graph(
            Discretized(Rotation(0.37), N), N)
        assert sum(a.basin_sizes) == N


def test_cycle_measures_are_exact_fixed_points():
    for N in (10, 64, 257):
        T = Discretized(Rotation(GOLDEN_MEAN), N)
        a = analyze_functional_graph(T, N)
        for cm in a.cycle_measures:
            assert pushforward(T, cm) == cm
        assert pushforward(T, a.physical_measure) == a.physical_measure


def test_convex_combination_invariant_noncycle_not():
    T = Discretized(Rotation(GOLDEN_MEAN), 10)
    a = analyze_functional_graph(T, 10)
    m1, m2 = a.cycle_measures
    mix = AtomicMeasure(
        np.concatenate([m1.positions, m2.positions]),
        np.concatenate([0.3 * m1.weights, 0.7 * m2.weights]))
    assert pushforward(T, mix) == mix
    # an atom off every cycle is moved by the constant map
    C = constant_to_zero(50)
    off = AtomicMeasure.dirac(0.3)
    assert pushforward(C, off) != off


def cycle_nodes(a):
    return [np.round(m.positions * a.N).astype(int).tolist()
            for m in a.cycle_measures]


def test_cycles_in_canonical_order():
    # sorted by smallest node
    a = analyze_functional_graph(Discretized(Rotation(GOLDEN_MEAN), 10), 10)
    assert cycle_nodes(a) == [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]
    T = Discretized(
        ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo([0.2], [0.1])), 30)
    a = analyze_functional_graph(T, 30)
    # a walk from node 0 upwards first reaches the last cycle at 11
    assert cycle_nodes(a) == [[0, 7, 12, 17, 23], [2, 8, 13, 18, 25],
                              [3, 9, 14, 19, 26], [6, 11, 16, 22, 29]]
    assert a.basin_sizes == [6, 6, 5, 13]
    succ = T.grid_image()
    for cyc in cycle_nodes(a):
        assert sorted(succ[cyc].tolist()) == cyc


def test_graph_errors():
    with pytest.raises(TypeError):
        analyze_functional_graph(Rotation(0.5), 10)
    with pytest.raises(ValueError):
        analyze_functional_graph(Discretized(Rotation(0.5), 10), 20)
    for N in (5.0, True, "5"):
        with pytest.raises(ValueError):
            analyze_functional_graph(Discretized(Rotation(0.5), 5), N)
    big = 10 ** 7 + 1
    with pytest.raises(ResourceLimitError):
        analyze_functional_graph(Discretized(Rotation(0.5), big), big)


def test_graph_linear_time_scaling():
    # O(N): doubling N doubles the time (+-30% per doubling, compounded).
    # The two sizes alternate, so a drift in host speed hits both alike.
    sizes = (10 ** 5, 4 * 10 ** 5)
    maps = {N: Discretized(Rotation(GOLDEN_MEAN), N) for N in sizes}
    times = dict.fromkeys(sizes, float("inf"))
    for _ in range(3):
        for N in sizes:
            t0 = time.perf_counter()
            analyze_functional_graph(maps[N], N)
            times[N] = min(times[N], time.perf_counter() - t0)
    ratio = times[4 * 10 ** 5] / times[10 ** 5]
    assert 1.4 ** 2 <= ratio <= 2.6 ** 2, (
        f"N=1e5 took {times[10 ** 5]:.4f} s, N=4e5 took "
        f"{times[4 * 10 ** 5]:.4f} s: ratio {ratio:.2f} is outside "
        f"[{1.4 ** 2:.2f}, {2.6 ** 2:.2f}]")


def test_graph_traced_peak_of_a_diffeo_grid():
    # the peak is the basin count over the N nodes, 23.2 MiB when the
    # per-node cycle index is int32
    N = 10 ** 6
    m = Discretized(ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo([0.2])),
                    N)
    tracemalloc.start()
    try:
        analyze_functional_graph(m, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"


# ------------------------------------------------- birkhoff measures

def test_birkhoff_rotation_atoms():
    bm = birkhoff_measure(Rotation(GOLDEN_MEAN), 0.0, 3)
    want = sorted((i * GOLDEN_MEAN) % 1.0 for i in (1, 2, 3))
    assert np.allclose(bm.positions, want, atol=1e-15)
    assert np.allclose(bm.weights, 1 / 3)


def test_birkhoff_rejects_empty_orbit():
    with pytest.raises(ValueError):
        birkhoff_measure(Rotation(0.5), 0.0, 0)


def test_birkhoff_attractor_support():
    prof = continued_fraction(GOLDEN_MEAN, 8)
    ar = AttractorRepeller(5, prof, 1.0)  # q_5 = 13
    bm = birkhoff_measure(ar, 0.123, 200, burn_in=20000)
    gam = ar.attracting_orbit()
    d = np.abs(bm.positions[:, None] - gam[None, :]) % 1.0
    d = np.minimum(d, 1.0 - d)
    assert d.min(axis=1).max() <= 1e-9
    assert len(bm) == 13


def test_birkhoff_average_conjugated_rotation():
    h = ConjugacyDiffeo([0.2], [0.1])
    cr = ConjugatedRotation(GOLDEN_MEAN, h)
    f = lambda x: np.cos(2 * np.pi * x)
    est = birkhoff_average(cr, f, 10 ** 6)
    ys = (np.arange(200000) + 0.5) / 200000
    ref = np.mean(f(h.eval(ys) % 1.0))
    assert abs(est - ref) <= 1e-3          # contract tolerance
    assert abs(est - ref) <= 1e-12         # weighted window is far better
    flat = np.mean(f(cr.orbit(0.0, 10 ** 6)))
    assert abs(est - ref) < abs(flat - ref)


def test_birkhoff_w_decreases_for_uniquely_ergodic():
    cr = ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo([0.2]))
    rho = invariant_measure_of_diffeo(cr)
    ws = [wasserstein(rho, birkhoff_measure(cr, 0.0, n))
          for n in (2 ** 10, 2 ** 12, 2 ** 14)]
    assert ws[1] <= ws[0] * 1.1 and ws[2] <= ws[1] * 1.1


# ------------------------------------------------- diffeo density

def test_identity_density_is_one():
    rho = invariant_measure_of_diffeo(
        ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo([0.0])))
    xs = np.linspace(0, 1, 101)
    assert np.allclose(rho.density(xs), 1.0, atol=1e-13)
    assert np.allclose(rho.cdf(xs), xs, atol=1e-13)


def test_density_value_at_fixed_point():
    rho = invariant_measure_of_diffeo(
        ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo([0.2])))
    assert rho.density(0.0) == pytest.approx(1 / 1.2, abs=1e-14)


def test_density_integrates_to_one():
    rng = np.random.default_rng(3)
    xs = (np.arange(100000) + 0.5) / 100000
    for _ in range(5):
        a = rng.uniform(-0.25, 0.25, 2)
        b = rng.uniform(-0.2, 0.2, 2)
        rho = invariant_measure_of_diffeo(
            ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo(a, b)))
        assert np.mean(rho.density(xs)) == pytest.approx(1.0, abs=1e-10)
        assert rho.cdf(0.0) == pytest.approx(0.0, abs=1e-13)
        assert rho.cdf(1.0) == pytest.approx(1.0, abs=1e-13)


def test_diffeo_measure_type_checks():
    with pytest.raises(TypeError):
        invariant_measure_of_diffeo(Rotation(0.5))


def test_diffeo_density_feeds_wasserstein():
    cr = ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo([0.2]))
    rho = invariant_measure_of_diffeo(cr)
    assert isinstance(rho, DiffeoInvariantDensity)
    w = wasserstein(rho, birkhoff_measure(cr, 0.0, 2 ** 14))
    assert 0 < w < 1e-3
