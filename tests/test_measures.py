import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from circlestab.arithmetic import (
    GOLDEN_MEAN,
    continued_fraction,
    frac,
)
from circlestab.errors import ResourceLimitError
from circlestab.maps import (
    _BLOCK,
    AttractorRepeller,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Rotation,
)
from circlestab.measures import (
    MERGE_TOL,
    _arc_mean,
    _extreme_discrepancy_exact,
    _star_discrepancy,
    AtomicMeasure,
    BVObservable,
    DiscrepancyResult,
    LebesgueMeasure,
    atomize_by_cdf,
    bv_library,
    cesaro_average,
    discrepancy,
    dk_check,
    prop30_integral_exact,
    prop30_observable,
    pushforward,
    wasserstein,
)
from test_maps import BLOCK_EDGES

RNG = np.random.default_rng(2024)
M = LebesgueMeasure()


def brute_force_variation(f, grid=100_000):
    """Grid total variation sum |f(x_{i+1}) - f(x_i)| around the circle."""
    xs = np.arange(grid) / grid
    v = f.eval(xs)
    return float(np.sum(np.abs(np.diff(np.append(v, v[0])))))


def random_atomic(rng, max_atoms=12):
    k = int(rng.integers(1, max_atoms + 1))
    w = rng.dirichlet(np.ones(k))
    return AtomicMeasure(rng.uniform(0, 1, k), w)


# ------------------------------------------------------------ atomic basics

def test_atomic_validation():
    with pytest.raises(ValueError):
        AtomicMeasure([0.1, 0.2], [0.4, 0.4])  # mass != 1
    with pytest.raises(ValueError):
        AtomicMeasure([0.1, 0.2], [1.2, -0.2])
    with pytest.raises(ValueError):
        AtomicMeasure([], [])


def test_atomic_merging():
    mu = AtomicMeasure([0.3, 0.3 + 5e-16, 0.7], [0.25, 0.25, 0.5])
    assert len(mu) == 2
    assert mu.weights[0] == pytest.approx(0.5, abs=0)
    # wraparound merge
    nu = AtomicMeasure([0.0, 1.0 - 5e-16], [0.5, 0.5])
    assert len(nu) == 1
    assert nu.weights[0] == 1.0


def test_atomic_sorted_and_canonical():
    mu = AtomicMeasure([1.7, -0.4, 0.2], [0.3, 0.3, 0.4])
    assert np.all(np.diff(mu.positions) > 0)
    assert np.all((mu.positions >= 0) & (mu.positions < 1))


def stable_argsort_atoms(positions, weights):
    """The constructor's sort and merge by one stable argsort for any
    weights: tied atoms keep input order and add in it."""
    p = frac(np.atleast_1d(np.asarray(positions, dtype=float)))
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    order = np.argsort(p, kind="stable")
    p, w = p[order], w[order]
    starts = np.append(True, np.diff(p) > MERGE_TOL)
    w = np.bincount(np.cumsum(starts) - 1, weights=w)
    p = p[starts]
    if len(p) > 1 and (p[0] + 1.0) - p[-1] <= MERGE_TOL:
        w[0] += w[-1]
        p, w = p[:-1], w[:-1]
    return p, w


def ar12_birkhoff_orbit():
    ar = AttractorRepeller(12, continued_fraction(GOLDEN_MEAN, 30), 1.0)
    return ar.orbit(0.123, 10 ** 5, 1000)


EQUAL_WEIGHT_POSITIONS = {
    "duplicates": lambda: [0.3, 0.7, 0.3, 0.3, 0.1, 0.7, 0.0, 0.0],
    "chains": lambda: [0.3 + k * 8e-16 for k in range(6)]
    + [0.6 + k * 1e-15 for k in range(4)] + [0.6 + 5e-15, 0.9],
    "across the wrap": lambda: [0.0, 1.0 - 5e-16, 0.5, 1.0 - 2e-16,
                                4e-16, 0.25],
    "signed zeros": lambda: [-0.0, 0.0, 0.5, -0.0, 0.25, 0.0],
    "outside [0, 1)": lambda: [-0.25, 1.75, 0.75, -3.0, 3.0, 2.5, -1e-17,
                               1.0, -1.0, 0.5],
    "n = 1": lambda: [0.4],
    "n = 2": lambda: [0.9, 0.1],
    "n = 2 merging": lambda: [1.2, 0.2],
    "AR j = 12 Birkhoff": ar12_birkhoff_orbit,
    "Kronecker": lambda: Rotation(GOLDEN_MEAN).orbit(0.0, 10 ** 5),
}


@pytest.mark.parametrize("positions", EQUAL_WEIGHT_POSITIONS.values(),
                         ids=EQUAL_WEIGHT_POSITIONS.keys())
def test_equal_weight_atoms_equal_the_stable_argsort(positions):
    pos = np.asarray(positions(), dtype=float)
    rng = np.random.default_rng(23)
    for p in (pos, pos[::-1], rng.permutation(pos)):
        w = np.full(len(p), 1.0 / len(p))
        kept = p.copy()
        mu = AtomicMeasure(p, w)
        op, ow = stable_argsort_atoms(p, w)
        assert np.array_equal(mu.positions.view(np.int64), op.view(np.int64))
        assert np.array_equal(mu.weights.view(np.int64), ow.view(np.int64))
        assert np.array_equal(p.view(np.int64), kept.view(np.int64))
        assert len(mu) == 1 or np.all(np.diff(mu.positions) > MERGE_TOL)


@pytest.mark.parametrize("perm", [(0, 1, 2), (0, 2, 1), (1, 0, 2),
                                  (1, 2, 0), (2, 0, 1), (2, 1, 0)])
def test_unequal_tied_weights_add_in_input_order(perm):
    tied = [(0.1, 0.2, 0.3)[i] for i in perm]
    pos, w = [0.5, 0.5, 0.5, 0.2], tied + [0.4]
    mu = AtomicMeasure(pos, w)
    op, ow = stable_argsort_atoms(pos, w)
    assert np.array_equal(mu.positions.view(np.int64), op.view(np.int64))
    assert np.array_equal(mu.weights.view(np.int64), ow.view(np.int64))
    assert mu.weights[1] == (tied[0] + tied[1]) + tied[2]
    # the order matters: (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1


def test_only_unequal_weights_argsort(monkeypatch):
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("equal weights took an argsort")

    monkeypatch.setattr(np, "argsort", refused)
    mu = AtomicMeasure.uniform([0.7, -0.3, 0.2, 0.7])
    assert mu.positions.tolist() == [0.2, 0.7]
    assert mu.weights.tolist() == [0.25, 0.75]
    monkeypatch.setattr(np, "argsort", counted)
    AtomicMeasure([0.7, 0.2, 0.7], [0.25, 0.25, 0.5])
    assert calls == ["stable"]


# ------------------------------------------------------------ wasserstein

def test_w_two_point_example():
    mu = AtomicMeasure.uniform([0.0, 0.5])
    nu = AtomicMeasure.uniform([0.25, 0.75])
    assert wasserstein(mu, nu) == pytest.approx(0.25, abs=1e-15)


def test_w_uniform_atoms_vs_lebesgue():
    # uniform atoms on q equally spaced points: exactly 1/(4q)
    for q in (2, 3, 5, 13, 21):
        mu = AtomicMeasure.uniform(np.arange(q) / q)
        assert wasserstein(M, mu) == pytest.approx(1.0 / (4 * q), abs=1e-14)


def test_w_identity_and_symmetry():
    mu = random_atomic(RNG)
    nu = random_atomic(RNG)
    assert wasserstein(mu, mu) == 0.0
    assert wasserstein(mu, nu) == pytest.approx(wasserstein(nu, mu), abs=1e-14)
    assert wasserstein(mu, nu) >= 0


def test_w_dirac_vs_lebesgue():
    assert wasserstein(AtomicMeasure.dirac(0.3), M) == pytest.approx(0.25,
                                                                     abs=1e-14)


def test_w_rejects_measure_types_without_a_kernel():
    class CdfOnly:
        def cdf(self, x):
            return x

    with pytest.raises(TypeError):
        wasserstein(CdfOnly(), M)
    with pytest.raises(TypeError):
        wasserstein(AtomicMeasure.dirac(0.1), CdfOnly())


def test_w_matches_lp_oracle():
    # exhaustive LP transport with circular cost on 200 random pairs
    linprog = pytest.importorskip("scipy.optimize").linprog
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
        b_eq = np.concatenate([mu.weights, nu.weights])
        res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        assert res.status == 0
        return res.fun

    worst = 0.0
    for _ in range(200):
        mu, nu = random_atomic(rng), random_atomic(rng)
        worst = max(worst, abs(wasserstein(mu, nu) - lp_w(mu, nu)))
    assert worst <= 1e-9


def test_w_triangle_inequality():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        a, b, c = (random_atomic(rng, 6) for _ in range(3))
        assert wasserstein(a, b) <= \
            wasserstein(a, c) + wasserstein(c, b) + 1e-12


def test_w_isometry_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        mu, nu = random_atomic(rng), random_atomic(rng)
        beta = rng.uniform(0, 1)
        R = Rotation(beta)
        assert wasserstein(pushforward(R, mu), pushforward(R, nu)) == \
            pytest.approx(wasserstein(mu, nu), abs=1e-12)


def test_atomize_error_bound():
    mu = atomize_by_cdf(lambda x: np.asarray(x, dtype=float), cells=1024)
    assert wasserstein(mu, M) <= 1.0 / (2 * 1024) + 1e-12


# ------------------------------------------------------------ pushforward

def test_pushforward_examples():
    d0 = AtomicMeasure.dirac(0.0)
    out = pushforward(Rotation(GOLDEN_MEAN), d0)
    assert len(out) == 1 and out.positions[0] == pytest.approx(GOLDEN_MEAN)
    mu = random_atomic(RNG)
    assert pushforward(Rotation(0.0), mu) == mu


def test_pushforward_preserves_mass():
    mu = random_atomic(RNG)
    out = pushforward(Rotation(0.37), mu)
    assert math.fsum(out.weights) == pytest.approx(1.0, abs=1e-15)


# ------------------------------------------------------------ cesaro

def test_cesaro_example_atoms():
    out = cesaro_average(AtomicMeasure.dirac(0.0), GOLDEN_MEAN, 3)
    want = sorted((i * GOLDEN_MEAN) % 1.0 for i in (1, 2, 3))
    assert np.allclose(out.positions, want, atol=1e-15)
    assert np.allclose(out.weights, 1 / 3, atol=1e-15)


def test_cesaro_atom_count():
    mu = AtomicMeasure.uniform([0.1, 0.2, 0.5])
    out = cesaro_average(mu, GOLDEN_MEAN, 7)
    assert len(out) == 21


def test_cesaro_w_decreasing_and_slope():
    ns = (100, 1000, 10000)
    ws = [wasserstein(M, cesaro_average(AtomicMeasure.dirac(0.0),
                                        GOLDEN_MEAN, n)) for n in ns]
    assert ws[0] > ws[1] > ws[2]
    slope = np.polyfit(np.log(ns), np.log(ws), 1)[0]
    assert slope <= -0.9


def test_cesaro_resource_cap():
    mu = AtomicMeasure.uniform(np.arange(25) / 25.0)
    with pytest.raises(ResourceLimitError):
        cesaro_average(mu, GOLDEN_MEAN, 10 ** 6)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_cesaro_names_a_nonfinite_alpha_before_any_work(alpha):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no work, so no numpy warning
        with pytest.raises(ValueError, match="alpha"):
            cesaro_average(AtomicMeasure.dirac(0.0), alpha, 3)


# ------------------------------------------------------------ discrepancy

def brute_discrepancy(pts):
    x = np.sort(np.asarray(pts) % 1.0)
    n = len(x)
    best = 0.0
    for i in range(n):
        for j in range(n):
            length = (x[j] - x[i]) % 1.0
            cnt_closed = (j - i) % n + 1
            best = max(best, cnt_closed / n - length)
            if i == j:
                best = max(best, 1.0 - (n - 1) / n)
            else:
                cnt_open = (j - i) % n - 1
                best = max(best, length - cnt_open / n)
    return best


def test_discrepancy_examples():
    for N in (10, 100):
        assert discrepancy(np.arange(1, N + 1) / N).value == \
            pytest.approx(1.0 / N, abs=1e-12)
    assert discrepancy([0.5]).value == 1.0


def test_discrepancy_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(120):
        pts = rng.uniform(0, 1, int(rng.integers(1, 41)))
        d = discrepancy(pts, mode="exact")
        assert d.exact == pytest.approx(brute_discrepancy(pts), abs=1e-12)


def test_discrepancy_range_and_enclosure():
    rng = np.random.default_rng(9)
    for _ in range(60):
        pts = rng.uniform(0, 1, int(rng.integers(2, 200)))
        ex = discrepancy(pts, mode="exact")
        en = discrepancy(pts, mode="enclosure")
        n = len(pts)
        assert 1.0 / n - 1e-12 <= ex.exact <= 1.0 + 1e-12
        assert en.lower - 1e-12 <= ex.exact <= en.upper + 1e-12
        assert en.lower == ex.star and en.upper == 2 * ex.star


def test_discrepancy_auto_switches_to_enclosure():
    pts = np.arange(1, 20002) * GOLDEN_MEAN % 1.0
    d = discrepancy(pts)
    assert d.exact is None and d.upper == 2 * d.lower
    d2 = discrepancy(pts[:100])
    assert d2.exact is not None


def test_discrepancy_golden_orbit_decay():
    # D_N <= C N^{-0.9}: fit C on the two smaller ladder points, check 1e4
    ds = {}
    for N in (100, 1000, 10000):
        orb = np.arange(1, N + 1) * GOLDEN_MEAN % 1.0
        ds[N] = discrepancy(orb, mode="exact").exact
    C = max(ds[100] * 100 ** 0.9, ds[1000] * 1000 ** 0.9)
    assert ds[10000] <= C * 10000 ** -0.9 * 1.05


def one_pass_star_discrepancy(x_sorted):
    """D* of sorted points in one array pass: max of i/n - x_(i) and
    x_(i) - (i-1)/n over all i at once."""
    n = len(x_sorted)
    up = np.arange(1, n + 1) / n
    low = np.concatenate(([0.0], up[:-1]))
    return float(max(np.max(up - x_sorted), np.max(x_sorted - low)))


def one_pass_discrepancy(pts, mode):
    x = np.sort(frac(np.asarray(pts, dtype=float)))
    star = one_pass_star_discrepancy(x)
    if mode == "exact":
        d = _extreme_discrepancy_exact(x, star)
        return DiscrepancyResult(len(x), star, d, d, d)
    return DiscrepancyResult(len(x), star, star, 2.0 * star, None)


def as_bits(r):
    return [v if v is None else float(v).hex()
            for v in (r.n, r.star, r.lower, r.upper, r.exact)]


BLOCK_EDGE_POINTS = {
    "sorted_uniform": lambda n: np.sort(np.random.default_rng(n).uniform(
        0, 1, n)),
    "golden_orbit": lambda n: np.arange(1, n + 1) * GOLDEN_MEAN % 1.0,
    "zeros": lambda n: np.zeros(n),
    "unsorted_wide": lambda n: np.random.default_rng(n).uniform(-5, 5, n),
}


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("points", list(BLOCK_EDGE_POINTS))
@pytest.mark.parametrize("mode", ["exact", "enclosure"])
def test_blocked_discrepancy_is_the_one_pass_discrepancy(n, points, mode):
    pts = BLOCK_EDGE_POINTS[points](n)
    before = pts.copy()
    got = discrepancy(pts, mode)
    want = one_pass_discrepancy(pts, mode)
    assert as_bits(got) == as_bits(want)
    # discrepancy sorts its own copy in place, never the caller's array
    assert pts.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [1, 2, 10 ** 4, 10 ** 4 + 1, _BLOCK + 1,
                               (1 << 16) + 1])
@pytest.mark.parametrize("mode", ["auto", "exact", "enclosure"])
def test_sorted_entry_is_discrepancy_of_reduced_sorted_points(n, mode):
    pts = np.random.default_rng(n).uniform(-3, 3, n)
    x = np.sort(frac(pts))
    want = discrepancy(pts, mode)
    assert as_bits(discrepancy(x, mode)) == as_bits(want)


STAR_POINTS = {
    "sorted_uniform": lambda n: np.sort(np.random.default_rng(n).uniform(
        0, 1, n)),
    "golden_orbit": lambda n: np.sort(np.arange(1, n + 1) * GOLDEN_MEAN
                                      % 1.0),
    "ties": lambda n: np.sort(np.random.default_rng(n).integers(0, 7, n)
                              / 7.0),
}


@pytest.mark.parametrize("n", [1, 2, 10, _BLOCK + 1, (1 << 16) + 1,
                               10 ** 5])
@pytest.mark.parametrize("points", list(STAR_POINTS))
def test_turned_star_discrepancy_is_the_linear_one(n, points):
    x = STAR_POINTS[points](n)
    want = float(one_pass_star_discrepancy(x)).hex()
    assert float(_star_discrepancy(x)).hex() == want


def three_expression_exact(x):
    """The exact extreme discrepancy with its own star pass (edge) and
    j/n, (j+1)/n, (j-1)/n each divided afresh from integers."""
    n = len(x)
    j = np.arange(1, n + 1)
    pref_over = np.maximum.accumulate(x - j / n)
    over = np.max((j + 1) / n - x + pref_over)
    pref_under = np.maximum.accumulate(j / n - x)
    under = np.max(x - (j - 1) / n + pref_under)
    edge = max(np.max(x - (j - 1) / n), np.max(j / n - x))
    return float(max(over, under, edge)), float(edge)


def exact_discrepancy_sets():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 10, 97, 1000, 9999, 10 ** 4):
        yield np.sort(rng.uniform(0, 1, n))
        for make in STAR_POINTS.values():
            yield make(n)
    for _ in range(300):  # ties on a coarse grid, where edge can be the max
        yield np.sort(rng.integers(0, 5, int(rng.integers(1, 50))) / 5)


def test_exact_discrepancy_takes_the_star_pass_in():
    edge_wins = 0
    for x in exact_discrepancy_sets():
        want, edge = three_expression_exact(x)
        star = _star_discrepancy(x)
        assert float(star).hex() == float(edge).hex()
        assert float(_extreme_discrepancy_exact(x, star)).hex() == \
            float(want).hex()
        edge_wins += want == edge > _extreme_discrepancy_exact(x, 0.0)
    assert edge_wins > 0  # the star term is needed, not only carried


def test_discrepancy_rejects_empty():
    with pytest.raises(ValueError):
        discrepancy([])


# ------------------------------------------------------------ DK check

def test_dk_example_golden_13():
    f = BVObservable.indicator(0.0, 0.5)
    orb = np.arange(1, 14) * GOLDEN_MEAN % 1.0
    lhs, bound, ok = dk_check(f, orb)
    assert ok
    assert lhs == pytest.approx(0.5 / 13, abs=1e-12)


def test_dk_constant_observable():
    f = BVObservable.constant(2.5)
    lhs, bound, ok = dk_check(f, RNG.uniform(0, 1, 50))
    assert lhs <= 1e-14 and ok


def test_dk_randomized_small_suite():
    rng = np.random.default_rng(10)
    lib = bv_library()
    for _ in range(100):
        x0 = rng.uniform(0, 1)
        N = int(rng.integers(10, 3000))
        orb = (x0 + np.arange(1, N + 1) * GOLDEN_MEAN) % 1.0
        f = lib[rng.integers(0, len(lib))]
        assert dk_check(f, orb).ok


# ------------------------------------------------------------ BV library

def test_bv_variations_match_brute_force():
    for f in bv_library():
        v = brute_force_variation(f)
        if f.variation == 0:
            assert v <= 1e-12
        else:
            assert abs(v - f.variation) <= 0.01 * f.variation


def test_indicator_wraps():
    f = BVObservable.indicator(0.9, 0.3)
    assert f.eval(0.95) == 1.0 and f.eval(0.1) == 1.0 and f.eval(0.5) == 0.0
    assert f.integral == pytest.approx(0.4)


def test_only_an_indicator_keeps_its_arc():
    assert BVObservable.indicator(-0.1, 2.3)._arc == (
        frac(-0.1), frac(2.3))
    for f in bv_library() + [prop30_observable(2)]:
        assert (f._arc is None) == (not f.label.startswith("1_["))


ARCS = [(0.0, 0.5), (0.2, 0.7), (0.9, 0.3), (0.3, 0.3), (0.0, 0.0)]
TOP = 1.0 - 2.0 ** -53  # the largest float below 1


def arc_point_sets(a, b, n):
    rng = np.random.default_rng(n)
    yield rng.uniform(0, 1, n)
    ends = rng.uniform(0, 1, n)  # both ends exactly, 0 and TOP
    ends[:4] = [a, b, 0.0, TOP][:n]
    yield ends
    yield rng.integers(0, 10, n) / 10  # ties, on the ends here too
    yield np.full(n, a)


@pytest.mark.parametrize("n", [1, 2, 10, 1000])
@pytest.mark.parametrize("a, b", ARCS)
def test_counted_indicator_mean_is_the_mean_of_eval(a, b, n):
    f = BVObservable.indicator(a, b)
    for pts in arc_point_sets(a, b, n):
        want = float(np.mean(f.eval(pts))).hex()
        for x in (pts, np.sort(pts), pts[::-1]):  # any order counts alike
            assert float(_arc_mean(f._arc, x)).hex() == want


def indicator_oracle(a, b):
    """indicator's evaluation as it read before it worked in place."""
    def ev(x):
        xs = np.asarray(frac(np.asarray(x, dtype=float)))
        if a <= b:
            return ((xs >= a) & (xs <= b)).astype(float)
        return ((xs >= a) | (xs <= b)).astype(float)
    return ev


def harmonic_oracle(k, amplitude, phase_sin):
    """harmonic's evaluation as it read before it worked in place."""
    def ev(x):
        x = np.asarray(x, dtype=float)
        ph = 2.0 * math.pi * np.asarray(frac(k * x))
        return amplitude * (np.sin(ph) if phase_sin else np.cos(ph))
    return ev


def hat_oracle(c, height):
    """hat's evaluation as it read before it worked in place."""
    def ev(x):
        x = np.asarray(x, dtype=float)
        d = np.asarray(frac(x - c))
        d = np.minimum(d, 1.0 - d)
        return height * (1.0 - 2.0 * d)
    return ev


IN_PLACE_CASES = [
    (BVObservable.harmonic(1), harmonic_oracle(1, 1.0, False)),
    (BVObservable.harmonic(2, amplitude=0.5), harmonic_oracle(2, 0.5, False)),
    (BVObservable.harmonic(5, 0.2, True), harmonic_oracle(5, 0.2, True)),
    (BVObservable.harmonic(3, -2, True), harmonic_oracle(3, -2, True)),
    (BVObservable.hat(0.5), hat_oracle(0.5, 1.0)),
    (BVObservable.hat(0.25, height=2.0), hat_oracle(0.25, 2.0)),
    (BVObservable.hat(-0.1, height=-3), hat_oracle(frac(-0.1), -3)),
] + [(BVObservable.indicator(a, b), indicator_oracle(a, b))
     for a, b in ARCS]


@pytest.mark.parametrize("f, oracle", IN_PLACE_CASES,
                         ids=[f.label for f, _ in IN_PLACE_CASES])
def test_in_place_observables_equal_their_old_expressions(f, oracle):
    pts = np.concatenate([RNG.uniform(-3, 3, 1000),
                          [0.0, -0.0, 0.25, 0.5, TOP, -1e-300, 1e6 + 0.3]])
    before = pts.copy()
    got = f.eval(pts)
    assert got.tobytes() == oracle(pts).tobytes()
    assert pts.tobytes() == before.tobytes()  # the caller's array is kept
    for x in pts[::50]:
        v = f.eval(float(x))
        assert type(v) is float
        assert v.hex() == float(oracle(float(x))).hex()


# ------------------------------------------------------------ prop30

def test_prop30_single_term_formula():
    psi = prop30_observable(1)
    xs = RNG.uniform(0, 1, 200)
    ref = 16.0 ** -2 * np.cos(16 * 2 * np.pi * xs)
    assert np.allclose(psi.eval(xs), ref, atol=1e-15)
    assert psi.integral == 0.0
    assert psi.variation == pytest.approx(4.0 / 16)


def test_prop30_rejects_terms_over_3():
    with pytest.raises(ValueError):
        prop30_observable(4)
    with pytest.raises(ValueError):
        prop30_observable(0)


def test_prop30_variation_within_1pct():
    for t in (1, 2, 3):
        psi = prop30_observable(t)
        v = brute_force_variation(psi)
        assert abs(v - psi.variation) <= 0.01 * psi.variation


def test_prop30_truncated_alpha_lower_bound():
    # period-16 orbit of the j=1 truncation: all phases integral, so the
    # pairing is the exact rational sum of the amplitudes
    psi = prop30_observable(3)
    mu = AtomicMeasure.uniform(np.arange(16) / 16.0)
    v1 = prop30_integral_exact(psi, mu, 16)
    assert v1 == Fraction(1, 2 ** 8) + Fraction(1, 2 ** 32) + Fraction(1, 2 ** 128)
    assert v1 >= Fraction(1, 2) * Fraction(1, 2 ** 4) ** 2


def test_prop30_fraction_evaluation():
    psi = prop30_observable(2)
    # phase 16 * 1/32 = 1/2 -> cos = -1; 65536/32 integer -> cos = +1
    val = psi.eval(Fraction(1, 32))
    assert val == pytest.approx(-(16.0 ** -2) + 65536.0 ** -2, abs=1e-18)
