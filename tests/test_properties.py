"""Property-based laws of the measures layer and the Holder fit
(hypothesis, derandomized so every run draws the same examples)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlestab import measures
from circlestab.arithmetic import frac
from circlestab.experiments import holder_fit
from circlestab.maps import ConjugacyDiffeo
from circlestab.measures import (
    MERGE_TOL,
    AtomicMeasure,
    BVObservable,
    DiffeoInvariantDensity,
    LebesgueMeasure,
    discrepancy,
    dk_check,
    wasserstein,
)
from test_kernels import median_every_end, w_lebesgue_loop
from test_w_continuous import conjugacies

M = LebesgueMeasure()
LAWS = settings(derandomize=True, max_examples=150, deadline=None,
                database=None)

unit = st.floats(0.0, 1.0, exclude_max=True)
# clustered positions: a few centres plus offsets of a few ulps, so merges
# within a cluster and across the 0/1 wrap get exercised
offsets = st.integers(-6, 6).map(lambda k: k * 1e-16)
clustered = st.tuples(st.sampled_from([0.0, 0.3, 1.0 - 1e-16]), offsets).map(
    sum)
positions = st.lists(st.one_of(unit, clustered), min_size=1, max_size=40)
raw_weights = st.floats(1e-3, 1.0)


@st.composite
def atomic_inputs(draw):
    p = np.array(draw(positions))
    w = np.array(draw(st.lists(raw_weights, min_size=len(p),
                               max_size=len(p))))
    return p, w / np.sum(w)


@LAWS
@given(atomic_inputs(), unit)
def test_w_to_lebesgue_is_rotation_invariant(pw, t):
    p, w = pw
    rotated = AtomicMeasure(p + t, w)
    assert math.isclose(wasserstein(rotated, M),
                        wasserstein(AtomicMeasure(p, w), M), abs_tol=1e-12)


@LAWS
@given(atomic_inputs(), atomic_inputs())
def test_w_atomic_is_symmetric_and_zero_on_the_diagonal(pw, qw):
    mu, nu = AtomicMeasure(*pw), AtomicMeasure(*qw)
    assert wasserstein(mu, nu) == wasserstein(nu, mu)
    assert wasserstein(mu, mu) == 0.0


@LAWS
@given(atomic_inputs(), atomic_inputs(), atomic_inputs())
def test_w_atomic_triangle_inequality(pw, qw, rw):
    a, b, c = (AtomicMeasure(*x) for x in (pw, qw, rw))
    assert wasserstein(a, b) <= wasserstein(a, c) + wasserstein(c, b) + 1e-12


@LAWS
@given(atomic_inputs(), atomic_inputs(), unit)
def test_w_atomic_is_rotation_invariant(pw, qw, t):
    (p, w), (q, v) = pw, qw
    assert math.isclose(
        wasserstein(AtomicMeasure(p + t, w), AtomicMeasure(q + t, v)),
        wasserstein(AtomicMeasure(p, w), AtomicMeasure(q, v)), abs_tol=1e-12)


@LAWS
@given(atomic_inputs())
def test_w_to_identity_chart_is_w_to_lebesgue(pw):
    # h = id makes h_* m Lebesgue, so the kernel's h branch must agree
    # with the mass loop for m
    mu = AtomicMeasure(*pw)
    rho = DiffeoInvariantDensity(ConjugacyDiffeo([0.0]))
    assert abs(wasserstein(mu, rho) - w_lebesgue_loop(mu)) <= 1e-15


@LAWS
@given(st.integers(1, 5000))
def test_w_uniform_grid_to_lebesgue_is_quarter_spacing(n):
    mu = AtomicMeasure.uniform(np.arange(n) / n)
    assert math.isclose(wasserstein(mu, M), 1.0 / (4 * n), abs_tol=1e-14)


S = measures._MEDIAN_SAMPLES  # the median's first pass takes every n//S-th end


@st.composite
def median_measures(draw):
    """Atomic measures that stress the median's bracket: n near 1, 2 and
    the sample strides; drawn, 3-digit-rounded (tied), merging (atoms a
    few ulps apart within MERGE_TOL), grid or gapped positions (n - 1
    atoms within 1e-3, one half a turn away); equal or random weights,
    or two near 1/2 on the last two atoms.  Gapped positions with those
    two weights can put the median on one of the two half-turn intervals
    with the largest ends, above every sample but the last of hi."""
    n = draw(st.one_of(st.sampled_from([1, 2, S - 1, S, S + 1, 2 * S - 1,
                                        2 * S, 2 * S + 1, 3 * S + 1]),
                       st.integers(1, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["drawn", "3-digit", "merging", "grid",
                                 "gapped"]))
    if kind == "drawn":
        p = rng.uniform(0.0, 1.0, n)
    elif kind == "3-digit":
        p = np.round(rng.uniform(0.0, 1.0, n), 3)
    elif kind == "merging":
        centres = np.append(0.0, rng.uniform(0.0, 1.0, n // 8))
        p = (centres[rng.integers(0, len(centres), n)]
             + rng.integers(-4, 5, n) * (MERGE_TOL / 4))
    elif kind == "grid":
        p = draw(unit) + np.arange(n) / n
    else:
        x0 = draw(unit)
        p = np.append(x0 + np.sort(rng.uniform(0.0, 1e-3, n - 1)), x0 + 0.5)
    weighting = draw(st.sampled_from(["equal", "random", "two halves"]))
    if weighting == "equal":
        return AtomicMeasure.uniform(p)
    if weighting == "random":
        w = rng.uniform(1e-3, 1.0, n)
    else:
        w = np.full(n, 1e-6 / n)
        w[-2:] = 0.5
    return AtomicMeasure(p, w / np.sum(w))


@LAWS
@given(median_measures(), st.one_of(st.none(), conjugacies(max_modes=1)))
def test_bracketed_median_equals_every_end_oracle(mu, h):
    # the float masses are not proven monotone, so the bracket must find
    # the same crossing of 1/2 as the mass at every end: c and W bit for
    # bit, for m and for h_* m, whose Newton starts from c
    mixture_median, medians = measures._mixture_median, []

    def both(lo, hi):
        medians.append((mixture_median(lo, hi), median_every_end(lo, hi)))
        return medians[-1][1]

    rho = M if h is None else DiffeoInvariantDensity(h)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_mixture_median", both)
        want = wasserstein(mu, rho)
    (got_c, want_c), = medians
    assert got_c.hex() == want_c.hex()
    assert wasserstein(mu, rho).hex() == want.hex()


@LAWS
@given(conjugacies(max_modes=3, max_size=0.6), unit)
def test_w_lebesgue_to_diffeo_is_symmetric_and_rotation_invariant(h, s):
    # h_s = R_-s o h o R_s has eta_s(x) = eta(x + s) and h_s* m = R_-s* h_* m;
    # sum(|a_n| + |b_n|) <= 0.6 keeps h_s a diffeomorphism
    a, b = h.a, h.b
    phase = 2.0 * math.pi * np.arange(1, len(a) + 1) * s
    shifted = ConjugacyDiffeo(a * np.cos(phase) - b * np.sin(phase),
                              a * np.sin(phase) + b * np.cos(phase))
    rho = DiffeoInvariantDensity(h)
    w = wasserstein(M, rho)
    assert w > 0.0 and wasserstein(rho, M) == w
    assert math.isclose(wasserstein(M, DiffeoInvariantDensity(shifted)), w,
                        rel_tol=1e-12)


def test_w_lebesgue_to_diffeo_triangle_inequality_through_a_grid():
    # the atomic closed forms give an oracle free of quadrature: with
    # mu_N the uniform grid, W(m, mu_N) = 1/(4N)
    n = 10 ** 6
    grid = AtomicMeasure.uniform(np.arange(n) / n)
    for h in (ConjugacyDiffeo([0.2]), ConjugacyDiffeo([0.2, 0.05],
                                                      [0.0, 0.1])):
        rho = DiffeoInvariantDensity(h)
        assert abs(wasserstein(M, rho) - wasserstein(grid, rho)) <= \
            wasserstein(M, grid) + 1e-15


@LAWS
@given(st.integers(1, 10_000))
def test_discrepancy_of_grid_is_one_over_n(n):
    # the exact formula differences O(1) terms, so its error is absolute
    assert abs(discrepancy(np.arange(n) / n).value - 1.0 / n) <= 1e-15


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def floor_point_sets(draw):
    """1..2000 finite points: drawn, a few drawn points repeated, or the
    grids {i/N}, {(i + 1/2)/N} and {x0 + i/N}, whose D is 1/N."""
    kind = draw(st.sampled_from(["drawn", "repeated", "grid", "mid-grid",
                                 "turned grid"]))
    if kind == "drawn":
        return np.array(draw(st.lists(finite, min_size=1, max_size=2000)))
    n = draw(st.integers(1, 2000))
    if kind == "repeated":
        return np.resize(draw(st.lists(finite, min_size=1, max_size=4)), n)
    i = np.arange(n, dtype=float)
    if kind == "grid":
        return i / n
    if kind == "mid-grid":
        return (i + 0.5) / n
    return draw(unit) + i / n


@LAWS
@given(floor_point_sets(), st.sampled_from(["exact", "enclosure"]))
def test_discrepancy_is_at_least_one_over_n(pts, mode):
    # the floor D >= 1/N on which the DK suite decides most cases
    n = len(pts)
    assert discrepancy(pts, mode).value >= (1.0 / n) * (1.0 - 2.0 ** -50)


# BV observables with known variation: indicator arcs (a > b wraps),
# harmonics of frequency 1..8 and tents of either sign
bv_observables = st.one_of(
    st.builds(BVObservable.indicator, unit, unit),
    st.builds(BVObservable.harmonic, st.integers(1, 8), st.floats(-3.0, 3.0),
              st.booleans()),
    st.builds(BVObservable.hat, unit, st.floats(-3.0, 3.0)))
point_sets = st.lists(st.one_of(unit, clustered), min_size=1, max_size=200)


@st.composite
def orbits(draw):
    x0, a = draw(unit), draw(unit)
    n = draw(st.sampled_from([1, 2, 13, 144, 1000, 10 ** 4, 10 ** 4 + 1,
                              30_000]))
    return frac(x0 + np.arange(1, n + 1) * a)


@LAWS
@given(bv_observables, st.one_of(point_sets, orbits()))
def test_denjoy_koksma_holds_on_bv_observables(f, pts):
    # Koksma's inequality |mean f - int f| <= V(f) D_N holds for any
    # finite point set, not only for rotation orbits
    assert dk_check(f, pts).ok


@LAWS
@given(atomic_inputs())
def test_atomic_positions_separated_and_mass_kept(pw):
    p, w = pw
    mu = AtomicMeasure(p, w)
    assert np.all((mu.positions >= 0.0) & (mu.positions < 1.0))
    assert np.all(np.diff(mu.positions) > MERGE_TOL)
    if len(mu) > 1:
        assert (mu.positions[0] + 1.0) - mu.positions[-1] > MERGE_TOL
    assert math.isclose(np.sum(mu.weights), np.sum(w), abs_tol=1e-14)


@LAWS
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_frac_lies_in_unit_interval(x):
    r = frac(x)
    assert 0.0 <= r < 1.0
    assert frac(np.array([x]))[0] == r


@LAWS
@given(st.lists(st.tuples(st.floats(1e-8, 1.0), st.floats(1e-8, 1.0)),
                min_size=3, max_size=12, unique_by=lambda p: p[0]),
       st.randoms(use_true_random=False))
def test_holder_fit_ignores_input_order(pts, rnd):
    shuffled = list(pts)
    rnd.shuffle(shuffled)
    assert holder_fit(pts) == holder_fit(shuffled)
