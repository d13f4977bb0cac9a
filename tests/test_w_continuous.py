"""W against h_* m.

The closed forms for an atomic measure and for m against h_* m, against
the Gauss-Legendre paths they replaced, kept here as oracles, and
against midpoint atomization of h_* m: the atomized W converges at rate
M^-2 in the cell count M, so the Richardson value
w_M + (w_M - w_{M/4}) / 15 cancels the leading error term."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlestab import measures
from circlestab.arithmetic import GOLDEN_MEAN, frac
from circlestab.fourier import FourierDensity, FourierSeries
from circlestab.invariant import analyze_functional_graph
from circlestab.maps import (
    ConjugacyDiffeo,
    ConjugatedRotation,
    Discretized,
    tune_rotation_number,
)
from circlestab.measures import (
    AtomicMeasure,
    DiffeoInvariantDensity,
    LebesgueMeasure,
    atomize_by_cdf,
    wasserstein,
)
from test_kernels import exact_levels

M = LebesgueMeasure()
GL_POINTS = 12
PIECE_MAX = 1.0 / 64
SCAN_POINTS = 1024  # G samples that bracket its extrema
BISECTIONS = 40
SEARCH_VALUES = 64  # values of c per round of the median search
# rounds that shrink the bracket at least as far as BISECTIONS halvings
SEARCH_ROUNDS = math.ceil(BISECTIONS / math.log2(SEARCH_VALUES + 1))
CONJUGACIES = {
    "h_a=0.2": ConjugacyDiffeo([0.2]),
    "two-mode": ConjugacyDiffeo([0.2, 0.05], [0.0, 0.1]),
}


def bisect(right_of, lo, hi):
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        right = right_of(mid)
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    return 0.5 * (lo + hi)


def search(above, lo, hi):
    """The point where above, True then False along [lo, hi], turns
    False, to within (SEARCH_VALUES + 1)^-SEARCH_ROUNDS <= 2^-40 of the
    bracket: each round asks above at SEARCH_VALUES evenly spaced
    values at once, as a column, and keeps the gap where it turns."""
    t = np.arange(1, SEARCH_VALUES + 1) / (SEARCH_VALUES + 1)
    for _ in range(SEARCH_ROUNDS):
        c = lo + (hi - lo) * t
        j = int(np.sum(np.logical_and.accumulate(above(c[:, None]))))
        lo, hi = (c[j - 1] if j else lo), (c[j] if j < len(c) else hi)
    return 0.5 * (lo + hi)


def chart(h):
    """The quantile g(phi) = h(h^{-1}(0) + phi) of h_* m, as a lift, and
    its derivative g'."""
    z0 = h.inverse(0.0)
    return (lambda phi: h.eval(z0 + phi)), (lambda phi: h.deriv(z0 + phi))


def gauss_legendre(lo, hi, f):
    """sum_i integral_{lo_i}^{hi_i} f(i, x) dx by 12-point Gauss-Legendre
    on panels at most 1/64 wide; i is a column of piece indices."""
    nodes, weights = np.polynomial.legendre.leggauss(GL_POINTS)
    keep = np.flatnonzero(hi > lo)
    lo, hi = lo[keep], hi[keep]
    k = np.ceil((hi - lo) / PIECE_MAX).astype(np.int64)
    panel = np.repeat(np.arange(len(lo)), k)
    j = np.arange(len(panel)) - np.repeat(np.cumsum(k) - k, k)
    width = (hi - lo)[panel] / k[panel]
    half = 0.5 * width
    x = (lo[panel] + j * width + half)[:, None] + half[:, None] * nodes
    return float(np.einsum("ij,j,i->", f(keep[panel][:, None], x), weights,
                           half))


def w_gauss_legendre(mu, rho):
    """W(mu, rho) for atomic mu and rho = h_* m, in the coordinates
    phi = F_rho(x): G = L_k - phi on the piece after atom k (L_k the
    exact CDF levels), the median
    c of G under dx by 40 rounds of bisection on the x-mass of {G > c},
    and the integral by 12-point Gauss-Legendre on pieces split at the
    root of G - c and at most 1/64 wide."""
    g, dg = chart(rho.h)
    a = rho.cdf(mu.positions)
    b = np.append(a[1:], a[0] + 1.0)
    level = exact_levels(mu.weights)
    ga = g(a)

    def above(c):
        return np.sum(g(np.clip(level - c, a, b)) - ga) > 0.5

    c = float(bisect(above, np.min(level - b), np.max(level - a)))
    r = np.clip(level - c, a, b)
    lev = np.concatenate([level, level])
    return gauss_legendre(np.concatenate([a, r]), np.concatenate([r, b]),
                          lambda i, x: np.abs(lev[i] - x - c) * dg(x))


def monotone_pieces(G):
    """Break points of [0, 1) between which the periodic G is monotone:
    its extrema, bracketed on a grid and refined by bisection on the
    sign of a central difference."""
    t = np.arange(SCAN_POINTS) / SCAN_POINTS
    slope = np.sign(np.diff(G(np.append(t, 1.0))))
    turn = np.nonzero(slope != np.roll(slope, 1))[0]
    # a strict max (up = 1) or min (up = -1) lies within a step of t[turn]
    up = slope[turn - 1]
    d = 2.0 ** -30
    e = bisect(lambda x: up * (G(x + d) - G(x - d)) > 0,
               t[turn] - 1.0 / SCAN_POINTS, t[turn] + 1.0 / SCAN_POINTS)
    strict = slope[turn] == -up
    return np.unique(np.asarray(frac(np.where(strict, e, t[turn]))))


def w_lebesgue_gauss_legendre(h):
    """W(m, h_* m) in the coordinates phi = F(x) of h_* m, where the CDF
    gap is G = g(phi) - phi and dx = g'(phi) dphi: G is split at its
    extrema into monotone pieces, c is the median of G under dx by a
    64-ary search on the x-mass of {G > c}, each round with the roots
    of G - c at 64 values of c by 40 rounds of bisection on each piece,
    and the integral is 12-point Gauss-Legendre on pieces split at
    those roots and at most 1/64 wide."""
    g, dg = chart(h)
    G = lambda phi: g(phi) - phi
    a = monotone_pieces(G)
    b = np.append(a[1:], a[0] + 1.0)
    Ga, Gb = G(a), G(b)
    down = Ga >= Gb
    sgn = np.where(down, 1.0, -1.0)  # sgn * (G - c) falls along a piece

    def root(c):
        """phi in [a, b] with G(phi) = c, clipped to the piece."""
        r = bisect(lambda x: sgn * (G(x) - c) > 0, a, b)
        r = np.where(sgn * (Gb - c) >= 0, b, r)
        return np.where(sgn * (Ga - c) <= 0, a, r)

    def above(c):  # for a column of values c, one per row
        gr = g(root(c))
        return np.sum(np.where(down, gr - g(a), g(b) - gr), axis=-1) > 0.5

    c = float(search(above, np.min(np.minimum(Ga, Gb)),
                     np.max(np.maximum(Ga, Gb))))
    r = root(c)
    return gauss_legendre(np.concatenate([a, r]), np.concatenate([r, b]),
                          lambda i, x: np.abs(G(x) - c) * dg(x))


def richardson(mu, nu_cdf_cells):
    """W(mu, nu) extrapolated from nu atomized on 2^19 and 2^21 cells."""
    coarse, fine = nu_cdf_cells
    w19, w21 = wasserstein(mu, coarse), wasserstein(mu, fine)
    return w21 + (w21 - w19) / 15


@pytest.fixture(scope="module", params=sorted(CONJUGACIES))
def diffeo(request):
    h = CONJUGACIES[request.param]
    rho = DiffeoInvariantDensity(h)
    cells = (atomize_by_cdf(rho.cdf, 1 << 19), atomize_by_cdf(rho.cdf, 1 << 21))
    return h, rho, cells


@pytest.mark.parametrize("N", [100, 1000, 10_000])
def test_kernel_matches_richardson_oracle_on_discretized_measures(diffeo, N):
    h, rho, cells = diffeo
    analysis = analyze_functional_graph(
        Discretized(ConjugatedRotation(GOLDEN_MEAN, h), N), N)
    for mu in [analysis.physical_measure] + analysis.cycle_measures:
        w = wasserstein(rho, mu)
        assert abs(w - richardson(mu, cells)) <= 1e-7 * w
        assert wasserstein(mu, rho) == w


def assert_matches_gauss_legendre(mu, rho):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = wasserstein(mu, rho)
        assert abs(w - w_gauss_legendre(mu, rho)) <= 1e-12 * w
        assert wasserstein(rho, mu) == w


@pytest.mark.parametrize("N", [100, 1000, 10_000, 100_000])
def test_closed_form_matches_gauss_legendre_on_discretized_measures(diffeo,
                                                                    N):
    h, rho, _ = diffeo
    analysis = analyze_functional_graph(
        Discretized(ConjugatedRotation(GOLDEN_MEAN, h), N), N)
    for mu in [analysis.physical_measure] + analysis.cycle_measures:
        assert_matches_gauss_legendre(mu, rho)


@pytest.mark.parametrize("x", [0.0, 0.3, 1.0 - 1e-16])
def test_closed_form_matches_gauss_legendre_on_a_dirac(diffeo, x):
    assert_matches_gauss_legendre(AtomicMeasure.dirac(x), diffeo[1])


def test_closed_form_matches_gauss_legendre_on_atoms_2e_15_apart(diffeo):
    mu = AtomicMeasure([0.4, 0.4 + 2e-15, 0.9], [0.25, 0.5, 0.25])
    assert len(mu) == 3
    assert_matches_gauss_legendre(mu, diffeo[1])


@st.composite
def atomic_and_diffeo(draw):
    k = draw(st.integers(1, 300))
    p = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                               min_size=k, max_size=k)))
    w = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k,
                               max_size=k)))
    modes = draw(st.integers(1, 3))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * modes,
                               max_size=2 * modes)))
    total = float(np.sum(np.abs(c)))
    if total > 0:  # c / total first: s / total is inf for a subnormal total
        c = c / total * draw(st.floats(0.0, 0.95))
    return (AtomicMeasure(p, w / np.sum(w)),
            DiffeoInvariantDensity(ConjugacyDiffeo(c[:modes], c[modes:])))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(atomic_and_diffeo())
def test_closed_form_matches_gauss_legendre_on_random_pairs(pair):
    assert_matches_gauss_legendre(*pair)


def test_diffeo_vs_lebesgue_matches_richardson_oracle(diffeo):
    _, rho, cells = diffeo
    w = wasserstein(rho, M)
    assert abs(w - richardson(M, cells)) <= 1e-10 * w
    assert wasserstein(M, rho) == w


def assert_lebesgue_matches_gauss_legendre(h):
    rho = DiffeoInvariantDensity(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = wasserstein(M, rho)
        assert abs(w - w_lebesgue_gauss_legendre(h)) <= 2e-13 * w
        assert wasserstein(rho, M) == w


def test_lebesgue_closed_form_matches_gauss_legendre(diffeo):
    assert_lebesgue_matches_gauss_legendre(diffeo[0])


@functools.cache
def tuned_conjugacy(eps):
    """h of x + c + eps cos(2 pi x) tuned to the golden mean."""
    return tune_rotation_number(FourierSeries.cosine(), eps,
                                GOLDEN_MEAN)[0].conjugacy


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 5e-2, 1e-1])
def test_lebesgue_closed_form_matches_gauss_legendre_on_tuned_h(eps):
    assert_lebesgue_matches_gauss_legendre(tuned_conjugacy(eps))


@st.composite
def conjugacies(draw, max_modes=5, max_size=0.95):
    """h with 1..max_modes modes and sum(|a_n| + |b_n|) in
    [0.01, max_size]."""
    modes = draw(st.integers(1, max_modes))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * modes,
                               max_size=2 * modes)))
    if not np.any(c):
        c[0] = 1.0
    # c / total first: s / total is inf for a subnormal total
    c = c / float(np.sum(np.abs(c))) * draw(st.floats(0.01, max_size))
    return ConjugacyDiffeo(c[:modes], c[modes:])


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(conjugacies())
def test_lebesgue_closed_form_matches_gauss_legendre_on_random_h(h):
    assert_lebesgue_matches_gauss_legendre(h)


# h_eps = id + eps cos(2 pi (x - x0)) / (2 sin(pi alpha)) + O(eps^2), so
# W(m, h_eps* m) / eps -> integral |cos(2 pi x)| / (2 sin(pi alpha)) = L
L = 1.0 / (math.pi * math.sin(math.pi * GOLDEN_MEAN))


def test_linear_response_limit():
    assert abs(L - 0.34152233125) <= 1e-11
    w = wasserstein(M, DiffeoInvariantDensity(tuned_conjugacy(1e-4)))
    assert abs(w / 1e-4 - L) <= 1e-6 * L


def test_response_correction_is_cubic():
    # x -> x + 1/2 maps the family at eps to the one at -eps, so
    # W = L eps + K eps^3 + ...: the same K at two eps
    K = [(wasserstein(M, DiffeoInvariantDensity(tuned_conjugacy(eps))) / eps
          - L) / eps ** 2 for eps in (1e-3, 1e-2)]
    assert abs(K[0] - K[1]) <= 0.05 * abs(K[1])


# The median of eta under h' dtheta for this h sits just off the level
# of a local extremum of eta, where the x-mass of {eta > c} has an
# infinite slope: Newton hops between two points either side of it.
HOPPING = ConjugacyDiffeo(
    [0.21970254399630604, -0.08530583195492303, 0.1416647753552255,
     -0.16122359878275389],
    [-0.005439554093661115, -0.06104151281547883, -0.1119742869702686,
     -0.13090680126641074])


def test_median_search_guards_match_gauss_legendre(monkeypatch):
    newton, medians = measures._guarded_newton, []

    def recording(f, x, lo, hi):  # logs the steps of the scalar median
        if np.ndim(x):
            return newton(f, x, lo, hi)
        steps = []

        def logged(c):
            value, slope = f(c)
            steps.append((float(c), value, slope))
            return value, slope

        medians.append((float(lo), float(hi), steps))
        return newton(logged, x, lo, hi)

    monkeypatch.setattr(measures, "_guarded_newton", recording)
    assert_lebesgue_matches_gauss_legendre(HOPPING)
    # replay the bracket: each Newton step that was not taken bisected it,
    # either because it left the bracket or because it hopped back
    lo, hi, steps = medians[0]
    left = hopped = 0
    for (c, value, slope), (after, _, _) in zip(steps, steps[1:]):
        lo, hi = (lo, c) if value <= 0.0 else (c, hi)
        newton_step = c + value / slope
        if after != newton_step:
            assert after == 0.5 * (lo + hi)
            left += not lo <= newton_step <= hi
            hopped += lo <= newton_step <= hi
    assert left > 0 and hopped > 0


def test_identity_conjugacy_is_at_distance_zero():
    rho = DiffeoInvariantDensity(ConjugacyDiffeo([0.0]))
    assert wasserstein(M, rho) == 0.0 and wasserstein(rho, M) == 0.0
    assert wasserstein(M, M) == 0.0


@pytest.mark.parametrize("mu, nu", [
    (FourierDensity({0: 0.0, 1: 0.2}), M),               # signed
    (M, FourierDensity({0: 1.0, 1: 0.8})),               # negative
    (FourierDensity({0: 1.0, 1: 0.2}), M),               # probability
    (AtomicMeasure.dirac(0.1), FourierDensity({0: 1.0, 1: 0.2})),
    (DiffeoInvariantDensity(CONJUGACIES["h_a=0.2"]),
     DiffeoInvariantDensity(CONJUGACIES["two-mode"])),   # two h_* m sides
], ids=["signed density", "negative density", "probability density",
        "atomic vs density", "two h_* m sides"])
def test_pairs_without_a_closed_form_are_refused(mu, nu):
    match = "AtomicMeasure.*LebesgueMeasure.*DiffeoInvariantDensity"
    with pytest.raises(TypeError, match=match):
        wasserstein(mu, nu)
    with pytest.raises(TypeError, match=match):
        wasserstein(nu, mu)
