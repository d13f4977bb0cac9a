"""The continuous W kernel (a FourierDensity or an h_* m side) against
midpoint atomization, the path it replaced, kept as an oracle: the
atomized W converges at rate M^-2 in the cell count M, so the Richardson
value w_M + (w_M - w_{M/4}) / 15 cancels the leading error term.  The
closed form for an atomic measure against h_* m against the
Gauss-Legendre path it replaced, kept here as an oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlestab.arithmetic import GOLDEN_MEAN
from circlestab.fourier import FourierDensity
from circlestab.invariant import analyze_functional_graph
from circlestab.maps import ConjugacyDiffeo, ConjugatedRotation, Discretized
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
BISECTIONS = 40
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


def w_gauss_legendre(mu, rho):
    """W(mu, rho) for atomic mu and rho = h_* m or m, in the coordinates
    phi = F_rho(x): G = L_k - phi on the piece after atom k (L_k the
    exact CDF levels), the median
    c of G under dx by 40 rounds of bisection on the x-mass of {G > c},
    and the integral by 12-point Gauss-Legendre on pieces split at the
    root of G - c and at most 1/64 wide."""
    nodes, weights = np.polynomial.legendre.leggauss(GL_POINTS)
    a = rho.cdf(mu.positions)
    b = np.append(a[1:], a[0] + 1.0)
    level = exact_levels(mu.weights)
    ga = rho.quantile(a)

    def above(c):
        return np.sum(rho.quantile(np.clip(level - c, a, b)) - ga) > 0.5

    c = float(bisect(above, np.min(level - b), np.max(level - a)))
    r = np.clip(level - c, a, b)
    lo, hi = np.concatenate([a, r]), np.concatenate([r, b])
    lev = np.concatenate([level, level])
    keep = hi > lo
    lo, hi, lev = lo[keep], hi[keep], lev[keep]
    k = np.ceil((hi - lo) / PIECE_MAX).astype(np.int64)
    panel = np.repeat(np.arange(len(lo)), k)
    j = np.arange(len(panel)) - np.repeat(np.cumsum(k) - k, k)
    width = (hi - lo)[panel] / k[panel]
    half = 0.5 * width
    x = (lo[panel] + j * width + half)[:, None] + half[:, None] * nodes
    f = np.abs(lev[panel][:, None] - x - c) * rho.quantile_deriv(x)
    return float(np.einsum("ij,j,i->", f, weights, half))


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


def test_fourier_density_vs_lebesgue_closed_form():
    # G = F_rho - x = (0.2/pi) sin(2 pi x); median 0; integral 0.4/pi^2
    rho = FourierDensity({0: 1.0, 1: 0.2})
    assert abs(wasserstein(rho, M) - 0.4 / math.pi ** 2) <= 1e-14


def test_smooth_pairs_match_atomized_oracle():
    h = ConjugacyDiffeo([0.2, 0.05], [0.0, 0.1])
    rho = DiffeoInvariantDensity(h)
    f = FourierDensity({0: 1.0, 1: 0.2, 2: 0.1j})
    g = FourierDensity({0: 1.0, 3: 0.3})
    atoms = AtomicMeasure.uniform(np.arange(200) / 200 * 0.7 + 0.01)
    for mu, nu in [(rho, f), (f, g), (atoms, f),
                   (rho, DiffeoInvariantDensity(ConjugacyDiffeo([0.1])))]:
        w = wasserstein(mu, nu)
        fine = [atomize_by_cdf(m.cdf, 1 << 16)
                if not isinstance(m, AtomicMeasure) else m for m in (mu, nu)]
        # the midpoint rule errs by O(M^-2) on smooth CDFs, ~1e-9 here;
        # with two atomized sides there is no clean expansion to cancel
        assert abs(w - wasserstein(*fine)) <= 1e-8 * w
        assert wasserstein(nu, mu) == pytest.approx(w, rel=1e-13)
