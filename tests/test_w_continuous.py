"""The continuous W kernel (a FourierDensity or an h_* m side) against
midpoint atomization, the path it replaced, kept as an oracle: the
atomized W converges at rate M^-2 in the cell count M, so the Richardson
value w_M + (w_M - w_{M/4}) / 15 cancels the leading error term."""

import math

import numpy as np
import pytest

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

M = LebesgueMeasure()
CONJUGACIES = {
    "h_a=0.2": ConjugacyDiffeo([0.2]),
    "two-mode": ConjugacyDiffeo([0.2, 0.05], [0.0, 0.1]),
}


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
