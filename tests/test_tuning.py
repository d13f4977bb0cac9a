"""The Fourier-Newton rotation-number tuner against the bisection it
replaced, kept here as an oracle, plus its laws and its failure mode."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlestab.arithmetic import GOLDEN_MEAN, SQRT2_MINUS_ONE
from circlestab.errors import TuningError
from circlestab.fourier import FourierSeries
from circlestab.maps import (
    ConjugatedRotation,
    TunedFamily,
    _newton_tol,
    _solve_conjugacy,
    rotation_number,
    tune_rotation_number,
)


def tune_bisect(u, epsilon, target, tol=1e-12, iters=1 << 16):
    """The bisection tuner: rot is monotone in c and lies within
    |eps| sup|u| of c; stops once an estimate is within tol or the
    bracket is narrower than tol."""
    M = u.sup_norm_bound()
    lo = target - abs(epsilon) * M
    hi = target + abs(epsilon) * M
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = rotation_number(TunedFamily(u, epsilon, mid), iters=iters,
                            tol=None)
        if abs(float(r) - target) + r.error_bound <= tol or hi - lo <= tol:
            return mid
        if float(r) < target:
            lo = mid
        else:
            hi = mid
    raise AssertionError("bisection did not converge")


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_newton_offset_matches_bisection(eps):
    u = FourierSeries.cosine()
    fam, c = tune_rotation_number(u, eps, GOLDEN_MEAN)
    assert fam.c == c
    assert abs(c - tune_bisect(u, eps, GOLDEN_MEAN)) <= 1e-12


@st.composite
def trig_family(draw):
    """(u, eps): up to 3 modes of frequency <= 3, eps sup|u'| <= 0.9."""
    modes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3,
                          unique=True))
    coeff = st.floats(-1.0, 1.0)
    coeffs = {0: draw(coeff)}
    for n in modes:
        coeffs[n] = complex(draw(coeff), draw(coeff))
    u = FourierSeries(coeffs)
    slope = u.derivative().sup_norm_bound()
    if slope == 0.0:
        return u, draw(st.floats(-1.0, 1.0))
    return u, draw(st.floats(-0.9, 0.9)) / slope


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(family=trig_family(),
       alpha=st.sampled_from([GOLDEN_MEAN, SQRT2_MINUS_ONE]))
def test_tuned_rotation_number_hits_target(family, alpha):
    u, eps = family
    fam, _ = tune_rotation_number(u, eps, alpha)
    r = rotation_number(fam, iters=1 << 17, tol=None)
    assert abs(float(r) - alpha) <= 1e-11


def test_continuation_reaches_what_the_grids_alone_do_not():
    # x + c + eps cos(10 pi x) is the cos family at rotation number
    # 5 alpha mod 1 = 0.09; Newton from h = id fails on every grid here
    u = FourierSeries.cosine(5)
    eps = 0.9 / (10 * math.pi)
    fam, _ = tune_rotation_number(u, eps, GOLDEN_MEAN)
    r = rotation_number(fam, iters=1 << 17, tol=None)
    assert abs(float(r) - GOLDEN_MEAN) <= 1e-11


def test_largest_grid_scales_with_the_frequencies_of_u():
    # a frequency-8 mode at eps sup|u'| = 0.9 needs a 2^16 grid; capped at
    # 2^13 this raised TuningError with grid residual 2.1e-4
    u = FourierSeries({0: 0.3, 8: 0.5})
    eps = 0.9 / u.derivative().sup_norm_bound()
    fam, _ = tune_rotation_number(u, eps, GOLDEN_MEAN)
    r = rotation_number(fam, iters=1 << 17, tol=None)
    assert abs(float(r) - GOLDEN_MEAN) <= 1e-11


def test_near_critical_family_raises_tuning_error():
    # eps sup|u'| = 0.999: no grid up to 2^13 resolves the conjugacy
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or NaN warnings
        with pytest.raises(TuningError) as ei:
            tune_rotation_number(FourierSeries.cosine(), 0.159, GOLDEN_MEAN)
    assert math.isfinite(ei.value.error_bound)
    assert abs(ei.value.estimate - GOLDEN_MEAN) <= 0.159


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_tune_rejects_bad_eps(eps):
    with pytest.raises(ValueError):
        tune_rotation_number(FourierSeries.cosine(), eps, GOLDEN_MEAN)


def test_negative_eps_tunes():
    u = FourierSeries.cosine()
    _, c_plus = tune_rotation_number(u, 1e-2, GOLDEN_MEAN)
    _, c_minus = tune_rotation_number(u, -1e-2, GOLDEN_MEAN)
    # x + c - eps cos(2 pi x) is x + c + eps cos(2 pi (x + 1/2)) shifted
    assert abs(c_plus - c_minus) <= 1e-14


# ------------------------------------------------- the carried conjugacy

@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_carried_conjugacy_solves_the_conjugacy_equation(eps):
    u = FourierSeries.cosine()
    fam, _ = tune_rotation_number(u, eps, GOLDEN_MEAN)
    h = fam.conjugacy
    theta = np.arange(4096) / 4096
    # lifts: F(h(theta)) = h(theta + alpha)
    assert np.max(np.abs(fam.lift(h.eval(theta))
                         - h.eval(theta + GOLDEN_MEAN))) <= 1e-13


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 0.1])
def test_carried_conjugacy_drops_only_a_tail_below_the_solve_tolerance(eps):
    u = FourierSeries.cosine()
    fam, c = tune_rotation_number(u, eps, GOLDEN_MEAN)
    sol = _solve_conjugacy(u, eps, GOLDEN_MEAN)
    assert sol.c == c
    K = len(fam.conjugacy.a)
    mags = np.abs(sol.eta_hat[1:])
    tol = _newton_tol(u, eps)
    assert 0 < K < len(mags)
    assert 2.0 * np.sum(mags[K:]) <= tol
    assert 2.0 * np.sum(mags[K - 1:]) > tol  # the fewest modes that do
    n = np.arange(1, K + 1)
    eta = sol.eta_hat[1:K + 1]
    assert np.array_equal(fam.conjugacy.a, -4.0 * math.pi * n * eta.imag)
    assert np.array_equal(fam.conjugacy.b, 4.0 * math.pi * n * eta.real)


def test_direct_check_never_takes_the_closed_form(monkeypatch):
    def closed_form(*args, **kwargs):
        raise AssertionError("the tuner's check used the solved conjugacy")

    monkeypatch.setattr(ConjugatedRotation, "orbit", closed_form)
    fam, _ = tune_rotation_number(FourierSeries.cosine(), 1e-2, GOLDEN_MEAN)
    assert fam.conjugacy is not None


def test_rotation_number_ignores_the_carried_conjugacy():
    u = FourierSeries.cosine()
    fam, c = tune_rotation_number(u, 1e-2, GOLDEN_MEAN)
    r = rotation_number(fam, tol=None)
    bare = rotation_number(TunedFamily(u, 1e-2, c), tol=None)
    assert float(r) == float(bare) and r.error_bound == bare.error_bound


def test_conjugacy_is_none_where_it_is_not_carried():
    u = FourierSeries.cosine()
    # sum(|a_n| + |b_n|) is about 4.7 here, so no ConjugacyDiffeo
    assert tune_rotation_number(u, 0.15, GOLDEN_MEAN)[0].conjugacy is None
    assert tune_rotation_number(u, 0.0, GOLDEN_MEAN)[0].conjugacy is None
    assert tune_rotation_number(FourierSeries([0.0]), 0.1,
                                GOLDEN_MEAN)[0].conjugacy is None
