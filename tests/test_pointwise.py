"""The scalar-or-array convention shared by every pointwise evaluation:
a scalar point gives a Python float, an array gives an ndarray of the
same shape, and the array values are the scalar values bit for bit."""

import numpy as np
import pytest

from circlestab.arithmetic import GOLDEN_MEAN, continued_fraction, frac
from circlestab.fourier import FourierSeries
from circlestab.invariant import DiffeoInvariantDensity
from circlestab.maps import (
    AttractorRepeller,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Discretized,
    Rotation,
    TunedFamily,
)
from circlestab.measures import LebesgueMeasure, bv_library

RNG = np.random.default_rng(5)
PROF = continued_fraction(GOLDEN_MEAN, 20)
H = ConjugacyDiffeo([0.2, 0.05], [0.0, 0.1])


MAPS = [
    Rotation(GOLDEN_MEAN),
    TunedFamily(FourierSeries.cosine(), 0.05, 0.4),
    AttractorRepeller(5, PROF, 1.0),
    ConjugatedRotation(GOLDEN_MEAN, H),
    Discretized(ConjugatedRotation(GOLDEN_MEAN, H), 64),
]


def _callables():
    out = [("frac", frac)]
    for m in MAPS:
        name = type(m).__name__
        out += [(f"{name}.eval", m.eval), (f"{name}.lift", m.lift)]
    density = DiffeoInvariantDensity(H)
    out += [
        ("ConjugacyDiffeo.eval", H.eval),
        ("ConjugacyDiffeo.deriv", H.deriv),
        ("ConjugacyDiffeo.inverse", H.inverse),
        ("FourierSeries.eval",
         FourierSeries({1: 0.15 - 0.05j, 2: -0.2j, 3: 0.1}).eval),
        ("LebesgueMeasure.cdf", LebesgueMeasure().cdf),
        ("DiffeoInvariantDensity.density", density.density),
        ("DiffeoInvariantDensity.cdf", density.cdf),
    ]
    out += [(f"bv {obs.label}", obs.eval) for obs in bv_library()]
    return out


CALLABLES = _callables()
IDS = [n for n, _ in CALLABLES]

XS = RNG.uniform(-1.0, 2.0, (4, 5))


def _scalar_and_array(fn):
    return XS, [fn(float(x)) for x in XS.ravel()], fn(XS)


@pytest.mark.parametrize("name,fn", CALLABLES, ids=IDS)
def test_scalar_gives_float_array_gives_same_shape(name, fn):
    xs, scalars, arr = _scalar_and_array(fn)
    assert all(type(v) is float for v in scalars)
    assert type(fn(np.float64(0.3))) is float
    assert isinstance(arr, np.ndarray) and arr.shape == xs.shape


@pytest.mark.parametrize("name,fn", CALLABLES, ids=IDS)
def test_array_values_equal_scalar_values_bitwise(name, fn):
    _, scalars, arr = _scalar_and_array(fn)
    assert np.array_equal(arr.ravel(), np.array(scalars))


@pytest.mark.parametrize("m", MAPS + [H],
                         ids=[type(m).__name__ for m in MAPS + [H]])
def test_calling_a_map_evaluates_it(m):
    assert m(0.3) == m.eval(0.3) and type(m(0.3)) is float
    assert np.array_equal(m(XS), m.eval(XS))


def test_lebesgue_cdf_returns_a_copy():
    xs = RNG.uniform(0.0, 1.0, 8)
    out = LebesgueMeasure().cdf(xs)
    assert np.array_equal(out, xs) and out is not xs
    out[0] = -1.0
    assert xs[0] != -1.0
