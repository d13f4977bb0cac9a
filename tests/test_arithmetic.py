import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlestab.arithmetic import (
    GOLDEN_MEAN,
    _reduced_half_phase_sin_cos,
    SQRT2_MINUS_ONE,
    TruncationError,
    canonicalize,
    continued_fraction,
    diophantine_type_estimate,
    frac,
    lacunary_alpha,
)
from circlestab.errors import InsufficientDataError

RNG = np.random.default_rng(20260815)


# ---------------------------------------------------------------- points

def half_phase_by_fraction(alpha, n):
    """The Fraction reduction the integer one replaced."""
    r = Fraction(alpha) * n
    r -= math.floor(r)
    rf = float(r)
    if rf > 0.5:
        rf -= 1.0
    return math.sin(math.pi * rf), math.cos(math.pi * rf)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(alpha=st.one_of(
    st.sampled_from([GOLDEN_MEAN, SQRT2_MINUS_ONE, 1.0 / math.pi, 1e-9,
                     0.25, 1e6 + GOLDEN_MEAN, -GOLDEN_MEAN, 123456.789]),
    st.floats(-1e9, 1e9, allow_subnormal=True)),
    n=st.one_of(st.integers(1, 3000), st.integers(1, 10 ** 12)))
def test_half_phase_in_integers_is_the_fraction_reduction(alpha, n):
    # n*alpha mod 1 as (num*n mod den) / den is exact up to one correctly
    # rounded division, as float(Fraction) is: every bit agrees
    got = _reduced_half_phase_sin_cos(alpha, n)
    want = half_phase_by_fraction(alpha, n)
    assert np.array_equal(np.array(got).view(np.int64),
                          np.array(want).view(np.int64))


def test_canonicalize_examples():
    assert canonicalize(1.25) == 0.25
    assert canonicalize(-0.25) == 0.75
    assert canonicalize(0.0) == 0.0


def test_canonicalize_rejects_nonfinite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            canonicalize(bad)


def test_canonicalize_idempotent_and_in_range():
    xs = RNG.uniform(-50, 50, size=10_000)
    for x in xs:
        c = canonicalize(x)
        assert 0.0 <= c < 1.0
        assert canonicalize(c) == c
    # the nasty rounding edge: tiny negative must not produce 1.0
    assert canonicalize(-1e-17) == 0.0
    assert frac(-1e-17) == 0.0


# ---------------------------------------------- continued fractions

def test_golden_mean_convergents():
    prof = continued_fraction(GOLDEN_MEAN, 6)
    assert prof.partial_quotients == [1, 1, 1, 1, 1, 1]
    pq = [(cv.p, cv.q) for cv in prof.convergents]
    assert pq == [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13)]


def test_golden_mean_deep_quotients_all_one():
    prof = continued_fraction(GOLDEN_MEAN, 20)
    assert prof.partial_quotients == [1] * 20


def test_one_over_pi_quotients():
    prof = continued_fraction(1.0 / math.pi, 3)
    assert prof.partial_quotients == [3, 7, 15]


def test_sqrt2_minus_one_quotients():
    prof = continued_fraction(SQRT2_MINUS_ONE, 20)
    assert prof.partial_quotients == [2] * 20


def test_lacunary_alpha_value():
    a = lacunary_alpha(3)
    assert a == Fraction(1, 2 ** 4) + Fraction(1, 2 ** 16) + Fraction(1, 2 ** 64)


def test_lacunary_convergent_denominators():
    # oracle: best rational approximations of the exact alpha searched
    # directly up to denominator 1e5 give exactly these denominators
    a = lacunary_alpha(3)
    prof = continued_fraction(a, 6)
    qs = [cv.q for cv in prof.convergents]
    assert 16 in qs and 65536 in qs
    assert qs[:4] == [15, 16, 4095, 65536]


def test_lacunary_best_approximation_oracle():
    # independent check that 16 and 65536 really are best-approximation
    # denominators: scan all q <= 1e5 for records of min_p |alpha - p/q|
    a = lacunary_alpha(3)
    best = Fraction(1)
    records = []
    for q in range(1, 100_001):
        p = round(a * q)
        err = abs(a - Fraction(p, q))
        if err < best:
            best = err
            records.append(q)
    assert 16 in records and 65536 in records


def test_convergents_alternate_and_satisfy_classical_bound():
    cases = [Fraction(GOLDEN_MEAN), Fraction(1.0 / math.pi), lacunary_alpha(3)]
    cases += [Fraction(float(x)) for x in RNG.uniform(0.01, 0.99, size=10)]
    for a in cases:
        try:
            prof = continued_fraction(a, 12)
        except TruncationError as e:
            prof = e.profile
        signs = []
        conv = prof.convergents
        for j, cv in enumerate(conv):
            diff = Fraction(cv.p, cv.q) - a
            if diff != 0:
                signs.append(1 if diff > 0 else -1)
            if j + 1 < len(conv):
                # |alpha - p_j/q_j| < 1/(q_j q_{j+1}), exact integer check;
                # equality holds iff the expansion terminates at j+1
                lhs = abs(a * cv.q - cv.p) * conv[j + 1].q
                if conv[j + 1].delta > 0:
                    assert lhs < 1
                else:
                    assert lhs == 1
        for s0, s1 in zip(signs, signs[1:]):
            assert s0 * s1 == -1


def test_profile_monotonicity_invariants():
    prof = continued_fraction(GOLDEN_MEAN, 20)
    qs = [cv.q for cv in prof.convergents]
    ds = [cv.delta for cv in prof.convergents]
    assert all(q0 < q1 for q0, q1 in zip(qs, qs[1:]))
    assert all(d0 > d1 for d0, d1 in zip(ds, ds[1:]))
    # classical bound q_j * delta_j < 1/q_j
    assert all(cv.q * cv.delta < 1.0 / cv.q for cv in prof.convergents)


def test_truncation_error_carries_achieved_depth():
    with pytest.raises(TruncationError) as ei:
        continued_fraction(0.5, 3)
    assert ei.value.achieved == 1
    assert ei.value.profile.partial_quotients == [2]
    assert ei.value.profile.convergents[0].delta == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        continued_fraction(GOLDEN_MEAN, 0)
    with pytest.raises(ValueError):
        continued_fraction(1.5, 4)
    with pytest.raises(ValueError):
        continued_fraction(float("nan"), 4)


# ---------------------------------------------- Diophantine type

def test_type_estimate_golden():
    prof = continued_fraction(GOLDEN_MEAN, 20)
    g = diophantine_type_estimate(prof)
    assert abs(g - 1.0) <= 0.05
    assert prof.gamma_hat == g


def test_type_estimate_sqrt2():
    prof = continued_fraction(SQRT2_MINUS_ONE, 20)
    assert abs(diophantine_type_estimate(prof) - 1.0) <= 0.05


def test_type_estimate_lacunary():
    # the structural convergents of the 3-term lacunary number carry the
    # per-convergent exponent log(1/delta)/log(q) - 1 = 3 exactly
    a = lacunary_alpha(3)
    prof = continued_fraction(a, 6)
    by_q = {cv.q: cv for cv in prof.convergents}
    for q in (16, 65536):
        expo = math.log(1.0 / by_q[q].delta) / math.log(q) - 1.0
        assert abs(expo - 3.0) < 1e-9
    g = diophantine_type_estimate(prof)
    assert g > 2.5


def test_type_estimate_requires_four_convergents():
    prof = continued_fraction(GOLDEN_MEAN, 3)
    assert prof.gamma_hat is None
    with pytest.raises(InsufficientDataError):
        diophantine_type_estimate(prof)


def test_type_estimate_floor_at_one():
    for k in (6, 10, 16, 20):
        prof = continued_fraction(GOLDEN_MEAN, k)
        assert diophantine_type_estimate(prof) >= 1.0


def test_type_estimate_refines_for_golden():
    e8 = abs(diophantine_type_estimate(continued_fraction(GOLDEN_MEAN, 8)) - 1.0)
    e20 = abs(diophantine_type_estimate(continued_fraction(GOLDEN_MEAN, 20)) - 1.0)
    assert e20 <= e8 + 1e-9


def test_type_estimate_recovers_designed_exponent():
    # synthetic alpha with a_{j+1} ~ q_j^(gamma-1) has type gamma; build
    # the exact rational of a deep expansion and estimate on a prefix
    for gamma in (1.5, 2.0, 3.0):
        quots = [2]
        q_prev, q_cur = 1, 2
        while len(quots) < 12 and q_cur < 10 ** 18:
            nxt = max(1, int(round(float(q_cur) ** (gamma - 1.0))))
            quots.append(nxt)
            q_cur, q_prev = nxt * q_cur + q_prev, q_cur
        # value of the finite expansion, computed exactly back to front
        val = Fraction(0)
        for a in reversed(quots):
            val = Fraction(1, a + val)
        prof = continued_fraction(val, len(quots) - 1)
        g = diophantine_type_estimate(prof)
        assert abs(g - gamma) <= 0.1, (gamma, g)


# ---------------------------------------------- serialization

def test_profile_json_round_trip():
    prof = continued_fraction(lacunary_alpha(3), 6)
    doc = json.loads(prof.to_json())
    assert doc["partial_quotients"] == prof.partial_quotients
    assert doc["convergents"] == [[c_.p, c_.q, c_.delta]
                                  for c_ in prof.convergents]
    assert doc["gamma_hat"] == prof.gamma_hat
    assert Fraction(doc["alpha_exact"]) == lacunary_alpha(3)
    assert doc["alpha"] == prof.alpha
