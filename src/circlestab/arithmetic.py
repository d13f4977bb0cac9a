"""Circle arithmetic, continued fractions, Diophantine type estimation.

Points of the circle R/Z are represented as plain floats in [0, 1).
Continued fractions are computed by the exact Euclidean algorithm on
rationals: a float input is first converted to the *exact* binary
rational it represents (doubles are rationals; we do not pretend to
certify irrationality), a Fraction input is used as-is.  This keeps
every p_j, q_j exact and lets delta_j = |alpha - p_j/q_j| be evaluated
in exact rational arithmetic before the final rounding to float, which
matters in the lacunary regime where delta_j underflows any fixed
working precision long before the integers overflow.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np

from .errors import CircleStabError, InsufficientDataError, SmallDivisorError

__all__ = [
    "DIVISOR_FLOOR",
    "GOLDEN_MEAN",
    "SQRT2_MINUS_ONE",
    "CirclePoint",
    "Convergent",
    "DiophantineProfile",
    "TruncationError",
    "canonicalize",
    "continued_fraction",
    "diophantine_type_estimate",
    "frac",
    "lacunary_alpha",
]

# (sqrt(5)-1)/2 and sqrt(2)-1, the two bounded-quotient test irrationals
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_MINUS_ONE = math.sqrt(2.0) - 1.0

# smallest |e^{2 pi i n alpha} - 1| a homological solve divides by
DIVISOR_FLOOR = 1e-13

# A canonical circle point is just a float in [0, 1).
CirclePoint = float

RealLike = Union[float, Fraction, int]


def lacunary_alpha(terms: int = 3) -> Fraction:
    """Exact lacunary rotation number sum_{i=1..terms} 2^(-4^i).

    With terms=3 this is 2^-4 + 2^-16 + 2^-64, which is *not* representable
    as a double (the mantissa would need 61 bits), hence the Fraction.
    """
    _check_count("terms", terms, 1)
    return sum(Fraction(1, 2 ** (4 ** i)) for i in range(1, terms + 1))


def _pointwise(fn):
    """Scalar-or-array convention for pointwise evaluations.

    The point is the last positional argument, so this fits plain
    functions f(x) and methods f(self, x) alike.  fn sees it as a float
    ndarray; a scalar point gets a float back, an array point the
    ndarray fn returns.
    """
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        *head, x = args
        out = fn(*head, np.asarray(x, dtype=float), **kwargs)
        return float(out) if np.ndim(x) == 0 else out

    return wrapped


def _check_count(name: str, v, least: int = 0) -> None:
    """ValueError unless v is an integer, not a bool, and v >= least."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
            or v < least:
        raise ValueError(
            f"got {name} {v!r}; {name} must be >= {least} (an integer)")


def _frac_into(x, out):
    """frac of the float array x written to out, which must not alias x."""
    np.floor(x, out=out)
    np.subtract(x, out, out=out)
    out[out >= 1.0] = 0.0
    return out


@_pointwise
def frac(x):
    """Fractional part mapped into [0, 1); works on scalars and arrays.

    x - floor(x) is x % 1.0 bit for bit (NaN for NaN and inf) at under
    half the cost; a tiny negative x rounds up to 1.0, folded back to 0.
    """
    return _frac_into(x, np.empty_like(x))


def canonicalize(x: float) -> CirclePoint:
    """Canonical representative of x in R/Z, i.e. x - floor(x) in [0, 1)."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot canonicalize non-finite value {x!r}")
    r = x - math.floor(x)
    if r >= 1.0:  # rounding of x - floor(x) for tiny negative x
        r = 0.0
    return r


def _reduced_half_phase_sin_cos(alpha: float, n: int) -> Tuple[float, float]:
    """(sin, cos) of pi*r where r = n*alpha reduced to [-1/2, 1/2] exactly:
    n*alpha mod 1 in integers, then one correctly rounded division."""
    num, den = alpha.as_integer_ratio()
    rf = (num * n) % den / den
    if rf > 0.5:
        rf -= 1.0
    return math.sin(math.pi * rf), math.cos(math.pi * rf)


def _checked_divisor(alpha: float, n: int) -> complex:
    """e^{2 pi i n alpha} - 1 in the cancellation-free half-angle form.

    The phase n*alpha is reduced exactly (a float alpha is a binary
    rational), so the magnitude 2|sin(pi n alpha)| is correct to machine
    precision even when n*alpha is large.  A non-finite alpha is a
    ValueError, and a magnitude below DIVISOR_FLOOR a SmallDivisorError.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    s, c = _reduced_half_phase_sin_cos(alpha, n)
    d = complex(-2.0 * s * s, 2.0 * s * c)
    if abs(d) < DIVISOR_FLOOR:
        raise SmallDivisorError(
            f"|1 - e^(2 pi i n alpha)| = {abs(d):.3g} < {DIVISOR_FLOOR:g} "
            f"at n = {n}: alpha too close to rational with denominator {n}",
            frequency=n, magnitude=abs(d))
    return d


class TruncationError(CircleStabError):
    """Continued fraction terminated before the requested depth.

    The input was exactly rational (every float is) with an expansion of
    fewer quotients than asked for.  `achieved` is the depth reached and
    `profile` the partial DiophantineProfile up to that depth.
    """

    def __init__(self, message: str, achieved: int, profile: "DiophantineProfile"):
        super().__init__(message)
        self.achieved = achieved
        self.profile = profile


@dataclass(frozen=True)
class Convergent:
    """One continued-fraction convergent p/q with delta = |alpha - p/q|."""
    p: int
    q: int
    delta: float


@dataclass
class DiophantineProfile:
    """Continued-fraction data of a rotation number.

    alpha             float image of the input (the exact value is kept as
                      a Fraction in alpha_exact for rational inputs)
    partial_quotients a_1..a_k of the standard expansion of alpha in (0,1)
    convergents       (p_j, q_j, delta_j), q_j strictly increasing,
                      delta_j strictly decreasing
    gamma_hat         estimated Diophantine type, filled in when at least
                      4 convergents are available (None otherwise)
    """

    alpha: float
    partial_quotients: list
    convergents: list
    gamma_hat: Optional[float] = None
    alpha_exact: Optional[Fraction] = field(default=None, repr=False)

    def to_json(self) -> str:
        d = {
            "alpha": self.alpha,
            "partial_quotients": list(self.partial_quotients),
            "convergents": [[cv.p, cv.q, cv.delta] for cv in self.convergents],
            "gamma_hat": self.gamma_hat,
        }
        if self.alpha_exact is not None:
            d["alpha_exact"] = str(self.alpha_exact)
        return json.dumps(d)


def continued_fraction(alpha: RealLike, k: int) -> DiophantineProfile:
    """First k partial quotients and convergents of alpha in (0, 1).

    Floats are expanded as the exact binary rationals they are.  If the
    expansion terminates in fewer than k steps (alpha is too close to a
    low-denominator rational to support the requested depth) a
    TruncationError carrying the achieved depth is raised.
    """
    _check_count("k", k, 1)
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    a_exact = Fraction(alpha)
    if not (0 < a_exact < 1):
        raise ValueError("alpha must lie in the open interval (0, 1)")

    quotients = []
    convergents = []
    # p_{-1}/q_{-1} = 1/0, p_0/q_0 = 0/1 seed the standard recursion
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    num, den = a_exact.numerator, a_exact.denominator  # invert below: a in (0,1)
    terminated_at = None
    while len(quotients) < k:
        # next quotient of [0; a_1, a_2, ...]: invert the remainder
        a_j, rem = divmod(den, num)
        quotients.append(int(a_j))
        p_cur, p_prev = a_j * p_cur + p_prev, p_cur
        q_cur, q_prev = a_j * q_cur + q_prev, q_cur
        delta = abs(a_exact - Fraction(p_cur, q_cur))  # exact, then round once
        convergents.append(Convergent(int(p_cur), int(q_cur), float(delta)))
        if rem == 0:
            terminated_at = len(quotients)
            break
        den, num = num, rem

    exact = a_exact if not isinstance(alpha, float) else None
    profile = DiophantineProfile(
        alpha=float(a_exact),
        partial_quotients=quotients,
        convergents=convergents,
        alpha_exact=exact,
    )
    if terminated_at is not None:
        raise TruncationError(
            f"continued fraction of {alpha!r} terminates at depth "
            f"{terminated_at} < requested {k}",
            achieved=terminated_at, profile=profile)
    # deltas can underflow to 0.0 for extreme convergents, in which case
    # the type is left unestimated rather than failing construction
    if len(convergents) >= 4 and all(cv.delta > 0.0 for cv in convergents):
        profile.gamma_hat = diophantine_type_estimate(profile)
    return profile


def diophantine_type_estimate(profile: DiophantineProfile) -> float:
    """Estimated Diophantine type gamma_hat from the convergent decay.

    delta_j ~ q_j^-(gamma+1) for a type-gamma number, so gamma comes from
    the slope of log(1/delta_j) against log(q_j).  A global fit is biased
    by the early convergents, and single-convergent quotients inherit the
    O(1/log q_j) constant, so we take the largest ordinary-least-squares
    slope over trailing windows of the last half of the expansion (down
    to the final two points) and clamp at the theoretical floor gamma = 1.
    """
    conv = profile.convergents
    if len(conv) < 4:
        raise InsufficientDataError(
            f"need at least 4 convergents, got {len(conv)}")
    if any(cv.delta <= 0.0 for cv in conv):
        raise InsufficientDataError(
            "zero delta in profile (terminated expansion), type undefined")
    # q_j are exact Python ints and can exceed float range; math.log
    # takes big ints directly
    lq = np.array([math.log(cv.q) for cv in conv])
    li = np.array([-math.log(cv.delta) for cv in conv])  # log(1/delta_j)
    n = len(conv)
    best = max(_ols(lq[start:], li[start:])[0]
               for start in range(n // 2, n - 1))
    return max(float(best) - 1.0, 1.0)


def _ols(x, y):
    """Least-squares (slope, intercept) of y on x, one line per row."""
    xm, ym = x.mean(axis=-1, keepdims=True), y.mean(axis=-1, keepdims=True)
    dx, dy = x - xm, y - ym
    slope = np.einsum("...i,...i", dx, dy) / np.einsum("...i,...i", dx, dx)
    return slope, ym[..., 0] - slope * xm[..., 0]
