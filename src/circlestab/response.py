"""Linear response of rotation-number-preserving families.

The homological equation v(x+alpha) - v(x) = u(x) - <u> is solved
coefficientwise: v_hat(n) = u_hat(n) / (e^{2 pi i n alpha} - 1).  The
response density is d_hat(n) = 2 pi i n u_hat(n) / (1 - e^{2 pi i n
alpha}), i.e. -d/dx of the solution, and observable responses are
finite Fourier pairings against it.  The finite-difference validator
tunes a family to constant rotation number and compares Birkhoff
quotients against the formula; the orbits run in closed form through
the conjugacy the tuner solved, where it has one.

Divisors come from arithmetic._divisor, which reduces the phase n*alpha
exactly, so their magnitudes are correct to machine precision even when
n*alpha is large.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .arithmetic import (
    DIVISOR_FLOOR,
    DiophantineProfile,
    _checked_divisor,
    _reduced_half_phase_sin_cos,
)
from .errors import InsufficientDataError, TuningError
from .fourier import FourierDensity, FourierSeries, pairing
from .invariant import birkhoff_average
from .maps import ConjugatedRotation, _check_orbit_len, tune_rotation_number

__all__ = [
    "DIVISOR_FLOOR",
    "SmallDivisorProfile",
    "small_divisor_profile",
    "solve_homological",
    "linear_response_density",
    "response_pairing",
    "EpsRecord",
    "ResponseReport",
    "fd_response",
    "AverageExpansion",
    "average_expansion",
]

@dataclass(frozen=True)
class SmallDivisorProfile:
    """Magnitudes |1 - e^{2 pi i n alpha}| = 2|sin(pi n alpha)|, n = 1..n_max."""

    alpha: float
    n_max: int
    magnitudes: np.ndarray
    min_magnitude: float
    argmin_n: int
    degenerate: bool  # some magnitude is exactly 0 (rational alpha)

    def magnitude(self, n: int) -> float:
        return float(self.magnitudes[n - 1])


def small_divisor_profile(alpha: float, n_max: int) -> SmallDivisorProfile:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mags = np.empty(n_max)
    for n in range(1, n_max + 1):
        s, _ = _reduced_half_phase_sin_cos(alpha, n)
        mags[n - 1] = 2.0 * abs(s)
    k = int(np.argmin(mags))
    return SmallDivisorProfile(
        alpha=float(alpha), n_max=int(n_max), magnitudes=mags,
        min_magnitude=float(mags[k]), argmin_n=k + 1,
        degenerate=bool(np.any(mags == 0.0)))


def solve_homological(u: FourierSeries, alpha: float,
                      n_max: int) -> FourierSeries:
    """v with v(x+alpha) - v(x) = u(x) - <u>; v_hat(0) = 0.

    Divisors are checked only at frequencies u actually carries.
    """
    if n_max < u.n_max:
        raise ValueError(
            f"n_max = {n_max} below the maximal frequency {u.n_max} of u")
    coeffs = {0: 0.0}
    for n in range(1, u.n_max + 1):
        un = u.coeff(n)
        if un == 0:
            continue
        coeffs[n] = un / _checked_divisor(alpha, n)
    return FourierSeries(coeffs)


def linear_response_density(u: FourierSeries, alpha: float) -> FourierDensity:
    """Signed density d with d_hat(n) = 2 pi i n u_hat(n)/(1 - e^{2 pi i n a})."""
    coeffs = {0: 0.0}
    for n in range(1, u.n_max + 1):
        un = u.coeff(n)
        if un == 0:
            continue
        coeffs[n] = 2.0j * math.pi * n * un / (-_checked_divisor(alpha, n))
    return FourierDensity(coeffs)


def response_pairing(u: FourierSeries, alpha: float,
                     psi: FourierSeries) -> float:
    """d<psi>/d_eps at eps = 0: the pairing of psi with the response density."""
    return pairing(psi, linear_response_density(u, alpha))


# ------------------------------------------------------ finite differences

@dataclass(frozen=True)
class EpsRecord:
    epsilon: float
    c: float          # tuned offset with rot(x + c + eps u) = alpha
    mean_psi: float   # weighted Birkhoff <psi>, an estimate (see orbit)
    quotient: float   # (mean_psi - <psi>_m) / eps
    orbit: str        # "conjugacy": x_i = h(theta0 + i alpha) with the
                      # solved h, off the orbit of f by about the solve's
                      # grid residual (not proven); "direct": iterates f


def fd_response(u: FourierSeries, alpha_profile, psi: FourierSeries,
                eps_ladder: Sequence[float], orbit_len: int = 10 ** 7,
                burn_in: int = 10 ** 3,
                x0: float = 0.0) -> Tuple[float, List[EpsRecord]]:
    """Finite-difference response along a tuned family.

    Each ladder point is tuned to rotation number alpha and psi is
    averaged over a weighted-Birkhoff orbit.  When the tuned family
    carries its solved conjugacy h, the orbit is the closed form
    x_i = h(theta0 + i alpha), theta0 = h^-1(x0), of ConjugatedRotation;
    otherwise f is iterated.  The two smallest eps are
    Richardson-extrapolated under the first-order error model.
    """
    alpha = (alpha_profile.alpha
             if isinstance(alpha_profile, DiophantineProfile)
             else float(alpha_profile))
    ladder = sorted({float(e) for e in eps_ladder}, reverse=True)
    if not ladder:
        raise ValueError("eps ladder is empty")
    if any(e <= 0 for e in ladder):
        raise ValueError("eps values must be positive")
    _check_orbit_len(orbit_len, burn_in)  # before any tuning

    psi0 = psi.mean
    records = []
    for eps in ladder:
        try:
            fam, c = tune_rotation_number(u, eps, alpha)
        except TuningError as exc:
            raise TuningError(
                f"rotation-number tuning failed at eps = {eps:g}: {exc}",
                estimate=exc.estimate, error_bound=exc.error_bound) from exc
        if fam.conjugacy is None:
            mapping, path = fam, "direct"
        else:
            mapping = ConjugatedRotation(alpha, fam.conjugacy)
            path = "conjugacy"
        avg = birkhoff_average(mapping, psi.eval, orbit_len,
                               burn_in=burn_in, x0=x0)
        records.append(EpsRecord(epsilon=eps, c=c, mean_psi=avg,
                                 quotient=(avg - psi0) / eps, orbit=path))

    if len(records) >= 2:
        e1, q1 = records[-2].epsilon, records[-2].quotient
        e2, q2 = records[-1].epsilon, records[-1].quotient
        estimate = (e1 * q2 - e2 * q1) / (e1 - e2)
    else:
        estimate = records[-1].quotient
    return estimate, records


@dataclass(frozen=True)
class ResponseReport:
    """JSON-serializable record of one fd_response experiment."""

    alpha: float
    formula_value: float
    estimate: float
    per_eps: List[EpsRecord]
    orbit_len: int
    burn_in: int

    def relative_error(self) -> float:
        if self.formula_value == 0.0:
            return abs(self.estimate)
        return abs(self.estimate - self.formula_value) / abs(self.formula_value)

    def to_json(self) -> str:
        return json.dumps({
            "alpha": self.alpha,
            "formula_value": self.formula_value,
            "extrapolated_estimate": self.estimate,
            "relative_error": self.relative_error(),
            "per_eps": [
                {"epsilon": r.epsilon, "c": r.c, "mean_psi": r.mean_psi,
                 "quotient": r.quotient, "orbit": r.orbit}
                for r in self.per_eps],
            "orbit": {"length": self.orbit_len, "burn_in": self.burn_in},
        }, indent=2)


# ------------------------------------------------------ average expansion

@dataclass(frozen=True)
class AverageExpansion:
    """Leading term <u(., eps)> ~ A * eps^m fitted over sample means."""

    A: float
    m: int
    residual: float
    degenerate: bool = False


def average_expansion(u_family: Callable[[float], FourierSeries],
                      eps_samples: Sequence[float],
                      max_order: int = 8) -> AverageExpansion:
    """Fit the means of u(., eps) to A*eps^m with integer m >= 0.

    For each candidate order the amplitude has the closed least-squares
    form A = sum(mean_i eps_i^m) / sum(eps_i^{2m}); the best RMS
    residual wins.  All-zero means cannot pin down m and are flagged.
    """
    eps = np.asarray([float(e) for e in eps_samples])
    if len(eps) < 4:
        raise InsufficientDataError(
            f"need >= 4 eps samples, got {len(eps)}")
    if np.any(eps <= 0):
        raise ValueError("eps samples must be positive")
    means = np.asarray([u_family(float(e)).mean for e in eps])

    if np.all(np.abs(means) <= 1e-15):
        # o(eps^m) for every observed m: report order beyond the samples
        return AverageExpansion(A=0.0, m=len(eps), residual=0.0,
                                degenerate=True)

    best = None
    for m in range(max_order + 1):
        basis = eps ** m
        A = float(np.dot(means, basis) / np.dot(basis, basis))
        resid = float(np.sqrt(np.mean((means - A * basis) ** 2)))
        if best is None or resid < best[0] - 1e-18:
            best = (resid, m, A)
    resid, m, A = best
    return AverageExpansion(A=A, m=m, residual=resid, degenerate=False)
