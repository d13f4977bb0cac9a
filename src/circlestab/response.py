"""Linear response of rotation-number-preserving families.

The homological equation v(x+alpha) - v(x) = u(x) - <u> is solved
coefficientwise: v_hat(n) = u_hat(n) / (e^{2 pi i n alpha} - 1).  The
response density is d = -v', d_hat(n) = 2 pi i n u_hat(n) / (1 -
e^{2 pi i n alpha}), and observable responses are finite Fourier
pairings against it.  The finite-difference validator tunes a family
to constant rotation number and compares invariant means of an
observable against the formula.  Where the tuner solved the
conjugacy h, the mean is the trapezoid rule for the integral of
psi(h(theta)) over theta; otherwise it is a Birkhoff average along the
orbit of the tuned map.

Divisors come from arithmetic._checked_divisor, which reduces the phase
n*alpha exactly, so their magnitudes are correct to machine precision
even when n*alpha is large.
"""

import json
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .arithmetic import (
    DIVISOR_FLOOR,
    _check_count,
    _checked_divisor,
    frac,
)
from .errors import ConvergenceError, TuningError
from .fourier import FourierDensity, FourierSeries, pairing
from .invariant import birkhoff_average
from .maps import ConjugacyDiffeo, _check_orbit_len, tune_rotation_number

__all__ = [
    "DIVISOR_FLOOR",
    "solve_homological",
    "linear_response_density",
    "response_pairing",
    "EpsRecord",
    "ResponseReport",
    "fd_response",
]

_SPECTRAL_GRID_START = 256      # first theta grid of a spectral mean
_SPECTRAL_GRID_CAP = 1 << 20    # largest grid before ConvergenceError
_SPECTRAL_TOL = 1e-15           # two grids agree: |gap| <= this (1 + |mean|)


def solve_homological(u: FourierSeries, alpha: float) -> FourierSeries:
    """v with v(x+alpha) - v(x) = u(x) - <u>; v_hat(0) = 0.

    Divisors are checked only at frequencies u actually carries.
    """
    coeffs = {0: 0.0}
    for n, _ in u._modes[1]:
        coeffs[n] = u.coeff(n) / _checked_divisor(alpha, n)
    return FourierSeries(coeffs)


def linear_response_density(u: FourierSeries, alpha: float) -> FourierDensity:
    """Signed density d = -v' of the homological solution v of u."""
    return FourierDensity(-solve_homological(u, alpha).derivative()._c)


def response_pairing(u: FourierSeries, alpha: float,
                     psi: FourierSeries) -> float:
    """d<psi>/d_eps at eps = 0: the pairing of psi with the response density."""
    return pairing(psi, linear_response_density(u, alpha))


# ------------------------------------------------------ finite differences

@dataclass(frozen=True)
class EpsRecord:
    """One ladder point of fd_response; its mean says how it was taken."""

    epsilon: float
    c: float          # tuned offset with rot(x + c + eps u) = alpha
    mean_psi: float   # invariant mean <psi>, an estimate (see orbit)
    quotient: float   # (mean_psi - <psi>_m) / eps
    orbit: str        # "spectral": trapezoid mean of psi o h over theta
                      # with the solved h, whose own error (the solve's
                      # grid residual) is not proven; "direct": weighted
                      # Birkhoff average along the orbit of f
    points: int       # theta grid size M (spectral) or orbit length (direct)


def _spectral_mean(h: ConjugacyDiffeo,
                   psi: FourierSeries) -> Tuple[float, int]:
    """(mean of psi(h(k/M)) over k < M, M) at the first M whose mean
    agrees with that at M/2.

    psi o h is analytic and periodic, so the trapezoid rule converges
    spectrally to the integral of psi over h_* m.  M doubles from 256,
    or from the first power of two above 2 * psi.n_max so that no mode of
    psi aliases onto the mean, until two successive means agree to
    _SPECTRAL_TOL * (1 + |mean|).  Past _SPECTRAL_GRID_CAP points it
    raises ConvergenceError carrying the last mean and gap.
    """
    M = _SPECTRAL_GRID_START
    while M <= 2 * psi.n_max:
        M *= 2
    mean = gap = math.nan
    while M <= _SPECTRAL_GRID_CAP:
        theta = np.arange(M) / M
        prev, mean = mean, float(np.mean(psi.eval(frac(h.eval(theta)))))
        gap = abs(mean - prev)
        if gap <= _SPECTRAL_TOL * (1.0 + abs(mean)):
            return mean, M
        M *= 2
    raise ConvergenceError(
        f"spectral mean did not settle to {_SPECTRAL_TOL:g} (1 + |mean|) "
        f"within {_SPECTRAL_GRID_CAP} points", estimate=mean,
        error_bound=gap)


def fd_response(u: FourierSeries, alpha: float, psi: FourierSeries,
                eps_ladder: Sequence[float], orbit_len: int = 10 ** 7,
                burn_in: int = 10 ** 3) -> Tuple[float, List[EpsRecord]]:
    """Finite-difference response along a tuned family.

    Each ladder point is tuned to rotation number alpha, and <psi> is
    taken under the tuned map's invariant measure.  When the family
    carries its solved conjugacy h, that measure is h_* m and <psi> is
    the spectral mean of psi o h on a theta grid (see _spectral_mean),
    an estimate since h is solved numerically.  Otherwise f is iterated
    from 0 and psi is averaged over a weighted-Birkhoff orbit of
    orbit_len points after burn_in steps; orbit_len and burn_in act only
    on this direct path.  The two smallest eps are
    Richardson-extrapolated under the first-order error model.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    ladder = sorted({float(e) for e in eps_ladder}, reverse=True)
    if not ladder:
        raise ValueError("eps ladder is empty")
    if not all(math.isfinite(e) for e in ladder):
        raise ValueError("eps values must be finite")
    if any(e <= 0 for e in ladder):
        raise ValueError("eps values must be positive")
    _check_count("orbit_len", orbit_len, 1)  # birkhoff_average's floor
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
            avg = birkhoff_average(fam, psi.eval, orbit_len, burn_in=burn_in)
            path, points = "direct", orbit_len
        else:
            avg, points = _spectral_mean(fam.conjugacy, psi)
            path = "spectral"
        records.append(EpsRecord(epsilon=eps, c=c, mean_psi=avg,
                                 quotient=(avg - psi0) / eps, orbit=path,
                                 points=points))

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
        """The report as JSON; the top-level "orbit" block is written only
        when some eps took the direct path, the one path that reads it."""
        doc = {
            "alpha": self.alpha,
            "formula_value": self.formula_value,
            "extrapolated_estimate": self.estimate,
            "relative_error": self.relative_error(),
            "per_eps": [
                {"epsilon": r.epsilon, "c": r.c, "mean_psi": r.mean_psi,
                 "quotient": r.quotient, "orbit": r.orbit,
                 "points": r.points}
                for r in self.per_eps],
        }
        if any(r.orbit == "direct" for r in self.per_eps):
            doc["orbit"] = {"length": self.orbit_len, "burn_in": self.burn_in}
        return json.dumps(doc, indent=2)
