"""Trigonometric polynomials on the circle.

FourierSeries stores coefficients u_hat(n) for 0 <= n <= n_max only;
the negative-frequency half is implied by the reality constraint
u_hat(-n) = conj(u_hat(n)), so evaluation is real by construction.
Every trig sum of the package (a series, a density's CDF, a conjugacy
h and its derivative) is evaluated by one function, _trig_sums.  It
reduces each phase n*x mod 1 before multiplying by 2*pi, which keeps
the argument of cos/sin small and the roundoff near eps even for
large n.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Union

import numpy as np

from .arithmetic import _pointwise, frac

__all__ = ["FourierSeries", "FourierDensity", "pairing"]


def _trig_sums(spectra, x):
    """[c_0 + sum_n (2 Re c_n cos(2 pi n x) - 2 Im c_n sin(2 pi n x))
    for each half-spectrum c = c[0..n_max] in spectra], at the points x.

    The spectra have equal lengths.  Each mode that is nonzero in some
    spectrum costs one frac, one sin and one cos, shared by all spectra,
    and each sum accumulates in place: out += (2 Re c_n) cos, then
    out -= (2 Im c_n) sin.  A 0-d x gives 0-d arrays.
    """
    x = np.asarray(x, dtype=float)
    # Python complex numbers index and test faster than numpy scalars,
    # which counts when x is the few points of a bisection step
    rows = [np.asarray(c, dtype=complex).tolist() for c in spectra]
    outs = [np.empty_like(x) for _ in rows]
    for out, c in zip(outs, rows):
        out.fill(c[0].real)
    # buffers passed as out=, so that a 0-d x stays an array throughout
    cos, t = np.empty_like(x), np.empty_like(x)
    for n in range(1, len(rows[0])):
        if not any(c[n] for c in rows):
            continue
        ph = np.asarray(frac(np.multiply(x, n, out=t)))
        ph *= 2.0 * math.pi
        np.cos(ph, out=cos)
        np.sin(ph, out=ph)
        for out, c in zip(outs, rows):
            out += np.multiply(2.0 * c[n].real, cos, out=t)
            out -= np.multiply(2.0 * c[n].imag, ph, out=t)
        del ph  # free before the next mode's frac allocates its own
    return outs


class FourierSeries:
    """Real trigonometric polynomial u(x) = sum_{|n|<=n_max} u_hat(n) e^{2 pi i n x}.

    Construct from a mapping {n: coefficient} (negative n allowed if
    consistent with reality) or from a sequence of coefficients for
    n = 0..n_max.
    """

    def __init__(self, coeffs: Union[Mapping[int, complex], Iterable[complex]]):
        if isinstance(coeffs, Mapping):
            n_max = max((abs(int(n)) for n in coeffs), default=0)
            c = np.zeros(n_max + 1, dtype=complex)
            seen = {}
            for n, v in coeffs.items():
                n = int(n)
                v = complex(v)
                seen[n] = v
                if n >= 0:
                    c[n] = v
            for n, v in seen.items():
                if n < 0:
                    if -n in seen:
                        if abs(np.conj(seen[-n]) - v) > 1e-12:
                            raise ValueError(
                                f"reality constraint violated at n={n}")
                    else:
                        c[-n] = np.conj(v)
        else:
            c = np.asarray(list(coeffs), dtype=complex)
            if c.ndim != 1 or len(c) == 0:
                raise ValueError("need a 1d nonempty coefficient array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        if abs(c[0].imag) > 1e-12:
            raise ValueError("u_hat(0) must be real for a real series")
        c[0] = c[0].real
        self._c = c

    @classmethod
    def cosine(cls, k: int = 1, amplitude: float = 1.0, mean: float = 0.0):
        """amplitude * cos(2 pi k x) + mean"""
        return cls({0: mean, k: amplitude / 2.0})

    # -------------------------------------------------- accessors

    @property
    def n_max(self) -> int:
        return len(self._c) - 1

    @property
    def mean(self) -> float:
        return float(self._c[0].real)

    def coeff(self, n: int) -> complex:
        """u_hat(n) for any |n| <= n_max (0 beyond)."""
        if abs(n) > self.n_max:
            return 0.0 + 0.0j
        if n >= 0:
            return complex(self._c[n])
        return complex(np.conj(self._c[-n]))

    # -------------------------------------------------- evaluation

    @_pointwise
    def eval(self, x):
        """u(x), real; scalar or ndarray x."""
        return _trig_sums([self._c], x)[0]

    __call__ = eval

    # -------------------------------------------------- calculus, norms

    def derivative(self) -> "FourierSeries":
        """u'(x); coefficient map u_hat(n) -> 2 pi i n u_hat(n)."""
        c = self._c * (2.0j * math.pi * np.arange(len(self._c)))
        return FourierSeries(c)

    def sup_norm_bound(self) -> float:
        """Rigorous bound sup|u| <= |u_hat(0)| + 2 sum_{n>=1} |u_hat(n)|."""
        return float(abs(self._c[0]) + 2.0 * np.sum(np.abs(self._c[1:])))

    def is_zero(self) -> bool:
        return bool(np.all(self._c == 0))


class FourierDensity(FourierSeries):
    """Real trig-polynomial density of a measure on the circle.

    c_hat(0) must be 1 (probability density) or 0 (signed zero-mass
    density, e.g. a linear-response derivative); anything else is
    rejected.  Signed values of the density itself are allowed.
    """

    def __init__(self, coeffs):
        super().__init__(coeffs)
        c0 = self._c[0].real
        if abs(c0 - 1.0) <= 1e-12:
            self._c[0] = 1.0
        elif abs(c0) <= 1e-12:
            self._c[0] = 0.0
        else:
            raise ValueError(
                f"density mean must be 0 or 1, got {c0!r}")

    @property
    def is_probability(self) -> bool:
        return self._c[0].real == 1.0

    @_pointwise
    def cdf(self, x):
        """F(x) = integral_0^x density, closed form; scalar or ndarray."""
        # c_0 x + P(x) - P(0) with P' = density - c_0; P(0) is evaluated
        # with the same operations as P(x), so F(0) = 0 and F(1) = c_0
        # exactly
        n = np.arange(1, len(self._c))
        p = np.zeros_like(self._c)
        p[1:] = self._c[1:] / (2j * math.pi * n)
        P, P0 = _trig_sums([p], x)[0], _trig_sums([p], 0.0)[0]
        return self._c[0].real * x + (P - P0)


def pairing(psi: FourierSeries, rho: FourierSeries) -> float:
    """integral psi * rho dm = sum_n psi_hat(-n) rho_hat(n), real."""
    n = min(psi.n_max, rho.n_max)
    s = psi.coeff(0) * rho.coeff(0)
    for k in range(1, n + 1):
        s += psi.coeff(-k) * rho.coeff(k) + psi.coeff(k) * rho.coeff(-k)
    return float(s.real)
