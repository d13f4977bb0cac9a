"""Trigonometric polynomials on the circle.

FourierSeries stores coefficients u_hat(n) for 0 <= n <= n_max only;
the negative-frequency half is implied by the reality constraint
u_hat(-n) = conj(u_hat(n)), so evaluation is real by construction.
Every trig sum of the package (a series, a conjugacy h and its
derivative) is evaluated by one function, _trig_sums.  It
reduces each phase n*x mod 1 before multiplying by 2*pi, which keeps
the argument of cos/sin small and the roundoff near eps even for
large n.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Iterable, Mapping, Union

import numpy as np

from .arithmetic import _check_count, _pointwise, frac

__all__ = ["FourierSeries", "pairing"]


def _nonzero_modes(spectra):
    """What _trig_sums reads of the equal-length half-spectra c[0..n_max]:
    [c_0 of each] and (n, ((2 Re c_n, 2 Im c_n) of each)) for each n >= 1
    nonzero in some spectrum, ascending, in Python (not numpy) numbers."""
    c = np.array(spectra, dtype=complex)
    ns = np.flatnonzero(np.any(c[:, 1:] != 0, axis=0)) + 1
    re, im = ((2.0 * part[:, ns]).T.tolist() for part in (c.real, c.imag))
    return (c.real[:, 0].tolist(),
            [(n, tuple(zip(r, i))) for n, r, i in zip(ns.tolist(), re, im)])


def _trig_sums(modes, x):
    """[c_0 + sum_n (2 Re c_n cos(2 pi n x) - 2 Im c_n sin(2 pi n x))
    for each half-spectrum c of modes = _nonzero_modes(spectra)], at x.

    Each listed mode costs one frac, shared by all spectra, plus one cos
    if some spectrum has 2 Re c_n != 0 and one sin if some has
    2 Im c_n != 0.  Each sum accumulates in place: out += (2 Re c_n) cos,
    then out -= (2 Im c_n) sin, leaving out a product whose coefficient
    is 0.  Adding it would change no bit but the sign of a zero sum that
    starts from a -0.0 mean (one that starts at +0.0 never reaches
    -0.0), or, at a NaN x, make NaN a spectrum that is 0 in that mode.
    So several spectra give what each gives alone, bit for bit.  A 0-d
    x gives 0-d arrays.
    """
    means, terms = modes
    x = np.asarray(x, dtype=float)
    outs = [np.empty_like(x) for _ in means]
    for out, c0 in zip(outs, means):
        out.fill(c0)
    # buffers passed as out=, so that a 0-d x stays an array throughout
    cos, t = np.empty_like(x), np.empty_like(x)
    for n, coeffs in terms:
        ph = np.asarray(frac(np.multiply(x, n, out=t)))
        ph *= 2.0 * math.pi
        if any(cr for cr, _ in coeffs):
            np.cos(ph, out=cos)
        if any(ci for _, ci in coeffs):
            np.sin(ph, out=ph)
        for out, (cr, ci) in zip(outs, coeffs):
            if cr:
                out += np.multiply(cr, cos, out=t)
            if ci:
                out -= np.multiply(ci, ph, out=t)
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
            for n in coeffs:
                if isinstance(n, bool) or not isinstance(n, numbers.Integral):
                    raise ValueError(f"mode {n!r} is not an integer")
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
    def cosine(cls, k: int = 1):
        """cos(2 pi k x), k >= 1"""
        _check_count("k", k, 1)
        return cls({k: 0.5})

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
        return _trig_sums(self._modes, x)[0]

    __call__ = eval

    @functools.cached_property
    def _modes(self):
        return _nonzero_modes([self._c])

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


def pairing(psi: FourierSeries, rho: FourierSeries) -> float:
    """integral psi * rho dm = sum_n psi_hat(-n) rho_hat(n), real, over the
    modes nonzero in both, ascending: any other adds an exact zero."""
    s = psi.coeff(0) * rho.coeff(0)
    for k in sorted(dict(psi._modes[1]).keys() & dict(rho._modes[1])):
        s += psi.coeff(-k) * rho.coeff(k) + psi.coeff(k) * rho.coeff(-k)
    return float(s.real)
