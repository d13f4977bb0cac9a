"""Measures on the circle: atomic, Lebesgue and the invariant measure
h_* m of a conjugated rotation; the W distance, discrepancy,
Denjoy-Koksma checks, bounded-variation observables, pushforward and
Cesaro averaging.

W is the circular 1-Wasserstein distance min_c integral |F_mu - F_nu - c| dx
(Rabin-Delon-Gousseau, J. Math. Imaging Vis. 41, 2011; the sup-norm
constraint of the underlying dual norm is inactive for probability pairs
since any 1-Lipschitz potential on a diameter-1/2 space recenters into
[-1/4,1/4]).  It is closed form for an atomic measure against an atomic
one, m or h_* m, and for m against h_* m: exact up to the rounding of
correctly rounded CDF levels and of the roots and medians that Newton
finds.  wasserstein refuses every other pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from .arithmetic import _check_count, _pointwise, canonicalize, frac
from .errors import ResourceLimitError
from .fourier import _trig_sums
from .maps import _BLOCK, CircleMap, ConjugacyDiffeo

__all__ = [
    "AtomicMeasure",
    "BVObservable",
    "DKCheck",
    "DiffeoInvariantDensity",
    "DiscrepancyResult",
    "LebesgueMeasure",
    "bv_library",
    "cesaro_average",
    "discrepancy",
    "dk_check",
    "prop30_integral_exact",
    "prop30_observable",
    "pushforward",
    "wasserstein",
]

MERGE_TOL = 1e-15          # atoms closer than this coincide
EXACT_DISCREPANCY_CAP = 10_000
DISCREPANCY_POINT_CAP = 10_000_000  # orbit points the CLI ladder may ask for
CESARO_ATOM_CAP = 20_000_000


class LebesgueMeasure:
    """The Lebesgue probability measure m on the circle (stateless)."""

    def __eq__(self, other):
        return isinstance(other, LebesgueMeasure)

    def __hash__(self):
        return hash("LebesgueMeasure")

    def __repr__(self):
        return "LebesgueMeasure()"

    @_pointwise
    def cdf(self, x):
        return x.copy()


class DiffeoInvariantDensity:
    """Invariant measure h_* m of T = h o R_alpha o h^{-1}.

    Density 1/h'(h^{-1}(x)) and CDF h^{-1}(x) - h^{-1}(0).  W against an
    atomic measure or m is closed form in the chart z = h^{-1}(x).
    """

    def __init__(self, h: ConjugacyDiffeo):
        self.h = h
        self._inv0 = h.inverse(0.0)

    @_pointwise
    def density(self, x):
        return 1.0 / self.h.deriv(self.h.inverse(x))

    @_pointwise
    def cdf(self, x):
        return self.h.inverse(x) - self._inv0

    def __repr__(self):
        return (f"DiffeoInvariantDensity(a={self.h.a.tolist()}, "
                f"b={self.h.b.tolist()})")


class AtomicMeasure:
    """Finitely supported probability measure sum w_i delta_{p_i}.

    Positions are canonicalized and sorted strictly increasing: sorted
    atoms whose consecutive gaps are <= MERGE_TOL form one run, however
    wide the chain, and merge into its first position with weights added
    in order; the last atom folds into the first if within MERGE_TOL
    across the 0/1 wrap.  Weights must be positive and sum to 1 +- 1e-12.

    Equal weights sort the fresh frac copy of the positions in place and
    keep the weights as they are.  The bits are those of a stable sort:
    frac never returns -0.0 and non-finite positions are refused, so
    tied positions are equal floats and any sort gives the same array,
    and a run of r equal weights sums to the same bits in any order.
    Unequal weights keep the stable argsort, so tied atoms add in input
    order.
    """

    def __init__(self, positions, weights):
        p = np.atleast_1d(np.asarray(positions, dtype=float))
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if p.shape != w.shape or p.ndim != 1 or len(p) == 0:
            raise ValueError("positions and weights must be equal-length 1d")
        if np.any(~np.isfinite(p)):
            raise ValueError("non-finite positions")
        if not np.all(w > 0):  # also rejects nan weights
            raise ValueError("weights must be positive")
        total = float(np.sum(w))
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total!r}, not 1")
        p = np.asarray(frac(p))
        if np.all(w == w[0]):
            p.sort()
        else:
            order = np.argsort(p, kind="stable")
            p, w = p[order], w[order]
        starts = np.append(True, np.diff(p) > MERGE_TOL)
        # bincount adds each run's weights in index order, not pairwise
        w = np.bincount(np.cumsum(starts) - 1, weights=w)
        p = p[starts]
        if len(p) > 1 and (p[0] + 1.0) - p[-1] <= MERGE_TOL:
            w[0] += w[-1]
            p, w = p[:-1], w[:-1]
        self.positions = p
        self.weights = w

    @classmethod
    def dirac(cls, x: float) -> "AtomicMeasure":
        return cls([x], [1.0])

    @classmethod
    def uniform(cls, points) -> "AtomicMeasure":
        points = np.atleast_1d(np.asarray(points, dtype=float))
        n = len(points)
        # n = 0 gets the constructor's ValueError, not a ZeroDivisionError
        return cls(points, np.full(n, 1.0 / max(n, 1)))

    def __len__(self):
        return len(self.positions)

    def __eq__(self, other):
        return (isinstance(other, AtomicMeasure)
                and np.array_equal(self.positions, other.positions)
                and np.array_equal(self.weights, other.weights))


# ---------------------------------------------------------------- W distance

def _levels(w: np.ndarray) -> np.ndarray:
    """Correctly rounded prefix sums of w: np.cumsum plus the running sum
    of each step's rounding error, recovered exactly by TwoSum, in place."""
    s = np.cumsum(w)
    prev = carry = 0.0  # the last block's final sum and running error
    for lo in range(0, len(s), _BLOCK):
        sk, wk = s[lo:lo + _BLOCK], w[lo:lo + _BLOCK]
        a = np.concatenate(([prev], sk[:-1]))  # sk = a + wk, rounded
        prev = sk[-1]
        b = sk - a
        e = (a - (sk - b)) + (wk - b)
        e[0] += carry
        np.cumsum(e, out=e)
        carry = e[-1]
        sk += e
    return s


def _weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    o = np.argsort(values)
    cw = np.cumsum(weights[o])
    k = int(np.searchsorted(cw, 0.5 * cw[-1]))
    return float(values[o][min(k, len(values) - 1)])


def _w_atomic_atomic(mu: AtomicMeasure, nu: AtomicMeasure) -> float:
    pos = np.concatenate([mu.positions, nu.positions])
    sgn = np.concatenate([mu.weights, -nu.weights])
    upos, inv = np.unique(pos, return_inverse=True)
    jump = np.zeros(len(upos))
    np.add.at(jump, inv, sgn)
    G = _levels(jump)  # F_mu - F_nu on [upos_k, upos_{k+1})
    seg = np.diff(np.append(upos, upos[0] + 1.0))
    c = _weighted_median(G, seg)
    # einsum's sum does not depend on the BLAS thread count; np.dot's does
    return float(np.einsum("i,i->", seg, np.abs(G - c)))


_NEWTON_STEPS = 64  # guarded Newton steps; bisection alone needs 54
_FREE_STEPS = 12    # Newton steps before each one must halve the last


def _guarded_newton(f, x, lo, hi):
    """Where the falling f crosses 0 in [lo, hi], elementwise, by Newton
    from x; f(x) is (f, -f') at x.

    Each step moves the end of the bracket on x's side to x.  A step
    that would leave the bracket, or has slope 0 or inf, bisects it;
    so does one longer than half the last step, after _FREE_STEPS:
    near a kink or an extremum Newton can hop between two points either
    side of the crossing, and the bracket then hardly shrinks.  A point
    stops once its step is below 2^-52, the ulp of 1.
    """
    x, lo, hi = (np.array(v, dtype=float) for v in (x, lo, hi))
    done = np.zeros(x.shape, dtype=bool)
    last = np.full(x.shape, math.inf)
    for i in range(_NEWTON_STEPS):
        value, slope = f(x)
        right = value <= 0.0  # x at or right of the crossing
        lo, hi = np.where(right, lo, x), np.where(right, x, hi)
        new = np.divide(value, slope, out=np.full(x.shape, math.nan),
                        where=(slope > 0.0) & (slope < math.inf))
        new += x
        ok = (lo <= new) & (new <= hi)
        if i >= _FREE_STEPS:
            ok &= np.abs(new - x) <= 0.5 * last
        new = np.where(ok, new, 0.5 * (lo + hi))
        last = np.abs(new - x)
        np.copyto(x, new, where=~done)
        done |= last < 2.0 ** -52
        if done.all():
            break
    return x


def _w_atomic_charted(mu: AtomicMeasure,
                      h: Optional[ConjugacyDiffeo]) -> float:
    """W(mu, h_* m) for atomic mu, closed form; h = None stands for m.

    In the chart z = h^{-1}(x) the CDF gap is G = L_k - z, up to a
    constant, on the piece [z_k, z_{k+1}] after atom k of level L_k.  G
    sweeps [L_k - z_{k+1}, L_k - z_k] with |G'| = 1, so it pushes dz to
    a mixture of uniforms, whose median, taken at all interval ends at
    once, is c for m.  For h, _guarded_newton on the x-mass of {G > c},
    sum h(r_k) - h(z_k) = 1/2 with r_k = clip(L_k - c, z_k, z_{k+1}),
    finishes c.  With eta = h - id, each piece integrates by parts to
    integral |G - c| dz + [|G - c| eta] + integral sign(G - c) eta.
    """
    z = mu.positions if h is None else h.inverse(mu.positions)
    L = _levels(mu.weights)
    z_next = np.append(z[1:], z[0] + 1.0)
    hi, lo = L - z, L - z_next
    lo_s, hi_s = np.sort(lo), np.sort(hi)
    clo, chi = (np.cumsum(np.append(0.0, s)) for s in (lo_s, hi_s))

    # mass(t) = sum clip(t - lo, 0, hi - lo) at every interval end t
    ends = np.unique(np.concatenate([lo, hi]))
    i = np.searchsorted(lo_s, ends, side="right")
    j = np.searchsorted(hi_s, ends, side="right")
    masses = (ends * i - clo[i]) - (ends * j - chi[j])  # increasing
    k = int(np.searchsorted(masses, 0.5))  # >= 1: no mass below min(lo)
    dens = i[k - 1] - j[k - 1]
    c = float(ends[k - 1]) + (0.5 - masses[k - 1]) / max(dens, 1)
    if h is not None:
        eta = h.displacement_fn(z)

        def excess(c):  # the x-mass of {G > c} less 1/2, and its -slope
            r = np.clip(L - c, z, z_next)
            # h(r) - h(z) as small terms, so c resolves to an ulp
            mass = float(np.sum((r - z) + (h.displacement_fn(r) - eta)))
            inner = r[(r > z) & (r < z_next)]
            return mass - 0.5, float(np.sum(h.deriv(inner)))

        c = float(_guarded_newton(excess, c, lo_s[0], hi_s[-1]))
    # integral of |g - c| over each uniform piece, F(t) = t|t|/2
    F = lambda t: 0.5 * t * np.abs(t)
    piece = F(hi - c) - F(lo - c)
    if h is not None:
        dz = z_next - z
        d = np.clip(hi - c, 0.0, dz)  # G > c on [z_k, z_k + d]
        piece += (np.abs(lo - c) * np.roll(eta, -1) - np.abs(hi - c) * eta
                  + 2.0 * h.displacement_integral(z, d)
                  - h.displacement_integral(z, dz))
    return float(np.sum(piece))


def _crossings(t, s):
    """The cells [t_k, t_{k+1}] over which s changes sign, the sign sgn
    that makes sgn * s fall over each, and the secant root in each."""
    k = np.flatnonzero((s[:-1] > 0.0) != (s[1:] > 0.0))
    sgn = np.where(s[k + 1] > 0.0, -1.0, 1.0)
    return k, sgn, t[k] + (t[k + 1] - t[k]) * (s[k] / (s[k] - s[k + 1]))


def _w_lebesgue_charted(h: ConjugacyDiffeo) -> float:
    """W(m, h_* m), closed form in the chart theta = h^{-1}(x).

    There the CDF gap is eta = h - id, up to a constant, and dx = h'
    dtheta, so W = min_c integral |eta - c| h' dtheta.  Between
    consecutive roots r_i of eta - c the integrand has one sign, and
    integral (eta - c) h' = integral eta - c (r_{i+1} - r_i)
    + [(eta - c)^2 / 2], all closed form.  The extrema of eta, where
    eta' = h' - 1 changes sign on a grid of max(256, 64 n_max) points,
    cut the circle into pieces where eta is monotone; each holds at most
    one root, which _guarded_newton finds.  The median c makes the
    x-mass of {eta > c}, the sum of h(r_{i+1}) - h(r_i) over the pieces
    where eta > c, equal 1/2; _guarded_newton finds it from c = 0.
    """
    n = max(256, 64 * len(h.a))
    t = np.arange(n + 1) / n
    k, sgn, start = _crossings(t, h.deriv(t) - 1.0)
    if not len(k):  # h = id
        return 0.0
    d = 2.0 ** -24  # eta'' by a central difference, ample for an extremum

    def turn(x):
        left, right = h.deriv(x - d), h.deriv(x + d)
        return (sgn * (0.5 * (left + right) - 1.0),
                sgn * (left - right) / (2.0 * d))

    e = _guarded_newton(turn, start, t[k], t[k + 1])
    eta = h.displacement_fn(e)  # eta(e_0 + 1) is eta(e_0), bit for bit
    t, eta = np.append(e, e[0] + 1.0), np.append(eta, eta[0])

    def pieces(c):
        """The roots r of eta - c, ascending, the widths r_{i+1} - r_i of
        the pieces between them, eta - c and h' at the roots, and
        whether eta > c on the piece after each.  Each point set takes
        eta and h' from one _trig_sums pass, with the bits of two."""
        k, sgn, start = _crossings(t, eta - c)

        def root(x):
            e, dh = _trig_sums(h._eta_dh, x)
            return sgn * (e - c), sgn * (1.0 - dh)

        r = _guarded_newton(root, start, t[k], t[k + 1])
        dr = np.append(r[1:], r[0] + 1.0) - r
        e, dh = _trig_sums(h._eta_dh, r)
        return r, dr, e - c, dh, sgn < 0.0

    def excess(c):  # the x-mass of {eta > c} less 1/2, and its -slope
        r, dr, e, dh, up = pieces(c)
        # h(r_{i+1}) - h(r_i) as small terms
        dx = dr + (np.roll(e, -1) - e)
        with np.errstate(divide="ignore"):  # inf at a root where eta' = 0
            slope = float(np.sum(dh / np.abs(dh - 1.0)))
        return float(np.sum(dx[up])) - 0.5, slope

    c = float(_guarded_newton(excess, 0.0, np.min(eta), np.max(eta)))
    r, dr, e, _, up = pieces(c)
    piece = (h.displacement_integral(r, dr) - c * dr
             + 0.5 * (np.roll(e, -1) ** 2 - e ** 2))
    return float(np.sum(np.where(up, piece, -piece)))


def atomize_by_cdf(cdf: Callable, cells: int) -> AtomicMeasure:
    """Midpoint atomization of a probability measure given by its CDF.

    Cell masses are exact CDF increments, so the result differs from the
    original by at most 1/(2*cells) in W.  No W path uses it: the tests
    take it as an oracle for W against h_* m, and the traced benchmark
    (bench/spans.py) binds it by name.
    """
    edges = np.arange(cells + 1) / cells
    cum = np.asarray(cdf(edges), dtype=float)
    massw = np.diff(cum)
    if np.any(massw < -1e-12):
        raise ValueError("decreasing CDF: not a (nonnegative) measure")
    massw = np.clip(massw, 0.0, None)
    mids = (np.arange(cells) + 0.5) / cells
    keep = massw > 0
    massw = massw[keep] / np.sum(massw[keep])
    return AtomicMeasure(mids[keep], massw)


def wasserstein(mu, nu) -> float:
    """Circular W1 distance between probability measures, closed form.

    Takes an atomic measure against an atomic one, m or h_* m (a
    DiffeoInvariantDensity), and m against m or h_* m, in either order.
    Any other pair, such as a FourierDensity side or two h_* m sides,
    has no closed form here and raises TypeError.
    """
    sides = (AtomicMeasure, LebesgueMeasure, DiffeoInvariantDensity)
    if not (isinstance(mu, sides) and isinstance(nu, sides)) or (
            isinstance(mu, DiffeoInvariantDensity)
            and isinstance(nu, DiffeoInvariantDensity)):
        raise TypeError(
            "wasserstein takes an AtomicMeasure against an AtomicMeasure, "
            "LebesgueMeasure or DiffeoInvariantDensity, and a "
            "LebesgueMeasure against a LebesgueMeasure or "
            f"DiffeoInvariantDensity, not {mu!r} and {nu!r}")
    if isinstance(nu, AtomicMeasure) and not isinstance(mu, AtomicMeasure):
        mu, nu = nu, mu
    if isinstance(mu, AtomicMeasure):
        if isinstance(nu, AtomicMeasure):
            return _w_atomic_atomic(mu, nu)
        return _w_atomic_charted(mu, getattr(nu, "h", None))
    h = getattr(mu, "h", getattr(nu, "h", None))  # None for m against m
    return 0.0 if h is None else _w_lebesgue_charted(h)


# --------------------------------------------------------------- operators

def pushforward(m: CircleMap, mu: AtomicMeasure) -> AtomicMeasure:
    """Transfer operator on atomic measures: atoms move, weights do not."""
    return AtomicMeasure(m.eval(mu.positions), mu.weights)


def cesaro_average(mu: AtomicMeasure, alpha: float, n: int) -> AtomicMeasure:
    """(1/n) sum_{i=1..n} L_{R_alpha}^i mu, an atomic measure."""
    _check_count("n", n, 1)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    total = n * len(mu)
    if total > CESARO_ATOM_CAP:
        raise ResourceLimitError(
            f"cesaro_average would allocate {total} atoms (cap "
            f"{CESARO_ATOM_CAP})", requested=total, limit=CESARO_ATOM_CAP)
    i = np.arange(1, n + 1, dtype=float)
    pos = frac(mu.positions[None, :] + (i * float(alpha))[:, None]).ravel()
    w = np.tile(mu.weights / n, n)
    return AtomicMeasure(pos, w)


# -------------------------------------------------------------- discrepancy

@dataclass(frozen=True)
class DiscrepancyResult:
    """Extreme (interval) discrepancy, exact or enclosed.

    exact is None above the exact cap, in which case [lower, upper] =
    [D*, 2 D*] encloses the true value; star is always the exact star
    discrepancy D*.
    """
    n: int
    star: float
    lower: float
    upper: float
    exact: Optional[float]

    @property
    def value(self) -> float:
        return self.exact if self.exact is not None else self.upper

    def __float__(self):
        return self.value


def _star_discrepancy(x: np.ndarray) -> float:
    """Star discrepancy of sorted points in [0, 1)."""
    # max of k/n - x[j] and x[j] - (k-1)/n, rank k = j + 1, by blocks:
    # max is exact
    n = len(x)
    worst = -np.inf
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        xb = x[lo:hi]
        q = np.arange(lo, hi + 1, dtype=float)
        q /= n  # (k-1)/n and k/n share q
        d = q[1:] - xb
        worst = max(worst, np.max(d),
                    np.max(np.subtract(xb, q[:-1], out=d)))
    return float(worst)


def _extreme_discrepancy_exact(x_sorted: np.ndarray, star: float) -> float:
    # sup over closed arcs of count/n - length and length - count/n,
    # reduced to prefix maxima over sorted points (O(n) after sort); the
    # arcs with an end at 0 give the star discrepancy, passed in
    x = x_sorted
    n = len(x)
    q = np.arange(n + 2, dtype=float)
    q /= n  # (j-1)/n, j/n and (j+1)/n for j = 1..n
    pref_over = np.maximum.accumulate(x - q[1:-1])
    over = np.max(q[2:] - x + pref_over)
    pref_under = np.maximum.accumulate(q[1:-1] - x)
    under = np.max(x - q[:-2] + pref_under)
    return float(max(over, under, star))


def discrepancy(points, mode: str = "auto") -> DiscrepancyResult:
    """Extreme discrepancy sup_{arcs} |count/N - length| of finite points.

    mode: 'auto' (exact up to N = 1e4, enclosure beyond), 'exact', or
    'enclosure'.  The enclosure is [D*, 2 D*] from the exact star
    discrepancy.  The value lies in [1/N, 1].  The points are checked,
    and reduced mod 1 into a fresh array that is sorted in place.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if len(pts) == 0:
        raise ValueError("empty point set")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite points")
    if mode not in ("auto", "exact", "enclosure"):
        raise ValueError(f"unknown mode {mode!r}")
    x = frac(pts)  # a fresh array, so sorting it leaves points alone
    x.sort()
    n = len(x)
    star = _star_discrepancy(x)
    if mode == "exact" or (mode == "auto" and n <= EXACT_DISCREPANCY_CAP):
        d = _extreme_discrepancy_exact(x, star)
        return DiscrepancyResult(n=n, star=star, lower=d, upper=d, exact=d)
    return DiscrepancyResult(n=n, star=star, lower=star, upper=2.0 * star,
                             exact=None)


# ------------------------------------------------------------ BV observables

class BVObservable:
    """Observable with analytically known total variation and mean.

    variation is the circle variation (an indicator counts both jumps);
    for multi-term trig sums it is the per-term sum 4*amplitude*frequency,
    an upper bound within 1% of the true variation for the families here.
    """

    def __init__(self, eval_fn: Callable, variation: float,
                 integral: float, label: str):
        self._eval = eval_fn
        self.variation = float(variation)
        self.integral = float(integral)
        self.label = label
        self._arc = None  # the closed arc (a, b) of an indicator
        # a nan or inf amplitude, height or value shows in one of them
        if not all(map(math.isfinite, (self.variation, self.integral))):
            raise ValueError(f"{label}: variation and integral must be finite")

    def eval(self, x):
        return self._eval(x)

    __call__ = eval

    def __repr__(self):
        return f"BVObservable({self.label!r}, V={self.variation:g})"

    # ---- constructors

    @classmethod
    def indicator(cls, a: float, b: float) -> "BVObservable":
        """1_{[a,b]} on the circle (a <= b as canonical reps, else wraps).

        It keeps the canonical (a, b) as _arc, so a mean over points can
        count them (_arc_mean) instead of evaluating: the DK suite takes
        an indicator's mean that way.
        """
        a, b = canonicalize(a), canonicalize(b)

        @_pointwise
        def ev(x):
            # the 0/1 values, in place on frac's array
            xs = np.asarray(frac(x))
            np.copyto(xs, _on_arc((a, b), xs))
            return xs

        length = (b - a) if a <= b else (1.0 - a + b)
        obs = cls(ev, 2.0, length, f"1_[{a:g},{b:g}]")
        obs._arc = (a, b)
        return obs

    @classmethod
    def constant(cls, value: float) -> "BVObservable":
        @_pointwise
        def ev(x):
            return np.full(x.shape, float(value))

        return cls(ev, 0.0, value, f"const {value:g}")

    @classmethod
    def harmonic(cls, k: int, amplitude: float = 1.0,
                 phase_sin: bool = False) -> "BVObservable":
        """amplitude * cos(2 pi k x) (or sin); V = 4 |amplitude| k."""
        _check_count("k", k, 1)
        k = int(k)
        trig = np.sin if phase_sin else np.cos

        @_pointwise
        def ev(x):
            # amplitude * trig(2 pi * frac(k x)), in place on frac's array
            ph = np.asarray(frac(k * x))
            np.multiply(ph, 2.0 * math.pi, out=ph)
            trig(ph, out=ph)
            return np.multiply(ph, amplitude, out=ph)

        name = "sin" if phase_sin else "cos"
        return cls(ev, 4.0 * abs(amplitude) * k, 0.0,
                   f"{amplitude:g} {name}(2pi {k} x)")

    @classmethod
    def hat(cls, center: float = 0.5, height: float = 1.0) -> "BVObservable":
        """Continuous piecewise-linear tent peaking at `center`."""
        c = canonicalize(center)

        @_pointwise
        def ev(x):
            # height * (1 - 2 d), in place on frac's array
            d = np.asarray(frac(x - c))
            np.minimum(d, 1.0 - d, out=d)  # circle distance to center
            np.multiply(d, 2.0, out=d)
            np.subtract(1.0, d, out=d)
            return np.multiply(d, height, out=d)

        # mean: E[dist to c] = 1/4 under Lebesgue, so integral = height/2
        return cls(ev, 2.0 * abs(height), height / 2.0,
                   f"hat({c:g}, h={height:g})")


def bv_library() -> List[BVObservable]:
    """The stock of closed-form BV observables used by randomized checks."""
    lib = [
        BVObservable.indicator(0.0, 0.5),
        BVObservable.indicator(0.2, 0.7),
        BVObservable.indicator(0.9, 0.3),
        BVObservable.constant(1.0),
        BVObservable.harmonic(1),
        BVObservable.harmonic(2, amplitude=0.5),
        BVObservable.harmonic(5, amplitude=0.2, phase_sin=True),
        BVObservable.hat(0.5),
        BVObservable.hat(0.25, height=2.0),
    ]
    return lib


def prop30_observable(terms: int = 3) -> BVObservable:
    """psi(x) = sum_{i=1..terms} a_i cos(2 pi f_i x) with f_i = 2^(4^i),
    a_i = f_i^{-2}; integral 0, V recorded as sum 4 a_i f_i = sum 4/f_i.

    Frequencies are exact ints (f_3 = 2^64); evaluation accepts Fraction
    input, reducing each phase f_i * x mod 1 exactly before the cosine,
    so orbits on compatible rational grids are computed without float
    phase loss.  terms > 3 is rejected: f_4 = 2^256 has no representable
    amplitude and the construction stops being testable in floats.
    """
    _check_count("terms", terms, 1)
    if terms > 3:
        raise ValueError(
            "terms must be in 1..3: the next frequency 2^256 overflows any "
            "useful float range")
    freqs = [2 ** (4 ** i) for i in range(1, terms + 1)]
    amps = [Fraction(1, f * f) for f in freqs]

    @_pointwise
    def ev_float(x):
        out = np.zeros(x.shape)
        for a, f in zip(amps, freqs):
            if f > 2 ** 52:
                # f*x mod 1 is meaningless in doubles, and the term's
                # amplitude (2^-128 for f = 2^64) is below resolution
                continue
            ph = np.asarray(frac(float(f) * x))
            out = out + float(a) * np.cos(2.0 * math.pi * ph)
        return out

    def ev(x):
        if isinstance(x, Fraction):
            s = 0.0
            for a, f in zip(amps, freqs):
                ph = f * x
                ph -= math.floor(ph)  # exact Fraction reduction
                s += float(a) * math.cos(2.0 * math.pi * float(ph))
            return s
        return ev_float(x)

    V = sum(Fraction(4, f) for f in freqs)
    obs = BVObservable(ev, float(V), 0.0, f"prop30({terms} terms)")
    obs.frequencies = list(freqs)
    obs.amplitudes = list(amps)
    return obs


def prop30_integral_exact(obs: BVObservable, mu: AtomicMeasure,
                          denominator: int) -> Fraction:
    """integral psi d mu for an atomic mu supported on {i/denominator},
    in exact rational arithmetic (weights must be exact dyadic floats).

    Only valid when every phase f * i/denominator lands on a quarter
    integer, where cos is exactly 0 or +-1; raises otherwise.
    """
    total = Fraction(0)
    wsum = Fraction(0)
    for p, w in zip(mu.positions, mu.weights):
        i = round(p * denominator)
        if abs(p - i / denominator) > 1e-12:
            raise ValueError("measure not supported on the stated grid")
        wq = Fraction(w)  # exact: floats are binary rationals
        val = Fraction(0)
        for a, f in zip(obs.amplitudes, obs.frequencies):
            ph = Fraction(f * i, denominator)
            ph -= math.floor(ph)
            if ph == 0:
                val += a
            elif ph == Fraction(1, 2):
                val -= a
            elif ph in (Fraction(1, 4), Fraction(3, 4)):
                pass
            else:
                raise ValueError(f"phase {ph} not exactly evaluable")
        total += wq * val
        wsum += wq
    if wsum != 1:
        raise ValueError("weights do not sum to 1 exactly")
    return total


# ------------------------------------------------------------------ DK check

@dataclass(frozen=True)
class DKCheck:
    lhs: float
    bound: float
    ok: bool

    def __iter__(self):
        return iter((self.lhs, self.bound, self.ok))


def dk_check(f: BVObservable, points) -> DKCheck:
    """Denjoy-Koksma check |mean f(x_i) - int f dm| <= V(f) * D_N.

    Uses the exact discrepancy when available and the upper end of the
    [D*, 2D*] enclosure otherwise, so `ok` is a sound verdict either way.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if len(pts) == 0:
        raise ValueError("empty point set")
    return _dk_verdict(f, float(np.mean(f.eval(pts))), discrepancy(pts),
                       len(pts))


def _on_arc(arc, x) -> np.ndarray:
    """Mask of the points of x in [0, 1) on the closed arc (a, b),
    which wraps if a > b."""
    a, b = arc
    join = np.logical_and if a <= b else np.logical_or
    return join(x >= a, x <= b)


def _arc_mean(arc, x) -> float:
    """Mean over x, points in [0, 1) in any order, of the indicator of
    the closed arc (a, b).

    It counts them.  That is np.mean of the indicator's 0/1 values bit
    for bit: their every partial sum is an integer below 2^53, so the
    sum is the count, divided once by n.
    """
    return np.count_nonzero(_on_arc(arc, x)) / len(x)


def _dk_verdict(f, mean: float, d: Optional[DiscrepancyResult],
                n: int) -> DKCheck:
    """The check from the mean of f over n points and their discrepancy.

    d None takes D at its floor 1/n (any n points have D >= 1/n), so the
    bound is V * (1/n); for V = 0 that is the same 0.0 as at any D.
    """
    lhs = abs(mean - f.integral)
    bound = f.variation * (1.0 / n if d is None else d.value)
    return DKCheck(lhs=lhs, bound=bound, ok=bool(lhs <= bound + 1e-12))
