"""Circle maps: rotations, rotation-number-tuned trig families (the
attractor-repeller perturbation family among them), explicitly
conjugated rotations and grid discretizations.

Each map knows its canonical evaluation on [0,1), a degree-1 lift
F(x+1) = F(x)+1, and the displacement F(x)-x used by the rotation
number estimator.  Orbits of Rotation and ConjugatedRotation have
closed-form vectorized paths (one rounding per point instead of one
per step); ConjugatedRotation orbits and Discretized grid images run
elementwise in blocks of _BLOCK points.  Everything else iterates
scalar_step, which is eval except where a float closure pays: there
is one, the math.sin/math.cos closure of TunedFamily, for the long
orbits of tuned families and of the attractor-repeller (the tuner's
direct check, Birkhoff orbits).
A stepped orbit stops at the first exact repeat within a 4096-point
window and tiles the cycle, bit-identical to stepping every point.  A
TunedFamily made by the tuner carries the conjugacy h it solved, so
its invariant means can be taken as integrals over h_* m
(response.fd_response) and its orbits in closed form through
ConjugatedRotation; TunedFamily.orbit itself still iterates f.  The
rotation number evaluates the displacement on such an orbit as one
array.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple, Optional

import numpy as np

from .arithmetic import (
    DiophantineProfile,
    _checked_divisor,
    _pointwise,
    canonicalize,
    frac,
)
from .errors import ConvergenceError, ResourceLimitError, TuningError
from .fourier import FourierSeries, _trig_sums

__all__ = [
    "ORBIT_LEN_CAP",
    "AttractorRepeller",
    "CircleMap",
    "ConjugacyDiffeo",
    "ConjugatedRotation",
    "Discretized",
    "Rotation",
    "RotationNumber",
    "TunedFamily",
    "rotation_number",
    "tune_rotation_number",
    "weighted_birkhoff_weights",
]

ORBIT_LEN_CAP = 10 ** 8  # orbit points plus burn-in steps one orbit may take
_BLOCK = 1 << 16         # points per block of an elementwise array pass
_CYCLE_BLOCK = 1 << 12   # stepped points per repeat check, and its window
_INVERSE_TOL = 1e-14     # Newton for h^-1 stops at |h(z) - y| <= this
_INVERSE_STEPS = 50      # and fails after this many steps


def _check_orbit_len(n: int, burn_in: int = 0) -> None:
    """ValueError for a length or burn-in that is a bool, not an integer
    or negative; ResourceLimitError, before allocating, for an orbit
    over the cap."""
    for v in (n, burn_in):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(
                f"orbit length {n!r} and burn-in {burn_in!r} must be "
                "integers")
    if n < 0 or burn_in < 0:
        raise ValueError(
            f"orbit length {n} and burn-in {burn_in} must be >= 0")
    if n + burn_in > ORBIT_LEN_CAP:
        raise ResourceLimitError(
            f"orbit of {n} points after {burn_in} burn-in steps exceeds "
            f"the cap {ORBIT_LEN_CAP}", requested=n + burn_in,
            limit=ORBIT_LEN_CAP)


class CircleMap:
    """Common interface of all maps (immutable values)."""

    def eval(self, x):
        """T(x) in [0,1); scalar or ndarray."""
        raise NotImplementedError

    def __call__(self, x):
        return self.eval(x)

    def lift(self, x):
        """Degree-1 lift F(x); scalar or ndarray."""
        raise NotImplementedError

    def displacement(self, x):
        """F(x) - x for canonical x; periodic in x."""
        return self.lift(x) - np.asarray(x, dtype=float)

    def scalar_step(self):
        """x -> T(x) on floats, for the orbit loop; eval unless a map
        has a faster closure."""
        return self.eval

    def orbit(self, x0: float, n: int, burn_in: int = 0) -> np.ndarray:
        """[T^(burn_in+1) x0, ..., T^(burn_in+n) x0] as a float array.

        Steps scalar_step in blocks of _CYCLE_BLOCK points.  After each
        block the last point is compared, bit for bit, with the up to
        _CYCLE_BLOCK points before it.  scalar_step is a pure function of
        one double, so at a repeat x_i = x_k the orbit is periodic with
        period i - k from there on, and the rest is filled by tiling
        that cycle: the array is bit-identical to stepping every point.
        A longer period is not found, and the orbit is stepped in full.
        """
        _check_orbit_len(n, burn_in)
        step = self.scalar_step()
        x = canonicalize(x0)
        for _ in range(burn_in):
            x = step(x)
        out = np.empty(n)
        bits = out.view(np.int64)  # -0.0 != 0.0, and a NaN matches itself
        i = 0  # points filled
        while i < n:
            for k in range(i, min(i + _CYCLE_BLOCK, n)):
                x = step(x)
                out[k] = x
            i = k + 1
            window = bits[max(k - _CYCLE_BLOCK, 0):k]
            hits = np.flatnonzero(window == bits[k])
            if len(hits) and i < n:
                p = len(window) - int(hits[-1])  # to the nearest repeat
                out[i:] = np.resize(out[i - p:i], n - i)
                break
        return out


class Rotation(CircleMap):
    """R_alpha(x) = x + alpha mod 1."""

    def __init__(self, alpha: float):
        self.alpha = canonicalize(float(alpha))

    @_pointwise
    def eval(self, x):
        return frac(x + self.alpha)

    @_pointwise
    def lift(self, x):
        return x + self.alpha

    def orbit(self, x0, n, burn_in=0):
        # closed form x_i = x0 + i*alpha mod 1, one rounding per point
        _check_orbit_len(n, burn_in)
        i = np.arange(burn_in + 1, burn_in + n + 1, dtype=float)
        return frac(canonicalize(x0) + i * self.alpha)


class TunedFamily(CircleMap):
    """f(x) = x + c + epsilon * u(x) mod 1 for a trig polynomial u.

    `conjugacy` is the h with f o h = h o R_alpha that tune_rotation_number
    solved for, or None.  It is derived data: orbit and rotation_number
    ignore it.
    """

    def __init__(self, u: FourierSeries, epsilon: float, c: float, *,
                 conjugacy: Optional[ConjugacyDiffeo] = None):
        self.u = u
        self.epsilon = float(epsilon)
        self.c = float(c)
        self.conjugacy = conjugacy
        if not (math.isfinite(self.epsilon) and math.isfinite(self.c)):
            raise ValueError("epsilon and c must be finite")

    @_pointwise
    def eval(self, x):
        return frac(self.lift(x))

    @_pointwise
    def lift(self, x):
        return x + self.c + self.epsilon * self.u.eval(x)

    def scalar_step(self):
        """f on a float by math.cos/math.sin, with eval's operations in
        eval's order on Python floats (numpy scalars would double the
        cost of a step).  A product with a zero coefficient is skipped:
        it adds +-0.0, so it can change only the sign of a zero s, and
        so of a zero x + c + eps*s, which % 1.0 folds to 0.0."""
        u = self.u
        terms = [(n, 2.0 * a.real, 2.0 * a.imag)
                 for n in range(1, u.n_max + 1) if (a := u.coeff(n))]
        mean, c, eps = u.mean, self.c, self.epsilon
        cos, sin, twopi = math.cos, math.sin, 2.0 * math.pi

        def step(x: float) -> float:
            s = mean
            for n, cr, ci in terms:
                ph = twopi * ((n * x) % 1.0)
                if cr:
                    s += cr * cos(ph)
                if ci:
                    s -= ci * sin(ph)
            return (x + c + eps * s) % 1.0

        return step


class AttractorRepeller(TunedFamily):
    """T_j(x) = x + p_j/q_j + delta_j * g(x) mod 1 with
    g(x) = -bump_strength * sin(2 pi q_j x): the tuned family with
    u = g, epsilon = delta_j and c = p_j/q_j.  As q_j * p_j/q_j is an
    integer, T_j = D_delta(x + p_j/q_j) with D_delta(y) = y + delta g(y).

    g vanishes on Gamma_att = {i/q_j} and Gamma_rep = {(i+1/2)/q_j}, is
    negative on each [y_i, y_i + 1/(2 q_j)] and positive on the
    complement, so Gamma_att attracts and Gamma_rep repels.  The
    rotation part is the convergent p_j/q_j itself, which keeps both
    orbits invariant up to rounding and |T_j - R_alpha| <= 2 delta_j.
    """

    def __init__(self, j: int, profile: DiophantineProfile,
                 bump_strength: float):
        if not (0 <= j < len(profile.convergents)):
            raise ValueError(
                f"convergent index {j} out of range "
                f"(profile has {len(profile.convergents)})")
        if not (0.0 < bump_strength <= 1.0):
            raise ValueError("bump_strength must lie in (0, 1]")
        cv = profile.convergents[j]
        if cv.delta <= 0.0:
            raise ValueError("convergent has delta = 0 (exact rational)")
        # diffeomorphism condition: min T' = 1 - delta*b*2 pi q > 0
        margin = cv.delta * bump_strength * 2.0 * math.pi * cv.q
        if margin >= 1.0:
            raise ValueError(
                f"bump too steep at j={j}: delta*b*2*pi*q = {margin:.3g} >= 1; "
                "use a deeper convergent or smaller bump_strength")
        self.j = int(j)
        self.bump_strength = float(bump_strength)
        self.p, self.q, self.delta = cv.p, cv.q, cv.delta
        super().__init__(FourierSeries({cv.q: 0.5j * self.bump_strength}),
                         cv.delta, cv.p / cv.q)

    def attracting_orbit(self) -> np.ndarray:
        """Gamma_att = multiples of p_j/q_j, i.e. the grid {i/q_j}."""
        return np.arange(self.q) / self.q

    def repelling_orbit(self) -> np.ndarray:
        return (np.arange(self.q) + 0.5) / self.q


class ConjugacyDiffeo:
    """h(x) = x + sum_n (a_n sin(2 pi n x) + b_n cos(2 pi n x)) / (2 pi n).

    Requires sum(|a_n| + |b_n|) < 1 so that h' >= 1 - sum > 0 and h is a
    degree-1 circle diffeomorphism.  The inverse is found by Newton from
    the starting point y (the displacement is < 1/(2 pi)), until the
    residual |h(z) - y| is at most 1e-14 at every point.
    """

    def __init__(self, a, b=None):
        a = np.atleast_1d(np.array(a, dtype=float))
        b = np.zeros_like(a) if b is None else np.atleast_1d(
            np.array(b, dtype=float))
        # read-only copies: the spectra below are derived from them once
        a.flags.writeable = b.flags.writeable = False
        if len(a) != len(b):
            raise ValueError("a and b must have equal length")
        s = float(np.sum(np.abs(a)) + np.sum(np.abs(b)))
        if not s < 1.0:  # also rejects nan and inf coefficients
            raise ValueError(
                f"sum(|a_n|+|b_n|) = {s:.3g} is not < 1: not an admissible "
                "diffeo")
        self.a, self.b = a, b
        self.coeff_sum = s
        # half-spectra (see _trig_sums) of h - x and of
        # h' = 1 + sum_n (a_n cos(2 pi n x) - b_n sin(2 pi n x))
        n4pi = 4.0 * math.pi * np.arange(1, len(a) + 1)
        self._eta = np.zeros(len(a) + 1, dtype=complex)
        self._eta.real[1:], self._eta.imag[1:] = b / n4pi, -a / n4pi
        self._dh = np.ones(len(a) + 1, dtype=complex)
        self._dh.real[1:], self._dh.imag[1:] = a / 2.0, b / 2.0

    def displacement_fn(self, x):
        """h(x) - x, periodic."""
        return _trig_sums([self._eta], x)[0]

    def displacement_integral(self, x, d):
        """integral of h - id over [x, x + d] as sin(pi n d) / (pi n) times
        each mode at the midpoint: no antiderivative values cancel."""
        mid = x + 0.5 * d
        out = np.zeros_like(mid)
        for n in np.flatnonzero(self._eta):
            mode = np.zeros(n + 1, dtype=complex)
            mode[n] = self._eta[n]
            out += _trig_sums([mode], mid)[0] * (np.sin(math.pi * n * d)
                                                 / (math.pi * n))
        return out

    @_pointwise
    def eval(self, x):
        """h(x) as a lift value (degree 1: h(x+1) = h(x)+1)."""
        return x + self.displacement_fn(x)

    __call__ = eval

    @_pointwise
    def deriv(self, x):
        return _trig_sums([self._dh], x)[0]

    @_pointwise
    def inverse(self, y):
        """z with h(z) = y, computed by Newton until |h(z) - y| <= 1e-14;
        each point stops on its own.  A ConvergenceError's estimate and
        error_bound describe only the points of this call."""
        z = y.copy()
        for _ in range(_INVERSE_STEPS):
            # in place: r = z + disp - y and z - r / dh as written
            r, dh = _trig_sums([self._eta, self._dh], z)
            r += z
            r -= y
            done = np.abs(r) <= _INVERSE_TOL  # each point stops on its own
            if np.all(done):
                break
            np.divide(r, dh, out=dh)
            np.subtract(z, dh, out=dh)
            np.copyto(z, dh, where=~done)
            del r, dh  # free before the next step allocates its own
        else:
            worst = float(np.max(np.abs(z + self.displacement_fn(z) - y)))
            raise ConvergenceError(
                f"Newton for h^-1 did not reach {_INVERSE_TOL} in "
                f"{_INVERSE_STEPS} steps",
                estimate=float(np.ravel(z)[0]), error_bound=worst)
        return z


class ConjugatedRotation(CircleMap):
    """T = h o R_alpha o h^{-1}, a diffeomorphism with rotation number alpha
    and invariant measure h_* m."""

    def __init__(self, alpha: float, h: ConjugacyDiffeo):
        self.alpha = canonicalize(float(alpha))
        self.h = h

    @_pointwise
    def eval(self, x):
        return frac(self.h.eval(frac(self.h.inverse(x)) + self.alpha))

    @_pointwise
    def lift(self, x):
        return self.h.eval(self.h.inverse(x) + self.alpha)

    def orbit(self, x0, n, burn_in=0):
        # closed form via the conjugacy: x_i = h(y0 + i*alpha mod 1), in
        # blocks so that h's temporaries stay small; elementwise, so the
        # points do not depend on the block size
        _check_orbit_len(n, burn_in)
        y0 = frac(self.h.inverse(canonicalize(x0)))
        out = np.empty(n)
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            i = np.arange(burn_in + lo + 1, burn_in + hi + 1, dtype=float)
            out[lo:hi] = frac(self.h.eval(frac(y0 + i * self.alpha)))
        return out


class Discretized(CircleMap):
    """T_N = P_N o T with P_N(x) = floor(N x)/N; range inside E_N = {i/N}.

    Not orientation preserving (piecewise constant).  Grid nodes map to
    grid nodes through a single integer-valued image function, so
    functional-graph analysis sees bit-exact transitions.
    """

    def __init__(self, inner: CircleMap, N: int):
        if isinstance(N, bool) or not isinstance(N, numbers.Integral):
            raise ValueError(f"N must be an integer, got {N!r}")
        if N < 1:
            raise ValueError("N must be >= 1")
        self.inner = inner
        self.N = int(N)

    def _project(self, t):
        j = np.floor(np.asarray(t, dtype=float) * self.N).astype(np.int64)
        return np.minimum(j, self.N - 1)  # t<1 can round N*t up to N

    @_pointwise
    def eval(self, x):
        j = self._project(self.inner.eval(x))
        return j.astype(float) / self.N

    @_pointwise
    def lift(self, x):
        return np.floor(x) + self.eval(frac(x))

    def grid_image(self) -> np.ndarray:
        """Integer image array: node i -> node image[i], for all i < N.

        Filled in cache-sized blocks of _BLOCK nodes by the projection
        eval uses on grid points; inner.eval is elementwise, so blocks
        change no bit.  A ConvergenceError of h^-1 describes the failing
        block."""
        out = np.empty(self.N, dtype=np.int64)
        for lo in range(0, self.N, _BLOCK):
            hi = min(lo + _BLOCK, self.N)
            out[lo:hi] = self._project(
                self.inner.eval(np.arange(lo, hi) / self.N))
        return out


# ------------------------------------------------------- rotation number

def weighted_birkhoff_weights(n: int) -> np.ndarray:
    """Superconvergence weights w(i/(n+1)) with w(t) = exp(-1/(t(1-t)))."""
    t = np.arange(1, n + 1) / (n + 1.0)
    return np.exp(-1.0 / (t * (1.0 - t)))


class RotationNumber(float):
    """A float carrying the error estimate of the computation alongside."""

    def __new__(cls, value: float, error_bound: float):
        obj = super().__new__(cls, value)
        obj.error_bound = float(error_bound)
        return obj


def _wb_mean(values: np.ndarray) -> float:
    w = weighted_birkhoff_weights(len(values))
    # einsum, unlike a BLAS dot, sums in an order that does not depend on
    # the thread count
    return float(np.einsum("i,i->", w, values) / np.sum(w))


def rotation_number(m: CircleMap, iters: int = 1 << 15,
                    tol: Optional[float] = 1e-9) -> RotationNumber:
    """Poincare rotation number of an orientation-preserving map.

    Lift displacements along the orbit of 0 are averaged with the
    smooth exponential bump weights, which converges superpolynomially
    for Diophantine rotation numbers (for a pure rotation the
    displacement is constant and the value is exact).  The reported
    error_bound is min(1/iters, |full-window - half-window|): the first
    term is the rigorous sandwich for the plain Birkhoff mean, the
    second the observed weighted-average stabilization.

    Raises ConvergenceError carrying the best estimate if the bound
    exceeds tol; pass tol=None to always get the estimate.
    """
    if isinstance(m, Discretized):
        raise ValueError("rotation number undefined for discretized maps")
    if isinstance(m, Rotation):
        return RotationNumber(m.alpha, 0.0)
    if iters < 4:
        raise ValueError("iters must be >= 4")

    disps = m.displacement(np.concatenate(([0.0], m.orbit(0.0, iters - 1))))
    est = _wb_mean(disps)
    est_half = _wb_mean(disps[: iters // 2])
    plain = float(np.mean(disps))
    rigorous = 1.0 / iters  # |plain - rho| <= 1/n for degree-1 lifts
    err = min(rigorous, max(abs(est - est_half), 1e-16))
    if abs(est - plain) > rigorous + 1e-12:
        err = rigorous
    if tol is not None and err > tol:
        raise ConvergenceError(
            f"rotation number did not reach tol={tol:g} in {iters} iterations",
            estimate=est, error_bound=err)
    return RotationNumber(est, err)


# Fourier-Newton solve of f o h = h o R_alpha (de la Llave, "A tutorial
# on KAM theory", 2001; Figueras-Haro-Luque, Found. Comput. Math. 17, 2017)
_NEWTON_GRID = 256          # first grid size M; doubled while Newton fails
_NEWTON_GRID_MAX = 1 << 13  # times 2^ceil(log2 u.n_max): h resolves u's modes
_NEWTON_STEPS = 30          # Newton steps per grid
_NEWTON_TOL = 1e-14         # grid residual, relative to 1 + |eps| sup|u|
_CONTINUATION_HALVINGS = 8  # of the eps step, before giving up


def _newton_tol(u, eps) -> float:
    return _NEWTON_TOL * (1.0 + abs(eps) * u.sup_norm_bound())


class _Conjugacy(NamedTuple):
    """h = id + eta with <eta> = 0 and offset c, at one eps."""

    eta_hat: np.ndarray  # rfft coefficients of eta (norm="forward")
    c: float
    residual: float      # sup |E| over the grid
    M: int               # grid size


def _newton_conjugacy(u, eps, alpha, M, start, divisors):
    """Quasi-Newton for f o h = h o R_alpha, f = x + c + eps*u, on M points.

    E = eta + c + eps*u(theta + eta) - alpha - eta(. + alpha).  A step
    solves W(theta + alpha) - W(theta) = (E + dc)/h'(theta + alpha), with
    dc making the right side mean zero, then sets eta += h'*W and
    c += dc; W's mean keeps <eta> = 0 and every step keeps |n| <= M/3.
    Returns (converged, the iterate of least residual).
    """
    K = M // 3
    d = divisors(K)
    shift = 1.0 + d  # e^{2 pi i n alpha}
    deriv = 2j * math.pi * np.arange(K + 1)
    theta = np.arange(M) / M
    eta_hat = np.zeros(K + 1, dtype=complex)
    k = min(K + 1, len(start.eta_hat))
    eta_hat[:k] = start.eta_hat[:k]
    c = start.c
    tol = _newton_tol(u, eps)

    def grid(coeffs):
        return np.fft.irfft(coeffs, M, norm="forward")

    best = start._replace(residual=math.inf)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(_NEWTON_STEPS):
                eta = grid(eta_hat)
                E = eta - grid(eta_hat * shift) + (c - alpha) \
                    + eps * u.eval(theta + eta)
                res = float(np.max(np.abs(E)))
                if res < best.residual:
                    best = _Conjugacy(eta_hat, c, res, M)
                if res <= tol:
                    return True, best
                dh = 1.0 + grid(deriv * eta_hat)
                dh_shift = 1.0 + grid(deriv * eta_hat * shift)
                if not np.min(dh_shift) > 0.0:  # h is no diffeomorphism
                    break
                inv = 1.0 / dh_shift
                dc = -float(np.mean(E * inv) / np.mean(inv))
                w_hat = np.fft.rfft((E + dc) * inv, norm="forward")[:K + 1]
                w_hat[0] = 0.0
                w_hat[1:] /= d[1:]
                w = grid(w_hat)
                w -= np.mean(dh * w)
                eta_hat = eta_hat + np.fft.rfft(dh * w, norm="forward")[:K + 1]
                eta_hat[0] = 0.0
                c += dc
    except FloatingPointError:  # the iterates blew up
        pass
    return False, best


def _solve_conjugacy(u, eps, alpha) -> _Conjugacy:
    """The converged Newton solve at eps; TuningError if it fails.

    Each solve starts on 256 points, or on the grid of its warm start,
    and doubles the grid, warm-started, while Newton fails, up to
    2^13 * 2^ceil(log2 u.n_max) points.  If that fails at eps, the solve
    continues in eps from eps = 0 (h = id, c = alpha): each step starts
    from the last solved eps, and a failed step is halved, at most 8
    times.  The error carries the best iterate found at eps itself.
    """
    grid_max = _NEWTON_GRID_MAX << max(u.n_max - 1, 0).bit_length()
    cache = {}

    def divisors(K):
        if K not in cache:
            cache[K] = np.array([0j] + [_checked_divisor(alpha, n)
                                        for n in range(1, K + 1)])
        return cache[K]

    def on_grids(e, start):
        M = start.M
        while True:
            ok, it = _newton_conjugacy(u, e, alpha, M, start, divisors)
            if ok or M >= grid_max:
                return ok, it
            M, start = 2 * M, it

    solved = _Conjugacy(np.zeros(1, dtype=complex), alpha, math.inf,
                        _NEWTON_GRID)
    ok, best = on_grids(eps, solved)
    # fractions of eps; dyadic, so done + step reaches 1 exactly
    done, step, halvings = 0.0, 0.5, 1
    while not ok and halvings <= _CONTINUATION_HALVINGS:
        t = done + step  # <= 1: done is a multiple of step
        step_ok, it = on_grids(t * eps, solved)
        if t == 1.0:
            ok = step_ok
            if it.residual < best.residual:
                best = it
        if step_ok:
            done, solved = t, it
        else:
            step, halvings = step / 2, halvings + 1
    if not ok:
        raise TuningError(
            f"Newton for the conjugacy did not converge at eps = {eps:g}: "
            f"grid residual {best.residual:.3g}",
            estimate=best.c, error_bound=best.residual)
    return best


def _conjugacy_diffeo(sol: _Conjugacy,
                      tol: float) -> Optional[ConjugacyDiffeo]:
    """h = id + eta of a solve as a ConjugacyDiffeo, or None if the
    ConjugacyDiffeo coefficient test rejects it.

    Keeps the fewest modes n = 1..K whose dropped tail has
    2 sum_{n>K} |eta_hat_n| <= tol, so truncation moves h by at most tol.
    eta = 2 Re sum eta_hat_n e^{2 pi i n x} converts exactly to
    a_n = -4 pi n Im eta_hat_n and b_n = 4 pi n Re eta_hat_n.
    """
    mags = np.abs(sol.eta_hat[1:])
    tail = np.append(np.cumsum(mags[::-1])[::-1], 0.0)  # tail[K] = sum n > K
    K = int(np.argmax(2.0 * tail <= tol))
    eta = sol.eta_hat[1:K + 1]
    n = np.arange(1, K + 1)
    try:
        return ConjugacyDiffeo(-4.0 * math.pi * n * eta.imag,
                               4.0 * math.pi * n * eta.real)
    except ValueError:  # sum(|a_n| + |b_n|) < 1 is only sufficient
        return None


def tune_rotation_number(u: FourierSeries, epsilon: float, target_alpha: float,
                         tol: float = 1e-12, iters: int = 1 << 16):
    """Offset c with rot(x + c + eps*u(x)) = target_alpha within tol.

    c comes from a Fourier-Newton solve of the conjugacy equation
    f o h = h o R_alpha for (c, h) (see _solve_conjugacy), so it is an
    estimate.  It is accepted only if direct iteration agrees: the
    rotation number of the tuned map over `iters` steps must satisfy
    |rot - target| + error_bound <= tol.  Raises TuningError, carrying
    the best c and its grid residual or its direct-iteration miss, if
    the solve does not converge or the check fails; this happens close
    to the critical family, e.g. u = cos at eps = 0.159 (eps sup|u'| =
    0.999) for the golden mean.  A target within DIVISOR_FLOOR of a
    rational p/q raises SmallDivisorError once a Newton grid of M points
    resolves q, i.e. q <= M // 3: always for q <= 85, and up to 2730
    (u.n_max = 1) or 21845 (u.n_max = 8) if the grid grows to its cap.
    Returns (TunedFamily, c).  The family carries the solved h as
    `conjugacy` (see _conjugacy_diffeo), or None when eps = 0, u = 0 or
    h fails the ConjugacyDiffeo coefficient test.  The direct-iteration
    check steps f itself and never uses h.
    """
    target = float(target_alpha)
    if not abs(epsilon) * u.derivative().sup_norm_bound() < 1.0:
        raise ValueError("|epsilon| * sup|u'| must be < 1 for a diffeomorphism")
    if epsilon == 0.0 or u.is_zero():
        return TunedFamily(u, epsilon, target), target

    eps = float(epsilon)
    sol = _solve_conjugacy(u, eps, target)
    c = sol.c
    h = _conjugacy_diffeo(sol, _newton_tol(u, eps))
    fam = TunedFamily(u, epsilon, c, conjugacy=h)
    r = rotation_number(fam, iters=iters, tol=None)
    miss = abs(float(r) - target) + r.error_bound
    if not miss <= tol:
        raise TuningError(
            f"direct iteration misses the target by {miss:.3g} > {tol:g} "
            f"at c = {c!r}", estimate=c, error_bound=miss)
    return fam, c
