"""Scaling experiments: scans, records, fits and the Denjoy-Koksma suite.

Scaling scans measure W1 distances across parameter ladders (the
perturbation size delta for stability families, the grid size N for
discretizations); holder_fit regresses the exponent on log-log axes
with a bootstrap CI; records go to and come from a fixed-schema CSV.
Reruns with the same config are byte-identical.
"""

import csv
import io
import json
import logging
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .arithmetic import (
    GOLDEN_MEAN,
    SQRT2_MINUS_ONE,
    _check_count,
    _frac_into,
    _ols,
    continued_fraction,
)
from .errors import CircleStabError, InsufficientDataError
from .invariant import (
    _BURN_IN,
    analyze_functional_graph,
    birkhoff_measure,
    invariant_measure_of_diffeo,
)
from .maps import (
    AttractorRepeller,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Discretized,
    Rotation,
    _check_orbit_len,
)
from .measures import (
    AtomicMeasure,
    LebesgueMeasure,
    _arc_mean,
    _dk_verdict,
    bv_library,
    discrepancy,
    pushforward,
    wasserstein,
)

__all__ = [
    "MEASURE_KINDS",
    "ScalingRecord",
    "ScanResult",
    "ExperimentConfig",
    "resolve_alpha",
    "stability_scan",
    "discretization_scan",
    "HolderFit",
    "holder_fit",
    "write_records_csv",
    "read_records_csv",
    "run_dk_suite",
]

log = logging.getLogger("circlestab")

MEASURE_KINDS = ("physical", "worst-cycle", "best-cycle", "birkhoff")
INVARIANCE_TOL = 1e-9  # constructed measures must be fixed to this W

ALPHA_PRESETS = {
    "golden": GOLDEN_MEAN,
    "sqrt2": SQRT2_MINUS_ONE,
}


def _is_a(v, kind) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)


def resolve_alpha(spec: Union[str, float]) -> Tuple[float, str]:
    """(value, label) for a preset name or a finite numeric literal; a
    bool or any other type is refused."""
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in ALPHA_PRESETS:
            return ALPHA_PRESETS[key], key
        try:
            value, label = float(key), key
        except ValueError:
            raise ValueError(
                f"unknown alpha spec {spec!r}; presets: "
                f"{sorted(ALPHA_PRESETS)}")
    elif _is_a(spec, Real):
        value, label = float(spec), repr(float(spec))
    else:
        raise ValueError("alpha must be a preset name or a number")
    if not math.isfinite(value):
        raise ValueError(f"alpha must be finite, got {spec!r}")
    return value, label


# ------------------------------------------------------------ records

@dataclass(frozen=True)
class ScalingRecord:
    """One (parameter, W) sample of a scaling scan."""

    family_id: str
    size_param: float
    w_distance: float
    measure_kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.size_param < math.inf:
            raise ValueError("size_param must be positive and finite")
        if not 0 <= self.w_distance < math.inf:
            raise ValueError("w_distance must be nonnegative and finite")
        if self.measure_kind not in MEASURE_KINDS:
            raise ValueError(f"measure_kind must be one of {MEASURE_KINDS}")


class ScanResult(list):
    """List of ScalingRecord; per-point failures ride along in-band."""

    def __init__(self, records=(), failures=()):
        super().__init__(records)
        self.failures: List[Tuple[float, str]] = list(failures)


_CSV_COLUMNS = ["family_id", "size_param", "w_distance", "measure_kind"]


def write_records_csv(records: Sequence[ScalingRecord]) -> str:
    """Fixed schema, 17 significant digits, deterministic row order."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(_CSV_COLUMNS)
    key = lambda r: (r.family_id, r.size_param, r.measure_kind, r.w_distance)
    for r in sorted(records, key=key):
        wr.writerow([r.family_id, format(r.size_param, ".17g"),
                     format(r.w_distance, ".17g"), r.measure_kind])
    return buf.getvalue()


def read_records_csv(text: str) -> List[ScalingRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _CSV_COLUMNS:
        raise ValueError("bad CSV header for scaling records")
    return [ScalingRecord(family_id=r[0], size_param=float(r[1]),
                          w_distance=float(r[2]), measure_kind=r[3])
            for r in rows[1:] if r]


# ------------------------------------------------------------ config

STABILITY_FAMILIES = ("attractor_repeller", "rational_snap")
DISCRETIZATION_FAMILIES = ("rotation", "diffeo")


@dataclass
class ExperimentConfig:
    """Declarative description of one scan."""

    alpha: Union[str, float] = "golden"
    family: str = "attractor_repeller"
    ladder: Tuple = ()
    depth: int = 30
    bump_strength: float = 1.0
    h_a: Tuple[float, ...] = (0.2,)
    h_b: Tuple[float, ...] = ()
    orbit_len: int = 0       # > 0 adds birkhoff records to stability scans

    def validate(self) -> "ExperimentConfig":
        if not isinstance(self.family, str):
            raise ValueError("family must be a string")
        _check_count("depth", self.depth)  # alpha, orbit_len below
        if not _is_a(self.bump_strength, Real):
            raise ValueError("bump_strength must be a number")
        for name, kind, what in (("ladder", Integral, "integers"),
                                 ("h_a", Real, "numbers"),
                                 ("h_b", Real, "numbers")):
            value = getattr(self, name)
            if not (isinstance(value, (tuple, list))
                    and all(_is_a(v, kind) for v in value)):
                raise ValueError(f"{name} must be a list of {what}")
        resolve_alpha(self.alpha)
        if self.family not in STABILITY_FAMILIES + DISCRETIZATION_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        lad = list(self.ladder)
        diffs = np.diff(np.asarray(lad, dtype=float))
        if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("ladder must be strictly monotone")
        if not 0.0 < self.bump_strength <= 1.0:
            raise ValueError("bump_strength must lie in (0, 1]")
        if self.family in STABILITY_FAMILIES and lad:
            if min(lad) < 0:
                raise ValueError("convergent indices must be >= 0")
            if self.depth < max(lad) + 2:
                raise ValueError(
                    f"depth {self.depth} too shallow for ladder max "
                    f"{max(lad)} (need >= {max(lad) + 2})")
        if self.family in DISCRETIZATION_FAMILIES and lad:
            if min(lad) < 1:
                raise ValueError("grid sizes must be >= 1")
        ConjugacyDiffeo(self.h_a, self.h_b or None)
        _check_orbit_len(self.orbit_len, _BURN_IN)
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        for k in ("ladder", "h_a", "h_b"):
            if isinstance(d.get(k), list):
                d[k] = tuple(d[k])
        return cls(**d).validate()


# ------------------------------------------------------------ scans

def _verified_uniform(mapping, positions) -> AtomicMeasure:
    """Uniform measure on a finite orbit, checked to be invariant."""
    mu = AtomicMeasure.uniform(positions)
    miss = wasserstein(pushforward(mapping, mu), mu)
    if miss > INVARIANCE_TOL:
        raise CircleStabError(
            f"constructed measure moves under the map: W = {miss:.3g}")
    return mu


def stability_scan(config: ExperimentConfig) -> ScanResult:
    """W(m, mu_delta) over the convergent ladder of a stability family.

    attractor_repeller records both invariant orbit measures (the
    attractor as "physical", the repeller as "worst-cycle") and, for
    orbit_len > 0, the Birkhoff measure of orbit_len points from 0.123
    after 1000 burn-in steps; the rational snap T_delta = R_{p/q}
    records the grid orbit measure.
    """
    config.validate()
    if config.family not in STABILITY_FAMILIES:
        raise ValueError(f"{config.family!r} is not a stability family")
    alpha, label = resolve_alpha(config.alpha)
    if not config.ladder:
        return ScanResult()
    profile = continued_fraction(alpha, config.depth)
    m = LebesgueMeasure()

    def one(j):
        cv = profile.convergents[j]
        meta = {"alpha": label, "j": j, "p": cv.p, "q": cv.q}
        recs = []
        if config.family == "attractor_repeller":
            ar = AttractorRepeller(j, profile, config.bump_strength)
            att = _verified_uniform(ar, ar.attracting_orbit())
            rep = _verified_uniform(ar, ar.repelling_orbit())
            recs.append(ScalingRecord(
                "attractor_repeller", cv.delta, wasserstein(m, att),
                "physical", meta))
            recs.append(ScalingRecord(
                "attractor_repeller", cv.delta, wasserstein(m, rep),
                "worst-cycle", meta))
            if config.orbit_len > 0:
                bm = birkhoff_measure(ar, 0.123, config.orbit_len, _BURN_IN)
                recs.append(ScalingRecord(
                    "attractor_repeller", cv.delta, wasserstein(m, bm),
                    "birkhoff", meta))
        else:  # rational_snap
            snap = Rotation(cv.p / cv.q)
            mu = _verified_uniform(snap, snap.orbit(0.0, cv.q))
            recs.append(ScalingRecord(
                "rational_snap", cv.delta, wasserstein(m, mu),
                "physical", meta))
        return recs

    return _scan_ladder(one, config.ladder)


def _scan_ladder(one, ladder) -> ScanResult:
    """Records of one(p) for each ladder point p, in ladder order; a
    point that fails is logged into the failures and the scan goes on."""
    out = ScanResult()
    for p in ladder:
        try:
            out.extend(one(p))
        except (CircleStabError, ValueError, ArithmeticError) as exc:
            log.warning("ladder point %r failed: %s", p, exc)
            out.failures.append((p, f"{type(exc).__name__}: {exc}"))
    return out


def discretization_scan(config: ExperimentConfig) -> ScanResult:
    """W(mu_0, invariant measures of T_N) over an N ladder.

    Records the basin-weighted physical measure and both cycle extremes
    per N; mu_0 is Lebesgue for rotations and h_* m for diffeos, whose
    W goes to the continuous kernel (no atomization).
    """
    config.validate()
    if config.family not in DISCRETIZATION_FAMILIES:
        raise ValueError(f"{config.family!r} is not a discretization family")
    alpha, label = resolve_alpha(config.alpha)
    if not config.ladder:
        return ScanResult()

    if config.family == "rotation":
        base = Rotation(alpha)
        mu0 = LebesgueMeasure()
    else:
        base = ConjugatedRotation(alpha,
                                  ConjugacyDiffeo(config.h_a,
                                                  config.h_b or None))
        mu0 = invariant_measure_of_diffeo(base)

    def one(N):
        N = int(N)
        T = Discretized(base, N)
        analysis = analyze_functional_graph(T, N)
        meta = {"alpha": label, "N": N, "cycles": analysis.cycle_count}
        ws = [wasserstein(mu0, cm) for cm in analysis.cycle_measures]
        rows = [
            ("physical", wasserstein(mu0, analysis.physical_measure)),
            ("worst-cycle", max(ws)),
            ("best-cycle", min(ws)),
        ]
        return [ScalingRecord(config.family, 1.0 / N, w, kind, meta)
                for kind, w in rows]

    return _scan_ladder(one, config.ladder)


# ------------------------------------------------------------ regression

_BOOTSTRAP = 1000        # resamples behind each CI
_BOOTSTRAP_SEED = 12345  # fixed, so a fit is a function of its records


class HolderFit(NamedTuple):
    slope: float
    intercept: float
    r2: float
    ci: Tuple[float, float]


def holder_fit(records) -> HolderFit:
    """Closed-form OLS of log w_distance on log size_param, bootstrap CI.

    Accepts ScalingRecords or bare finite (size > 0, w >= 0) pairs; zero
    distances are excluded with a notice.  Reordering the input cannot
    change the result: points are canonicalized before fitting.  The CI
    is an estimate, not a rigorous bound: the 2.5 and 97.5 percentiles
    of the slopes of 1000 resamples, drawn from a fixed seed in one call
    (one per 2^20 indices) and fitted row by row, less those at a single
    size.
    """
    pts = []
    dropped = 0
    for r in records:
        if isinstance(r, ScalingRecord):
            s, w = r.size_param, r.w_distance
        else:
            s, w = float(r[0]), float(r[1])
            if not (0 < s < math.inf and 0 <= w < math.inf):  # and nan
                raise ValueError(f"bad (size, w) pair {(s, w)!r}")
        if w <= 0.0:
            dropped += 1
            continue
        pts.append((s, w))
    if dropped:
        log.warning("holder_fit: excluded %d zero-W record(s)", dropped)
    if len(pts) < 3:
        raise InsufficientDataError(
            f"need >= 3 positive records, have {len(pts)}")
    if len({s for s, _ in pts}) < 2:
        raise InsufficientDataError(
            "need records at >= 2 distinct sizes to fit a slope")
    pts.sort()
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])

    slope, intercept = _ols(lx, ly)
    res = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(res ** 2)) / ss_tot

    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    slopes, n = [], len(pts)
    rows = max(1, (1 << 20) // n)  # resamples per draw of <= 2^20 indices
    for start in range(0, _BOOTSTRAP, rows):
        idx = rng.integers(0, n, (min(rows, _BOOTSTRAP - start), n))
        idx = idx[np.ptp(lx[idx], axis=1) != 0.0]
        slopes.extend(_ols(lx[idx], ly[idx])[0])
    lo, hi = np.percentile(slopes, [2.5, 97.5]) if slopes else (slope, slope)
    return HolderFit(float(slope), float(intercept), float(r2),
                     (float(lo), float(hi)))


# ------------------------------------------------------------ DK suite

def run_dk_suite(cases: int = 1000, seed: int = 0,
                 alpha: Union[str, float] = "golden"):
    """Randomized Denjoy-Koksma check on orbits of 10..1e5 points;
    returns (violations, checked).  Each case's verdict is dk_check's on
    frac(x0 + i*alpha), i = 1..N, bit for bit.  A case whose mean is
    within V/N of the integral is decided at the discrepancy floor 1/N
    and takes no discrepancy, and an indicator's mean is a count of the
    orbit's points on its arc (see _dk_cases).  ValueError if i*alpha
    overflows for some i <= 1e5."""
    _check_count("cases", cases, 1)
    a, _ = resolve_alpha(alpha)
    return sum(not c.ok for c in _dk_cases(cases, seed, a)), cases


def _dk_cases(cases: int, seed: int, a: float):
    """The suite's checks, one per case, yielded in the order drawn.

    Each case forms its orbit frac(x0 + i*a), i <= N, from one table of
    the i*a, and takes its mean in orbit order, as dk_check sums; an
    indicator counts the points on its arc instead (_arc_mean), which
    is np.mean of its 0/1 values exactly, and evaluates nothing.

    A case with V = 0 or |mean - int f| <= V/N is decided at the
    discrepancy floor: its check is _dk_verdict with d None, bound
    V * (1/N), ok True, and it takes no discrepancy.  The verdict is
    dk_check's.  For V = 0 the bound V * D is 0.0 at every D.  Else any
    N points have D >= 1/N, and the float D falls short of 1/N only by
    the rounding of terms of size at most 1, a few units of 2^-53;
    times V (at most 4 in the library) that is far inside the 1e-12
    slack of lhs <= V * D + 1e-12, so dk_check says ok too.  A case
    that would violate has lhs > V * D + 1e-12 > V/N and is never
    decided early.  Only its bound differs from dk_check's: V * (1/N)
    in place of V * D.  Every other case takes discrepancy(orbit), as
    dk_check does.
    """
    if not math.isfinite(a * 10 ** 5):
        raise ValueError(f"alpha {a!r} overflows the orbit table i*alpha")
    rng = np.random.default_rng(seed)
    lib = bv_library()
    ia = np.arange(1, 10 ** 5 + 1) * a
    shifted, orbit = np.empty_like(ia), np.empty_like(ia)
    for _ in range(cases):
        x0, N = rng.uniform(), int(rng.integers(10, 10 ** 5 + 1))
        f = lib[int(rng.integers(0, len(lib)))]
        orb = _frac_into(np.add(x0, ia[:N], out=shifted[:N]), orbit[:N])
        if f._arc is None:
            mean = float(np.mean(f.eval(orb)))
        else:
            mean = _arc_mean(f._arc, orb)
        check = _dk_verdict(f, mean, None, N)
        if f.variation != 0.0 and check.lhs > check.bound:
            check = _dk_verdict(f, mean, discrepancy(orb), N)
        yield check
