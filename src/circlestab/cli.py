"""Experiment orchestration and command-line interface.

Scaling scans measure W1 distances across parameter ladders (the
perturbation size delta for stability families, the grid size N for
discretizations); holder_fit regresses the exponent on log-log axes
with a bootstrap CI; the CLI exposes the pipeline with CSV and JSON
output.  Reruns with the same config and seed are byte-identical.
"""

import argparse
import csv
import hashlib
import io
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .arithmetic import (
    GOLDEN_MEAN,
    SQRT2_MINUS_ONE,
    continued_fraction,
    frac,
    lacunary_alpha,
)
from .errors import CircleStabError, InsufficientDataError
from .fourier import FourierSeries
from .invariant import (
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
)
from .measures import (
    SMOOTH_CELLS,
    AtomicMeasure,
    LebesgueMeasure,
    atomize_by_cdf,
    bv_library,
    discrepancy,
    dk_check,
    pushforward,
    wasserstein,
)
from .response import ResponseReport, fd_response, response_pairing

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
    "run_cli",
    "main",
]

log = logging.getLogger("circlestab")

MEASURE_KINDS = ("physical", "worst-cycle", "best-cycle", "birkhoff")
INVARIANCE_TOL = 1e-9  # constructed measures must be fixed to this W

ALPHA_PRESETS = {
    "golden": GOLDEN_MEAN,
    "sqrt2": SQRT2_MINUS_ONE,
    "lacunary": float(lacunary_alpha()),
}


def resolve_alpha(spec: Union[str, float]) -> Tuple[float, str]:
    """(value, label) for a preset name or a numeric literal."""
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in ALPHA_PRESETS:
            return ALPHA_PRESETS[key], key
        try:
            return float(key), key
        except ValueError:
            raise ValueError(
                f"unknown alpha spec {spec!r}; presets: "
                f"{sorted(ALPHA_PRESETS)}")
    return float(spec), repr(float(spec))


def _map_hash(m) -> str:
    return hashlib.sha256(m.to_json().encode()).hexdigest()[:16]


# ------------------------------------------------------------ records

@dataclass(frozen=True)
class ScalingRecord:
    """One (parameter, W) sample of a scaling scan."""

    family_id: str
    size_param: float
    w_distance: float
    measure_kind: str
    seed: int = 0
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


def write_records_csv(records: Sequence[ScalingRecord], fh=None) -> str:
    """Fixed schema, 17 significant digits, deterministic row order."""
    buf = io.StringIO()
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["family_id", "size_param", "w_distance", "measure_kind",
                 "seed"])
    key = lambda r: (r.family_id, r.size_param, r.measure_kind, r.w_distance)
    for r in sorted(records, key=key):
        wr.writerow([r.family_id, format(r.size_param, ".17g"),
                     format(r.w_distance, ".17g"), r.measure_kind, r.seed])
    text = buf.getvalue()
    if fh is not None:
        fh.write(text)
    return text


def read_records_csv(text: str) -> List[ScalingRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["family_id", "size_param", "w_distance",
                               "measure_kind", "seed"]:
        raise ValueError("bad CSV header for scaling records")
    return [ScalingRecord(family_id=r[0], size_param=float(r[1]),
                          w_distance=float(r[2]), measure_kind=r[3],
                          seed=int(r[4]))
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
    burn_in: int = 1000
    seed: int = 0
    output_csv: Optional[str] = None
    output_json: Optional[str] = None

    def validate(self) -> "ExperimentConfig":
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
        ConjugacyDiffeo(self.h_a or (0.0,), self.h_b or None)
        return self

    def to_json(self) -> str:
        d = {
            "alpha": self.alpha, "family": self.family,
            "ladder": list(self.ladder), "depth": self.depth,
            "bump_strength": self.bump_strength,
            "h_a": list(self.h_a), "h_b": list(self.h_b),
            "orbit_len": self.orbit_len, "burn_in": self.burn_in,
            "seed": self.seed, "output_csv": self.output_csv,
            "output_json": self.output_json,
        }
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        d = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        for k in ("ladder", "h_a", "h_b"):
            if k in d:
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
    attractor as "physical", the repeller as "worst-cycle"); the
    rational snap T_delta = R_{p/q} records the grid orbit measure.
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
        base_meta = {"alpha": label, "j": j, "p": cv.p, "q": cv.q}
        recs = []
        if config.family == "attractor_repeller":
            ar = AttractorRepeller(alpha, j, profile, config.bump_strength)
            meta = dict(base_meta, map_hash=_map_hash(ar))
            att = _verified_uniform(ar, ar.attracting_orbit())
            rep = _verified_uniform(ar, ar.repelling_orbit())
            recs.append(ScalingRecord(
                "attractor_repeller", cv.delta, wasserstein(m, att),
                "physical", config.seed, meta))
            recs.append(ScalingRecord(
                "attractor_repeller", cv.delta, wasserstein(m, rep),
                "worst-cycle", config.seed, meta))
            if config.orbit_len > 0:
                bm = birkhoff_measure(ar, 0.123, config.orbit_len,
                                      config.burn_in)
                recs.append(ScalingRecord(
                    "attractor_repeller", cv.delta, wasserstein(m, bm),
                    "birkhoff", config.seed, meta))
        else:  # rational_snap
            snap = Rotation(cv.p / cv.q)
            meta = dict(base_meta, map_hash=_map_hash(snap))
            mu = _verified_uniform(snap, snap.orbit(0.0, cv.q))
            recs.append(ScalingRecord(
                "rational_snap", cv.delta, wasserstein(m, mu),
                "physical", config.seed, meta))
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
    per N; mu_0 is Lebesgue for rotations and h_* m for diffeos
    (atomized once for the whole scan).
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
        mu0 = atomize_by_cdf(invariant_measure_of_diffeo(base).cdf,
                             SMOOTH_CELLS)

    def one(N):
        N = int(N)
        T = Discretized(base, N)
        analysis = analyze_functional_graph(T, N)
        meta = {"alpha": label, "N": N, "map_hash": _map_hash(T),
                "cycles": analysis.cycle_count}
        ws = [wasserstein(mu0, cm) for cm in analysis.cycle_measures]
        rows = [
            ("physical", wasserstein(mu0, analysis.physical_measure)),
            ("worst-cycle", max(ws)),
            ("best-cycle", min(ws)),
        ]
        return [ScalingRecord(config.family, 1.0 / N, w, kind,
                              config.seed, meta) for kind, w in rows]

    return _scan_ladder(one, config.ladder)


# ------------------------------------------------------------ regression

class HolderFit(NamedTuple):
    slope: float
    intercept: float
    r2: float
    ci: Tuple[float, float]


def holder_fit(records, bootstrap: int = 1000,
               seed: int = 12345) -> HolderFit:
    """OLS of log w_distance on log size_param, bootstrap CI on the slope.

    Accepts ScalingRecords or bare finite (size > 0, w) pairs; zero
    distances are excluded with a notice.  Reordering the input cannot
    change the result: points are canonicalized before fitting.
    """
    pts = []
    dropped = 0
    for r in records:
        if isinstance(r, ScalingRecord):
            s, w = r.size_param, r.w_distance
        else:
            s, w = float(r[0]), float(r[1])
            if not (0 < s < math.inf and w < math.inf):  # also rejects nan
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
    pts.sort()
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])

    slope, intercept = np.polyfit(lx, ly, 1)
    res = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(res ** 2)) / ss_tot

    rng = np.random.default_rng(seed)
    slopes = []
    n = len(pts)
    for _ in range(bootstrap):
        idx = rng.integers(0, n, n)
        bx, by = lx[idx], ly[idx]
        if np.ptp(bx) == 0.0:
            continue
        slopes.append(np.polyfit(bx, by, 1)[0])
    if slopes:
        lo, hi = np.percentile(slopes, [2.5, 97.5])
    else:
        lo = hi = slope
    return HolderFit(float(slope), float(intercept), float(r2),
                     (float(lo), float(hi)))


# ------------------------------------------------------------ DK suite

def run_dk_suite(cases: int = 1000, seed: int = 0,
                 alpha: Union[str, float] = "golden",
                 n_low: int = 10, n_high: int = 10 ** 5):
    """Randomized Denjoy-Koksma check; returns (violations, checked)."""
    a, _ = resolve_alpha(alpha)
    rng = np.random.default_rng(seed)
    lib = bv_library()
    bad = 0
    for _ in range(cases):
        x0 = rng.uniform()
        N = int(rng.integers(n_low, n_high + 1))
        f = lib[int(rng.integers(0, len(lib)))]
        orb = frac(x0 + np.arange(1, N + 1) * a)
        if not dk_check(f, orb).ok:
            bad += 1
    return bad, cases


# ------------------------------------------------------------ CLI

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="circlestab",
                description="Scaling experiments for circle rotations")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--alpha", default="golden")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", help="CSV output path")
        sp.add_argument("--json", dest="json_out", help="JSON summary path")
        sp.add_argument("--config", help="ExperimentConfig JSON path")

    sp = sub.add_parser("stability", help="W(m, mu_delta) over convergents")
    common(sp)
    sp.add_argument("--family", default="attractor_repeller",
                    choices=STABILITY_FAMILIES)
    sp.add_argument("--j-min", type=int, default=5)
    sp.add_argument("--j-max", type=int, default=15)
    sp.add_argument("--bump", type=float, default=1.0)
    sp.add_argument("--depth", type=int, default=30)

    sp = sub.add_parser("discretize", help="W(mu_0, mu_N) over grid sizes")
    common(sp)
    sp.add_argument("--family", default="rotation",
                    choices=DISCRETIZATION_FAMILIES)
    sp.add_argument("--ladder", type=int, nargs="+",
                    default=[100, 1000, 10000])
    sp.add_argument("--h-amp", type=float, default=0.2)

    sp = sub.add_parser("discrepancy", help="orbit discrepancy ladder")
    common(sp)
    sp.add_argument("--ladder", type=int, nargs="+",
                    default=[100, 1000, 10000, 100000])
    sp.add_argument("--mode", default="auto",
                    choices=("auto", "exact", "enclosure"))

    sp = sub.add_parser("dk-check", help="randomized Denjoy-Koksma suite")
    common(sp)
    sp.add_argument("--suite", default="default", choices=("default",))
    sp.add_argument("--cases", type=int, default=1000)

    sp = sub.add_parser("response", help="finite-difference linear response")
    common(sp)
    sp.add_argument("--eps", type=float, nargs="+", default=[1e-2, 1e-3])
    sp.add_argument("--orbit-len", type=int, default=10 ** 7)
    sp.add_argument("--burn-in", type=int, default=10 ** 3)

    sp = sub.add_parser("holder-fit", help="log-log slope of a records CSV")
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("profile-alpha", help="continued-fraction profile")
    common(sp)
    sp.add_argument("--depth", type=int, default=20)
    return p


def _emit(args, records: ScanResult, extra: dict) -> None:
    text = write_records_csv(records)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    summary = dict(extra)
    summary["records"] = len(records)
    summary["failures"] = [{"param": p, "error": msg}
                           for p, msg in records.failures]
    try:
        fit = holder_fit(records)
        summary["fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                          "r2": fit.r2, "ci": list(fit.ci)}
    except (InsufficientDataError, ValueError):
        summary["fit"] = None
    doc = json.dumps(summary, indent=2)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(doc)
    else:
        print(doc, file=sys.stderr)


def _config_from(args, **overrides) -> ExperimentConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ExperimentConfig.from_json(fh.read())
        return cfg
    cfg = ExperimentConfig(alpha=args.alpha, seed=args.seed, **overrides)
    return cfg.validate()


def _cmd_stability(args) -> int:
    cfg = _config_from(
        args, family=args.family,
        ladder=tuple(range(args.j_min, args.j_max + 1)),
        depth=args.depth, bump_strength=args.bump)
    records = stability_scan(cfg)
    _emit(args, records, {"command": "stability", "family": cfg.family})
    if records or not cfg.ladder:
        return 0
    return 2  # every ladder point failed


def _cmd_discretize(args) -> int:
    cfg = _config_from(args, family=args.family, ladder=tuple(args.ladder),
                       h_a=(args.h_amp,))
    records = discretization_scan(cfg)
    _emit(args, records, {"command": "discretize", "family": cfg.family})
    if records or not cfg.ladder:
        return 0
    return 2


def _cmd_discrepancy(args) -> int:
    alpha, label = resolve_alpha(args.alpha)
    points = []
    for N in args.ladder:
        orb = frac(np.arange(1, N + 1) * alpha)
        d = discrepancy(orb, mode=args.mode)
        points.append({"n": int(N), "lower": d.lower, "upper": d.upper,
                       "exact": d.exact, "star": d.star})
    doc = {"alpha": label, "mode": args.mode, "points": points}
    if len(points) >= 3:
        ns = [p["n"] for p in points]
        for key in ("lower", "upper"):
            ws = [p[key] for p in points]
            doc[f"slope_{key}"] = float(np.polyfit(np.log(ns),
                                                   np.log(ws), 1)[0])
    out = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        print(out)
    return 0


def _cmd_dk(args) -> int:
    bad, total = run_dk_suite(cases=args.cases, seed=args.seed,
                              alpha=args.alpha)
    print(f"violations: {bad}")
    print(f"checked: {total}", file=sys.stderr)
    return 0 if bad == 0 else 2


def _cmd_response(args) -> int:
    alpha, label = resolve_alpha(args.alpha)
    u = FourierSeries.cosine(1)
    formula = response_pairing(u, alpha, u)
    est, recs = fd_response(u, alpha, u, args.eps,
                            orbit_len=args.orbit_len, burn_in=args.burn_in)
    rep = ResponseReport(alpha=alpha, formula_value=formula, estimate=est,
                         per_eps=recs, orbit_len=args.orbit_len,
                         burn_in=args.burn_in)
    out = rep.to_json()
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(out)
    else:
        print(out)
    return 0


def _cmd_holder_fit(args) -> int:
    with open(args.input) as fh:
        records = read_records_csv(fh.read())
    fit = holder_fit(records)
    print(json.dumps({"slope": fit.slope, "intercept": fit.intercept,
                      "r2": fit.r2, "ci": list(fit.ci)}, indent=2))
    return 0


def _cmd_profile_alpha(args) -> int:
    alpha, label = resolve_alpha(args.alpha)
    prof = continued_fraction(alpha, args.depth)
    out = prof.to_json()
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(out)
    else:
        print(out)
    return 0


_HANDLERS = {
    "stability": _cmd_stability,
    "discretize": _cmd_discretize,
    "discrepancy": _cmd_discrepancy,
    "dk-check": _cmd_dk,
    "response": _cmd_response,
    "holder-fit": _cmd_holder_fit,
    "profile-alpha": _cmd_profile_alpha,
}


def run_cli(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CircleStabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
