"""Command-line interface to the scaling experiments.

Each subcommand accepts only the flags its handler reads.  Exit codes:
0 success, 1 configuration or usage error, 2 numeric failure.
"""

import argparse
import json
import sys
from typing import Optional, Sequence

import numpy as np

from .arithmetic import _check_count, _ols, continued_fraction
from .errors import CircleStabError, InsufficientDataError, ResourceLimitError
from .experiments import (
    DISCRETIZATION_FAMILIES,
    STABILITY_FAMILIES,
    ExperimentConfig,
    discretization_scan,
    holder_fit,
    read_records_csv,
    resolve_alpha,
    run_dk_suite,
    stability_scan,
    write_records_csv,
)
from .fourier import FourierSeries
from .measures import DISCREPANCY_POINT_CAP, discrepancy
from .response import ResponseReport, fd_response, response_pairing

__all__ = ["run_cli", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_SHARED_FLAGS = {
    "--alpha": dict(default="golden"),
    "--seed": dict(type=int, default=0),
    "--output": dict(help="output path (default: stdout)"),
    "--json": dict(dest="json_out", help="JSON output path"),
    "--config": dict(help="ExperimentConfig JSON path"),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="circlestab",
                description="Scaling experiments for circle rotations")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *shared):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler)
        for flag in shared:
            sp.add_argument(flag, **_SHARED_FLAGS[flag])
        return sp

    scan_flags = ("--alpha", "--output", "--json", "--config")
    sp = command("stability", _cmd_scan, "W(m, mu_delta) over convergents",
                 *scan_flags)
    sp.add_argument("--family", default="attractor_repeller",
                    choices=STABILITY_FAMILIES)
    sp.add_argument("--j-min", type=int, default=5)
    sp.add_argument("--j-max", type=int, default=15)
    sp.add_argument("--bump", type=float, default=1.0)
    sp.add_argument("--depth", type=int, default=30)

    sp = command("discretize", _cmd_scan, "W(mu_0, mu_N) over grid sizes",
                 *scan_flags)
    sp.add_argument("--family", default="rotation",
                    choices=DISCRETIZATION_FAMILIES)
    sp.add_argument("--ladder", type=int, nargs="+",
                    default=[100, 1000, 10000])
    sp.add_argument("--h-amp", type=float, default=0.2)

    sp = command("discrepancy", _cmd_discrepancy, "orbit discrepancy ladder",
                 "--alpha", "--output")
    sp.add_argument("--ladder", type=int, nargs="+",
                    default=[100, 1000, 10000, 100000])
    sp.add_argument("--mode", default="auto",
                    choices=("auto", "exact", "enclosure"))

    sp = command("dk-check", _cmd_dk, "randomized Denjoy-Koksma suite",
                 "--alpha", "--seed")
    sp.add_argument("--cases", type=int, default=1000)

    sp = command("response", _cmd_response,
                 "finite-difference linear response", "--alpha", "--json")
    sp.add_argument("--eps", type=float, nargs="+", default=[1e-2, 1e-3])
    sp.add_argument("--orbit-len", type=int, default=10 ** 7)

    sp = command("holder-fit", _cmd_holder_fit,
                 "log-log slope of a records CSV")
    sp.add_argument("--input", required=True)

    sp = command("profile-alpha", _cmd_profile_alpha,
                 "continued-fraction profile", "--alpha", "--json")
    sp.add_argument("--depth", type=int, default=20)
    return p


def _write(path: Optional[str], text: str, stream=None) -> None:
    """text to the file at path, else to stream (stdout) with a newline."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n",
              file=stream or sys.stdout)


def _scan_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config) as fh:
            return ExperimentConfig.from_json(fh.read())
    if args.command == "stability":
        fields = dict(ladder=tuple(range(args.j_min, args.j_max + 1)),
                      depth=args.depth, bump_strength=args.bump)
    else:
        fields = dict(ladder=tuple(args.ladder), h_a=(args.h_amp,))
    return ExperimentConfig(alpha=args.alpha, family=args.family,
                            **fields).validate()


def _cmd_scan(args) -> int:
    cfg = _scan_config(args)
    # looked up at call time, so a wrapper bound in their place also runs
    scan = (stability_scan if args.command == "stability"
            else discretization_scan)
    records = scan(cfg)
    _write(args.output, write_records_csv(records))
    summary = {"command": args.command, "family": cfg.family,
               "records": len(records),
               "failures": [{"param": p, "error": msg}
                            for p, msg in records.failures]}
    try:
        summary["fit"] = holder_fit(records)._asdict()
    except InsufficientDataError:
        summary["fit"] = None
    _write(args.json_out, json.dumps(summary, indent=2), sys.stderr)
    if summary["fit"] or not cfg.ladder:
        return 0
    return 2  # every ladder point failed, or too few sizes to fit


def _cmd_discrepancy(args) -> int:
    alpha, label = resolve_alpha(args.alpha)
    for N in args.ladder:  # every entry, before any work
        _check_count("N", N, 1)
    n_max = max(args.ladder)
    if n_max > DISCREPANCY_POINT_CAP:
        raise ResourceLimitError(
            f"discrepancy ladder point {n_max} exceeds the cap "
            f"{DISCREPANCY_POINT_CAP}", requested=n_max,
            limit=DISCREPANCY_POINT_CAP)
    points = []
    for N in args.ladder:
        orb = np.arange(1.0, N + 1.0)
        orb *= alpha  # discrepancy reduces mod 1
        d = discrepancy(orb, mode=args.mode)
        points.append({"n": int(N), "lower": d.lower, "upper": d.upper,
                       "exact": d.exact, "star": d.star})
    doc = {"alpha": label, "mode": args.mode, "points": points}
    if len(points) >= 3:
        ns = [p["n"] for p in points]
        for key in ("lower", "upper"):
            ws = [p[key] for p in points]
            doc[f"slope_{key}"] = float(_ols(np.log(ns), np.log(ws))[0])
    _write(args.output, json.dumps(doc, indent=2))
    return 0


def _cmd_dk(args) -> int:
    bad, total = run_dk_suite(cases=args.cases, seed=args.seed,
                              alpha=args.alpha)
    print(f"violations: {bad}")
    print(f"checked: {total}", file=sys.stderr)
    return 0 if bad == 0 else 2


def _cmd_response(args) -> int:
    alpha, _ = resolve_alpha(args.alpha)
    u = FourierSeries.cosine(1)
    formula = response_pairing(u, alpha, u)
    est, recs = fd_response(u, alpha, u, args.eps, orbit_len=args.orbit_len)
    rep = ResponseReport(alpha=alpha, formula_value=formula, estimate=est,
                         per_eps=recs, orbit_len=args.orbit_len)
    _write(args.json_out, rep.to_json())
    return 0


def _cmd_holder_fit(args) -> int:
    with open(args.input) as fh:
        records = read_records_csv(fh.read())
    print(json.dumps(holder_fit(records)._asdict(), indent=2))
    return 0


def _cmd_profile_alpha(args) -> int:
    alpha, _ = resolve_alpha(args.alpha)
    _write(args.json_out, continued_fraction(alpha, args.depth).to_json())
    return 0


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
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CircleStabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
