"""Output checks behind the benchmark's failure count.

Each check takes parsed outputs of one pipeline stage and returns the
list of operations whose output is wrong, as (operation key, reason)
pairs.  The oracles are closed forms the package already proves in its
test suite; the tolerances are the ones its tests and acceptance
criteria use.  None of the checks needs scipy.
"""

import math

import numpy as np

# |W - closed form| for exact transport distances (tests/test_measures.py)
W_EXACT_TOL = 1e-14
# criterion 2: W - (1/4) delta^(1/2.01) >= 0 at every attractor-repeller point
C2_EXPONENT = 1 / 2.01
C2_CONSTANT = 0.25
# criterion 5: log-log slope of the Cesaro ladder
CESARO_MAX_SLOPE = -0.88
# criterion 6: |fd estimate - closed form| / |closed form|
FD_MAX_REL_ERR = 0.05


def snap_failures(rows):
    """rational_snap records: W = 1/(4q) for the grid orbit of p/q.

    rows: (j, q, w) with q None for a record off the ladder.
    """
    bad = []
    for j, q, w in rows:
        if q is None:
            bad.append((("snap", j), "record for an unknown convergent"))
        elif not abs(w - 1.0 / (4 * q)) <= W_EXACT_TOL:
            bad.append((("snap", j), f"W = {w!r} != 1/(4*{q})"))
    return bad


def criterion2_failures(rows):
    """Attractor-repeller records: W >= (1/4) delta^(1/2.01).

    rows: (j, delta, w).
    """
    return [(("ar", j), f"W = {w!r} below (1/4) delta^(1/2.01)")
            for j, delta, w in rows
            if not w - C2_CONSTANT * delta ** C2_EXPONENT >= 0.0]


def cesaro_failures(ns, ws):
    """Cesaro ladder: positive W whose log-log slope is <= -0.88."""
    ok = all(w > 0.0 and math.isfinite(w) for w in ws) and len(ns) >= 2
    if ok:
        slope = float(np.polyfit(np.log(ns), np.log(ws), 1)[0])
        ok = slope <= CESARO_MAX_SLOPE
    return [] if ok else [(("cesaro", n), "Cesaro ladder off criterion 5")
                          for n in ns]


def discrepancy_failures(points):
    """Discrepancy enclosure: 1/N <= lower <= upper <= 1 at every N."""
    bad = []
    for p in points:
        n, lo, hi = p["n"], p["lower"], p["upper"]
        if not 1.0 / n - 1e-15 <= lo <= hi <= 1.0:
            bad.append((("discrepancy", n), f"enclosure [{lo!r}, {hi!r}]"))
    return bad


def dk_failures(violations, cases):
    """Denjoy-Koksma suite: every violation is one failed case."""
    return [(("dk", k), "Denjoy-Koksma inequality violated")
            for k in range(min(violations, cases))]


def rotation_failures(rows, alpha):
    """Discretized rotation: cycles give g/(4N), g = gcd(floor(N alpha), N);
    the physical measure is uniform on the grid, W = 1/(4N).

    rows: (N, kind, w) for family "rotation".
    """
    bad = []
    for N, kind, w in rows:
        if kind == "physical":
            want = 1.0 / (4 * N)
        else:
            want = math.gcd(math.floor(N * alpha), N) / (4 * N)
        if not abs(w - want) <= W_EXACT_TOL:
            bad.append((("rotation", N), f"{kind} W = {w!r} != {want!r}"))
    return bad


def convexity_failures(rows):
    """Discretization records: W1 is convex, so the basin-weighted
    physical measure is no farther from mu_0 than the worst cycle.

    rows: (family, N, kind, w).
    """
    by_point = {}
    for fam, N, kind, w in rows:
        by_point.setdefault((fam, N), {})[kind] = w
    return [(key, f"physical W {ws.get('physical')!r} above worst cycle")
            for key, ws in by_point.items()
            if not ws.get("physical", math.inf)
            <= ws.get("worst-cycle", -math.inf) * (1 + 1e-12)
            or not ws.get("best-cycle", math.inf) <= ws["worst-cycle"]]


def basin_failures(graphs):
    """Functional graphs: basin sizes partition the N grid nodes.

    graphs: (family, N, basin sizes).
    """
    return [((fam, N), f"basins sum to {sum(b)}, not N")
            for fam, N, b in graphs if sum(b) != N or min(b, default=0) < 1]


def response_failures(doc):
    """Linear response: extrapolated estimate within 5% of the formula."""
    err = fd_rel_err(doc)
    if err <= FD_MAX_REL_ERR:
        return []
    return [(("eps", r["epsilon"]), f"fd relative error {err!r}")
            for r in doc["per_eps"]]


def fd_rel_err(doc):
    """|extrapolated estimate - closed form| / |closed form|."""
    est, formula = doc["extrapolated_estimate"], doc["formula_value"]
    return abs(est - formula) / abs(formula)
