"""Invariant measures: exact physical measures of discretized maps via
functional-graph analysis, Birkhoff empirical measures, and the exact
invariant density of a conjugated rotation.

A discretized map sends the grid E_N = {i/N} into itself, so its dynamics
is a functional graph on N nodes: every component has exactly one cycle
and trees hanging off it.  The invariant probability measures are exactly
the convex combinations of uniform measures on the cycles; the "physical"
one weights each cycle by the fraction of grid nodes that fall into it.
"""

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .arithmetic import canonicalize
from .errors import ResourceLimitError
from .maps import (
    CircleMap,
    ConjugatedRotation,
    Discretized,
    weighted_birkhoff_weights,
)
from .measures import AtomicMeasure, DiffeoInvariantDensity

__all__ = [
    "GRID_NODE_CAP",
    "FunctionalGraphAnalysis",
    "analyze_functional_graph",
    "birkhoff_measure",
    "birkhoff_average",
    "DiffeoInvariantDensity",
    "invariant_measure_of_diffeo",
]

GRID_NODE_CAP = 10 ** 7  # memory cap for graph analysis


@dataclass(frozen=True)
class FunctionalGraphAnalysis:
    """Complete cycle/basin decomposition of a discretized map.

    basin_sizes[k] counts every grid node whose forward orbit ends on
    cycle k (cycle nodes included), so the sizes sum to N.
    """

    N: int
    cycles: List[List[int]]
    basin_sizes: List[int]
    cycle_measures: List[AtomicMeasure]
    physical_measure: AtomicMeasure

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def basin_fractions(self) -> List[float]:
        return [b / self.N for b in self.basin_sizes]

    def summary_json(self) -> str:
        hist = {}
        for cyc in self.cycles:
            hist[len(cyc)] = hist.get(len(cyc), 0) + 1
        return json.dumps({
            "N": self.N,
            "cycle_count": self.cycle_count,
            "cycle_length_histogram": {str(k): v
                                       for k, v in sorted(hist.items())},
            "basin_fractions": self.basin_fractions(),
        })

    def cycles_to_csv(self) -> str:
        buf = io.StringIO()
        wr = csv.writer(buf)
        wr.writerow(["cycle", "node"])
        for k, cyc in enumerate(self.cycles):
            for node in cyc:
                wr.writerow([k, node])
        return buf.getvalue()


def analyze_functional_graph(mapping: Discretized,
                             N: int) -> FunctionalGraphAnalysis:
    """Cycle decomposition of T_N on the grid by three-color marking.

    Single pass over the nodes, O(N) time: each node is walked at most
    once while white, then turns black for good.
    """
    if not isinstance(mapping, Discretized):
        raise TypeError("analyze_functional_graph needs a Discretized map")
    if mapping.N != N:
        raise ValueError(f"grid mismatch: map has N={mapping.N}, got N={N}")
    if N > GRID_NODE_CAP:
        raise ResourceLimitError(
            f"N={N} exceeds the {GRID_NODE_CAP} node cap",
            requested=N, limit=GRID_NODE_CAP)

    succ = mapping.grid_image()
    state = np.zeros(N, dtype=np.uint8)       # 0 white, 1 gray, 2 black
    cycle_id = np.empty(N, dtype=np.int64)
    cycles: List[List[int]] = []

    for start in range(N):
        if state[start]:
            continue
        path = []
        pos = {}  # node -> index within path, for O(1) cycle cut
        v = start
        while not state[v]:
            state[v] = 1
            pos[v] = len(path)
            path.append(v)
            v = int(succ[v])
        if state[v] == 1:            # closed a fresh cycle inside this path
            cid = len(cycles)
            cycles.append(path[pos[v]:])
        else:                        # merged into an already-decided node
            cid = int(cycle_id[v])
        for u in path:
            cycle_id[u] = cid
            state[u] = 2

    basin = np.bincount(cycle_id, minlength=len(cycles))
    cycle_measures = [AtomicMeasure.uniform(np.asarray(cyc) / N)
                      for cyc in cycles]

    pos_all = np.concatenate([np.asarray(cyc, dtype=float) / N
                              for cyc in cycles])
    w_all = np.concatenate([
        np.full(len(cyc), basin[k] / (N * len(cyc)))
        for k, cyc in enumerate(cycles)])
    physical = AtomicMeasure(pos_all, w_all)

    return FunctionalGraphAnalysis(
        N=N, cycles=cycles, basin_sizes=[int(b) for b in basin],
        cycle_measures=cycle_measures, physical_measure=physical)


def birkhoff_measure(mapping: CircleMap, x0: float, n: int,
                     burn_in: int = 0) -> AtomicMeasure:
    """Empirical measure (1/n) sum delta_{T^i x0}, i = burn_in+1..burn_in+n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = mapping.orbit(canonicalize(x0), n, burn_in)
    return AtomicMeasure.uniform(pts)


def birkhoff_average(mapping: CircleMap, f: Callable, n: int,
                     burn_in: int = 0, x0: float = 0.0,
                     weighted: bool = True) -> float:
    """Orbit average of f, optionally with the weighted-Birkhoff window.

    f may be any vectorized callable (a BVObservable's eval, a
    FourierSeries' eval, a plain ufunc expression).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = mapping.orbit(canonicalize(x0), n, burn_in)
    vals = np.asarray(f(xs), dtype=float)
    if not weighted:
        return float(np.mean(vals))
    w = weighted_birkhoff_weights(n)
    return float(np.einsum("i,i->", w, vals) / np.sum(w))


def invariant_measure_of_diffeo(
        mapping: ConjugatedRotation) -> DiffeoInvariantDensity:
    """Exact invariant measure h_* m of a conjugated rotation."""
    if not isinstance(mapping, ConjugatedRotation):
        raise TypeError("invariant_measure_of_diffeo needs a "
                        "ConjugatedRotation")
    return DiffeoInvariantDensity(mapping.h)
