"""Invariant measures: exact physical measures of discretized maps via
functional-graph analysis, Birkhoff empirical measures, and the exact
invariant density of a conjugated rotation.

A discretized map sends the grid E_N = {i/N} into itself, so its dynamics
is a functional graph on N nodes: every component has exactly one cycle
and trees hanging off it.  The invariant probability measures are exactly
the convex combinations of uniform measures on the cycles; the "physical"
one weights each cycle by the fraction of grid nodes that fall into it.

The graph is analysed in array passes by pointer doubling.  Composing
the image array with itself, g <- g o g, shrinks its image until g
permutes it; the first composition that leaves the image size unchanged
proves that, and the image is then exactly the set of cycle nodes.  That
takes at most ceil(log2 N) + 1 compositions, and one for a permutation
such as a discretized rotation.  Min-propagation over the M cycle nodes
(ceil(log2 M) rounds) then labels each with its cycle's smallest node.
"""

import numbers
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .arithmetic import canonicalize
from .errors import ResourceLimitError
from .maps import (
    CircleMap,
    ConjugatedRotation,
    Discretized,
    _wb_mean,
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

# Memory cap for graph analysis.  At the cap the whole analysis, grid
# image included, peaked at 970 MiB resident for the golden rotation
# (one cycle of 1e7 nodes) and 343 MiB for a one-mode conjugated
# rotation, whose grid image is built in blocks: ru_maxrss of a fresh
# process that had only imported the package (34 MiB) before, Python
# 3.11, numpy 2.4, x86-64 Linux.
GRID_NODE_CAP = 10 ** 7


@dataclass(frozen=True)
class FunctionalGraphAnalysis:
    """Complete cycle/basin decomposition of a discretized map.

    Cycles come in canonical order, sorted by their smallest node.
    cycle_measures[k] is the uniform measure on cycle k, and
    basin_sizes[k] counts every grid node whose forward orbit ends on
    cycle k (cycle nodes included), so the sizes sum to N.
    """

    N: int
    basin_sizes: List[int]
    cycle_measures: List[AtomicMeasure]
    physical_measure: AtomicMeasure

    @property
    def cycle_count(self) -> int:
        return len(self.cycle_measures)


def _cycle_nodes(succ: np.ndarray):
    """The cycle nodes of succ, ascending, and g = succ^(2^k) with every
    g[v] on a cycle.

    Doubles g <- g o g until its image stops shrinking: image(g o g) =
    g(image g) lies inside image g, so equal sizes mean g maps S = image g
    onto itself, a permutation of S.  Every node of S is then periodic
    under g and so under succ, and every cycle node lies in the image of
    any power of succ, so S is exactly the set of cycle nodes.  The image
    equals that set once 2^k reaches the longest tail, so the loop takes
    at most ceil(log2 N) + 1 compositions; for a permutation, one.
    """
    on = np.zeros(len(succ), dtype=bool)
    on[succ] = True
    size = np.count_nonzero(on)
    g = succ
    while True:
        g = np.take(g, g)
        on[:] = False
        on[g] = True
        shrunk = np.count_nonzero(on)
        if shrunk == size:
            return np.flatnonzero(on), g
        size = shrunk


def _cycle_ids(succ: np.ndarray, cyc: np.ndarray) -> np.ndarray:
    """The index of each node's cycle on the cycle nodes cyc, ascending,
    with cycles numbered by their smallest node.

    Min-propagation by pointer jumping on succ restricted to cyc: after
    k rounds lab[v] is the smallest node of the window v, succ(v), ...,
    succ^(2^k - 1)(v), so ceil(log2 M) rounds cover every cycle of the
    M nodes.
    """
    M = len(cyc)
    local = np.empty(len(succ), dtype=np.int32)
    local[cyc] = np.arange(M, dtype=np.int32)
    p = np.take(local, np.take(succ, cyc))
    del local
    lab = np.arange(M, dtype=np.int32)   # local order is node order
    step = 1
    while step < M:
        np.minimum(lab, np.take(lab, p), out=lab)
        step *= 2
        if step < M:
            p = np.take(p, p)
    return (np.cumsum(lab == np.arange(M)) - 1)[lab]


def analyze_functional_graph(mapping: Discretized,
                             N: int) -> FunctionalGraphAnalysis:
    """Cycle decomposition of T_N on the grid by pointer doubling.

    Array passes only, O(N log N) in the worst case: the cycle nodes take
    at most ceil(log2 N) + 1 compositions of the image array, stopping
    exactly when its image stops shrinking (one composition for a
    permutation such as a discretized rotation), and the M cycle nodes
    then take ceil(log2 M) rounds of min-propagation.
    """
    if not isinstance(mapping, Discretized):
        raise TypeError("analyze_functional_graph needs a Discretized map")
    if isinstance(N, bool) or not isinstance(N, numbers.Integral):
        raise ValueError(f"N must be an integer, got {N!r}")
    if mapping.N != N:
        raise ValueError(f"grid mismatch: map has N={mapping.N}, got N={N}")
    N = int(N)
    if N > GRID_NODE_CAP:
        raise ResourceLimitError(
            f"N={N} exceeds the {GRID_NODE_CAP} node cap",
            requested=N, limit=GRID_NODE_CAP)

    succ = mapping.grid_image().astype(np.int32)  # GRID_NODE_CAP < 2^31
    cyc, g = _cycle_nodes(succ)
    cid = _cycle_ids(succ, cyc)
    length = np.bincount(cid)
    on_cycle = np.empty(N, dtype=np.int32)   # cycle index, < N < 2^31
    on_cycle[cyc] = cid
    basin = np.bincount(np.take(on_cycle, g), minlength=len(length))
    # free the N-sized arrays before the measures are built
    del succ, g, on_cycle

    # each cycle's nodes ascending, the order AtomicMeasure sorts fastest
    ascending = np.split(cyc[np.argsort(cid, kind="stable")],
                         np.cumsum(length)[:-1])
    cycle_measures = [AtomicMeasure.uniform(c / N) for c in ascending]
    physical = AtomicMeasure(cyc / N, (basin / (N * length))[cid])

    return FunctionalGraphAnalysis(
        N=N, basin_sizes=[int(b) for b in basin],
        cycle_measures=cycle_measures, physical_measure=physical)


def birkhoff_measure(mapping: CircleMap, x0: float, n: int,
                     burn_in: int = 0) -> AtomicMeasure:
    """Empirical measure (1/n) sum delta_{T^i x0}, i = burn_in+1..burn_in+n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = mapping.orbit(canonicalize(x0), n, burn_in)
    return AtomicMeasure.uniform(pts)


def birkhoff_average(mapping: CircleMap, f: Callable, n: int,
                     burn_in: int = 0, x0: float = 0.0) -> float:
    """Orbit average of f with the weighted-Birkhoff window.

    f may be any vectorized callable (a BVObservable's eval, a
    FourierSeries' eval, a plain ufunc expression).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = mapping.orbit(canonicalize(x0), n, burn_in)
    return _wb_mean(np.asarray(f(xs), dtype=float))


def invariant_measure_of_diffeo(
        mapping: ConjugatedRotation) -> DiffeoInvariantDensity:
    """Exact invariant measure h_* m of a conjugated rotation."""
    if not isinstance(mapping, ConjugatedRotation):
        raise TypeError("invariant_measure_of_diffeo needs a "
                        "ConjugatedRotation")
    return DiffeoInvariantDensity(mapping.h)
