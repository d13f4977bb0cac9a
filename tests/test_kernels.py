"""The array kernels against the per-element code they replaced, kept
here as oracles: the CDF levels against prefix sums taken exactly in
integers, W to Lebesgue with one `mass(t)` call per breakpoint on those
exact levels, the atom-by-atom merge of `AtomicMeasure`, `x % 1.0` for
`frac` and `frac` for `_frac_into`, the three-color walk of the
functional graph, `dk_check` on a fresh orbit per case for the
Denjoy-Koksma suite (whose bound differs where it decides a case at
the discrepancy floor 1/N), the Newton inverse of a `ConjugacyDiffeo`
that evaluated its modes twice per step (from the same table start,
and within the residual tolerance from the old start z = y) and iterated
`eval`, point by point with no repeat check, for `CircleMap.orbit`.
Equality is bit for bit, except for the least-squares fits: the
closed-form slopes of the Holder fit agree with the per-resample
`np.polyfit` loop to 1e-12 relative, and the Diophantine type estimate
agrees with the per-window `np.polyfit` loop to 1e-13 relative."""

import functools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from circlestab import experiments
from circlestab.arithmetic import (
    GOLDEN_MEAN,
    SQRT2_MINUS_ONE,
    _frac_into,
    canonicalize,
    continued_fraction,
    frac,
    lacunary_alpha,
)
from circlestab.fourier import FourierSeries
from circlestab.experiments import _dk_cases, holder_fit, resolve_alpha
from circlestab.invariant import analyze_functional_graph
from circlestab.maps import (
    _BLOCK,
    _CYCLE_BLOCK,
    _INVERSE_NODES,
    AttractorRepeller,
    CircleMap,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Discretized,
    Rotation,
    tune_rotation_number,
)
from circlestab.measures import (
    MERGE_TOL,
    AtomicMeasure,
    LebesgueMeasure,
    _levels,
    bv_library,
    cesaro_average,
    dk_check,
    wasserstein,
)

M = LebesgueMeasure()


def exact_levels(w):
    """Prefix sums of w rounded once: each w_i = m_i 2^e_i is split by
    np.frexp and summed as an integer multiple of the smallest ulp."""
    m, e = np.frexp(w)
    shift = int(np.min(e)) - 53
    total, out = 0, []
    for mi, ei in zip(m.tolist(), e.tolist()):
        total += int(mi * 2.0 ** 53) << (ei - 53 - shift)
        out.append(math.ldexp(float(total), shift))  # int to float rounds
    return np.array(out)


def w_lebesgue_loop(mu):
    """W(mu, m) with one Python mass(t) call per breakpoint."""
    p, w = mu.positions, mu.weights
    W = exact_levels(w)
    p_next = np.append(p[1:], p[0] + 1.0)
    hi = W - p
    lo = W - p_next
    lo_s = np.sort(lo)
    hi_s = np.sort(hi)
    clo = np.cumsum(np.append(0.0, lo_s))
    chi = np.cumsum(np.append(0.0, hi_s))

    def mass(t):
        i = int(np.searchsorted(lo_s, t, side="right"))
        j = int(np.searchsorted(hi_s, t, side="right"))
        return (t * i - clo[i]) - (t * j - chi[j])

    ends = np.unique(np.concatenate([lo, hi]))
    masses = np.array([mass(t) for t in ends])
    k = int(np.searchsorted(masses, 0.5))
    if k == 0:
        c = float(ends[0])
    else:
        t0 = float(ends[k - 1])
        dens = (np.searchsorted(lo_s, t0, side="right")
                - np.searchsorted(hi_s, t0, side="right"))
        c = t0 + (0.5 - masses[k - 1]) / max(dens, 1)
    F = lambda t: 0.5 * t * np.abs(t)
    return float(np.sum(F(hi - c) - F(lo - c)))


def merge_loop(positions, weights):
    """Atom-by-atom merge: each atom is compared with its run's first."""
    p = np.asarray(positions, dtype=float) % 1.0
    p = np.where(p >= 1.0, 0.0, p)
    w = np.asarray(weights, dtype=float)
    order = np.argsort(p, kind="stable")
    keep_p, keep_w = [], []
    for pi, wi in zip(p[order], w[order]):
        if keep_p and pi - keep_p[-1] <= MERGE_TOL:
            keep_w[-1] += wi
        else:
            keep_p.append(pi)
            keep_w.append(wi)
    if len(keep_p) > 1 and (keep_p[0] + 1.0) - keep_p[-1] <= MERGE_TOL:
        keep_w[0] += keep_w.pop()
        keep_p.pop()
    return np.array(keep_p), np.array(keep_w)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# ------------------------------------------------------------ CDF levels

# sizes at the block edges of _levels check the TwoSum carry between blocks
@pytest.mark.parametrize("n", [10_000, 100_000, _BLOCK - 1, _BLOCK,
                               _BLOCK + 1, 3 * _BLOCK + 7])
def test_levels_equal_exact_prefix_sums(n):
    rng = np.random.default_rng(n)
    w = rng.dirichlet(np.ones(n))
    assert np.array_equal(bits(_levels(w)), bits(exact_levels(w)))
    # the signed jumps of two measures, as W between atomic measures sums
    jump = w * rng.choice([-1.0, 1.0], n)
    assert np.array_equal(bits(_levels(jump)), bits(exact_levels(jump)))
    # np.cumsum drifts by tens of ulps at these sizes
    assert not np.array_equal(np.cumsum(w), exact_levels(w))


def test_w_uniform_million_grid_is_quarter_spacing_to_4_ulp():
    n = 10 ** 6
    w = wasserstein(AtomicMeasure.uniform(np.arange(n) / n), M)
    assert abs(w - 0.25 / n) <= 4 * np.spacing(0.25 / n)


# ------------------------------------------------------------ W to Lebesgue

def test_w_lebesgue_equals_mass_loop_on_random_measures():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        k = int(rng.integers(1, 40))
        mu = AtomicMeasure(rng.uniform(0, 1, k), rng.dirichlet(np.ones(k)))
        assert wasserstein(mu, M) == w_lebesgue_loop(mu)


@pytest.mark.parametrize("n", [100, 1000, 10_000, 100_000])
def test_w_lebesgue_equals_mass_loop_on_cesaro(n):
    mu = cesaro_average(AtomicMeasure.dirac(0.0), GOLDEN_MEAN, n)
    assert len(mu) == n
    assert wasserstein(M, mu) == w_lebesgue_loop(mu)


# ------------------------------------------------------------ W between atoms

W_ATOMIC_SCRIPT = """
import numpy as np
from circlestab.measures import AtomicMeasure, _w_atomic_atomic
rng = np.random.default_rng(5)
n = 1 << 20
mu = AtomicMeasure(rng.uniform(0, 1, n), rng.dirichlet(np.ones(n)))
nu = AtomicMeasure(rng.uniform(0, 1, n), rng.dirichlet(np.ones(n)))
print(repr(_w_atomic_atomic(mu, nu)))
"""


def test_w_atomic_atomic_does_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(
        sys.modules[AtomicMeasure.__module__].__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", W_ATOMIC_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ------------------------------------------------------------ merging

def test_merge_equals_loop_on_nine_coincident_atoms():
    run = 0.5 * np.random.default_rng(1).dirichlet(np.ones(9))
    # the case where a pairwise sum of the run would differ
    assert functools.reduce(operator.add, run.tolist()) != np.sum(run)
    pos = np.concatenate([0.25 + np.arange(9) * 1e-16, [0.75]])
    w = np.append(run, 0.5)
    mu = AtomicMeasure(pos, w)
    p, wl = merge_loop(pos, w)
    assert len(mu) == 2
    assert np.array_equal(bits(mu.positions), bits(p))
    assert np.array_equal(bits(mu.weights), bits(wl))


def test_merge_equals_loop_on_wraparound():
    pos = [1.0 - 4e-16, 0.0, 3e-17, 0.4, -1e-17, 1.0 - 2e-16]
    w = [0.125, 0.25, 0.125, 0.25, 0.125, 0.125]
    mu = AtomicMeasure(pos, w)
    p, wl = merge_loop(pos, w)
    assert len(mu) == 2
    assert np.array_equal(bits(mu.positions), bits(p))
    assert np.array_equal(bits(mu.weights), bits(wl))


def test_merge_equals_loop_on_random_near_coincident_atoms():
    rng = np.random.default_rng(3)
    for _ in range(300):
        k = int(rng.integers(1, 30))
        base = rng.choice([0.0, 0.3, 1.0 - 1e-16], k)
        # every cluster spans at most 8e-16, so no chain is wider than
        # MERGE_TOL and the two merge rules agree
        pos = base + rng.integers(-2, 3, k) * 2e-16
        w = rng.dirichlet(np.ones(k))
        mu = AtomicMeasure(pos, w)
        p, wl = merge_loop(pos, w)
        assert np.array_equal(bits(mu.positions), bits(p))
        assert np.array_equal(bits(mu.weights), bits(wl))


def test_merge_rule_is_consecutive_gap():
    # gaps of 8e-16 each, 1.6e-15 from first to last: one chain, one atom
    pos = [0.3, 0.3 + 8e-16, 0.3 + 16e-16]
    assert np.all(np.diff(pos) <= MERGE_TOL) and pos[2] - pos[0] > MERGE_TOL
    mu = AtomicMeasure(pos, [0.25, 0.25, 0.5])
    assert mu.positions.tolist() == [0.3]
    assert mu.weights.tolist() == [1.0]
    # the atom-by-atom rule split the same chain in two
    assert len(merge_loop(pos, [0.25, 0.25, 0.5])[0]) == 2


# ------------------------------------------------------------ frac

FRAC_INPUTS = [-2.75, -1.0, -0.3, -1e-17, -5e-324, -0.0, 0.0, 5e-324, 0.3,
               1.0, 3.0, 1e10 + 0.25, -1e10 - 0.25, 2.0 ** 53 + 2,
               -(2.0 ** 53 + 2), 1e300, -1e300]


def test_frac_equals_mod_one_bitwise():
    x = np.array(FRAC_INPUTS)
    r = x % 1.0
    want = np.where(r >= 1.0, 0.0, r)
    assert np.array_equal(bits(frac(x)), bits(want))
    assert np.array_equal(bits([frac(v) for v in FRAC_INPUTS]), bits(want))
    assert frac(-1e-17) == 0.0 and frac(-0.0) == 0.0


@pytest.mark.parametrize("x", [
    np.array([-1e-20, -0.0, 0.0, 1e5 * GOLDEN_MEAN, 1.0, 1.5, 2.0 ** 52 + 1,
              *FRAC_INPUTS]),
    np.array(-1e-20),
    np.array(1e5 * SQRT2_MINUS_ONE),
])
def test_frac_into_equals_frac_bitwise(x):
    before = x.copy()
    got = _frac_into(x, np.empty_like(x))
    assert bits(got).tobytes() == bits(frac(x)).tobytes()
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_frac_nonfinite_gives_nan(x):
    with np.errstate(invalid="ignore"):
        assert np.isnan(frac(x))
        assert np.all(np.isnan(frac(np.array([x, x]))))


# ------------------------------------------------------------ DK suite

def dk_suite_loop(cases, seed, a, library=bv_library):
    """The suite's cases as dk_check on a fresh orbit each, with the
    index of the observable drawn and the orbit length."""
    rng = np.random.default_rng(seed)
    lib = library()
    for _ in range(cases):
        x0 = rng.uniform()
        N = int(rng.integers(10, 10 ** 5 + 1))
        k = int(rng.integers(0, len(lib)))
        orb = frac(x0 + np.arange(1, N + 1) * a)
        yield k, N, dk_check(lib[k], orb)


def at_floor(f, N, want):
    """Whether the suite decides a case at the discrepancy floor 1/N,
    read off the oracle: V = 0, or lhs <= V * (1/N)."""
    return f.variation == 0.0 or want.lhs <= f.variation * (1.0 / N)


def assert_suite_matches_oracle(got, want, lib):
    """lhs and ok bit for bit on every case; the bound bit for bit on
    every case that took a discrepancy, and V * (1/N), at most the
    oracle's, on every case decided at the floor, which the oracle
    passes with lhs <= V/N."""
    assert len(got) == len(want)
    for (k, N, w), g in zip(want, got):
        f = lib[k]
        assert (bits([g.lhs]).tobytes(), g.ok) == (bits([w.lhs]).tobytes(),
                                                   w.ok)
        if at_floor(f, N, w):
            assert w.ok and w.lhs <= f.variation * (1.0 / N)
            assert g.bound == f.variation * (1.0 / N) <= w.bound
        else:
            assert bits([g.bound]).tobytes() == bits([w.bound]).tobytes()


def counted(monkeypatch, name):
    """Wrap experiments.<name> to record the length of its first
    argument and its result on every call."""
    calls = []
    inner = getattr(experiments, name)

    def wrapped(s, *args, **kwargs):
        out = inner(s, *args, **kwargs)
        calls.append((len(s), out))
        return out

    monkeypatch.setattr(experiments, name, wrapped)
    return calls


@pytest.mark.parametrize("alpha", [
    "golden", "sqrt2", 0.3183098861837907, -GOLDEN_MEAN, 0.0, 0.25, 0.5,
    1e-9, 1e6 + GOLDEN_MEAN])
def test_dk_suite_equals_per_case_dk_check(alpha, monkeypatch):
    a, _ = resolve_alpha(alpha)
    cases, seed = 240, 74845286
    discs = counted(monkeypatch, "discrepancy")
    want = list(dk_suite_loop(cases, seed, a))
    got = list(_dk_cases(cases, seed, a))
    lib = bv_library()
    assert_suite_matches_oracle(got, want, lib)
    # both discrepancy branches and every library observable were checked
    assert {N <= 10 ** 4 for _, N, _ in want} == {True, False}
    assert {k for k, _, _ in want} == set(range(len(bv_library())))
    # a discrepancy on exactly the cases above the floor, in draw order
    above = [N for k, N, w in want if not at_floor(lib[k], N, w)]
    assert [n for n, _ in discs] == above


def test_dk_suite_counts_indicators_and_takes_no_discrepancy_at_v0(
        monkeypatch):
    cases, seed = 240, 74845286
    want = list(dk_suite_loop(cases, seed, GOLDEN_MEAN))

    def boom(x):
        raise AssertionError("the suite evaluated an indicator")

    def library():
        lib = bv_library()
        for f in lib:
            if f._arc is not None:
                f._eval = boom
        return lib

    monkeypatch.setattr(experiments, "bv_library", library)
    discs = counted(monkeypatch, "discrepancy")
    got = list(_dk_cases(cases, seed, GOLDEN_MEAN))
    lib = bv_library()
    assert_suite_matches_oracle(got, want, lib)
    assert {lib[k].label for k, _, _ in want} >= {
        f.label for f in lib if f._arc is not None or f.variation == 0.0}
    assert [n for n, _ in discs] == [
        N for k, N, w in want if not at_floor(lib[k], N, w)]


def test_dk_suite_equals_dk_check_where_cases_fall_through_and_violate(
        monkeypatch):
    # V cut 1000-fold: most cases lie above the floor V/N and take a
    # discrepancy, and some violate
    def cut_library():
        lib = bv_library()
        for f in lib:
            f.variation /= 1000
        return lib

    cases, seed = 240, 74845286
    monkeypatch.setattr(experiments, "bv_library", cut_library)
    discs = counted(monkeypatch, "discrepancy")
    want = list(dk_suite_loop(cases, seed, GOLDEN_MEAN, cut_library))
    got = list(_dk_cases(cases, seed, GOLDEN_MEAN))
    lib = cut_library()
    assert_suite_matches_oracle(got, want, lib)
    above = [w for k, N, w in want if not at_floor(lib[k], N, w)]
    assert 2 * len(above) > cases
    # both branches: exact up to N = 1e4, the enclosure beyond
    assert {d.exact is None for _, d in discs} == {True, False}
    assert any(not w.ok for w in above)


# ------------------------------------------------------------ functional graph

def three_color_loop(succ):
    """Cycles, basin sizes, cycle measures and physical measure of the
    map i -> succ[i] on N nodes, by a walk that marks nodes white, gray
    and black."""
    N = len(succ)
    state = np.zeros(N, dtype=np.uint8)       # 0 white, 1 gray, 2 black
    cycle_id = np.empty(N, dtype=np.int64)
    cycles = []
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
    return cycles, [int(b) for b in basin], cycle_measures, \
        AtomicMeasure(pos_all, w_all)


class TableMap(Discretized):
    """A discretized map given by its table of grid images."""

    def __init__(self, table):
        super().__init__(Rotation(0.0), len(table))
        self.table = np.asarray(table, dtype=np.int64)

    def grid_image(self):
        return self.table.copy()


def assert_graph_matches_loop(T):
    a = analyze_functional_graph(T, T.N)
    cycles, basins, measures, physical = three_color_loop(T.grid_image())
    want = {frozenset(c): (b, m) for c, b, m in zip(cycles, basins, measures)}
    nodes = [np.round(m.positions * T.N).astype(int).tolist()
             for m in a.cycle_measures]
    got = {frozenset(c): (b, m)
           for c, b, m in zip(nodes, a.basin_sizes, a.cycle_measures)}
    assert a.cycle_count == len(cycles) and got.keys() == want.keys()
    for key, (b, m) in got.items():
        assert b == want[key][0]
        assert np.array_equal(bits(m.positions), bits(want[key][1].positions))
        assert np.array_equal(bits(m.weights), bits(want[key][1].weights))
    assert np.array_equal(bits(a.physical_measure.positions),
                          bits(physical.positions))
    assert np.array_equal(bits(a.physical_measure.weights),
                          bits(physical.weights))
    # canonical order: ascending smallest nodes
    heads = [min(c) for c in nodes]
    assert heads == sorted(heads)


@pytest.mark.parametrize("N", [1, 2, 3, 10, 100, 1000, 10_000])
def test_graph_equals_loop_on_random_maps(N):
    rng = np.random.default_rng(N)
    for _ in range(5):
        assert_graph_matches_loop(TableMap(rng.integers(0, N, N)))
        assert_graph_matches_loop(TableMap(rng.permutation(N)))


@pytest.mark.parametrize("N", [1, 7, 1000])
def test_graph_equals_loop_on_identity_constant_and_chain(N):
    assert_graph_matches_loop(TableMap(np.arange(N)))
    assert_graph_matches_loop(TableMap(np.full(N, N // 2)))
    # a tail of length N - 1 takes the most doubling rounds
    assert_graph_matches_loop(TableMap(np.maximum(np.arange(N) - 1, 0)))


@pytest.mark.parametrize("k", [1, 2, 5, 10, 13])
def test_graph_equals_loop_on_chains_one_past_a_power_of_two(k):
    # the tail of 2^k + 1 nodes needs all (N - 1).bit_length() = k + 1
    # compositions: after k of them node N - 1 is still one step short
    N = 2 ** k + 2
    assert_graph_matches_loop(TableMap(np.maximum(np.arange(N) - 1, 0)))


@pytest.mark.parametrize("k", [2, 6, 10])
def test_graph_equals_loop_on_a_rho(k):
    # nodes 0, 1, 2 form a 3-cycle and nodes 3..N-1 a tail of 2^k + 1
    # nodes running into node 2, relabelled at random
    N = 2 ** k + 4
    table = np.concatenate(([1, 2, 0], np.arange(2, N - 1)))
    assert_graph_matches_loop(TableMap(table))
    perm = np.random.default_rng(k).permutation(N)
    relabelled = np.empty(N, dtype=np.int64)
    relabelled[perm] = perm[table]
    assert_graph_matches_loop(TableMap(relabelled))


@pytest.mark.parametrize("table", [[0], [0, 0], [0, 1], [1, 0], [1, 1]])
def test_graph_equals_loop_on_every_map_of_one_or_two_nodes(table):
    assert_graph_matches_loop(TableMap(table))


DIFFEO = ConjugatedRotation(GOLDEN_MEAN, ConjugacyDiffeo([0.2], [0.1]))
ATTRACTOR = AttractorRepeller(5, continued_fraction(GOLDEN_MEAN, 8), 1.0)


@pytest.mark.parametrize("inner", [Rotation(GOLDEN_MEAN), Rotation(0.37),
                                   DIFFEO, ATTRACTOR],
                         ids=["golden", "rotation-0.37", "diffeo",
                              "attractor-repeller"])
@pytest.mark.parametrize("N", [10, 1000, 100_000])
def test_graph_equals_loop_on_discretized_maps(inner, N):
    assert_graph_matches_loop(Discretized(inner, N))


# ------------------------------------------------------------ inverse of h

def displacement_loop(h, x):
    """h(x) - x adding the cos term of each mode, then the sin term, with
    coefficients b_n / (2 pi n) and a_n / (2 pi n), as the shared
    evaluator does."""
    out = np.zeros(x.shape)
    for n in range(1, len(h.a) + 1):
        ph = 2.0 * np.pi * np.asarray(frac(n * x))
        out = out + h.b[n - 1] / (2.0 * np.pi * n) * np.cos(ph)
        out = out + h.a[n - 1] / (2.0 * np.pi * n) * np.sin(ph)
    return out


def deriv_loop(h, x):
    out = np.ones(x.shape)
    for n in range(1, len(h.a) + 1):
        ph = 2.0 * np.pi * np.asarray(frac(n * x))
        out = out + h.a[n - 1] * np.cos(ph) - h.b[n - 1] * np.sin(ph)
    return out


def newton_two_calls(h, y, z, tol=1e-14, max_iter=50):
    """Newton for h^-1 from z with the modes evaluated once for the
    residual and again for the derivative; z as the last step left it,
    converged or not."""
    for _ in range(max_iter):
        r = z + displacement_loop(h, z) - y
        done = np.abs(r) <= tol
        if np.all(done):
            break
        z = np.where(done, z, z - r / deriv_loop(h, z))
    return z


def inverse_two_calls(h, y):
    """newton_two_calls from floor(y) + a table of h^-1 at the nodes k/M,
    k = 0..M, interpolated at y - floor(y); the table is newton_two_calls
    from the nodes."""
    nodes = np.arange(_INVERSE_NODES + 1) / _INVERSE_NODES
    table = newton_two_calls(h, nodes, nodes.copy())
    fl = np.floor(y)
    return newton_two_calls(h, y, fl + np.interp(y - fl, nodes, table))


def random_conjugacy(rng, modes, size):
    """h with sum(|a_n| + |b_n|) = size spread at random over the modes."""
    c = rng.dirichlet(np.ones(2 * modes)) * size * rng.choice([-1, 1],
                                                              2 * modes)
    return ConjugacyDiffeo(c[:modes], c[modes:])


def assert_inverse_matches_oracles(h, y):
    """h.inverse(y) bit for bit against inverse_two_calls, in one array
    call and point by point on the last three points, and within the
    residual tolerance of the old Newton from the start z = y: both
    residuals are at most 1e-14, so |dz| * h'(z) <= 2e-14."""
    z = h.inverse(y)
    assert np.array_equal(bits(z), bits(inverse_two_calls(h, y)))
    assert all(bits(h.inverse(v)) == bits(z[k])
               for k, v in enumerate(y[-3:], len(y) - 3))
    assert np.all(np.abs(z + h.displacement_fn(z) - y) <= 1e-14)
    from_y = newton_two_calls(h, y, y.copy())
    assert np.all(np.abs(z - from_y) * h.deriv(z) <= 2e-14)


@pytest.mark.parametrize("modes", [1, 2, 5])
def test_conjugacy_inverse_equals_two_call_newton(modes):
    rng = np.random.default_rng(modes)
    y = np.concatenate([rng.uniform(0, 1, 100_000), [0.0, 0.5, 1.0 - 1e-16]])
    for _ in range(3):
        h = random_conjugacy(rng, modes, 0.9)
        assert_inverse_matches_oracles(h, y)
        assert np.array_equal(bits(h.displacement_fn(y)),
                              bits(displacement_loop(h, y)))
        assert np.array_equal(bits(h.deriv(y)), bits(deriv_loop(h, y)))


@pytest.mark.parametrize("modes", [1, 2, 3, 4, 5])
def test_near_critical_inverse_equals_two_call_newton(modes):
    # sum(|a_n| + |b_n|) = 0.99, so h' may come down to 0.01; y off the
    # unit interval, on every node of the table, and just below 1
    rng = np.random.default_rng(100 + modes)
    nodes = np.arange(_INVERSE_NODES + 1) / _INVERSE_NODES
    y = np.concatenate([rng.uniform(-3, 3, 20_000), nodes, [1.0 - 1e-16]])
    for _ in range(3):
        assert_inverse_matches_oracles(random_conjugacy(rng, modes, 0.99), y)


@pytest.mark.parametrize("h", [
    ConjugacyDiffeo([0.2], [0.05]),
    ConjugacyDiffeo([0.2, -0.05, 0.1], [0.03, 0.0, -0.1]),
    ConjugacyDiffeo([0.5, 0.2], [-0.19, 0.1]),
], ids=["bench-like", "three-modes", "near-critical"])
def test_grid_image_equals_the_one_from_y(h):
    # the table start moves h^-1 by rounding only: no node of the grid
    # image moves against Newton from z = y
    N = 100_000
    T = Discretized(ConjugatedRotation(GOLDEN_MEAN, h), N)
    x = np.arange(N) / N
    z = newton_two_calls(h, x, x.copy())
    from_y = T._project(frac(h.eval(frac(z) + T.inner.alpha)))
    assert np.array_equal(T.grid_image(), from_y)


# ------------------------------------------------------------ stepped orbits

B = _CYCLE_BLOCK
PROFILE = continued_fraction(GOLDEN_MEAN, 30)


def orbit_loop(m, x0, n, burn_in=0):
    """Iterated eval: every point stepped, with no check for a repeat."""
    x = canonicalize(x0)
    for _ in range(burn_in):
        x = m.eval(x)
    out = np.empty(n)
    for i in range(n):
        x = m.eval(x)
        out[i] = x
    return out


def count_steps(m):
    """Make m count the points its orbits step; returns the counter."""
    steps = m.scalar_steps()
    taken = [0]

    def counted(x, k):
        taken[0] += k
        return steps(x, k)

    m.scalar_steps = lambda: counted
    return taken


class GridShift(CircleMap):
    """x -> x + 1/q on the grid {i/q}: every orbit has period exactly q."""

    def __init__(self, q):
        self.q = q

    def eval(self, x):
        return (round(x * self.q) + 1) % self.q / self.q


@pytest.mark.parametrize("burn_in", [0, 1000])
@pytest.mark.parametrize("b", [0.5, 0.77, 1.0])
def test_orbit_equals_loop_on_attractor_repeller_ladder(b, burn_in):
    # the float orbits turn exactly periodic by step 28,312 (b = 0.5, j =
    # 15).  eval is elementwise, so eval of the orbit shifted by one
    # point is iterated eval, at one array pass instead of 40,000 calls
    for j in range(5, 16):
        ar = AttractorRepeller(j, PROFILE, b)
        full = ar.orbit(0.123, burn_in + 40_000)
        assert np.array_equal(
            bits(ar.eval(np.concatenate(([0.123], full[:-1])))), bits(full))
        assert np.array_equal(bits(ar.orbit(0.123, 40_000, burn_in)),
                              bits(full[burn_in:]))


def test_orbit_equals_loop_on_discretized_diffeo():
    # every orbit of a grid map cycles within N = 1000 steps
    m = Discretized(DIFFEO, 1000)
    assert np.array_equal(bits(m.orbit(0.123, B + 100)),
                          bits(orbit_loop(m, 0.123, B + 100)))


def test_orbit_equals_loop_on_tuned_family_and_steps_in_full():
    u = FourierSeries.cosine(1)
    fam = tune_rotation_number(u, 1e-2, GOLDEN_MEAN)[0]
    want = orbit_loop(fam, 0.0, 3 * B + 5, burn_in=10)
    steps = count_steps(fam)
    assert np.array_equal(bits(fam.orbit(0.0, 3 * B + 5, burn_in=10)),
                          bits(want))
    assert steps[0] == 3 * B + 15  # no repeat: nothing to tile


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
@pytest.mark.parametrize("m", [
    AttractorRepeller(5, PROFILE, 0.77),
    Discretized(Rotation(0.37), 100), GridShift(1), GridShift(B)],
    ids=["attractor-repeller", "discretized-rotation", "fixed-point",
         "period-B"])
def test_orbit_equals_loop_at_block_edges(m, n):
    assert np.array_equal(bits(m.orbit(0.3, n)), bits(orbit_loop(m, 0.3, n)))


def test_orbit_stops_stepping_at_a_repeat():
    # the orbit repeats within the first block, and nothing more is stepped
    ar = AttractorRepeller(5, PROFILE, 0.77)
    steps = count_steps(ar)
    ar.orbit(0.123, 10 ** 5)
    assert steps[0] == B


@pytest.mark.parametrize("q, steps_taken", [(B, 2 * B), (B + 1, 5 * B)])
def test_orbit_finds_periods_up_to_the_window(q, steps_taken):
    # a period of B is found at the end of the second block; B + 1 is
    # longer than the window, so every point is stepped
    m = GridShift(q)
    want = orbit_loop(m, 0.0, 5 * B)
    steps = count_steps(m)
    assert np.array_equal(bits(m.orbit(0.0, 5 * B)), bits(want))
    assert steps[0] == steps_taken


# ------------------------------------------------------------ Holder fit

def holder_fit_loop(pts, bootstrap=1000, seed=12345):
    """holder_fit on positive (size, w) pairs, one np.polyfit per resample."""
    pts = sorted(pts)
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
    lo, hi = np.percentile(slopes, [2.5, 97.5]) if slopes else (slope, slope)
    return slope, intercept, r2, lo, hi


def assert_fit_matches_loop(pts, **kw):
    fit = holder_fit(pts, **kw)
    got = (fit.slope, fit.intercept, fit.r2) + fit.ci
    # a near-zero intercept is the difference of terms of order 10 (mean
    # log w less slope times mean log size), so it gets an absolute floor
    assert got == pytest.approx(holder_fit_loop(pts, **kw), rel=1e-12,
                                abs=1e-13)


def noisy_power_law(n, seed=0):
    rng = np.random.default_rng(seed)
    return [(float(s), float(s ** 0.47 * np.exp(rng.normal() * 0.05)))
            for s in 10.0 ** -np.linspace(1, 8, n)]


DS = [10.0 ** -k for k in range(1, 6)]


@pytest.mark.parametrize("pts", [[(d, d ** 0.5) for d in DS],
                                 [(d, 3 * d) for d in DS]],
                         ids=["sqrt", "exact-line"])
def test_holder_fit_equals_loop_on_synthetic_lines(pts):
    assert_fit_matches_loop(pts)


@pytest.mark.parametrize("n", [3, 5, 11, 19, 33, 60])
def test_holder_fit_equals_loop_on_noisy_power_laws(n):
    assert_fit_matches_loop(noisy_power_law(n))


def test_holder_fit_equals_loop_when_resamples_are_dropped():
    # two distinct sizes: a resample of 5 lands on one size with
    # probability 0.4^5 + 0.6^5 (about 9%), and is left out of the CI
    pts = [(0.1, 0.3), (0.1, 0.35), (0.01, 0.1), (0.01, 0.09), (0.01, 0.11)]
    idx = np.random.default_rng(12345).integers(0, 5, (1000, 5))
    assert np.sum(np.ptp(np.log([0.01, 0.01, 0.01, 0.1, 0.1])[idx],
                         axis=1) == 0.0) > 0
    assert_fit_matches_loop(pts)


@pytest.mark.parametrize("bootstrap", [0, 1, 2, 7])
def test_holder_fit_equals_loop_at_any_bootstrap_count(bootstrap):
    assert_fit_matches_loop(noisy_power_law(11), bootstrap=bootstrap)


def test_holder_fit_equals_loop_when_drawn_in_two_calls():
    # 2000 points: 524 resamples fit in 2^20 indices, so two draws
    assert_fit_matches_loop(noisy_power_law(2000))


@pytest.mark.parametrize("n", [3, 5, 11, 19, 33, 60])
def test_bootstrap_index_matrix_is_the_per_resample_stream(n):
    batch = np.random.default_rng(12345).integers(0, n, (1000, n))
    rng = np.random.default_rng(12345)
    assert np.array_equal(batch,
                          [rng.integers(0, n, n) for _ in range(1000)])


def test_holder_fit_solves_no_least_squares_per_resample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-resample least-squares solve")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert holder_fit(noisy_power_law(11)).ci[0] > 0.0


# ------------------------------------------------------------ Diophantine type

def type_estimate_loop(profile):
    """diophantine_type_estimate with one np.polyfit per trailing window
    of three or more points and the two-point slope taken by hand."""
    conv = profile.convergents
    lq = np.array([math.log(cv.q) for cv in conv])
    li = np.array([-math.log(cv.delta) for cv in conv])
    n = len(conv)
    best = -math.inf
    for start in range(n // 2, n - 1):
        if n - start >= 3:
            slope = np.polyfit(lq[start:], li[start:], 1)[0]
        else:
            slope = (li[-1] - li[start]) / (lq[-1] - lq[start])
        best = max(best, slope - 1.0)
    return max(best, 1.0)


def typed_profiles(count, seed=0):
    """Golden, sqrt2 and lacunary profiles at every depth, and profiles
    of exact rationals with random partial quotients up to 10^6."""
    out = [continued_fraction(a, k) for a in (GOLDEN_MEAN, SQRT2_MINUS_ONE)
           for k in range(4, 31)]
    out += [continued_fraction(lacunary_alpha(3), k) for k in range(4, 7)]
    rng = np.random.default_rng(seed)
    for _ in range(count):
        quots = rng.integers(1, 10 ** int(rng.integers(1, 7)),
                             int(rng.integers(6, 32))).tolist()
        quots[-1] += 1  # a last quotient of 1 would shorten the expansion
        val = Fraction(0)
        for a in reversed(quots):
            val = Fraction(1, a + val)
        out.append(continued_fraction(val, len(quots) - 1))
    return out


def test_type_estimate_equals_polyfit_loop():
    for prof in typed_profiles(300):
        if prof.gamma_hat is None:  # a delta underflowed: no estimate
            continue
        want = type_estimate_loop(prof)
        if want == 1.0:  # clamped at the floor: exactly, as before
            assert prof.gamma_hat == 1.0
        else:
            assert prof.gamma_hat == pytest.approx(want, rel=1e-13, abs=0)
