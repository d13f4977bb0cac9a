import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlestab.arithmetic import GOLDEN_MEAN, canonicalize, continued_fraction
from circlestab.errors import ConvergenceError, ResourceLimitError
from circlestab.fourier import FourierSeries
from circlestab import maps, measures
from circlestab.arithmetic import frac
from circlestab.experiments import (
    ExperimentConfig,
    discretization_scan,
    resolve_alpha,
)
from circlestab.maps import (
    _BLOCK,
    ORBIT_LEN_CAP,
    AttractorRepeller,
    ConjugacyDiffeo,
    ConjugatedRotation,
    Discretized,
    Rotation,
    TunedFamily,
    rotation_number,
    tune_rotation_number,
)

RNG = np.random.default_rng(11)
# sizes at the block edges of the blocked array passes, for _BLOCK and
# for 2^16
BLOCK_EDGES = sorted({1} | {k for b in {_BLOCK, 1 << 16}
                            for k in (b - 1, b, b + 1, 3 * b + 7)})
PROF = continued_fraction(GOLDEN_MEAN, 20)
H = ConjugacyDiffeo([0.2], [0.0])


def circle_dist(x, y):
    """Distance on R/Z, at most 1/2."""
    d = abs(canonicalize(x) - canonicalize(y))
    return min(d, 1.0 - d)


def sample_maps():
    return [
        Rotation(0.3),
        Rotation(GOLDEN_MEAN),
        TunedFamily(FourierSeries.cosine(), 0.05, 0.4),
        AttractorRepeller(5, PROF, 1.0),
        ConjugatedRotation(GOLDEN_MEAN, H),
        Discretized(Rotation(GOLDEN_MEAN), 64),
    ]


# ------------------------------------------------------------- eval

def test_eval_examples():
    assert Rotation(0.25).eval(0.5) == 0.75
    assert Discretized(Rotation(GOLDEN_MEAN), 10).eval(0.0) == 0.6


def test_lift_property_all_variants():
    xs = RNG.uniform(-3, 3, 1000)
    for m in sample_maps():
        err = np.max(np.abs(m.lift(xs + 1.0) - m.lift(xs) - 1.0))
        assert err <= 1e-12, type(m).__name__


def test_orientation_preserving_lifts_strictly_increasing():
    grid = np.linspace(0, 1, 10_001)
    for m in sample_maps():
        if isinstance(m, Discretized):  # piecewise constant
            continue
        vals = m.lift(grid)
        assert np.all(np.diff(vals) > 0), type(m).__name__


# ------------------------------------------------------------- discretize

def test_discretize_n1_constant_zero():
    T = Discretized(TunedFamily(FourierSeries.cosine(), 0.05, 0.4), 1)
    for x in RNG.uniform(0, 1, 20):
        assert T.eval(x) == 0.0


@pytest.mark.parametrize("inner", [None, 0.3, np.cos, Rotation])
def test_discretize_refuses_an_inner_that_is_not_a_map(inner):
    with pytest.raises(TypeError, match="needs a CircleMap"):
        Discretized(inner, 10)


def test_discretize_of_discretized_is_a_map():
    TN = Discretized(Discretized(Rotation(0.3), 7), 10)
    # node i/10 -> floor(7 frac(i/10 + 0.3))/7 -> floor(10 * that)
    assert TN.grid_image().tolist() == [2, 2, 4, 5, 5, 7, 8, 0, 0, 1]


def test_discretize_sup_distance():
    T = Rotation(GOLDEN_MEAN)
    TN = Discretized(T, 10)
    xs = RNG.uniform(0, 1, 10_000)
    d = np.abs(T.eval(xs) - TN.eval(xs))
    assert np.max(np.minimum(d, 1.0 - d)) <= 0.1


def test_discretize_grid_compatible_rotation_is_permutation():
    TN = Discretized(Rotation(1.0 / 3.0), 3)
    img = TN.grid_image()
    assert sorted(img.tolist()) == [0, 1, 2]
    assert img.tolist() == [1, 2, 0]


def test_discretize_grid_closure():
    for N in (7, 64, 1000):
        TN = Discretized(ConjugatedRotation(GOLDEN_MEAN, H), N)
        nodes = np.arange(N) / N
        out = TN.eval(nodes)
        assert np.all(out * N == np.round(out * N))
        # eval on grid agrees with the integer image path
        assert np.array_equal(np.round(out * N).astype(int), TN.grid_image())


GRID_INNER_MAPS = {
    "rotation": Rotation(GOLDEN_MEAN),
    "conjugated": ConjugatedRotation(
        GOLDEN_MEAN, ConjugacyDiffeo([0.2, -0.05, 0.1], [0.03, 0.0, -0.1])),
    "attractor_repeller": AttractorRepeller(5, PROF, 1.0),
    "tuned": TunedFamily(FourierSeries.cosine(), 0.05, 0.4),
}


@pytest.mark.parametrize("N", BLOCK_EDGES)
@pytest.mark.parametrize("inner", list(GRID_INNER_MAPS))
def test_blocked_grid_image_is_the_one_pass_image(N, inner):
    TN = Discretized(GRID_INNER_MAPS[inner], N)
    one_pass = TN._project(TN.inner.eval(np.arange(N) / N))
    img = TN.grid_image()
    assert img.dtype == np.int64
    assert np.array_equal(img, one_pass)


def test_no_blocked_pass_depends_on_the_block_size(monkeypatch):
    # measures binds the constant by value (from .maps import _BLOCK),
    # so each size is set in both modules
    assert measures._BLOCK == maps._BLOCK
    n = 3 * (1 << 16) + 7
    rng = np.random.default_rng(29)
    jumps = rng.dirichlet(np.ones(n)) * rng.choice([-1.0, 1.0], n)
    pts = rng.uniform(-2.0, 3.0, n)
    conj = GRID_INNER_MAPS["conjugated"]
    images = [Discretized(GRID_INNER_MAPS[inner], n)
              for inner in ("rotation", "conjugated")]

    def outputs():
        d = measures.discrepancy(pts)
        return ([TN.grid_image().tobytes() for TN in images]
                + [conj.orbit(0.37, n, 1000).tobytes(),
                   measures._levels(jumps).tobytes(),
                   [None if v is None else float(v).hex()
                    for v in (d.n, d.star, d.lower, d.upper, d.exact)]])

    results = []
    for size in (1 << 16, 1 << 14, 1000):
        monkeypatch.setattr(maps, "_BLOCK", size)
        monkeypatch.setattr(measures, "_BLOCK", size)
        results.append(outputs())
    assert results[1] == results[0]
    assert results[2] == results[0]


def test_grid_image_newton_failure_in_a_block(monkeypatch):
    # one Newton step leaves h^-1 unconverged in every block; the error
    # reads as the one-pass error did, and describes the failing block
    monkeypatch.setattr(maps, "_INVERSE_STEPS", 1)
    N = 3 * _BLOCK + 7
    h = GRID_INNER_MAPS["conjugated"].h
    # a fresh h, so that its table of h^-1 is built under the one-step cap
    TN = Discretized(ConjugatedRotation(GOLDEN_MEAN,
                                        ConjugacyDiffeo(h.a, h.b)), N)
    with pytest.raises(ConvergenceError) as one_pass:
        TN.inner.eval(np.arange(N) / N)
    with pytest.raises(ConvergenceError) as first_block:
        TN.inner.eval(np.arange(_BLOCK) / N)
    with pytest.raises(ConvergenceError) as blocked:
        TN.grid_image()
    assert str(blocked.value) == str(one_pass.value)
    assert blocked.value.estimate == first_block.value.estimate
    assert blocked.value.error_bound == first_block.value.error_bound
    # the error is about the block's own points, not the table that
    # starts Newton: a failure there would read the same for every block
    with pytest.raises(ConvergenceError) as second_block:
        TN.inner.eval(np.arange(_BLOCK, 2 * _BLOCK) / N)
    assert second_block.value.error_bound != first_block.value.error_bound


def test_discretization_scan_records_a_block_failure(monkeypatch):
    monkeypatch.setattr(maps, "_INVERSE_STEPS", 1)
    N = 3 * _BLOCK + 7
    config = ExperimentConfig(family="diffeo", ladder=(N,))
    base = ConjugatedRotation(resolve_alpha(config.alpha)[0],
                              ConjugacyDiffeo(config.h_a))
    with pytest.raises(ConvergenceError) as one_pass:
        base.eval(np.arange(N) / N)
    scan = discretization_scan(config)
    assert len(scan) == 0
    assert scan.failures == [(N, f"ConvergenceError: {one_pass.value}")]


def trig_passes(monkeypatch, h, y):
    """The _trig_sums passes of h.inverse(y) once h's table is built;
    each pass must cover all of y."""
    h.inverse(0.5)  # builds the table
    calls = []

    def counted(modes, x):
        calls.append(len(x))
        return trig_sums(modes, x)

    trig_sums = maps._trig_sums
    monkeypatch.setattr(maps, "_trig_sums", counted)
    h.inverse(y)
    monkeypatch.undo()
    assert calls == [len(y)] * len(calls)
    return len(calls)


def test_inverse_of_a_block_takes_one_trig_pass(monkeypatch):
    # the cubic table start passes the residual check as it is; Newton
    # from z = y took five passes on this h, the linear table start two
    h = ConjugacyDiffeo([0.2], [0.05])
    assert trig_passes(monkeypatch, h, np.arange(_BLOCK) / _BLOCK) == 1


def test_inverse_of_a_steep_block_converges(monkeypatch):
    # sum(|a_n| + |b_n|) = 0.9 over three modes, so h' comes down to 0.1
    # and the start may need Newton updates, within the step cap
    h = ConjugacyDiffeo([0.3, -0.1, 0.05], [0.2, 0.15, -0.1])
    y = np.arange(_BLOCK) / _BLOCK
    assert 1 <= trig_passes(monkeypatch, h, y) <= maps._INVERSE_STEPS
    z = h.inverse(y)
    assert np.all(np.abs(z + h.displacement_fn(z) - y) <= 1e-14)


def test_discretize_rejects_bad_n():
    with pytest.raises(ValueError):
        Discretized(Rotation(0.1), 0)


@pytest.mark.parametrize("N", [2.5, 10.0, True, "10"])
def test_discretize_rejects_non_integer_n(N):
    with pytest.raises(ValueError):
        Discretized(Rotation(0.1), N)


def test_discretize_takes_numpy_integer_n():
    assert Discretized(Rotation(0.1), np.int64(10)).N == 10


# ------------------------------------------------------- attractor-repeller

def test_ar_attracting_orbit_is_q_grid():
    T = AttractorRepeller(5, PROF, 1.0)
    assert T.q == 13 and T.p == 8
    assert np.allclose(np.sort(T.attracting_orbit()), np.arange(13) / 13, atol=0)


def test_ar_orbit_converges_to_gamma_att():
    T = AttractorRepeller(5, PROF, 1.0)
    x = 0.01
    for _ in range(1000):
        x = T.eval(x)
    d = min(circle_dist(x, g) for g in T.attracting_orbit())
    assert d <= 1e-9


def test_ar_sup_distance_to_rotation():
    T = AttractorRepeller(5, PROF, 1.0)
    R = Rotation(GOLDEN_MEAN)
    xs = RNG.uniform(0, 1, 10_000)
    d = np.array([circle_dist(a, b) for a, b in zip(T.eval(xs), R.eval(xs))])
    assert np.max(d) <= 2.0 * T.delta + 1e-12


def test_ar_invariant_sets():
    for j in (3, 5, 8):
        T = AttractorRepeller(j, PROF, 1.0)
        for orbit in (T.attracting_orbit(), T.repelling_orbit()):
            img = T.eval(orbit)
            for y in img:
                assert min(circle_dist(y, g) for g in orbit) <= 1e-12


def test_ar_derivative_signs_at_orbits():
    # attractor multiplier < 1, repeller multiplier > 1
    T = AttractorRepeller(5, PROF, 1.0)
    eps = 1e-7
    for g in T.attracting_orbit():
        mult = (T.lift(g + eps) - T.lift(g - eps)) / (2 * eps)
        assert mult < 1.0
    for g in T.repelling_orbit():
        mult = (T.lift(g + eps) - T.lift(g - eps)) / (2 * eps)
        assert mult > 1.0


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("j, b", [(5, 1.0), (8, 0.77), (12, 0.5)])
def test_ar_is_the_tuned_family_of_its_bump(j, b):
    # T_j = x + p/q + delta * u(x) with u = -b sin(2 pi q x), bit for bit
    T = AttractorRepeller(j, PROF, b)
    cv = PROF.convergents[j]
    fam = TunedFamily(FourierSeries({cv.q: 0.5j * b}), cv.delta, cv.p / cv.q)
    assert isinstance(T, TunedFamily)
    xs = np.random.default_rng(j).uniform(0.0, 1.0, 1000)
    assert np.array_equal(bits(T.eval(xs)), bits(fam.eval(xs)))
    assert np.array_equal(bits(T.lift(xs)), bits(fam.lift(xs)))
    assert bits(T.eval(0.123)) == bits(fam.eval(0.123))


def test_ar_validation():
    with pytest.raises(ValueError):
        AttractorRepeller(99, PROF, 1.0)
    with pytest.raises(ValueError):
        AttractorRepeller(5, PROF, 0.0)
    with pytest.raises(ValueError):
        AttractorRepeller(5, PROF, 1.5)
    # shallow convergent: delta * b * 2 pi q >= 1, not a diffeomorphism
    with pytest.raises(ValueError):
        AttractorRepeller(1, PROF, 1.0)


# ------------------------------------------------------- rotation number

def test_rotation_number_exact_for_rotations():
    for alpha in (0.25, 0.375, GOLDEN_MEAN):
        r = rotation_number(Rotation(alpha))
        assert float(r) == alpha
        assert r.error_bound == 0.0


def test_rotation_number_tuned_fixed_point():
    # c=0 with a cos bump has a fixed point, so rot = 0
    r = rotation_number(TunedFamily(FourierSeries.cosine(), 0.2, 0.0), tol=None)
    assert abs(float(r)) <= 1e-9


def test_rotation_number_conjugated():
    r = rotation_number(ConjugatedRotation(GOLDEN_MEAN, H), tol=1e-10)
    assert abs(float(r) - GOLDEN_MEAN) <= 1e-10


def test_rotation_number_fibonacci_decay():
    m = ConjugatedRotation(GOLDEN_MEAN, H)
    errs = []
    for n in (89, 233, 610, 1597):
        r = rotation_number(m, iters=n, tol=None)
        err = abs(float(r) - GOLDEN_MEAN)
        assert err <= 1.0 / n
        errs.append(err)
    assert errs[-1] <= errs[0]


def test_rotation_number_rejects_discretized():
    with pytest.raises(ValueError):
        rotation_number(Discretized(Rotation(0.3), 10))


def test_rotation_number_nonconvergence_diagnostic():
    m = ConjugatedRotation(GOLDEN_MEAN, H)
    with pytest.raises(ConvergenceError) as ei:
        rotation_number(m, iters=16, tol=1e-14)
    assert abs(ei.value.estimate - GOLDEN_MEAN) < 1e-2
    assert ei.value.error_bound > 1e-14


# ------------------------------------------------------- tuning

def test_tune_eps_zero_exact():
    fam, c = tune_rotation_number(FourierSeries.cosine(), 0.0, GOLDEN_MEAN)
    assert c == GOLDEN_MEAN
    assert fam.epsilon == 0.0


def test_tune_golden_within_tolerance():
    fam, c = tune_rotation_number(FourierSeries.cosine(), 1e-2, GOLDEN_MEAN)
    r = rotation_number(fam, iters=1 << 17, tol=None)
    assert abs(float(r) - GOLDEN_MEAN) <= 1e-11


def test_tune_offset_sandwich():
    for eps in (1e-2, 1e-3):
        _, c = tune_rotation_number(FourierSeries.cosine(), eps, GOLDEN_MEAN)
        assert abs(c - GOLDEN_MEAN) <= eps  # |c - alpha| <= eps * sup|u|


def test_tune_rejects_steep_family():
    with pytest.raises(ValueError):
        tune_rotation_number(FourierSeries.cosine(), 0.2, GOLDEN_MEAN)


@pytest.mark.parametrize("m", [
    TunedFamily(FourierSeries.cosine(), 0.05, 0.4), Rotation(GOLDEN_MEAN),
    ConjugatedRotation(GOLDEN_MEAN, H)], ids=lambda m: type(m).__name__)
def test_orbit_length_is_capped_before_allocating(m):
    # far beyond any allocation, so only the cap can give this error
    with pytest.raises(ResourceLimitError) as ei:
        m.orbit(0.0, 10 ** 15)
    assert ei.value.limit == ORBIT_LEN_CAP
    with pytest.raises(ResourceLimitError):
        m.orbit(0.0, 10, burn_in=10 ** 15)


@pytest.mark.parametrize("m", [
    TunedFamily(FourierSeries.cosine(), 0.0, GOLDEN_MEAN),
    Rotation(GOLDEN_MEAN), ConjugatedRotation(GOLDEN_MEAN, H)],
    ids=lambda m: type(m).__name__)
def test_orbit_rejects_negative_length_or_burn_in(m):
    # the scalar loop used to skip a negative burn-in while the closed
    # forms stepped backwards; every orbit path now refuses both
    with pytest.raises(ValueError):
        m.orbit(0.0, -1)
    with pytest.raises(ValueError):
        m.orbit(0.0, 3, burn_in=-5)
    assert len(m.orbit(0.0, 0)) == 0


def assert_orbit_is_iterated_eval(m, x0, n):
    """m.orbit(x0, n) is eval iterated n times from x0, bit for bit, and
    every point lies in [0, 1)."""
    x, want = x0, []
    for _ in range(n):
        x = m.eval(x)
        want.append(x)
    orbit = m.orbit(x0, n)
    assert np.array_equal(bits(orbit), bits(want))
    assert np.all((0.0 <= orbit) & (orbit < 1.0))


@pytest.mark.parametrize("m", [
    Discretized(ConjugatedRotation(GOLDEN_MEAN, H), 1000),
    TunedFamily(FourierSeries({1: 0.15 - 0.1j, 2: 0.05 - 0.025j}),
                0.1, 0.4),
    AttractorRepeller(8, PROF, 0.77)], ids=lambda m: type(m).__name__)
def test_stepped_orbit_is_iterated_eval(m):
    # scalar_steps iterates eval itself, or a generated function with
    # eval's values
    assert_orbit_is_iterated_eval(m, 0.37, 300)


@pytest.mark.parametrize("u, eps, c", [
    (FourierSeries({1: 0.0}), 0.0, -1e-20),   # no mode; c < 0 by a hair
    (FourierSeries({0: -1e-20, 1: 0.1j}), 1.0, 0.0),  # the mean, sin(0)
], ids=["offset", "mean"])
def test_tuned_step_folds_one_to_zero(u, eps, c):
    # from 0 a step is -1e-20, which Python's % 1.0 rounds up to 1.0;
    # eval folds it to 0.0 by frac, and so must the stepped orbit
    assert_orbit_is_iterated_eval(TunedFamily(u, eps, c), 0.0, 5)


def test_tuned_orbit_of_a_large_spectrum_is_iterated_eval():
    # 5,000 nonzero modes, one statement per product in the generated
    # function: as one expression this many terms would not compile
    rng = np.random.default_rng(5)
    c = rng.normal(0.0, 1.0, 5000) + 1j * rng.normal(0.0, 1.0, 5000)
    c *= 0.2 / np.sum(np.abs(c) * np.arange(1, 5001))  # eps sup|u'| < 1
    u = FourierSeries(np.concatenate(([0.01], c)))
    assert len(u._modes[1]) == 5000
    fam = TunedFamily(u, 0.5, 0.3819660112501051)
    builds = []
    generate = fam._generate_steps
    fam._generate_steps = lambda: builds.append(1) or generate()
    assert_orbit_is_iterated_eval(fam, 0.37, 20)
    fam.orbit(0.5, 20)  # reuses the function, which takes 0.3 s to build
    assert len(builds) == 1


@pytest.mark.parametrize("attr, value", [
    ("c", 0.41), ("epsilon", 0.05), ("u", FourierSeries({2: 0.1j}))])
def test_tuned_orbit_steps_a_reassigned_map(attr, value):
    fam = TunedFamily(FourierSeries({1: 0.15 - 0.1j}), 0.1, 0.4)
    fam.orbit(0.37, 50)
    setattr(fam, attr, value)
    assert_orbit_is_iterated_eval(fam, 0.37, 50)


def test_deep_attractor_repeller_visits_its_one_mode():
    # u holds q + 1 = 832,041 coefficients of which one is nonzero; eval
    # and the generated step visit that mode alone, with eval's bits
    m = AttractorRepeller(28, continued_fraction(GOLDEN_MEAN, 30), 1.0)
    assert m.q == 832_040 and [n for n, _ in m.u._modes[1]] == [m.q]
    assert_orbit_is_iterated_eval(m, 0.37, 300)


def u_with_zeroed_halves(seed):
    """1-8 random modes, all real, all imaginary or mixed; some modes
    and, for odd seeds, the mean exactly 0."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 9))
    re, im = rng.normal(0.0, 0.1, k), rng.normal(0.0, 0.1, k)
    c = [re + 0j, 1j * im, re + 1j * im][seed % 3]
    c[rng.uniform(size=k) < 0.25] = 0.0
    mean = 0.0 if seed % 2 else rng.normal(0.0, 0.1)
    return FourierSeries(np.concatenate(([mean], c)))


@pytest.mark.parametrize("seed", range(12))
def test_tuned_orbit_with_zeroed_halves_is_iterated_eval(seed):
    # the generated step leaves out the products whose coefficient is
    # exactly 0, which eval takes; the points must not move by a bit
    fam = TunedFamily(u_with_zeroed_halves(seed), 0.1, 0.3819660112501051)
    assert_orbit_is_iterated_eval(fam, 0.37, 300)


STEP_MODES = (1, 2, 3, 7, 987)
BELOW_ONE = math.nextafter(1.0, 0.0)


@st.composite
def tuned_steps_case(draw):
    """(family, start): 1-4 modes from STEP_MODES, each cos-only,
    sin-only or mixed; a zero or nonzero mean; and a start that is 0.0
    with c = 0 (x + c is exactly 0.0), just below 1.0, -0.0, outside
    [0, 1) or anywhere in [0, 1)."""
    coeff = st.floats(-0.2, 0.2).filter(bool)
    modes = {}
    for n in draw(st.lists(st.sampled_from(STEP_MODES), min_size=1,
                           max_size=4, unique=True)):
        kind = draw(st.sampled_from(["cos", "sin", "mixed"]))
        re = draw(coeff) if kind != "sin" else 0.0
        im = draw(coeff) if kind != "cos" else 0.0
        modes[n] = complex(re, im)
    modes[0] = draw(st.sampled_from([0.0, -0.0, 0.013, -0.4]))
    start = draw(st.sampled_from(
        ["zero", BELOW_ONE, -0.0, -0.3, 1.7, -2.0 ** -60, "any"]))
    c = 0.0 if start == "zero" else draw(st.floats(-1.5, 1.5))
    x0 = {"zero": 0.0, "any": draw(st.floats(0.0, BELOW_ONE))}.get(
        start, start)
    eps = draw(st.floats(-0.5, 0.5))
    return TunedFamily(FourierSeries(modes), eps, c), x0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(case=tuned_steps_case())
def test_generated_steps_are_iterated_eval_property(case):
    # the generated step takes mode 1's phase without % 1.0, n as a
    # float, an inlined phase and no zero product or zero mean; none may
    # move a bit.  It steps from canonicalize(x0), as orbit does.
    fam, x0 = case
    x, want = canonicalize(x0), []
    for _ in range(40):
        x = fam.eval(x)
        want.append(x)
    assert np.array_equal(bits(fam.scalar_steps()(x0, 40)), bits(want))
    assert np.array_equal(bits(fam.orbit(x0, 40)), bits(want))


def test_mode_one_phase_has_no_modulo(monkeypatch):
    # x stays in [0, 1), so the phase of mode 1 is twopi * x; the one %
    # left in the step of u = cos is the final one.  A % in the phase
    # would cost a quarter of the step again.
    sources = []
    monkeypatch.setattr(maps, "exec", lambda src, env: (
        sources.append(src), exec(src, env)), raising=False)
    TunedFamily(FourierSeries.cosine(1), 0.01, 0.38).scalar_steps()
    (src,) = sources
    assert "cos(twopi * x)" in src
    assert [line.strip() for line in src.splitlines() if "%" in line] == [
        "x = (x + c + eps * s) % 1.0"]


# ------------------------------------------------------- conjugacy diffeo

def test_diffeo_admissibility():
    with pytest.raises(ValueError):
        ConjugacyDiffeo([0.7], [0.4])
    h = ConjugacyDiffeo([0.3, 0.1], [0.0, 0.2])
    grid = np.linspace(0, 1, 10_001)
    assert np.all(h.deriv(grid) > 0)


@pytest.mark.parametrize("a, b, name, shape", [
    ([[0.1]], None, "a", (1, 1)),
    ([[0.1, 0.05]], None, "a", (1, 2)),
    ([0.1], [[0.05]], "b", (1, 1)),
], ids=["a (1, 1)", "a (1, 2)", "b (1, 1)"])
def test_diffeo_refuses_coefficients_that_are_not_1d(a, b, name, shape):
    # [[0.1]] used to pass as a (1, 1) a, and [[0.1, 0.05]] to fail in a
    # numpy broadcast
    with pytest.raises(ValueError, match=rf"^{name} must be a 1d "
                       rf"coefficient list, got shape \({shape[0]}, "
                       rf"{shape[1]}\)$"):
        ConjugacyDiffeo(a, b)


def test_diffeo_coefficients_are_read_only_copies():
    # h evaluates through spectra built from a and b once, so neither
    # the caller's arrays nor h.a and h.b may change afterwards
    a = np.array([0.3, 0.1])
    h = ConjugacyDiffeo(a, [0.0, 0.2])
    before = h.eval(0.3)
    a[0] = 0.0
    assert h.a[0] == 0.3 and h.eval(0.3) == before
    with pytest.raises(ValueError):
        h.a[0] = 0.0
    with pytest.raises(ValueError):
        h.b[1] = 0.0


def test_diffeo_inverse_accuracy():
    h = ConjugacyDiffeo([0.3, 0.1], [0.0, 0.2])
    ys = RNG.uniform(-1, 2, 1000)
    zs = h.inverse(ys)
    assert np.max(np.abs(h.eval(zs) - ys)) <= 1e-13


def test_conjugated_rotation_orbit_matches_stepping():
    m = ConjugatedRotation(GOLDEN_MEAN, H)
    fast = m.orbit(0.2, 50)
    slow = m.scalar_steps()(0.2, 50)
    assert np.allclose(fast, slow, atol=1e-11)


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("burn_in", [0, 1000])
def test_conjugated_rotation_blocked_orbit_is_the_full_array_formula(
        n, burn_in):
    h = ConjugacyDiffeo([0.2, -0.05, 0.1], [0.03, 0.0, -0.1])
    m = ConjugatedRotation(GOLDEN_MEAN, h)
    y0 = frac(h.inverse(0.37))
    i = np.arange(burn_in + 1, burn_in + n + 1, dtype=float)
    full = frac(h.eval(frac(y0 + i * m.alpha)))
    assert np.array_equal(m.orbit(0.37, n, burn_in), full)
