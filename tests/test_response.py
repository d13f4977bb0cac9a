import cmath
import math

import numpy as np
import pytest

from circlestab.arithmetic import GOLDEN_MEAN, frac
from circlestab.errors import (
    ConvergenceError,
    ResourceLimitError,
    SmallDivisorError,
)
from circlestab.fourier import FourierSeries, pairing
from circlestab.invariant import birkhoff_average
from circlestab.maps import (
    ConjugatedRotation,
    TunedFamily,
    tune_rotation_number,
)
from circlestab.response import (
    EpsRecord,
    ResponseReport,
    fd_response,
    linear_response_density,
    response_pairing,
    solve_homological,
)

G = GOLDEN_MEAN
GRID = np.arange(10 ** 4) / 10 ** 4


def random_series(rng, n_max):
    d = {0: 0.0}
    for n in range(1, n_max + 1):
        d[n] = complex(rng.normal(), rng.normal())
    return FourierSeries(d)


def residual(u, v, alpha):
    lhs = v.eval((GRID + alpha) % 1.0) - v.eval(GRID)
    rhs = u.eval(GRID) - u.mean
    return float(np.max(np.abs(lhs - rhs)))


# ------------------------------------------------- homological equation

def test_vhat1_formula():
    v = solve_homological(FourierSeries.cosine(1), G)
    want = 0.5 / (cmath.exp(2j * math.pi * G) - 1)
    assert abs(v.coeff(1) - want) <= 1e-15
    assert v.mean == 0.0


def test_residual_two_term_example():
    u = FourierSeries({0: 0.0, 1: 0.5, 2: 0.3 / 2j})  # cos 2pix + 0.3 sin 4pix
    v = solve_homological(u, G)
    assert residual(u, v, G) <= 1e-12


def test_residual_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = random_series(rng, int(rng.integers(1, 33)))
        v = solve_homological(u, G)
        assert residual(u, v, G) <= 1e-12


def test_zero_input_zero_output():
    v = solve_homological(FourierSeries([0.0]), G)
    assert v.is_zero()


def test_small_divisor_error_names_frequency():
    with pytest.raises(SmallDivisorError) as exc:
        solve_homological(FourierSeries.cosine(2), 0.5)
    assert exc.value.frequency == 2
    assert exc.value.magnitude == 0.0
    # frequency 1 at alpha = 1/2 is fine: divisor magnitude 2
    v = solve_homological(FourierSeries.cosine(1), 0.5)
    assert abs(v.coeff(1) - 0.5 / (-2.0)) <= 1e-15


# ------------------------------------------------- response density

def test_density_closed_form():
    d = linear_response_density(FourierSeries.cosine(1), G)
    ref = 2 * math.pi * (np.sin(2 * math.pi * (GRID - G))
                         - np.sin(2 * math.pi * GRID)) \
        / (2 - 2 * math.cos(2 * math.pi * G))
    assert np.max(np.abs(d.eval(GRID) - ref)) <= 1e-12


def test_density_zero_mean_signed():
    d = linear_response_density(FourierSeries.cosine(1), G)
    assert d.mean == 0.0
    assert d.coeff(0) == 0
    assert pairing(FourierSeries({0: 1.0}), d) == 0.0


def test_density_of_constant_u_is_zero():
    d = linear_response_density(FourierSeries({0: 2.5}), G)
    assert d.is_zero()


def test_density_is_minus_derivative_of_v():
    rng = np.random.default_rng(12)
    u = random_series(rng, 8)
    d = linear_response_density(u, G)
    dv = solve_homological(u, G).derivative()
    for n in range(0, 9):
        assert abs(d.coeff(n) + dv.coeff(n)) <= 1e-13 * max(1, abs(dv.coeff(n)))


# ------------------------------------------------- pairing

def test_pairing_golden_cotangent():
    val = response_pairing(FourierSeries.cosine(1), G, FourierSeries.cosine(1))
    want = -(math.pi / 2) / math.tan(math.pi * G)
    assert val == pytest.approx(0.6107267641315336, abs=1e-12)
    assert val == pytest.approx(want, abs=1e-12)


def test_pairing_bilinear():
    rng = np.random.default_rng(13)
    for _ in range(10):
        u1, u2 = random_series(rng, 5), random_series(rng, 5)
        p1, p2 = random_series(rng, 5), random_series(rng, 5)
        a, b = rng.normal(), rng.normal()
        usum = FourierSeries({n: u1.coeff(n) + u2.coeff(n)
                              for n in range(0, 6)})
        lhs = response_pairing(usum, G, p1)
        assert lhs == pytest.approx(
            response_pairing(u1, G, p1) + response_pairing(u2, G, p1),
            abs=1e-10)
        psum = FourierSeries({n: a * p1.coeff(n) + b * p2.coeff(n)
                              for n in range(0, 6)})
        assert response_pairing(u1, G, psum) == pytest.approx(
            a * response_pairing(u1, G, p1) + b * response_pairing(u1, G, p2),
            abs=1e-10)


# ------------------------------------------------- finite differences

def test_fd_response_matches_formula():
    u = FourierSeries.cosine(1)
    est, recs = fd_response(u, G, u, [1e-2, 1e-3], orbit_len=10 ** 6)
    formula = response_pairing(u, G, u)
    assert abs(est - formula) / abs(formula) <= 0.01
    # quotients approach the formula monotonically along the ladder
    assert abs(recs[1].quotient - formula) < abs(recs[0].quotient - formula)
    assert recs[0].epsilon > recs[1].epsilon


def test_fd_response_zero_u():
    est, recs = fd_response(FourierSeries([0.0]), G, FourierSeries.cosine(1),
                            [1e-2, 1e-3], orbit_len=10 ** 5)
    assert abs(est) <= 1e-9
    assert all(r.c == G for r in recs)


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("x0", [0.0, 0.37])
def test_fd_response_conjugacy_orbit_matches_direct_iteration(eps, x0):
    # oracle: the scalar loop of f itself, from two initial points
    u = FourierSeries.cosine(1)
    _, (rec,) = fd_response(u, G, u, [eps], orbit_len=10 ** 6)
    assert rec.orbit == "spectral"
    direct = birkhoff_average(TunedFamily(u, eps, rec.c), u.eval, 10 ** 6,
                              burn_in=10 ** 3, x0=x0)
    assert abs(rec.mean_psi - direct) <= 1e-14


def test_fd_response_falls_back_to_direct_iteration():
    # the tuner carries no conjugacy at eps = 0.15 (coefficient sum ~4.7)
    u = FourierSeries.cosine(1)
    est, (rec,) = fd_response(u, G, u, [0.15], orbit_len=10 ** 4)
    assert rec.orbit == "direct"
    assert rec.points == 10 ** 4
    assert math.isfinite(est) and math.isfinite(rec.mean_psi)


def test_fd_response_validation(monkeypatch):
    # every case is refused before tuning
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned before the inputs were checked")

    monkeypatch.setattr("circlestab.response.tune_rotation_number",
                        no_tuning)
    u = FourierSeries.cosine(1)
    with pytest.raises(ValueError):
        fd_response(u, G, u, [])
    with pytest.raises(ValueError):
        fd_response(u, G, u, [-1e-2])
    with pytest.raises(ValueError):
        fd_response(u, G, u, [1e-2], orbit_len=10 ** 3, burn_in=-5)
    with pytest.raises(ValueError):
        fd_response(u, G, u, [1e-2], orbit_len=-1)
    with pytest.raises(ValueError, match=">= 1"):
        fd_response(u, G, u, [1e-2], orbit_len=0)
    # non-finite eps, checked ahead of an orbit over the cap (a ValueError,
    # not a ResourceLimitError)
    for ladder in ([math.nan], [math.inf], [-math.inf], [1e-2, math.nan],
                   [math.inf, 1e-3]):
        with pytest.raises(ValueError, match="finite"):
            fd_response(u, G, u, ladder, orbit_len=10 ** 15)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^alpha must be finite"):
            fd_response(u, alpha, u, [1e-2])


def test_fd_response_caps_the_orbit_before_tuning(monkeypatch):
    def no_tuning(*args, **kwargs):
        raise AssertionError("tuned before the orbit length was checked")

    monkeypatch.setattr("circlestab.response.tune_rotation_number",
                        no_tuning)
    u = FourierSeries.cosine(1)
    with pytest.raises(ResourceLimitError):
        fd_response(u, G, u, [1e-2], orbit_len=10 ** 15)


def test_response_report_json():
    import json
    u = FourierSeries.cosine(1)
    est, recs = fd_response(u, G, u, [1e-2], orbit_len=10 ** 4)
    rep = ResponseReport(alpha=G, formula_value=response_pairing(u, G, u),
                         estimate=est, per_eps=recs,
                         orbit_len=10 ** 4, burn_in=10 ** 3)
    doc = json.loads(rep.to_json())
    # no eps took the direct path, so no orbit ran and none is reported
    assert set(doc) == {"alpha", "formula_value", "extrapolated_estimate",
                        "relative_error", "per_eps"}
    assert len(doc["per_eps"]) == 1
    assert set(doc["per_eps"][0]) == {"epsilon", "c", "mean_psi",
                                      "quotient", "orbit", "points"}
    assert doc["per_eps"][0]["orbit"] == "spectral"
    assert doc["per_eps"][0]["points"] == recs[0].points >= 256


@pytest.mark.parametrize("paths", [["direct"], ["direct", "spectral"],
                                   ["spectral", "direct"]])
def test_response_report_json_orbit_block_when_some_eps_is_direct(paths):
    import json
    recs = [EpsRecord(epsilon=10.0 ** -(k + 1), c=G, mean_psi=0.0,
                      quotient=0.0, orbit=path,
                      points=10 ** 4 if path == "direct" else 512)
            for k, path in enumerate(paths)]
    rep = ResponseReport(alpha=G, formula_value=1.0, estimate=1.0,
                         per_eps=recs, orbit_len=10 ** 4, burn_in=10 ** 3)
    doc = json.loads(rep.to_json())
    assert doc["orbit"] == {"length": 10 ** 4, "burn_in": 10 ** 3}
    assert [r["orbit"] for r in doc["per_eps"]] == paths


# ------------------------------------------------- spectral means

class RecordingSeries(FourierSeries):
    """A FourierSeries that records the size of every grid it is
    evaluated on."""

    def __init__(self, coeffs):
        super().__init__(coeffs)
        self.sizes = []

    def eval(self, x):
        self.sizes.append(int(np.size(x)))
        return super().eval(x)


def grid_mean(h, psi, M):
    return float(np.mean(psi.eval(frac(h.eval(np.arange(M) / M)))))


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_spectral_mean_matches_conjugated_rotation_orbit(eps):
    u = FourierSeries.cosine(1)
    _, (rec,) = fd_response(u, G, u, [eps])
    h = tune_rotation_number(u, eps, G)[0].conjugacy
    orbit = birkhoff_average(ConjugatedRotation(G, h), u.eval, 10 ** 6,
                             burn_in=10 ** 3)
    assert rec.orbit == "spectral"
    assert abs(rec.mean_psi - orbit) <= 1e-15


def test_spectral_doubling_stops_at_first_agreeing_pair(monkeypatch):
    # from a 4-point grid the first means still alias h's modes, so the
    # doubling runs several steps before two grids agree
    monkeypatch.setattr("circlestab.response._SPECTRAL_GRID_START", 4)
    u = FourierSeries.cosine(1)
    psi = RecordingSeries({0: 0.0, 1: 0.5})
    _, (rec,) = fd_response(u, G, psi, [1e-2])
    sizes = psi.sizes
    assert sizes == [4 * 2 ** k for k in range(len(sizes))]
    assert len(sizes) >= 3
    assert rec.points == sizes[-1]
    h = tune_rotation_number(u, 1e-2, G)[0].conjugacy
    means = [grid_mean(h, u, M) for M in sizes]
    assert rec.mean_psi == means[-1]
    agree = [abs(b - a) <= 1e-15 * (1 + abs(b))
             for a, b in zip(means, means[1:])]
    assert agree == [False] * (len(agree) - 1) + [True]


def test_spectral_grid_starts_above_the_modes_of_psi():
    # a grid of M <= 2 * psi.n_max points would alias psi's top mode
    u = FourierSeries.cosine(1)
    psi = RecordingSeries({0: 0.0, 300: 0.5})
    fd_response(u, G, psi, [1e-3])
    assert psi.sizes[0] == 1024


def test_spectral_grid_cap_raises_convergence_error(monkeypatch):
    monkeypatch.setattr("circlestab.response._SPECTRAL_TOL", -1.0)
    monkeypatch.setattr("circlestab.response._SPECTRAL_GRID_CAP", 1024)
    u = FourierSeries.cosine(1)
    with pytest.raises(ConvergenceError, match="1024 points") as exc:
        fd_response(u, G, u, [1e-2])
    h = tune_rotation_number(u, 1e-2, G)[0].conjugacy
    assert exc.value.estimate == grid_mean(h, u, 1024)
    assert exc.value.error_bound == abs(grid_mean(h, u, 1024)
                                        - grid_mean(h, u, 512))
