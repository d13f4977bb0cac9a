import math

import numpy as np
import pytest

from circlestab import fourier
from circlestab.arithmetic import frac
from circlestab.fourier import (
    FourierSeries,
    _nonzero_modes,
    _trig_sums,
    pairing,
)

RNG = np.random.default_rng(7)


def test_cosine_eval():
    u = FourierSeries.cosine()
    xs = RNG.uniform(0, 1, 200)
    assert np.allclose(u.eval(xs), np.cos(2 * np.pi * xs), atol=1e-14)
    assert u.eval(0.0) == pytest.approx(1.0, abs=1e-15)


def test_sine_eval():
    u = FourierSeries({2: -0.15j})  # 0.3 sin(4 pi x)
    xs = RNG.uniform(0, 1, 200)
    assert np.allclose(u.eval(xs), 0.3 * np.sin(4 * np.pi * xs), atol=1e-14)


def test_from_real_coeffs_and_mean():
    u = FourierSeries({0: 0.7, 1: 0.5, 2: -0.25j})
    xs = RNG.uniform(0, 1, 100)
    ref = 0.7 + np.cos(2 * np.pi * xs) + 0.5 * np.sin(4 * np.pi * xs)
    assert np.allclose(u.eval(xs), ref, atol=1e-14)
    assert u.mean == pytest.approx(0.7)


def test_evaluation_is_real_with_random_coeffs():
    c = {0: 0.3}
    for n in range(1, 6):
        c[n] = complex(RNG.normal(), RNG.normal())
    u = FourierSeries(c)
    vals = u.eval(RNG.uniform(0, 1, 500))
    assert np.all(np.isreal(vals))


def test_reality_constraint_enforced():
    with pytest.raises(ValueError):
        FourierSeries({1: 1.0 + 0.0j, -1: 0.5 + 0.0j})
    with pytest.raises(ValueError):
        FourierSeries({0: 1.0j})
    # consistent negative-frequency spec is fine
    u = FourierSeries({1: 0.5 + 0.2j, -1: 0.5 - 0.2j})
    assert u.coeff(-1) == np.conj(u.coeff(1))


def test_derivative():
    u = FourierSeries({1: 0.35 - 0.1j, 2: 0.05})
    du = u.derivative()
    xs = RNG.uniform(0, 1, 100)
    h = 1e-6
    num = (u.eval(xs + h) - u.eval(xs - h)) / (2 * h)
    assert np.allclose(du.eval(xs), num, atol=1e-4)


def test_sup_norm_bound_dominates_grid_max():
    grid = np.arange(4096) / 4096
    u = FourierSeries({0: 0.1, 1: 0.35 - 0.1j, 2: 0.05 - 0.15j})
    assert u.sup_norm_bound() >= np.max(np.abs(u.eval(grid))) - 1e-12
    v = FourierSeries.cosine()
    assert v.sup_norm_bound() == pytest.approx(1.0)
    assert np.max(np.abs(v.eval(grid))) == pytest.approx(1.0, abs=1e-12)


def test_is_zero():
    assert FourierSeries([0.0]).is_zero()
    assert not FourierSeries.cosine().is_zero()


def test_pairing_matches_quadrature():
    psi = FourierSeries({0: 0.3, 1: 0.25 - 0.05j, 2: 0.1})
    rho = FourierSeries({0: 1.0, 1: 0.5, 2: -0.2j})
    grid = np.arange(1 << 16) / (1 << 16)
    num = np.mean(psi.eval(grid) * rho.eval(grid))
    assert pairing(psi, rho) == pytest.approx(num, abs=1e-10)


def pairing_dense(psi, rho):
    """The loop pairing had: every mode up to min(n_max), through coeff."""
    s = psi.coeff(0) * rho.coeff(0)
    for k in range(1, min(psi.n_max, rho.n_max) + 1):
        s += psi.coeff(-k) * rho.coeff(k) + psi.coeff(k) * rho.coeff(-k)
    return float(s.real)


def random_sparse_series(rng):
    """Up to 8 modes below 40, some of them shared with another draw, with
    zero real or imaginary parts, a zero mean, or a zero top mode."""
    coeffs = {0: rng.normal() * (rng.random() < 0.7)}
    for n in rng.integers(1, 40, rng.integers(0, 9)):
        re, im = rng.normal(size=2) * (rng.random(2) < 0.8)
        coeffs[int(n)] = complex(re, im)
    coeffs.setdefault(int(rng.integers(1, 60)), 0.0)
    return FourierSeries(coeffs)


def test_pairing_equals_the_dense_loop_on_sparse_spectra():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        psi, rho = random_sparse_series(rng), random_sparse_series(rng)
        got, want = pairing(psi, rho), pairing_dense(psi, rho)
        # a skipped mode adds +-0.0, which moves only the sign of a zero
        assert bits(got) == bits(want) or got == want == 0.0


# ------------------------------------------------ the shared evaluator

def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def series_loop(u, x):
    """The per-mode loop FourierSeries.eval had."""
    out = np.full(x.shape, u.mean)
    for n in range(1, u.n_max + 1):
        cn = u.coeff(n)
        ph = 2.0 * math.pi * frac(n * x)
        out = out + 2.0 * (cn.real * np.cos(ph) - cn.imag * np.sin(ph))
    return out


def random_spectrum(rng, n_max, mean):
    c = (rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)) / 4
    c[0] = mean
    return c


def test_trig_sums_of_several_spectra_equal_separate_calls():
    rng = np.random.default_rng(11)
    spectra = [random_spectrum(rng, 8, m) for m in (0.0, 1.0, -0.3)]
    spectra[1][3] = 0.0   # zero in one spectrum only
    for c in spectra:
        c[5] = 0.0        # zero in every spectrum: skipped
    x = np.concatenate([rng.uniform(-2.0, 3.0, 20_000), [0.0, 1.0, 0.5]])
    together = _trig_sums(_nonzero_modes(spectra), x)
    assert len(together) == len(spectra)
    for c, out in zip(spectra, together):
        alone = _trig_sums(_nonzero_modes([c]), x)[0]
        assert np.array_equal(bits(out), bits(alone))


def trig_sums_dense(spectra, x):
    """The per-mode loop _trig_sums had: every mode up to n_max, each
    spectrum converted by tolist() on every call, and a mode skipped when
    it is zero in every spectrum."""
    x = np.asarray(x, dtype=float)
    rows = [np.asarray(c, dtype=complex).tolist() for c in spectra]
    outs = [np.empty_like(x) for _ in rows]
    for out, c in zip(outs, rows):
        out.fill(c[0].real)
    cos, t = np.empty_like(x), np.empty_like(x)
    for n in range(1, len(rows[0])):
        if not any(c[n] for c in rows):
            continue
        ph = np.asarray(frac(np.multiply(x, n, out=t)))
        ph *= 2.0 * math.pi
        np.cos(ph, out=cos)
        np.sin(ph, out=ph)
        for out, c in zip(outs, rows):
            out += np.multiply(2.0 * c[n].real, cos, out=t)
            out -= np.multiply(2.0 * c[n].imag, ph, out=t)
    return outs


def test_sparse_spectra_up_to_mode_1e6_equal_the_dense_loop():
    rng = np.random.default_rng(15)
    n_max = 10 ** 6
    modes = np.concatenate(
        ([1, 2, n_max - 1, n_max], rng.choice(np.arange(3, n_max - 1), 16,
                                              replace=False)))
    spectra = [np.zeros(n_max + 1, dtype=complex) for _ in range(2)]
    for c, mean in zip(spectra, (0.3, 1.0)):
        c[0] = mean
        re, im = rng.normal(size=(2, len(modes)))
        c[modes] = re + 1j * im
    spectra[0][modes[0]] = 0.0          # zero in one spectrum only
    spectra[1][modes[1]] = 0.25j        # a zero real part
    spectra[0][modes[2]] = -0.5         # a zero imaginary part
    x = np.concatenate([rng.uniform(-1.0, 2.0, 2000), [0.0, 0.5, 1.0]])
    for got, want in zip(_trig_sums(_nonzero_modes(spectra), x),
                         trig_sums_dense(spectra, x)):
        assert np.array_equal(bits(got), bits(want))
    u = FourierSeries({int(n): spectra[0][n] for n in np.flatnonzero(
        spectra[0])})
    assert u.n_max == n_max
    assert np.array_equal(bits(u.eval(x)),
                          bits(trig_sums_dense([spectra[0]], x)[0]))


def one_sided_spectra(rng, mean):
    """Cos-only, sin-only and mixed half-spectra, each with a mode that
    is zero in it alone and one that is zero in all three."""
    re, im = rng.normal(size=(2, 6)) / 4
    spectra = [re + 0j, 1j * im, re + 1j * im]
    for c in spectra:
        c[0] = mean
        c[4] = 0.0
    spectra[2][2] = 0.0
    return spectra


@pytest.mark.parametrize("mean", [0.0, 0.7, -1.0])
def test_trig_sums_takes_only_the_trig_functions_a_mode_uses(
        mean, monkeypatch):
    # the oracle takes cos and sin of every mode and adds every product;
    # the bits are the same, jointly and one spectrum at a time
    rng = np.random.default_rng(16)
    spectra = one_sided_spectra(rng, mean)
    x = np.concatenate([rng.uniform(-1.0, 2.0, 5000),
                        [0.0, -0.0, 0.25, 0.5, 1.0]])
    calls = {"cos": 0, "sin": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(np, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    got = [_trig_sums(_nonzero_modes([c]), x)[0] for c in spectra]
    joint = _trig_sums(_nonzero_modes(spectra), x)
    monkeypatch.undo()
    # modes 1, 2, 3 and 5 (mode 2 not in the mixed spectrum): cos only,
    # sin only, both; then jointly both
    assert calls == {"cos": 4 + 0 + 3 + 4, "sin": 0 + 4 + 3 + 4}
    want = trig_sums_dense(spectra, x)
    for g, j, w in zip(got, joint, want):
        assert np.array_equal(bits(g), bits(w))
        assert np.array_equal(bits(j), bits(w))


def test_trig_sums_keeps_a_minus_zero_mean_where_the_oracle_adds_zero():
    # the one case a skipped zero product shows: from a -0.0 mean, the
    # oracle's -0.0 + 0 cos(0) is +0.0, while _trig_sums keeps -0.0;
    # 1.0 * sin(0) = +0.0 then leaves either sign as it is
    c = [-0.0, 0.5j]  # 2 Im c_1 = 1: u = -sin(2 pi x), mean -0.0
    x = np.array([0.0, 0.5, 0.3])
    got = _trig_sums(_nonzero_modes([c]), x)[0]
    want = trig_sums_dense([c], x)[0]
    assert bits(got[0]) == bits(-0.0) and bits(want[0]) == bits(0.0)
    assert np.array_equal(got[1:], want[1:])
    assert np.array_equal(bits(got[1:]), bits(want[1:]))


def test_trig_sums_zero_dimensional_point():
    rng = np.random.default_rng(12)
    spectra = [random_spectrum(rng, 4, 0.0), random_spectrum(rng, 4, 1.0)]
    xs = rng.uniform(-1.0, 2.0, 50)
    for k, x in enumerate(xs):
        outs = _trig_sums(_nonzero_modes(spectra), np.float64(x))
        assert all(isinstance(o, np.ndarray) and o.shape == () for o in outs)
        for o, row in zip(outs, _trig_sums(_nonzero_modes(spectra), xs)):
            assert bits(o) == bits(row[k])


def test_trig_sums_visits_only_nonzero_modes(monkeypatch):
    calls = []

    def counting_frac(x):
        calls.append(np.size(x))
        return frac(x)

    monkeypatch.setattr(fourier, "frac", counting_frac)
    x = RNG.uniform(0, 1, 1000)
    val = FourierSeries({997: -0.5j}).eval(x)  # sin(2 pi 997 x)
    assert calls == [1000]  # mode 997 alone, not 997 modes
    # 0 + 0 cos - (-1) sin is sin exactly
    assert np.array_equal(val, np.sin(2.0 * math.pi * frac(997 * x)))


def test_series_eval_matches_old_loop():
    rng = np.random.default_rng(13)
    for n_max in (1, 3, 9):
        u = FourierSeries(random_spectrum(rng, n_max, 0.4))
        x = rng.uniform(-1.0, 2.0, 20_000)
        err = np.max(np.abs(u.eval(x) - series_loop(u, x)))
        assert err <= 1e-15 * u.sup_norm_bound()
