import dataclasses
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from shiftapprox import oracle, zak
from shiftapprox.errors import InvalidGridError, TruncationError
from shiftapprox.generator import (
    TIME_EPS,
    _box,
    _cardinal_spline,
    _unit_spline,
    bandlimited_generator,
    bspline_generator,
    gaussian_generator,
    generator_l2_norm_sq,
    parse_generator_spec,
    sampled_generator,
    shift_autocorrelation,
    spectrum_generator,
    time_extent,
)
from shiftapprox.numerics import (
    TWO_PI,
    SampledFunction,
    SampledSpectrum,
    fourier_transform_sampled,
    make_uniform_grid,
    quadrature_weights,
    write_samples_csv,
)
from shiftapprox.spectral import HURWITZ_ORDER, lattice_energy, poisson_lags

from helpers import (cauchy, decay_audit_max_ratio, piecewise_inner,
                     sampled_gaussian, spline)


def _exact_bspline(order: int, v) -> float:
    """``N_order(v)``, v a double or a Fraction, as the truncated-power sum
    in exact rationals with ``(t - i)_+**0 = 1`` from t = i on, rounded
    once."""
    u = Fraction(v)
    powers = sum((-1) ** i * math.comb(order, i) * (u - i) ** (order - 1)
                 for i in range(order + 1) if u >= i)
    return float(powers / math.factorial(order - 1))


def test_cardinal_bspline_partition_of_unity():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, 64)
    for order in (1, 2, 3, 4, 6):
        evaluate = _box if order == 1 else _cardinal_spline(np.ones(1), order)
        total = sum(evaluate(t + k) for k in range(order))
        assert np.max(np.abs(total - 1.0)) < 1e-12, order


@pytest.mark.parametrize("n", [5, 11])
def test_spline_pieces_match_the_truncated_powers(n):
    # N_{n+1} over its support and one unit either side, against the
    # exact-rational N_{n+1}; beta5 = N_6 centred at the integers is the
    # prefilter (1, 26, 66, 26, 1)/120
    evaluate = _cardinal_spline(np.array([1.0]), n + 1)
    t = np.random.default_rng(n).uniform(-1.0, n + 2.0, 400)
    ref = [_exact_bspline(n + 1, v) for v in t]
    assert np.max(np.abs(evaluate(t) - ref)) <= np.finfo(float).eps
    if n == 5:
        knots = evaluate(np.arange(0.0, 7.0)) * 120.0
        assert np.max(np.abs(knots - [0, 1, 26, 66, 26, 1, 0])) <= 1e-13


@pytest.mark.parametrize("order", range(1, 23))
def test_cardinal_bspline_matches_exact_truncated_powers(order):
    # the piece tables against the truncated-power sum in exact rational
    # arithmetic at each double t, within one ulp of 1 up to order 22, the
    # degree-10 autocorrelation's (a float truncated-power sum lost 414)
    rng = np.random.default_rng(order)
    knots = np.arange(order + 1, dtype=float)
    t = np.concatenate([rng.uniform(-0.5, order + 0.5, 500), knots,
                        np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                        knots - 1e-9, knots + 1e-9, knots - 1e-5, knots + 1e-5])
    evaluate = _cardinal_spline(np.ones(1), order)
    err = np.abs(evaluate(t) - [_exact_bspline(order, v) for v in t])
    assert np.max(err) <= np.finfo(float).eps


def test_bspline_generators_of_one_order_share_their_tables(monkeypatch):
    first = bspline_generator(3, 1.0)
    built, convolve = [], np.convolve
    monkeypatch.setattr(np, "convolve",
                        lambda *a, **k: built.append(a) or convolve(*a, **k))
    second = bspline_generator(3, 1.0)
    assert built == []
    monkeypatch.undo()
    x = np.linspace(-5.0, 1.0, 301)
    assert np.array_equal(first.time_domain(x), second.time_domain(x))
    assert np.array_equal(first.autocorrelation(x), second.autocorrelation(x))
    t = np.linspace(-1.0, 9.0, 1001)
    for order in (4, 8):
        table = _unit_spline(order).args[0]
        assert not table.flags.writeable
        assert np.array_equal(_unit_spline(order)(t),
                              _cardinal_spline(np.ones(1), order)(t))


def test_box_takes_jump_midpoints_at_knots():
    vals = _box(np.array([-0.5, 0.0, 0.25, 1.0, 1.5]))
    assert np.array_equal(vals, [0.0, 0.5, 1.0, 0.5, 0.0])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_spline_time_integral_and_support(m):
    sigma = 1.0
    gen = spline(m, sigma)
    lo, hi = gen.support
    assert hi == 0.0 and lo == pytest.approx(-(m + 1) * math.pi, rel=1e-15)
    # unit-mass cardinal spline scaled by 2 sigma and stretched by pi/sigma;
    # the window extends half a knot interval past the support so the box's
    # jump midpoints sit on interior panel boundaries and cancel
    pad = math.pi / 2.0
    grid = make_uniform_grid(lo - pad, hi + pad, (2 * (m + 2)) * 2048 + 1)
    total = (quadrature_weights(grid) * gen.time_domain(grid.nodes())).sum()
    assert complex(total).real == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert gen.spectrum(np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-15)


def test_spline_spectrum_matches_transform_of_time_samples():
    """Locks the 1/2pi-forward convention between the two descriptions."""
    sigma = 1.0
    for m in (1, 2):
        gen = spline(m, sigma)
        lo, hi = gen.support
        tg = make_uniform_grid(lo, hi, 1 + (m + 1) * 512)
        samples = SampledFunction(grid=tg, values=gen.time_domain(tg.nodes()))
        f = fourier_transform_sampled(samples, make_uniform_grid(-6.0, 6.0, 241))
        ref = gen.spectrum(f.grid.nodes())
        assert np.max(np.abs(f.values - ref)) < 1e-8, m


def test_bandlimited_spectrum_is_an_indicator():
    gen = bandlimited_generator(1.5)
    y = np.array([-2.0, -1.4999, 0.0, 1.4999, 2.0, 10.0])
    vals = gen.spectrum(y)
    assert np.array_equal(vals.real, [0.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    assert gen.spectral_support == pytest.approx(1.5)
    x = np.array([0.3, 1.7, -2.2])
    ref = 2.0 * np.sin(1.5 * x) / x
    assert np.max(np.abs(gen.time_domain(x) - ref)) < 1e-12


def test_gaussian_tail_radius_bounds_the_time_tail():
    gen = gaussian_generator(0.7)
    r = gen.time_radius
    assert r == pytest.approx(0.7 * math.sqrt(2.0 * math.log(1e16)), rel=1e-15)
    assert abs(gen.time_domain(np.array([r]))[0]) <= TIME_EPS * (1 + 1e-12)
    assert abs(gen.time_domain(np.array([-r - 1.0]))[0]) < TIME_EPS


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_spline_autocorrelation_closed_form_vs_quadrature(m):
    """a_d = <B, B(. - d pi/sigma)> checked against brute overlap integrals."""
    sigma = 1.0
    gen = spline(m, sigma)
    h = math.pi / sigma
    got = shift_autocorrelation(gen, sigma, m + 2)
    # independent route: dense trapezoid on the shared support (written
    # out as numpy's trapezoid, which numpy 1.24 names trapz)
    grid = make_uniform_grid(-(m + 2) * h, h, (m + 3) * 4096 + 1)
    x = grid.nodes()
    base = gen.time_domain(x)
    for d in range(m + 2):
        product = base * np.conj(gen.time_domain(x - d * h))
        ref = (np.diff(x) * (product[1:] + product[:-1]) / 2.0).sum()
        tol = 2e-3 if m == 0 else 1e-6  # box jumps limit the brute accuracy
        assert got[d].real == pytest.approx(complex(ref).real, abs=tol * 4 * math.pi)
    assert abs(got[m + 1]) == 0.0  # disjoint supports beyond m lags


@pytest.mark.parametrize("sigma_b", [2.0, 0.5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_spline_autocorrelation_reads_the_lattice_lag(m, sigma_b):
    # a spline built at sigma_B on the sigma = 1 lattice: the closed form at
    # the lags d pi against Gauss-Legendre between the knots of B and of
    # its shift, exact for the piecewise polynomial overlap
    gen = spline(m, sigma_b)
    lags = 2 * m + 3
    got = shift_autocorrelation(gen, 1.0, lags)
    knots = np.linspace(*gen.support, m + 2)
    ref = [piecewise_inner(gen.time_domain,
                           lambda x, d=d: gen.time_domain(x - d * math.pi),
                           np.concatenate([knots, knots + d * math.pi]))
           for d in range(lags + 1)]
    assert np.max(np.abs(got - ref)) <= 1e-12 * got[0].real


def test_closed_form_autocorrelation_is_read_once_per_row():
    # the closed form is a vectorized map: a row of lags is one call
    base = spline(2, 1.0)
    calls = []

    def counting(tau):
        calls.append(np.shape(tau))
        return base.autocorrelation(tau)

    gen = dataclasses.replace(base, autocorrelation=counting)
    for max_lag in (0, 3, 32, 128):
        calls.clear()
        row = shift_autocorrelation(gen, 1.0, max_lag)
        assert calls == [(max_lag + 1,)]
        assert row.shape == (max_lag + 1,) and row.dtype == np.complex128


@pytest.mark.parametrize("sigma_b", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_spline_autocorrelation_row_is_the_per_lag_closed_form(m, sigma_b):
    # 4 pi sigma_B N_{2(m+1)}(m + 1 - |tau|/h_B), the evaluator called lag
    # by lag on scalars: the vectorized row equals it bit for bit
    h_b = math.pi / sigma_b
    evaluate = _cardinal_spline(np.ones(1), 2 * (m + 1))
    for sigma, max_lag in ((1.0, 3), (1.0, 32), (2.0, 129)):
        row = shift_autocorrelation(spline(m, sigma_b), sigma, max_lag)
        per_lag = [complex(4.0 * np.pi * sigma_b * float(evaluate(
            np.array(m + 1 - abs(d * math.pi / sigma) / h_b))))
            for d in range(max_lag + 1)]
        assert row.tolist() == per_lag, (sigma, max_lag)


def test_spline_autocorrelation_known_ratios():
    a1 = shift_autocorrelation(spline(1, 1.0), 1.0, 1)
    assert a1[0].real == pytest.approx(4.0 * math.pi * (2.0 / 3.0), rel=1e-14)
    assert (a1[1] / a1[0]).real == pytest.approx(0.25, rel=1e-14)
    a0 = shift_autocorrelation(spline(0, 2.0), 2.0, 1)
    assert a0[0].real == pytest.approx(8.0 * math.pi, rel=1e-14)
    assert a0[1] == 0.0


def test_gaussian_autocorrelation_matches_closed_form():
    # the declared closed form against a dense Simpson sum of the overlap
    # on [-12, 12 + 3 h], where the integrand is below 1e-48
    w, sigma = 0.8, 1.0
    gen = gaussian_generator(w)
    h = math.pi / sigma
    got = shift_autocorrelation(gen, sigma, 3)
    grid = make_uniform_grid(-12.0, 12.0 + 3 * h, 16385)
    x, weights = grid.nodes(), quadrature_weights(grid)
    for d in range(4):
        ref = np.sum(weights * gen.time_domain(x) * np.conj(gen.time_domain(x - d * h)))
        assert abs(got[d] - ref) <= 1e-13 * got[0].real, d


@pytest.mark.parametrize("sigma_b,sigma", [(1.0, 1.0), (1.5, 1.0), (1.0, 2.5)])
def test_sinc_autocorrelation_matches_parseval_quadrature(sigma_b, sigma):
    # Parseval: <B, B(. - tau)> = 2 pi integral_{-sigma_B}^{sigma_B} e^{i tau y} dy,
    # a smooth integrand on the spectral support, where dense Simpson is
    # within 2e-14 (relative) of it at every lag here
    gen = bandlimited_generator(sigma_b)
    got = shift_autocorrelation(gen, sigma, 5)
    grid = make_uniform_grid(-sigma_b, sigma_b, 16385)
    y, weights = grid.nodes(), quadrature_weights(grid)
    for d in range(6):
        ref = 2.0 * math.pi * np.sum(weights * np.exp(1j * d * math.pi / sigma * y))
        assert abs(got[d] - ref) <= 1e-13 * got[0].real, d


def test_bandlimited_shifts_are_orthogonal():
    sigma = 1.0
    got = shift_autocorrelation(bandlimited_generator(sigma), sigma, 4)
    assert got[0].real == pytest.approx(4.0 * math.pi * sigma, rel=1e-10)
    assert np.max(np.abs(got[1:])) < 1e-6 * got[0].real


def test_l2_norm_routes_agree():
    for gen in (spline(2, 1.0), gaussian_generator(1.0)):
        n2 = generator_l2_norm_sq(gen, 1.0)
        y = make_uniform_grid(-40.0, 40.0, 2 ** 15 + 1)
        spec_mass = (quadrature_weights(y) * np.abs(gen.spectrum(y.nodes())) ** 2).sum()
        assert n2 == pytest.approx(2.0 * math.pi * float(spec_mass), rel=1e-6)
    # the indicator spectrum has exact mass 2 sigma
    sigma = 1.5
    n2 = generator_l2_norm_sq(bandlimited_generator(sigma), sigma)
    assert n2 == pytest.approx(4.0 * math.pi * sigma, rel=1e-9)


def test_decay_audit_holds_for_builtin_families():
    for gen in (spline(0, 1.0), spline(3, 2.0), gaussian_generator(1.0),
                bandlimited_generator(1.0)):
        assert decay_audit_max_ratio(gen, 1.0) <= 1.0 + 1e-9, gen.label


def test_parse_generator_spec_families():
    g = parse_generator_spec("bspline:m=2,sigma=2")
    assert g.label == "bspline:m=2,sigma=2"
    gauss = parse_generator_spec("gauss:width=0.5")
    assert gauss.time_radius == pytest.approx(0.5 * math.sqrt(2.0 * math.log(1e16)))
    assert gauss.support is None
    assert parse_generator_spec("sinc:sigma=1.5").spectral_support == pytest.approx(1.5)
    assert parse_generator_spec("bspline:m=1", default_sigma=2.0).support[0] == pytest.approx(-math.pi)


@pytest.mark.parametrize("bad", [
    "bspline:m=", "bspline:sigma=1", "bspline:2", "mystery:m=1",
    "bspline:m=1,extra=3", "gauss:width=zero",
])
def test_parse_generator_spec_rejects_bad_input(bad):
    with pytest.raises((ValueError, InvalidGridError)):
        parse_generator_spec(bad)


def test_parse_generator_spec_names_every_problem():
    with pytest.raises(ValueError, match=r"unknown parameters \['foo'\], is missing 'm'"):
        parse_generator_spec("bspline:foo=2")
    with pytest.raises(ValueError, match="repeats 'm'"):
        parse_generator_spec("bspline:m=1,m=3")
    # a value out of a family's range is a ValueError naming the spec
    for bad in ("gauss:width=-1", "bspline:m=11", "bspline:m=1,sigma=0",
                "sinc:sigma=-2"):
        with pytest.raises(ValueError, match=f"generator spec '{bad}': "):
            parse_generator_spec(bad)


def test_parse_generator_spec_reads_spectrum_files(tmp_path):
    grid = make_uniform_grid(-4.0, 4.0, 513)
    y = grid.nodes()
    spec = SampledSpectrum(grid=grid, values=np.exp(-y * y) + 0.0j)
    path = tmp_path / "gen.csv"
    write_samples_csv(str(path), spec)
    gen = parse_generator_spec(f"file:{path}")
    assert np.max(np.abs(gen.spectrum(y) - spec.values)) < 1e-12
    # interpolation beyond the sampled cover returns zero
    assert gen.spectrum(np.array([100.0]))[0] == 0.0


def test_file_generators_are_labelled_by_their_path(tmp_path):
    # time samples and a tabulated spectrum alike, so that messages name the file
    grid = make_uniform_grid(-8.0, 8.0, 257)
    values = np.exp(-0.5 * grid.nodes() ** 2) + 0j
    for name, table in (("time.csv", SampledFunction(grid=grid, values=values)),
                        ("spectrum.csv", SampledSpectrum(grid=grid, values=values))):
        path = tmp_path / name
        write_samples_csv(str(path), table)
        assert parse_generator_spec(f"file:{path}").label == f"file:{path}"


def test_spectrum_generator_audits_decay():
    grid = make_uniform_grid(-20.0, 20.0, 4001)
    y = grid.nodes()
    gen = spectrum_generator(SampledSpectrum(
        grid=grid, values=1.0 / (1.0 + y * y) + 0.0j))
    assert gen.decay_exponent > 1.0
    assert decay_audit_max_ratio(gen, 1.0) <= 1.0 + 1e-9


def test_sampled_generator_round_trips_through_transform():
    # the quintic spline through 4097 samples of a width-1 Gaussian has the
    # Gaussian's spectrum to its interpolation error, at any y
    width = 1.0
    tg = make_uniform_grid(-10.0, 10.0, 4097)
    x = tg.nodes()
    samples = SampledFunction(grid=tg, values=np.exp(-0.5 * (x / width) ** 2) + 0.0j)
    gen = sampled_generator(samples)
    probe = np.linspace(-8.0, 8.0, 37)
    ref = gaussian_generator(width).spectrum(probe)
    assert np.max(np.abs(gen.spectrum(probe) - ref)) < 1e-12


def _fixed_samples(values=lambda x: np.exp(-0.5 * x * x)) -> SampledFunction:
    grid = make_uniform_grid(-8.6, 8.6, 513)
    return SampledFunction(grid=grid, values=values(grid.nodes()) + 0.0j)


def test_sampled_generator_reproduces_its_samples():
    for values in (lambda x: np.exp(-0.5 * x * x),
                   lambda x: np.exp(-0.5 * x * x + 0.5j * x),
                   lambda x: np.where(np.abs(x) < 2.0, 1.0 - np.abs(x) / 2.0, 0.0)):
        samples = _fixed_samples(values)
        gen = sampled_generator(samples)
        err = gen.time_domain(samples.grid.nodes()) - samples.values
        assert np.max(np.abs(err)) <= 1e-14


def test_sampled_generator_declares_one_function():
    # the closed-form Gram row against Gauss-Legendre between the knots of
    # the time domain and of its shift (degree 10 pieces, 6 nodes: exact),
    # and a(0) against 2 pi integral |f-hat|^2 by the trapezoid rule at a
    # step below 2 pi/(support length), exact for a spectrum of compact
    # time support (Poisson summation), out to where |f-hat|^2 < 1e-30
    for values in (lambda x: np.exp(-0.5 * x * x),
                   lambda x: np.exp(-0.5 * x * x + 0.5j * x)):
        gen = sampled_generator(_fixed_samples(values))
        lo, hi = gen.support
        dx = 8.6 / 256
        knots = np.arange(lo, hi + 0.5 * dx, dx)
        for sigma in (1.0, 2.0, 0.7):
            lags = poisson_lags(gen, sigma)[0]
            row = shift_autocorrelation(gen, sigma, lags)
            ref = [piecewise_inner(gen.time_domain,
                                   lambda x, tau=d * math.pi / sigma: gen.time_domain(x - tau),
                                   np.concatenate([knots, knots + d * math.pi / sigma]))
                   for d in range(lags + 1)]
            assert np.max(np.abs(row - ref)) <= 1e-13 * row[0].real, sigma
        step = 0.1
        y = step * np.arange(-40_000, 40_001)
        energy = TWO_PI * step * np.sum(np.abs(gen.spectrum(y)) ** 2)
        assert abs(generator_l2_norm_sq(gen) - energy) <= 1e-13 * energy


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_bspline_samples_build_the_bspline_record(sigma):
    # one spline family: the quintic spline through the 11 samples of
    # bspline:m=5 on [-8h, 2h] at step h is N_6 again, one coefficient 2 sigma
    # (to 2 ulp, through the truncated inverse prefilter) from -6h, and both
    # records take the class tails in the lattice sums
    h = math.pi / sigma
    grid = make_uniform_grid(-8.0 * h, 2.0 * h, 11)
    ref = bspline_generator(5, sigma)
    gen = sampled_generator(SampledFunction(grid=grid, values=ref.time_domain(grid.nodes())))
    got, want = gen.spline, ref.spline
    assert want.coeffs.tolist() == [2.0 * sigma] and got.coeffs.shape == (1,)
    assert abs(got.coeffs[0] - 2.0 * sigma) <= 4.0 * np.finfo(float).eps * 2.0 * sigma
    assert (got.order, got.step) == (want.order, want.step) == (6, h)
    assert got.origin == pytest.approx(want.origin, rel=1e-15)
    assert np.allclose(gen.support, ref.support, rtol=1e-15, atol=1e-14)
    y = np.linspace(-sigma, sigma, 9)
    energies = []
    for g in (gen, ref):
        values, order, tail = lattice_energy(g, sigma, y)
        assert (order, tail) == (HURWITZ_ORDER, 0.0)
        energies.append(values)
    assert np.max(np.abs(energies[0] - energies[1])) <= 1e-14 * np.max(energies[1])


def test_sampled_generator_declares_its_decay_and_symmetry():
    real = sampled_generator(_fixed_samples())
    rotated = sampled_generator(_fixed_samples(lambda x: np.exp(-0.5 * x * x + 0.5j * x)))
    assert real.real_valued and not rotated.real_valued
    for gen in (real, rotated):
        assert gen.decay_exponent == 6.0
        assert decay_audit_max_ratio(gen, 1.0) <= 1.0
    with pytest.raises(InvalidGridError, match="must not all vanish"):
        sampled_generator(_fixed_samples(lambda x: 0.0 * x))


def test_tabulated_spectrum_is_real_only_on_a_symmetric_grid():
    # e^{-4(y-2)^2} on [0, 4] mirrors onto itself about y = 2, not y = 0:
    # the time domain is complex, and only y -> -y tests Hermitian symmetry
    def tabulated(lo, hi, centre):
        grid = make_uniform_grid(lo, hi, 401)
        values = np.exp(-4.0 * (grid.nodes() - centre) ** 2) + 0.0j
        return spectrum_generator(SampledSpectrum(grid=grid, values=values))

    off = tabulated(0.0, 4.0, 2.0)
    assert not off.real_valued
    assert off.spectral_support == 4.0
    assert tabulated(-2.0, 2.0, 0.0).real_valued


def test_time_extent_reads_the_support_then_the_tail_radius():
    assert time_extent(spline(1, 1.0)) == (-2.0 * math.pi, 0.0, True)
    gauss = gaussian_generator(0.8)
    radius = gauss.time_radius
    assert time_extent(gauss) == (-radius, radius, False)
    with pytest.raises(TruncationError, match="neither compact support"):
        time_extent(cauchy())
    with pytest.raises(TruncationError):
        time_extent(bandlimited_generator(1.0))


# Every reader of a generator's time extent, which is its support or its
# declared time radius: the shift range of the Phi time sum on
# [0, pi/sigma], the Poisson lag count of periodize and Phi4 (the exact L
# under a declared support), and the grid of a signal sampled in time
# against the same generator (start, stop, count): its extent rounded out
# to multiples of pi/sigma, at a step that puts the knots on even nodes.
# Every autocorrelation here is its closed form: no time node is read.
_EXTENT_PINS = {
    ("spline", 1.0): ((-1, 5), 2, (-9.42477796076938, 0.0, 6145)),
    ("spline", 2.0): ((-1, 8), 5, (-9.42477796076938, 0.0, 6145)),
    ("gauss", 1.0): ((-4, 5), 5, (-9.42477796076938, 9.42477796076938, 6145)),
    ("gauss", 2.0): ((-6, 7), 9, (-7.853981633974483, 7.853981633974483, 5121)),
    ("sampled", 1.0): ((-4, 5), 5, (-9.42477796076938, 9.42477796076938, 6145)),
    ("sampled", 2.0): ((-7, 8), 10, (-9.42477796076938, 9.42477796076938, 6145)),
}


@pytest.mark.parametrize("name,sigma", sorted(_EXTENT_PINS))
def test_extent_readers_keep_their_windows(name, sigma):
    gen = {"spline": lambda: spline(2, 1.0),
           "gauss": lambda: gaussian_generator(0.8),
           "sampled": sampled_gaussian}[name]()
    window, lags, signal_grid = _EXTENT_PINS[(name, sigma)]
    assert zak._time_window(gen, sigma, 0.0, math.pi / sigma) == window
    assert poisson_lags(gen, sigma)[0] == lags
    seen = []

    def recorded(x, evaluate=gen.time_domain):
        seen.append(x.size)
        return evaluate(x)

    got = shift_autocorrelation(dataclasses.replace(gen, time_domain=recorded),
                                sigma, 3)
    closed = [gen.autocorrelation(d * math.pi / sigma) for d in range(4)]
    assert seen == [] and got.tolist() == closed
    grid = oracle._time_samples(gen, gen, sigma).grid
    assert (grid.start, grid.stop, grid.count) == signal_grid
