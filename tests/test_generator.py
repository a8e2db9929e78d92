import dataclasses
import io
import math

import numpy as np
import pytest

from shiftapprox import cli, zak
from shiftapprox.errors import InvalidGridError, TruncationError
from shiftapprox.generator import (
    Generator,
    SplineParams,
    _cardinal_bspline,
    bandlimited_generator,
    bspline_generator,
    decay_audit_max_ratio,
    default_freq_grid,
    gaussian_generator,
    generator_l2_norm_sq,
    parse_generator_spec,
    sampled_generator,
    shift_autocorrelation,
    spectrum_generator,
    time_extent,
)
from shiftapprox.numerics import (
    SampledFunction,
    SampledSpectrum,
    fourier_transform_sampled,
    make_uniform_grid,
    quadrature_weights,
    write_samples_csv,
)

from helpers import spline


def test_cardinal_bspline_partition_of_unity():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 1.0, 64)
    for order in (1, 2, 3, 4, 6):
        total = sum(_cardinal_bspline(order, t + k) for k in range(order))
        assert np.max(np.abs(total - 1.0)) < 1e-12, order


def test_box_takes_jump_midpoints_at_knots():
    vals = _cardinal_bspline(1, np.array([-0.5, 0.0, 0.25, 1.0, 1.5]))
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
    for eps in (1e-3, 1e-8, 1e-12):
        r = gen.time_tail_radius(eps)
        assert abs(gen.time_domain(np.array([r]))[0]) <= eps * (1 + 1e-12)
        assert abs(gen.time_domain(np.array([-r - 1.0]))[0]) < eps


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_spline_autocorrelation_closed_form_vs_quadrature(m):
    """a_d = <B, B(. - d pi/sigma)> checked against brute overlap integrals."""
    sigma = 1.0
    gen = spline(m, sigma)
    h = math.pi / sigma
    got = shift_autocorrelation(gen, sigma, m + 2)
    # independent route: dense trapezoid on the shared support
    grid = make_uniform_grid(-(m + 2) * h, h, (m + 3) * 4096 + 1)
    x = grid.nodes()
    base = gen.time_domain(x)
    for d in range(m + 2):
        shifted = gen.time_domain(x - d * h)
        ref = np.trapezoid(base * np.conj(shifted), x)
        tol = 2e-3 if m == 0 else 1e-6  # box jumps limit the brute accuracy
        assert got[d].real == pytest.approx(complex(ref).real, abs=tol * 4 * math.pi)
    assert abs(got[m + 1]) == 0.0  # disjoint supports beyond m lags


def test_spline_autocorrelation_known_ratios():
    a1 = shift_autocorrelation(spline(1, 1.0), 1.0, 1)
    assert a1[0].real == pytest.approx(4.0 * math.pi * (2.0 / 3.0), rel=1e-14)
    assert (a1[1] / a1[0]).real == pytest.approx(0.25, rel=1e-14)
    a0 = shift_autocorrelation(spline(0, 2.0), 2.0, 1)
    assert a0[0].real == pytest.approx(8.0 * math.pi, rel=1e-14)
    assert a0[1] == 0.0


def test_gaussian_autocorrelation_matches_closed_form():
    w, sigma = 0.8, 1.0
    gen = gaussian_generator(w)
    h = math.pi / sigma
    got = shift_autocorrelation(gen, sigma, 3)
    for d in range(4):
        ref = w * math.sqrt(math.pi) * math.exp(-(d * h) ** 2 / (4.0 * w * w))
        assert got[d].real == pytest.approx(ref, rel=1e-10), d


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
    assert parse_generator_spec("gauss:width=0.5").time_step_hint == pytest.approx(0.5 / 16)
    assert parse_generator_spec("sinc:sigma=1.5").spectral_support == pytest.approx(1.5)
    assert parse_generator_spec("bspline:m=1", default_sigma=2.0).support[0] == pytest.approx(-math.pi)


@pytest.mark.parametrize("bad", [
    "bspline:m=", "bspline:sigma=1", "bspline:2", "mystery:m=1",
    "bspline:m=1,extra=3", "gauss:width=zero",
])
def test_parse_generator_spec_rejects_bad_input(bad):
    with pytest.raises((ValueError, InvalidGridError)):
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


def test_spectrum_generator_audits_decay():
    grid = make_uniform_grid(-20.0, 20.0, 4001)
    y = grid.nodes()
    gen = spectrum_generator(SampledSpectrum(
        grid=grid, values=1.0 / (1.0 + y * y) + 0.0j))
    assert gen.decay_exponent > 1.0
    assert decay_audit_max_ratio(gen, 1.0) <= 1.0 + 1e-9


def test_sampled_generator_round_trips_through_transform():
    width = 1.0
    tg = make_uniform_grid(-10.0, 10.0, 4097)
    x = tg.nodes()
    samples = SampledFunction(grid=tg, values=np.exp(-0.5 * (x / width) ** 2) + 0.0j)
    gen = sampled_generator(samples, make_uniform_grid(-8.0, 8.0, 1025))
    # probe on the interpolation nodes so only transform error remains
    probe = np.linspace(-3.0, 3.0, 13)
    ref = gaussian_generator(width).spectrum(probe)
    assert np.max(np.abs(gen.spectrum(probe) - ref)) < 1e-8


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


def _cauchy_time_only() -> Generator:
    return Generator(
        label="cauchy", decay_exponent=10.0, decay_constant=1.0,
        spectrum=lambda y: 0.5 * np.exp(-np.abs(np.asarray(y, dtype=float))) + 0.0j,
        time_domain=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2) + 0.0j)


def test_time_extent_reads_the_support_then_the_tail_radius():
    assert time_extent(spline(1, 1.0), 1e-3) == (-2.0 * math.pi, 0.0, True)
    gauss = gaussian_generator(0.8)
    radius = gauss.time_tail_radius(1e-12)
    assert time_extent(gauss, 1e-12) == (-radius, radius, False)
    with pytest.raises(TruncationError, match="neither compact support"):
        time_extent(_cauchy_time_only(), 1e-12)
    with pytest.raises(TruncationError):
        time_extent(bandlimited_generator(1.0), 1e-12)


def _sampled_gaussian() -> Generator:
    tg = make_uniform_grid(-8.0, 8.0, 513)
    x = tg.nodes()
    samples = SampledFunction(grid=tg, values=np.exp(-0.5 * x * x) + 0.0j)
    return sampled_generator(samples, default_freq_grid(samples))


# Every reader of a generator's time extent, as the separate support /
# tail-radius ladders computed them: the shift range of the Phi time sum on
# [0, pi/sigma] at tol 1e-8, the Phi4 lag count, the autocorrelation's
# quadrature nodes (count, first, last) for lags 0..3, and the grid of a
# signal sampled in time (start, stop, count).
_EXTENT_PINS = {
    ("spline", 1.0): ((-1, 5, 0.0), 4, (385, -9.42477796076938, 0.0),
                      (-9.42477796076938, 0.0, 4097)),
    ("spline", 2.0): ((-1, 8, 0.0), 7, (769, -9.42477796076938, 0.0),
                      (-9.42477796076938, 0.0, 4097)),
    ("gauss", 1.0): ((-4, 5, 1e-10), 7,
                     (1255, -15.388895264068752, 15.388895264068752),
                     (-6.8670912841259115, 6.8670912841259115, 1100)),
    ("gauss", 2.0): ((-6, 7, 1e-10), 11,
                     (1739, -10.664234437380978, 10.664234437380978),
                     (-6.8670912841259115, 6.8670912841259115, 1100)),
    ("sampled", 1.0): ((-4, 5, 0.0), 7, (1031, -8.0, 8.019012045532111),
                       (-8.0, 8.0, 2049)),
    ("sampled", 2.0): ((-7, 8, 0.0), 12, (1305, -8.0, 8.002487579223008),
                       (-8.0, 8.0, 2049)),
}


@pytest.mark.parametrize("name,sigma", sorted(_EXTENT_PINS))
def test_extent_readers_keep_their_windows(name, sigma):
    gen = {"spline": lambda: spline(2, 1.0),
           "gauss": lambda: gaussian_generator(0.8),
           "sampled": _sampled_gaussian}[name]()
    window, lags, nodes, signal_grid = _EXTENT_PINS[(name, sigma)]
    assert zak._time_window(gen, sigma, 0.0, math.pi / sigma, 1e-8) == window
    assert zak._phi4_lag_count(gen, sigma) == lags
    seen = []

    def recorded(x, evaluate=gen.time_domain):
        seen.append((x.size, float(x[0]), float(x[-1])))
        return evaluate(x)

    shift_autocorrelation(dataclasses.replace(gen, time_domain=recorded,
                                              autocorrelation=None), sigma, 3)
    assert seen == [nodes]
    grid = cli._sample_signal(gen, sigma, 257, prefer_time=True).grid
    assert (grid.start, grid.stop, grid.count) == signal_grid
