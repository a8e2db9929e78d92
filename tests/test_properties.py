"""Invariants of the shift space as property tests (hypothesis).

Signals are Gaussians exp(-(x-c)^2 / (2 w^2)) given by their exact spectrum
(w / sqrt(2 pi)) e^{-w^2 y^2 / 2} e^{-i y c} on the aligned extension of a
257-node period grid, wide enough that the cut-off spectrum is below 1e-15.
Generators are B-splines of degree 1-3 and Gaussians.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftapprox.generator import gaussian_generator
from shiftapprox.numerics import Grid, SampledSpectrum, period_extension
from shiftapprox.shiftspace import best_approx_error_sq, project

from helpers import spline

DGRID = 257
J_RANGE = 16
PROPERTY = settings(max_examples=25, deadline=None)

sigmas = st.sampled_from([0.5, 1.0, 2.0])
widths = st.floats(0.6, 1.5)
centres = st.floats(-3.0, 3.0)
generator_kinds = st.sampled_from(["m1", "m2", "m3", "gauss"])


def _generator(kind: str, sigma: float):
    return gaussian_generator(1.0) if kind == "gauss" else spline(int(kind[1]), sigma)


def _gaussian_signal(sigma: float, width: float, centre: float
                     ) -> SampledSpectrum:
    windows = int(math.ceil((8.5 / (width * sigma) - 1.0) / 2.0))
    grid = period_extension(sigma, DGRID, windows)
    y = grid.nodes()
    values = ((width / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * (width * y) ** 2)
              * np.exp(-1j * y * centre))
    return SampledSpectrum(grid=grid, values=values)


@PROPERTY
@given(sigma=sigmas, width=widths, centre=centres, kind=generator_kinds)
def test_shift_by_one_step_moves_every_coefficient_up_one_index(
        sigma, width, centre, kind):
    # f(. - pi/sigma) has spectrum fhat e^{-i y pi/sigma}.  Every fold node
    # but the two seam nodes carries that phase exactly (to rounding); the
    # seam nodes are cubic extrapolations from the interior, which commute
    # with the phase only up to the extrapolation error (up to ~6e-4 of
    # max|zeta| at one seam node), and each has Simpson weight step/3 of
    # the 2 sigma period: hence 1e-5 relative, about ten times the worst
    # move seen over 300 random draws.
    gen = _generator(kind, sigma)
    fs = _gaussian_signal(sigma, width, centre)
    shifted = SampledSpectrum(
        grid=fs.grid, values=fs.values * np.exp(-1j * fs.grid.nodes() * np.pi / sigma))
    grid = Grid(start=-sigma, stop=sigma, count=DGRID)
    base = project(fs, gen, sigma, sigma, grid=grid, j_range=J_RANGE)
    moved = project(shifted, gen, sigma, sigma, grid=grid, j_range=J_RANGE)
    before, after = base.coeffs.coeffs, moved.coeffs.coeffs
    assert np.max(np.abs(after[1:] - before[:-1])) <= 1e-5 * np.max(np.abs(before))
    norm_sq = width * math.sqrt(math.pi)
    assert abs(moved.error_sq - base.error_sq) <= 1e-5 * norm_sq


@PROPERTY
@given(sigma=sigmas, width=widths, centre=centres, kind=generator_kinds)
def test_real_signal_and_real_generator_give_real_coefficients(
        sigma, width, centre, kind):
    # a Hermitian fhat folded against a Hermitian spectrum on a grid
    # symmetric about 0 gives zeta(-y) = conj(zeta(y)) node by node, up to
    # the rounding of the mirrored nodes and of the DFT: 1e-13 relative
    gen = _generator(kind, sigma)
    res = project(_gaussian_signal(sigma, width, centre), gen, sigma, sigma,
                  grid=Grid(start=-sigma, stop=sigma, count=DGRID),
                  j_range=J_RANGE)
    coeffs = res.coeffs.coeffs
    assert np.max(np.abs(coeffs.imag)) <= 1e-13 * np.max(np.abs(coeffs))


@PROPERTY
@given(sigma=sigmas, width=widths, centre=centres, kind=generator_kinds,
       fractions=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
def test_best_error_does_not_rise_with_the_band_radius(
        sigma, width, centre, kind, fractions):
    # a wider band adds captured energy; each radius sums its own band, so
    # only rounding (1e-12 of the signal energy) may separate equal errors
    rhos = sorted(f * sigma for f in fractions)
    errors = best_approx_error_sq(_gaussian_signal(sigma, width, centre),
                                  _generator(kind, sigma), sigma, rhos,
                                  grid=Grid(start=-sigma, stop=sigma, count=DGRID))
    assert np.all(np.diff(errors) <= 1e-12 * width * math.sqrt(math.pi))
