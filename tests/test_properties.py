"""Invariants of the shift space as property tests (hypothesis).

Signals are Gaussians exp(-(x-c)^2 / (2 w^2)) given by their exact spectrum
(w / sqrt(2 pi)) e^{-w^2 y^2 / 2} e^{-i y c} on the aligned extension of a
257-node period grid, wide enough that the cut-off spectrum is below 1e-15.
Generators are B-splines of degree 1-3 and Gaussians.  The band-split
test also takes a Gaussian of width 12, whose D falls below the division
guard near the seam, the lattice's sinc, whose jump on the seam caps the
seam nodes' mass, and a sinc of half the lattice's band, whose D is zero
beyond it.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftapprox.generator import bandlimited_generator, gaussian_generator
from shiftapprox.numerics import Grid, SampledSpectrum, period_extension
from shiftapprox.shiftspace import (_energy_split, best_approx_error_sq, project,
                                    zeta_transform)

from helpers import reference_coeffs, reference_energy_split, spline

DGRID = 257
J_RANGE = 16
PROPERTY = settings(max_examples=25, deadline=None)

sigmas = st.sampled_from([0.5, 1.0, 2.0])
widths = st.floats(0.6, 1.5)
centres = st.floats(-3.0, 3.0)
generator_kinds = st.sampled_from(["m1", "m2", "m3", "gauss"])
#: 0, or of size 1e-100 to 2: products with spectrum values stay normal
linear_scalars = st.one_of(st.just(0.0), st.floats(1e-100, 2.0), st.floats(-2.0, -1e-100))


def _generator(kind: str, sigma: float):
    return gaussian_generator(1.0) if kind == "gauss" else spline(int(kind[1]), sigma)


def _gaussian_signal(sigma: float, width: float, centre: float,
                     cover_width: float = math.inf) -> SampledSpectrum:
    # the grid also covers the wider spectrum of a Gaussian of cover_width
    windows = int(math.ceil((8.5 / (min(width, cover_width) * sigma) - 1.0) / 2.0))
    grid = period_extension(sigma, DGRID, windows)
    y = grid.nodes()
    values = ((width / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * (width * y) ** 2)
              * np.exp(-1j * y * centre))
    return SampledSpectrum(grid=grid, values=values)


@PROPERTY
@given(sigma=sigmas, width=widths, centre=centres, kind=generator_kinds)
def test_shift_by_one_step_moves_every_coefficient_up_one_index(
        sigma, width, centre, kind):
    # f(. - pi/sigma) has spectrum fhat e^{-i y pi/sigma}, and every fold
    # node, the two seam nodes included, carries that phase exactly to
    # rounding: no spectrum here declares a jump on the seam, so the fold
    # is raw.  Over 550 random draws the worst coefficient move was 6.4e-16
    # of max|beta| and the worst error move 5.3e-16 of ||f||^2 (1.3e-6 and
    # 4.4e-7 in 400 draws while the seam nodes were extrapolated): 1e-13
    # leaves a hundredfold margin.
    gen = _generator(kind, sigma)
    fs = _gaussian_signal(sigma, width, centre)
    shifted = SampledSpectrum(
        grid=fs.grid, values=fs.values * np.exp(-1j * fs.grid.nodes() * np.pi / sigma))
    grid = Grid(start=-sigma, stop=sigma, count=DGRID)
    base = project(fs, gen, sigma, sigma, grid=grid, j_range=J_RANGE)
    moved = project(shifted, gen, sigma, sigma, grid=grid, j_range=J_RANGE)
    before, after = base.coeffs.coeffs, moved.coeffs.coeffs
    assert np.max(np.abs(after[1:] - before[:-1])) <= 1e-13 * np.max(np.abs(before))
    norm_sq = width * math.sqrt(math.pi)
    assert abs(moved.error_sq - base.error_sq) <= 1e-13 * norm_sq


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


@PROPERTY
@given(sigma=sigmas, widths=st.tuples(widths, widths),
       centres=st.tuples(centres, centres), kind=generator_kinds,
       scalars=st.lists(linear_scalars, min_size=4, max_size=4))
def test_zeta_is_linear_in_the_signal(sigma, widths, centres, kind, scalars):
    # fold, division by D and the seam extrapolation (where a jump is
    # declared) are all linear in f-hat, so zeta(a F + b G) = a zeta(F) +
    # b zeta(G) node by node up to rounding: at most 4e-15 of the operands'
    # size over 300 random draws.
    # Each scalar is 0 or at least 1e-100 in size: nearer 0 the products
    # a F and a zeta(F) go subnormal and lose bits the program never had
    gen = _generator(kind, sigma)
    grid = Grid(start=-sigma, stop=sigma, count=DGRID)
    f, g = (_gaussian_signal(sigma, w, c, cover_width=min(widths))
            for w, c in zip(widths, centres))
    a, b = complex(*scalars[:2]), complex(*scalars[2:])
    both = SampledSpectrum(grid=f.grid, values=a * f.values + b * g.values)
    zeta_f, zeta_g, zeta_both = (zeta_transform(s, gen, sigma, grid).values
                                 for s in (f, g, both))
    size = abs(a) * np.max(np.abs(zeta_f)) + abs(b) * np.max(np.abs(zeta_g))
    assert np.max(np.abs(zeta_both - (a * zeta_f + b * zeta_g))) <= 1e-13 * size


@PROPERTY
@given(sigma=sigmas, width=widths, centre=centres,
       degree=st.sampled_from([1, 2, 3]), c=st.sampled_from([0.5, 2.0, 3.0]))
def test_best_error_scales_with_a_dilation(sigma, width, centre, degree, c):
    # f(c x) against the splines of lattice c sigma is f against those of
    # sigma dilated by 1/c, so the squared error is 1/c times as large.  The
    # error is a difference of two totals of size ||f||^2 (ROADMAP item 3),
    # so rounding of ||f||^2 floors the relative agreement: over 1500 draws
    # the worst was 3.2e-12 relative on a 2.6e-4 error, 6.5e-16 of ||f||^2.
    # f-hat comes on a cover holding all but 1e-15 of it: given as a
    # Generator, f would be cut off by shiftspace's window rule, which is
    # not dilation invariant
    def error(scale: float) -> float:
        s = scale * sigma
        return best_approx_error_sq(
            _gaussian_signal(s, width / scale, centre / scale),
            spline(degree, s), s, s, grid=Grid(start=-s, stop=s, count=DGRID))
    base, dilated = error(1.0), error(c)
    norm_sq = width * math.sqrt(math.pi)
    assert abs(c * dilated - base) <= 1e-12 * base + 1e-14 * norm_sq


@PROPERTY
@given(sigma=sigmas, width=widths, centre=centres,
       generator_width=st.floats(0.8, 1.5))
def test_project_is_idempotent(sigma, width, centre, generator_width):
    # the projection P f has spectrum zeta B-hat; folded over the windows
    # of f it has bracket zeta D_W, with D_W the generator's energy on
    # those windows, so projecting it again returns zeta D_W / D.  A
    # Gaussian generator holds all but e^-72 of D on a cover that holds
    # both spectra to 8.5 widths, so P(P f) = P f to rounding: 4.3e-16 of
    # max|beta| over 300 draws.  (A spline's D_W falls short of D by its
    # algebraic tail, (2W+1)^(-2m-1).)  The error of P f is at rounding
    # level too, 2.5e-16 of ||f||^2 at worst over 550 draws: the fold is
    # raw, where extrapolating the seam nodes' energy and bracket
    # separately left up to 6.2e-7 in 400 draws
    gen = gaussian_generator(generator_width)
    fs = _gaussian_signal(sigma, width, centre,
                          cover_width=min(width, generator_width))
    grid = Grid(start=-sigma, stop=sigma, count=DGRID)
    once = project(fs, gen, sigma, sigma, grid=grid, j_range=J_RANGE)
    # zeta is 2 sigma-periodic: window k of the cover reads it again
    periodic = once.zeta.values[np.arange(fs.grid.count) % (DGRID - 1)]
    image = SampledSpectrum(grid=fs.grid,
                            values=periodic * gen.spectrum(fs.grid.nodes()))
    twice = project(image, gen, sigma, sigma, grid=grid, j_range=J_RANGE)
    beta = once.coeffs.coeffs
    assert np.max(np.abs(twice.coeffs.coeffs - beta)) <= 1e-14 * np.max(np.abs(beta))
    assert twice.error_sq <= 1e-13 * width * math.sqrt(math.pi)


@PROPERTY
@given(sigma=sigmas, width=widths, centre=centres, kind=generator_kinds,
       fraction=st.floats(0.01, 1.0))
def test_projection_obeys_the_bessel_bound(sigma, width, centre, kind, fraction):
    # the projection onto a closed subspace has at most the energy of f:
    # projection_norm_sq <= ||f||^2 = w sqrt(pi), up to rounding
    res = project(_gaussian_signal(sigma, width, centre), _generator(kind, sigma),
                  sigma, fraction * sigma,
                  grid=Grid(start=-sigma, stop=sigma, count=DGRID), j_range=J_RANGE)
    assert res.projection_norm_sq <= width * math.sqrt(math.pi) * (1.0 + 1e-13)


@st.composite
def _band_radii(draw):
    """An odd period grid of 9 to 513 nodes and 1 to 24 radii on it, drawn
    below one step, on nodes, at sigma and anywhere in (0, sigma], with
    repeats, in any order."""
    sigma = draw(sigmas)
    dgrid = 2 * draw(st.integers(4, 256)) + 1
    grid = Grid(start=-sigma, stop=sigma, count=dgrid)
    nodes = grid.nodes()
    radius = st.one_of(
        st.floats(1e-3, 1.0).map(lambda u: u * grid.step),
        st.integers(dgrid // 2 + 1, dgrid - 1).map(lambda i: float(nodes[i])),
        st.just(sigma),
        st.floats(1e-3, 1.0).map(lambda u: u * sigma))
    rhos = draw(st.lists(radius, min_size=1, max_size=24))
    rhos += draw(st.lists(st.sampled_from(rhos), max_size=4))
    return sigma, grid, draw(st.permutations(rhos))[:24]


@PROPERTY
@given(case=_band_radii(), width=widths, centre=centres,
       kind=st.sampled_from(["m1", "m3", "gauss", "gauss-wide", "sinc",
                             "sinc-half"]))
# on 9 nodes the sinc's extrapolated seam nodes hold more captured mass
# than energy, 2.98 times (and with no energy at all), and are capped
@example(case=(2.0, Grid(start=-2.0, stop=2.0, count=9), [2.0, 1.0, 2.0]),
         width=0.7, centre=1.5, kind="sinc")
@example(case=(2.0, Grid(start=-2.0, stop=2.0, count=9), [2.0, 0.3]),
         width=1.0, centre=0.0, kind="sinc")
def test_every_radius_of_one_split_is_the_radius_by_radius_reference(
        case, width, centre, kind):
    # one vectorised split of all radii must read, to the bit, what a loop
    # over the radii with one band mask and one sub-grid per radius reads
    sigma, grid, rhos = case
    gen = {"gauss-wide": gaussian_generator(12.0),
           "sinc": bandlimited_generator(sigma),
           "sinc-half": bandlimited_generator(0.5 * sigma)}.get(kind)
    gen = gen or _generator(kind, sigma)
    fs = _gaussian_signal(sigma, width, centre)
    reference = reference_energy_split(fs, gen, sigma, rhos, grid)
    errors = best_approx_error_sq(fs, gen, sigma, rhos, grid=grid)
    assert errors.tolist() == [split[2] for split in reference]
    j_range = (grid.count - 1) // 8
    for rho, (active, norm_sq, error_sq, guard_mass, zeta) in zip(rhos, reference):
        _, split = _energy_split(fs, gen, sigma, (rho,), 1e-8, grid)
        assert np.array_equal(split.active[0], active)
        res = project(fs, gen, sigma, rho, grid=grid, j_range=j_range)
        coeffs, defect = reference_coeffs(zeta, grid, sigma, rho, j_range)
        assert np.array_equal(res.zeta.values, zeta)
        assert (res.projection_norm_sq, res.error_sq, res.guard_mass) == (
            norm_sq, error_sq, guard_mass)
        assert np.array_equal(res.coeffs.coeffs, coeffs)
        assert res.coeffs.vanishing_defect == defect
