"""Transform round trips, Plancherel identities, projection, best error.

Reference values come from the time-domain quadrature oracles in helpers
(knot-aligned Simpson, midpoint sums, windowed Richardson) and from closed
forms; none reuse the folded-spectrum pipeline under test.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from shiftapprox.errors import (GridMismatchError, InvalidGridError,
                                MissingTimeDomainError, ResolutionError)
from shiftapprox.generator import (Generator, gaussian_generator,
                                   generator_l2_norm_sq, spectrum_generator)
from shiftapprox.numerics import Grid, SampledFunction, SampledSpectrum, \
    make_uniform_grid, period_extension
from shiftapprox.oracle import _shift_inner_products
from shiftapprox.shiftspace import (ShiftExpansion, ZetaFunction,
                                    _band_weights, _fold,
                                    best_approx_error_sq,
                                    coeffs_from_zeta,
                                    plancherel_inner, plancherel_norm_sq,
                                    project, synthesize, zeta_of_coeffs,
                                    zeta_transform)
from shiftapprox.spectral import periodize

from helpers import (analytic_gaussian_spectrum, band_member_spectrum,
                     bump_spectrum_signal, direct_coeffs,
                     expansion_time_products,
                     random_expansion, sinc_gen, spectrum_norm_sq, spline,
                     time_norm_sq)

PERIOD_GRID = Grid(start=-1.0, stop=1.0, count=4097)


def test_expansion_validation():
    with pytest.raises(ValueError):
        ShiftExpansion(sigma=0.0, rho=1.0, coeffs=np.ones(3))
    with pytest.raises(ValueError):
        ShiftExpansion(sigma=1.0, rho=1.5, coeffs=np.ones(3))
    with pytest.raises(ValueError):
        ShiftExpansion(sigma=1.0, rho=1.0, coeffs=np.ones(4))


def test_zeta_of_single_shifts():
    y = PERIOD_GRID.nodes()
    delta0 = ShiftExpansion(sigma=1.0, rho=1.0, coeffs=np.array([1.0 + 0j]))
    assert np.max(np.abs(zeta_of_coeffs(delta0, PERIOD_GRID).values - 1.0)) == 0.0

    delta1 = ShiftExpansion(sigma=1.0, rho=1.0,
                            coeffs=np.array([0.0, 0.0, 1.0 + 0j]))
    ref = np.exp(-1j * math.pi * y)
    assert np.max(np.abs(zeta_of_coeffs(delta1, PERIOD_GRID).values - ref)) < 1e-14

    zero = ShiftExpansion(sigma=1.0, rho=1.0, coeffs=np.zeros(5, dtype=complex))
    assert np.all(zeta_of_coeffs(zero, PERIOD_GRID).values == 0.0)


def test_zero_set_validation():
    vals = np.ones(PERIOD_GRID.count, dtype=complex)
    with pytest.raises(ValueError):
        ZetaFunction(sigma=1.0, rho=0.5, grid=PERIOD_GRID, values=vals,
                     zero_set_enforced=True)


def test_coefficient_round_trip_is_exact_on_the_full_band():
    rng = np.random.default_rng(11)
    exp = random_expansion(rng, 1.0, 6)
    zeta = zeta_of_coeffs(exp, PERIOD_GRID)
    back = coeffs_from_zeta(zeta, 10)
    # indices beyond the original range must come back as zero
    assert np.max(np.abs(back.coeffs[4:17] - exp.coeffs)) < 1e-13
    assert np.max(np.abs(back.coeffs[:4])) < 1e-13
    assert np.max(np.abs(back.coeffs[17:])) < 1e-13
    assert back.vanishing_defect == 0.0


def test_coefficient_recovery_needs_resolution():
    grid = Grid(start=-1.0, stop=1.0, count=65)
    zeta = ZetaFunction(sigma=1.0, rho=1.0, grid=grid,
                        values=np.ones(65, dtype=complex))
    with pytest.raises(ResolutionError):
        coeffs_from_zeta(zeta, 16)


@pytest.mark.parametrize("sigma,count,rho,j_range", [
    (1.0, 4097, 1.0, 64),
    (1.0, 4097, 0.37, 64),
    (2.0, 1001, 2.0, 100),     # period length 1000: not a power of two
    (0.5, 65, 0.5, 8),
])
def test_coefficient_dft_matches_direct_sum(sigma, count, rho, j_range):
    grid = Grid(start=-sigma, stop=sigma, count=count)
    rng = np.random.default_rng(count)
    raw = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    outside = np.abs(grid.nodes()) > rho * (1.0 + 1e-12)
    zeta = ZetaFunction(sigma=sigma, rho=rho, grid=grid,
                        values=np.where(outside, 0.0, raw),
                        zero_set_enforced=True)
    fast = coeffs_from_zeta(zeta, j_range).coeffs
    weighted = _band_weights(grid, rho) * zeta.values
    ref = direct_coeffs(weighted, grid, sigma, j_range)
    # the direct sum's phase rounding at the largest |j pi y / sigma|
    envelope = (np.finfo(float).eps * math.pi * j_range
                * np.sum(np.abs(weighted)) / (2.0 * sigma))
    assert np.max(np.abs(fast - ref)) <= envelope


def test_coefficient_recovery_needs_a_period_grid():
    grid = Grid(start=-0.5, stop=1.0, count=257)
    zeta = ZetaFunction(sigma=1.0, rho=1.0, grid=grid,
                        values=np.ones(257, dtype=complex))
    with pytest.raises(InvalidGridError):
        coeffs_from_zeta(zeta, 4)


def test_vanishing_defect_on_a_proper_band():
    rng = np.random.default_rng(23)
    exp = random_expansion(rng, 1.0, 3, rho=0.5)
    zeta = zeta_of_coeffs(exp, PERIOD_GRID)
    back = coeffs_from_zeta(zeta, 3)
    # independent route: full-period mass of the recovered trig sum minus a
    # fine trapezoid over the retained band
    full = ShiftExpansion(sigma=1.0, rho=1.0, coeffs=back.coeffs)
    total = 2.0 * np.sum(np.abs(back.coeffs) ** 2)
    band = make_uniform_grid(-0.5, 0.5, 200_001)
    trig = zeta_of_coeffs(full, band).values
    inner = np.trapezoid(np.abs(trig) ** 2, dx=band.step)
    want = math.sqrt(max(total - inner, 0.0))
    assert back.vanishing_defect == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_synthesize_single_shift_reproduces_generator():
    gen = spline(2, 1.0)
    grid = make_uniform_grid(-12.0, 12.0, 1201)
    x = grid.nodes()
    delta0 = ShiftExpansion(sigma=1.0, rho=1.0, coeffs=np.array([1.0 + 0j]))
    assert np.max(np.abs(synthesize(delta0, gen, grid).values
                         - gen.time_domain(x))) < 1e-14
    delta1 = ShiftExpansion(sigma=1.0, rho=1.0,
                            coeffs=np.array([0.0, 0.0, 1.0 + 0j]))
    assert np.max(np.abs(synthesize(delta1, gen, grid).values
                         - gen.time_domain(x - math.pi))) < 1e-14


def test_synthesize_requires_time_domain():
    gen = spectrum_generator(analytic_gaussian_spectrum(1.0))
    exp = ShiftExpansion(sigma=1.0, rho=1.0, coeffs=np.array([1.0 + 0j]))
    with pytest.raises(MissingTimeDomainError):
        synthesize(exp, gen, make_uniform_grid(-1.0, 1.0, 11))


def test_plancherel_norm_matches_time_quadrature_for_splines():
    rng = np.random.default_rng(31)
    for m in (1, 2):
        gen = spline(m, 1.0)
        exp = random_expansion(rng, 1.0, 5)
        want = expansion_time_products(gen, 1.0, exp).real
        dv = periodize(gen, 1.0, PERIOD_GRID, tol=1e-12)
        got = plancherel_norm_sq(zeta_of_coeffs(exp, PERIOD_GRID), dv)
        assert got == pytest.approx(want, rel=1e-9), m


def test_plancherel_norm_matches_time_quadrature_for_sinc():
    rng = np.random.default_rng(37)
    gen = sinc_gen(1.0)
    exp = random_expansion(rng, 1.0, 4)
    want = expansion_time_products(gen, 1.0, exp).real
    dv = periodize(gen, 1.0, PERIOD_GRID, tol=1e-12)
    got = plancherel_norm_sq(zeta_of_coeffs(exp, PERIOD_GRID), dv)
    assert got == pytest.approx(want, rel=1e-6)


def test_plancherel_inner_matches_time_quadrature_and_is_hermitian():
    rng = np.random.default_rng(41)
    gen = spline(2, 1.0)
    exp_a = random_expansion(rng, 1.0, 4)
    exp_b = random_expansion(rng, 1.0, 6)
    want = expansion_time_products(gen, 1.0, exp_a, exp_b)
    dv = periodize(gen, 1.0, PERIOD_GRID, tol=1e-12)
    za = zeta_of_coeffs(exp_a, PERIOD_GRID)
    zb = zeta_of_coeffs(exp_b, PERIOD_GRID)
    got = plancherel_inner(za, zb, dv)
    assert abs(got - want) < 1e-9 * abs(want)
    assert abs(plancherel_inner(zb, za, dv) - np.conj(got)) < 1e-12


def test_plancherel_grid_mismatch_rejected():
    other = Grid(start=-1.0, stop=1.0, count=2049)
    gen = spline(1, 1.0)
    dv = periodize(gen, 1.0, PERIOD_GRID, tol=1e-10)
    exp = ShiftExpansion(sigma=1.0, rho=1.0, coeffs=np.array([1.0 + 0j]))
    za = zeta_of_coeffs(exp, other)
    with pytest.raises(GridMismatchError):
        plancherel_norm_sq(za, dv)
    with pytest.raises(GridMismatchError):
        plancherel_inner(za, zeta_of_coeffs(exp, PERIOD_GRID), dv)


def test_zeta_transform_recovers_member_symbol():
    # the cover of the member spectrum must reach as deep as the lattice
    # truncation of D, else the fold returns zeta scaled by D_K / D_n;
    # degree 2 decays fast enough that 20 windows leave < 1e-9 of that
    rng = np.random.default_rng(43)
    gen = spline(2, 1.0)
    exp = random_expansion(rng, 1.0, 3)
    fs = band_member_spectrum(gen, 1.0, exp.coeffs, windows=20)
    zeta = zeta_transform(fs, gen, 1.0, PERIOD_GRID)
    ref = zeta_of_coeffs(exp, PERIOD_GRID).values
    # boundary nodes carry the endpoint regularization of D; compare inside
    err = np.abs(zeta.values[1:-1] - ref[1:-1])
    assert np.max(err) < 1e-8 * np.max(np.abs(ref))


def test_projection_recovers_member():
    rng = np.random.default_rng(47)
    gen = spline(2, 1.0)
    exp = random_expansion(rng, 1.0, 4)
    fs = band_member_spectrum(gen, 1.0, exp.coeffs, windows=20)
    norm_sq = spectrum_norm_sq(fs)
    res = project(fs, gen, 1.0, rho=1.0, j_range=8)
    scale = np.max(np.abs(exp.coeffs))
    assert np.max(np.abs(res.coeffs.coeffs[4:13] - exp.coeffs)) < 1e-8 * scale
    assert np.max(np.abs(res.coeffs.coeffs[:4])) < 1e-8 * scale
    assert np.max(np.abs(res.coeffs.coeffs[13:])) < 1e-8 * scale
    assert res.error_sq <= 1e-8 * norm_sq
    assert res.guard_mass == 0.0


@pytest.mark.parametrize("m,q", [(2, 32), (3, 16)])
def test_projection_recovers_knot_aligned_time_sampled_members(m, q):
    # a member sampled at step h/q resolves the band 0.45 pi q/h only: the
    # transform's Simpson copy at +-pi q/h and its full alias at +-2 pi q/h
    # must stay out of the fold, or they read as energy outside the space
    sigma, h = 1.0, math.pi
    gen = spline(m, sigma)
    beta = random_expansion(np.random.default_rng(31 + m), sigma, 3).coeffs
    lo, hi = -(3 + m + 2) * h, 4 * h
    tg = make_uniform_grid(lo, hi, int(round((hi - lo) / h)) * q + 1)
    f = synthesize(ShiftExpansion(sigma=sigma, rho=sigma, coeffs=beta), gen, tg)
    norm_sq = time_norm_sq(f)
    res = project(f, gen, sigma, rho=sigma, grid=Grid(-sigma, sigma, 129),
                  j_range=8)
    assert res.error_sq <= 1e-5 * norm_sq
    # Simpson on the sample grid and the 129-node fold leave ~1e-5 relative
    scale = np.max(np.abs(beta))
    coeffs = res.coeffs.coeffs
    assert np.max(np.abs(coeffs[5:12] - beta)) <= 1e-4 * scale
    assert np.max(np.abs(np.r_[coeffs[:5], coeffs[12:]])) <= 1e-4 * scale


def test_projection_keeps_exact_sinc_members_in_the_space():
    # the seam nodes y = +-sigma extrapolate bracket, energy and D
    # separately; their captured mass must still not exceed their energy
    # (seeds 141 and 160 used to raise "captured energy exceeds input")
    gen = sinc_gen(1.0)
    grid = Grid(start=-1.0, stop=1.0, count=1025)
    y = grid.nodes()
    for seed in range(140, 162):
        exp = random_expansion(np.random.default_rng(seed), 1.0, 3)
        fs = SampledSpectrum(grid=grid, values=zeta_of_coeffs(exp, grid).values
                             * gen.spectrum(y))
        res = project(fs, gen, 1.0, rho=1.0, grid=grid, j_range=16)
        assert res.error_sq <= 1e-8 * spectrum_norm_sq(fs)


def test_projection_recovers_bandlimited_member():
    # compactly supported spectrum: the lattice sums truncate exactly, so
    # recovery is limited only by the period-seam extrapolation residue
    rng = np.random.default_rng(49)
    gen = sinc_gen(1.0)
    exp = random_expansion(rng, 1.0, 4)
    fs = band_member_spectrum(gen, 1.0, exp.coeffs, windows=2)
    res = project(fs, gen, 1.0, rho=1.0, j_range=8)
    scale = np.max(np.abs(exp.coeffs))
    assert np.max(np.abs(res.coeffs.coeffs[4:13] - exp.coeffs)) < 1e-9 * scale
    assert res.error_sq <= 1e-9 * spectrum_norm_sq(fs)


def test_projection_annihilates_the_orthogonal_complement():
    sigma = 1.0
    gen = sinc_gen(sigma)
    fs = analytic_gaussian_spectrum(sigma, windows=4)
    y = fs.grid.nodes()
    # smooth compactly supported bump on [sigma, 3 sigma]: every lattice
    # translate misses the generator band, so the projection must vanish
    t = (y - 2.0 * sigma) / sigma
    inside = np.abs(t) < 1.0
    vals = np.zeros(y.size, dtype=complex)
    vals[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    fs = SampledSpectrum(grid=fs.grid, values=vals)

    bump_mass, quad_err = scipy.integrate.quad(
        lambda u: math.exp(-2.0 / (1.0 - u * u)), -1.0, 1.0)
    want = 2.0 * math.pi * sigma * bump_mass
    assert quad_err < 1e-8 * bump_mass

    res = project(fs, gen, sigma, rho=sigma, j_range=8)
    assert res.projection_norm_sq <= 1e-8 * want
    assert res.error_sq == pytest.approx(want, rel=1e-6)


def test_projection_pythagoras_against_time_norms():
    sigma = 1.0
    gen = spline(2, sigma)
    fs = analytic_gaussian_spectrum(sigma, windows=4)
    norm_sq = math.sqrt(math.pi)  # closed form for the unit-width Gaussian
    res = project(fs, gen, sigma, rho=sigma, j_range=16)
    proj_time = expansion_time_products(gen, sigma, res.coeffs).real
    assert proj_time == pytest.approx(res.projection_norm_sq, rel=1e-6)
    assert proj_time + res.error_sq == pytest.approx(norm_sq, rel=1e-8)


def test_projection_is_idempotent():
    sigma = 1.0
    gen = spline(2, sigma)
    first = project(analytic_gaussian_spectrum(sigma), gen, sigma,
                    rho=sigma, j_range=12)
    beta = first.coeffs.coeffs
    member = band_member_spectrum(gen, sigma, beta, windows=20)
    second = project(member, gen, sigma, rho=sigma, j_range=12)
    scale = np.max(np.abs(beta))
    assert np.max(np.abs(second.coeffs.coeffs - beta)) < 1e-8 * scale
    assert second.error_sq <= 1e-8 * spectrum_norm_sq(member)


def test_projection_residual_is_orthogonal_to_every_shift():
    sigma = 1.0
    gen = spline(2, sigma)
    fs = analytic_gaussian_spectrum(sigma)
    res = project(fs, gen, sigma, rho=sigma, j_range=16)
    # quadrature window wide enough that every retained shift is fully
    # integrated; knot-aligned step so the spline kinks sit on panel edges
    q = 1024
    radius = 19.0 * math.pi
    grid = make_uniform_grid(-radius, radius, 38 * q + 1)
    x = grid.nodes()
    f = SampledFunction(grid=grid, values=np.exp(-0.5 * x * x) + 0.0j)
    approx = synthesize(res.coeffs, gen, grid)
    residual = SampledFunction(grid=grid, values=f.values - approx.values)
    inners = _shift_inner_products(residual, gen, sigma, 16)
    bound = 1e-6 * math.pi ** 0.25 * math.sqrt(generator_l2_norm_sq(gen, sigma))
    assert np.max(np.abs(inners)) < bound


def test_error_is_monotone_in_the_band_radius():
    sigma = 1.0
    gen = spline(1, sigma)
    fs = analytic_gaussian_spectrum(sigma)
    errors = [best_approx_error_sq(fs, gen, sigma, rho)
              for rho in (0.25, 0.5, 0.75, 1.0)]
    for wide, narrow in zip(errors[1:], errors[:-1]):
        assert wide <= narrow + 1e-10


def test_best_error_agrees_with_projection():
    # one energy split serves both, for a spectrum and for time samples,
    # for one radius and for a sweep of radii
    rng = np.random.default_rng(53)
    sigma = 1.0
    gen = spline(2, sigma)
    fs = bump_spectrum_signal(rng, sigma)
    grid = make_uniform_grid(-8.0, 8.0, 513)
    x = grid.nodes()
    ft = SampledFunction(grid=grid, values=np.exp(-0.5 * (x - 0.3) ** 2)
                         * np.exp(0.7j * x))
    for f in (fs, ft):
        direct = [best_approx_error_sq(f, gen, sigma, rho) for rho in (0.5, 1.0)]
        via = [project(f, gen, sigma, rho=rho, j_range=8).error_sq
               for rho in (0.5, 1.0)]
        assert all(type(err) is float for err in direct)
        assert direct == via
        swept = best_approx_error_sq(f, gen, sigma, [0.5, 1.0])
        assert isinstance(swept, np.ndarray) and swept.shape == (2,)
        assert swept.tolist() == direct


def test_fold_of_the_generator_with_itself_is_the_periodization():
    # bracket(B, B) = sum_k |B^(y + 2 k sigma)|^2 = D: folding B's own
    # aligned spectrum over D's truncation order gives the direct lattice
    # sum, and D exceeds it only by its tail correction, which the
    # envelope tail bound dominates
    sigma = 1.0
    grid = Grid(start=-sigma, stop=sigma, count=257)
    y = grid.nodes()[1:-1]
    for gen in (spline(2, sigma), sinc_gen(sigma)):
        order = periodize(gen, sigma, grid).truncation_order
        full = period_extension(sigma, grid.count, order)
        fs = SampledSpectrum(grid=full, values=gen.spectrum(full.nodes()))
        fold = _fold(fs, gen, sigma, grid, tol=1e-8)
        assert fold.density.truncation_order == order
        direct = sum(np.abs(gen.spectrum(y + 2.0 * sigma * k)) ** 2
                     for k in range(-order, order + 1))
        b = fold.bracket[1:-1]
        scale = np.max(direct)
        assert np.max(np.abs(b.imag)) <= 1e-15 * scale
        assert np.max(np.abs(b.real - direct)) <= 1e-14 * scale, gen.label
        correction = fold.density.values[1:-1] - b.real
        assert np.min(correction) >= -1e-14 * scale
        assert np.max(correction) <= fold.density.tail_bound + 1e-14 * scale
        if gen.spectral_support is not None:
            assert fold.density.tail_bound == 0.0


def test_folded_bracket_is_cauchy_schwarz_dominated():
    # |sum_k conj(B^) fhat|^2 <= sum_k |B^|^2 * sum_k |fhat|^2 <= D * energy
    # node by node, aligned (2049 nodes) or interpolated (257 nodes)
    rng = np.random.default_rng(61)
    sigma = 1.0
    for gen in (spline(1, sigma), gaussian_generator(0.7)):
        fs = bump_spectrum_signal(rng, sigma)
        for count in (2049, 257):
            grid = Grid(start=-sigma, stop=sigma, count=count)
            fold = _fold(fs, gen, sigma, grid, tol=1e-8)
            cross = np.abs(fold.bracket[1:-1]) ** 2
            bound = fold.density.values[1:-1] * fold.energy[1:-1]
            assert np.all(cross <= bound * (1.0 + 1e-12)), (gen.label, count)
            assert np.max(cross) > 1e-3 * np.max(bound)


def test_closed_form_error_for_bandlimited_generator():
    # sinc shifts capture exactly the band |y| <= rho of the Gaussian:
    # E^2(rho) = 2 pi * int_{|y|>rho} |fhat|^2 = sqrt(pi) * erfc(rho)
    sigma = 1.0
    gen = sinc_gen(sigma)
    fs = analytic_gaussian_spectrum(sigma)
    for rho in (0.25, 0.5, 1.0):
        want = math.sqrt(math.pi) * math.erfc(rho)
        got = best_approx_error_sq(fs, gen, sigma, rho)
        assert got == pytest.approx(want, rel=1e-6), rho


def test_division_guard_reports_discarded_mass():
    sigma = 1.0
    floor = 1e-6

    def spec(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        band = (np.abs(y) >= 0.5) & (np.abs(y) <= 1.0)
        return np.where(band, 1.0, np.where(np.abs(y) <= 1.0, floor, 0.0)) + 0.0j

    gen = Generator(label="floored-bandpass", spectrum=spec,
                    decay_exponent=2.0, decay_constant=2.0,
                    spectral_support=1.0)
    fs = analytic_gaussian_spectrum(sigma)
    res = project(fs, gen, sigma, rho=sigma, j_range=8)
    # inner half of the band sits at D ~ floor^2 below the division guard
    assert res.guard_mass > 0.0
    assert np.isfinite(res.projection_norm_sq)
    assert np.isfinite(res.error_sq)
    assert res.projection_norm_sq <= spectrum_norm_sq(fs) * (1.0 + 1e-9)
    assert np.all(np.isfinite(res.zeta.values))


def test_band_radius_validation():
    gen = spline(1, 1.0)
    fs = analytic_gaussian_spectrum(1.0)
    for rho in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidGridError):
            project(fs, gen, 1.0, rho=rho)
        with pytest.raises(InvalidGridError):
            best_approx_error_sq(fs, gen, 1.0, rho)
        with pytest.raises(InvalidGridError):
            best_approx_error_sq(fs, gen, 1.0, [0.5, rho])


def test_base_grid_must_span_the_period():
    gen = spline(1, 1.0)
    fs = analytic_gaussian_spectrum(1.0)
    bad = Grid(start=-0.5, stop=0.5, count=257)
    with pytest.raises(InvalidGridError):
        project(fs, gen, 1.0, rho=0.5, grid=bad)
