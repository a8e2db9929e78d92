"""Transform round trips, Plancherel identities, projection, best error.

Reference values come from the time-domain quadrature oracles in helpers
(knot-aligned Simpson, midpoint sums, windowed Richardson) and from closed
forms; none reuse the folded-spectrum pipeline under test.
"""

import hashlib
import math
from collections import OrderedDict

import numpy as np
import pytest
import scipy.integrate

from shiftapprox.errors import (GridMismatchError, InvalidGridError,
                                MissingTimeDomainError, ResolutionError)
from shiftapprox.generator import (Generator, gaussian_generator,
                                   generator_l2_norm_sq, parse_generator_spec,
                                   spectrum_generator)
from shiftapprox import numerics, shiftspace, spectral
from shiftapprox.numerics import Grid, SampledFunction, SampledSpectrum, \
    fourier_transform_sampled, make_uniform_grid, period_extension, \
    read_samples_csv, resolved_band, write_samples_csv
from shiftapprox.oracle import _shift_inner_products
from shiftapprox.shiftspace import (_MASS_TOL, ShiftExpansion, ZetaFunction,
                                    _band_rows, _fold, _on_extension,
                                    _spectrum_of,
                                    best_approx_error_sq,
                                    coeffs_from_zeta,
                                    plancherel_inner, plancherel_norm_sq,
                                    project, synthesize, zeta_of_coeffs,
                                    zeta_transform)
from shiftapprox.spectral import envelope_tail, lattice_order, periodize

from helpers import (analytic_gaussian_spectrum, band_member_spectrum,
                     bump_spectrum_signal, direct_coeffs, direct_fourier_sum,
                     expansion_time_products, fixed_gaussian_samples,
                     random_expansion, sinc_gen, spectrum_norm_sq, spline,
                     time_norm_sq, time_sample_shapes)

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
    weighted = _band_rows(grid, (rho,))[1][0] * zeta.values
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
    # the raw fold leaves 5.9e-10 at every node, the seam included (an
    # extrapolated seam bracket left 1.1e-8 there)
    err = np.abs(zeta.values - ref) / np.max(np.abs(ref))
    assert np.max(err) < 1e-9


def test_zeta_transform_reads_every_signal_as_project_does(tmp_path):
    # time samples, a spectrum file on the fold's own extension, a spectrum
    # off its nodes and an analytic f: each gives the values of project's
    # zeta at rho = sigma, bit for bit.  Time samples were once read as if
    # they were a spectrum, zeta(0) = 1.0 where project's is 0.39894
    gen, grid = spline(2, 1.0), Grid(-1.0, 1.0, 1025)
    x = np.linspace(-8.6, 8.6, 513)
    samples = SampledFunction(Grid(-8.6, 8.6, 513), np.exp(-0.5 * x * x) + 0j)
    path = tmp_path / "spectrum.csv"
    write_samples_csv(str(path), analytic_gaussian_spectrum(1.0, 4, 1024))
    aligned = read_samples_csv(str(path))
    assert aligned.grid == period_extension(1.0, grid.count, 4)
    unaligned = analytic_gaussian_spectrum(1.0, 4, 1000)
    for f in (samples, aligned, unaligned, gaussian_generator(1.0)):
        want = project(f, gen, 1.0, 1.0, grid=grid).zeta.values
        got = zeta_transform(f, gen, 1.0, grid).values
        assert got.tobytes() == want.tobytes(), type(f).__name__
    assert got[grid.count // 2] == pytest.approx(0.39894, abs=1e-5)


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
    # the seam nodes y = +-sigma extrapolate bracket and energy separately
    # and evaluate D; their captured mass must still not exceed their
    # energy (seeds 141 and 160 used to raise "captured energy exceeds
    # input")
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
    # recovery is limited only by the seam extrapolation of the bracket
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


def test_a_radius_sweep_builds_its_band_rows_once(monkeypatch):
    # every radius of a sweep splits in one `_band_rows` call, which reads
    # the period grid's nodes no more often than a single radius does; a
    # project at rho < sigma reads them at six sites (D, the split's band
    # rows, the zero-set check, the coefficients' band rows, the vanishing
    # defect and its trigonometric sum), all one array
    calls, arrays = {}, []
    band_rows, nodes = shiftspace._band_rows, Grid.nodes

    def counting_rows(*args):
        calls["rows"] += 1
        return band_rows(*args)

    def counting_nodes(self):
        calls["nodes"] += 1
        out = nodes(self)
        if self is grid:
            arrays.append(out)
        return out

    monkeypatch.setattr(shiftspace, "_band_rows", counting_rows)
    monkeypatch.setattr(Grid, "nodes", counting_nodes)
    f, gen = gaussian_generator(1.1), spline(2, 2.0)
    grid = Grid(start=-2.0, stop=2.0, count=257)

    def count(rho):
        calls.update(rows=0, nodes=0)
        best_approx_error_sq(f, gen, 2.0, rho, grid=grid)
        return dict(calls)

    one, sweep = count(1.3), count(np.linspace(0.1, 2.0, 16))
    assert one["rows"] == sweep["rows"] == 1
    assert sweep["nodes"] <= one["nodes"]
    arrays.clear()
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())  # D reads them too
    project(f, gen, 2.0, 1.3, grid=grid, j_range=8)
    assert len(arrays) == 6 and all(a is arrays[0] for a in arrays)


def test_a_time_sample_project_builds_each_extension_once(monkeypatch):
    # the fold reads the transform on the last extension it was taken on
    calls = []
    extension = shiftspace.period_extension

    def counting(*args):
        calls.append(args)
        return extension(*args)

    monkeypatch.setattr(shiftspace, "period_extension", counting)
    project(fixed_gaussian_samples(), spline(2, 1.0), 1.0, 0.6,
            grid=Grid(start=-1.0, stop=1.0, count=257), j_range=8)
    assert calls == [(1.0, 257, 1), (1.0, 257, 2), (1.0, 257, 4)]


@pytest.mark.parametrize("spec", ["gauss:width=1.1", "sinc"])
def test_an_analytic_project_builds_its_frequency_extension_once(spec, monkeypatch):
    # f-hat and B-hat are sampled on the nodes of the one extension the
    # fold builds
    calls = []
    extension = shiftspace.period_extension

    def counting(*args):
        calls.append(args)
        return extension(*args)

    monkeypatch.setattr(shiftspace, "period_extension", counting)
    f = parse_generator_spec(spec, default_sigma=1.0)
    project(f, spline(2, 1.0), 1.0, 0.6,
            grid=Grid(start=-1.0, stop=1.0, count=257), j_range=8)
    assert len(calls) == 1


#: period windows either side over which an analytic f-hat is sampled
#: against a degree-1 spline at the default tol 1e-8: its spectral support,
#: or the envelope orders of the bracket (|f^ B^|) and of f's energy
_ANALYTIC_WINDOWS = {("gauss:width=0.7", 1.0): 5, ("gauss:width=0.7", 2.0): 3,
                     ("gauss:width=1", 1.0): 4, ("gauss:width=1", 2.0): 2,
                     ("gauss:width=1.3", 1.0): 3, ("gauss:width=1.3", 2.0): 2,
                     ("sinc", 1.0): 0, ("sinc", 2.0): 0}

#: SHA-256 of the analytic sinc's fold on a degree-1 spline (`_fold_digest`
#: of its project at rho = sigma/2 and its besterr row), by (sigma, dgrid),
#: recorded when every fold extrapolated its seam nodes.  The sinc declares
#: its jump at sigma and keeps the extrapolation; its tabulation declares
#: nothing and folds raw, so the two no longer agree
_SINC_FOLD_DIGESTS = {
    (1.0, 257): "fbfed6f956bc43c64b4c9b6b0813bc693d7d002b923229269db871238acac783",
    (1.0, 1025): "aa872e9a2be04dbe9080eb9a7bb78ffc57099bf9284b255147f96b5ce8a8432b",
    (2.0, 257): "54dc707aa18360e903c3b88366bc7dedb1f04b41e745a1e5d65dd897c754d097",
    (2.0, 1025): "fd677bd35428de47caa66bd67c783b6ec2c504a8b242a31cd906b2032d16023e",
}


def _fold_digest(res, errors: np.ndarray) -> str:
    """SHA-256 of a projection's zeta and energies and a besterr row."""
    digest = hashlib.sha256(res.zeta.values.tobytes())
    digest.update(np.array([res.projection_norm_sq, res.error_sq,
                            res.guard_mass]).tobytes())
    digest.update(np.asarray(errors).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("dgrid", [257, 1025])
@pytest.mark.parametrize("spec,sigma", sorted(_ANALYTIC_WINDOWS))
def test_an_analytic_signal_folds_its_aligned_spectrum(spec, sigma, dgrid):
    # f given as a generator that declares no jump on the seam is the same
    # call on f-hat sampled on the aligned extension of the period grid,
    # bit for bit; the sinc, which declares one, keeps its recorded bytes
    f = parse_generator_spec(spec, default_sigma=sigma)
    gen = spline(1, sigma)
    grid = Grid(start=-sigma, stop=sigma, count=dgrid)
    rhos = [0.25 * sigma, 0.5 * sigma, sigma]
    got = project(f, gen, sigma, 0.5 * sigma, grid=grid, j_range=8)
    got_errors = best_approx_error_sq(f, gen, sigma, rhos, grid=grid)
    if f.spectral_support is not None:
        assert _fold_digest(got, got_errors) == _SINC_FOLD_DIGESTS[(sigma, dgrid)]
        return
    freq = period_extension(sigma, dgrid, _ANALYTIC_WINDOWS[(spec, sigma)])
    fs = SampledSpectrum(grid=freq, values=f.spectrum(freq.nodes()))
    want = project(fs, gen, sigma, 0.5 * sigma, grid=grid, j_range=8)
    assert np.array_equal(got.zeta.values, want.zeta.values)
    assert np.array_equal(got.coeffs.coeffs, want.coeffs.coeffs)
    assert ((got.projection_norm_sq, got.error_sq, got.guard_mass)
            == (want.projection_norm_sq, want.error_sq, want.guard_mass))
    assert np.array_equal(got_errors,
                          best_approx_error_sq(fs, gen, sigma, rhos, grid=grid))
    # the fewest windows whose bracket and energy envelope tails are both
    # at most tol
    windows = _ANALYTIC_WINDOWS[(spec, sigma)]
    c, p = f.decay_constant, f.decay_exponent
    tails = [(c * gen.decay_constant, p + gen.decay_exponent), (c * c, 2.0 * p)]
    assert all(envelope_tail(coef, q, sigma, windows) <= 1e-8
               for coef, q in tails)
    assert any(envelope_tail(coef, q, sigma, windows - 1) > 1e-8
               for coef, q in tails)


@pytest.mark.parametrize("b_spec", ["bspline:m=1", "bspline:m=2", "bspline:m=3",
                                    "gauss:width=1.3"])
@pytest.mark.parametrize("f_spec", ["samples", "gauss:width=1"])
def test_a_smooth_fold_is_spectrally_accurate(f_spec, b_spec):
    # no spectrum here declares a jump on the seam, so the fold is raw:
    # Simpson's rule on a smooth periodic integrand, which converges
    # spectrally.  At 129 and 257 nodes the error is the 16 385-node one to
    # rounding; extrapolating the seam nodes held it to O(step^3), 1.2e-7
    # off at 257 nodes on the cubic spline
    f = (fixed_gaussian_samples() if f_spec == "samples"
         else parse_generator_spec(f_spec))
    gen = parse_generator_spec(b_spec)
    ref = best_approx_error_sq(f, gen, 1.0, 1.0, grid=Grid(-1.0, 1.0, 16385))
    for count in (129, 257):
        err = best_approx_error_sq(f, gen, 1.0, 1.0, grid=Grid(-1.0, 1.0, count))
        assert abs(err - ref) <= 1e-14 * math.sqrt(math.pi), count


def _tabulated_sinc_member() -> SampledSpectrum:
    """A member of the sinc's shift space, its spectrum tabulated on the
    aligned extension of a 257-node period grid over one window a side."""
    member = random_expansion(np.random.default_rng(49), 1.0, 4)
    freq = period_extension(1.0, 257, 1)
    return SampledSpectrum(grid=freq, values=zeta_of_coeffs(member, freq).values
                           * sinc_gen(1.0).spectrum(freq.nodes()))


@pytest.mark.parametrize("case", ["sinc-f-on-hat", "gauss-f-on-sinc",
                                  "sinc-member-on-sinc"])
def test_a_declared_seam_jump_keeps_the_extrapolation(case):
    # a sinc f, or B, declares a jump at sigma: the seam nodes hold the
    # jump's midpoint, so the fold extrapolates them as it always did and
    # error_sq at rho = sigma/2 and sigma on 257 nodes keeps the bytes
    # recorded then.  Raw, the sinc f on the hat would read 1.2e-2 low and
    # the tabulated member 0.13 outside its own space
    f, gen, pinned = {
        "sinc-f-on-hat": (parse_generator_spec("sinc"), spline(1, 1.0),
                          ["0x1.9322c174ac0f7p+2", "0x1.183ccde15a218p+0"]),
        "gauss-f-on-sinc": (gaussian_generator(1.0), sinc_gen(1.0),
                            ["0x1.b32505de5f7a8p-1", "0x1.1d7f36521a3d8p-2"]),
        "sinc-member-on-sinc": (_tabulated_sinc_member(), sinc_gen(1.0),
                                ["0x1.1907704fb82f2p+6", "0x0.0p+0"]),
    }[case]
    grid = Grid(-1.0, 1.0, 257)
    errors = best_approx_error_sq(f, gen, 1.0, [0.5, 1.0], grid=grid)
    assert [float(e).hex() for e in errors] == pinned
    if case == "sinc-f-on-hat":
        ref = best_approx_error_sq(f, gen, 1.0, 1.0, grid=Grid(-1.0, 1.0, 16385))
        assert abs(errors[1] - ref) <= 1e-6


@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("b_spec", ["bspline:m=0", "bspline:m=1", "bspline:m=2",
                                    "bspline:m=3", "gauss", "sinc"])
@pytest.mark.parametrize("width", [0.7, 0.85, 1.0, 1.0058589514678187, 1.3])
def test_an_analytic_signal_folds_as_far_as_sixteen_windows(width, b_spec, sigma):
    # the window count read off the envelopes leaves out less than tol of
    # the bracket and of f's energy, so the error is that of f-hat folded
    # over 16 windows to rounding; the count once chosen by doubling an
    # energy criterion stopped at 2 windows for width 1.00586 on the hat
    # at sigma 1 and was 4.6e-8 high there
    f = gaussian_generator(width)
    gen = parse_generator_spec(b_spec, default_sigma=sigma)
    grid = Grid(start=-sigma, stop=sigma, count=257)
    freq = period_extension(sigma, 257, 16)
    wide = SampledSpectrum(grid=freq, values=f.spectrum(freq.nodes()))
    rhos = [0.1 * sigma, 0.5 * sigma, sigma]
    np.testing.assert_allclose(best_approx_error_sq(f, gen, sigma, rhos, grid=grid),
                               best_approx_error_sq(wide, gen, sigma, rhos, grid=grid),
                               rtol=1e-12, atol=0.0)


def test_fold_of_the_generator_with_itself_is_the_periodization():
    # bracket(B, B) = sum_k |B^(y + 2 k sigma)|^2 = D: folding B's own
    # aligned spectrum over the lattice order gives the direct lattice
    # sum, and D exceeds it only by the omitted tail, which the envelope
    # bound of that order dominates.  Both D here are exact (the spline's
    # by Poisson duality, the sinc's by its compact spectrum)
    sigma = 1.0
    grid = Grid(start=-sigma, stop=sigma, count=257)
    y = grid.nodes()[1:-1]
    for gen in (spline(2, sigma), sinc_gen(sigma)):
        order, bound = lattice_order(gen, sigma, 1e-8, 2)
        full = period_extension(sigma, grid.count, order)
        fs = SampledSpectrum(grid=full, values=gen.spectrum(full.nodes()))
        fhat = _on_extension(fs, gen, sigma, grid, 1e-8)
        fold = _fold(fhat, gen, sigma, grid, tol=1e-8)
        direct = sum(np.abs(gen.spectrum(y + 2.0 * sigma * k)) ** 2
                     for k in range(-order, order + 1))
        b = fold.bracket[1:-1]
        scale = np.max(direct)
        assert np.max(np.abs(b.imag)) <= 1e-15 * scale
        assert np.max(np.abs(b.real - direct)) <= 1e-14 * scale, gen.label
        correction = fold.density.values[1:-1] - b.real
        assert np.min(correction) >= -1e-14 * scale
        assert np.max(correction) <= bound + 1e-14 * scale
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
            fhat = _on_extension(fs, gen, sigma, grid, 1e-8)
            fold = _fold(fhat, gen, sigma, grid, tol=1e-8)
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


def test_period_grid_needs_an_odd_node_count():
    gen = spline(1, 1.0)
    fs = analytic_gaussian_spectrum(1.0)
    even = Grid(start=-1.0, stop=1.0, count=256)
    with pytest.raises(InvalidGridError, match="odd"):
        project(fs, gen, 1.0, rho=1.0, grid=even)
    with pytest.raises(InvalidGridError, match="odd"):
        best_approx_error_sq(fs, gen, 1.0, 0.5, grid=even)
    zeta = ZetaFunction(sigma=1.0, rho=1.0, grid=even,
                        values=np.ones(256, dtype=complex))
    with pytest.raises(InvalidGridError, match="odd"):
        coeffs_from_zeta(zeta, 4)


def test_base_grid_must_span_the_period():
    gen = spline(1, 1.0)
    fs = analytic_gaussian_spectrum(1.0)
    bad = Grid(start=-0.5, stop=0.5, count=257)
    with pytest.raises(InvalidGridError):
        project(fs, gen, 1.0, rho=0.5, grid=bad)


def _one_shot_doubling(f: SampledFunction, sigma: float, n: int) -> SampledSpectrum:
    """The window rule with every extension transformed from scratch."""
    limit = int((resolved_band(f.grid.step) / sigma - 1.0) // 2.0)
    windows = 1
    while True:
        freq = period_extension(sigma, n, windows)
        spec = fourier_transform_sampled(f, freq)
        power = np.abs(spec.values) ** 2
        outer = power[:n - 1].sum() + power[freq.count - n + 1:].sum()
        if outer <= _MASS_TOL * max(power.sum(), 1e-300) or windows >= limit:
            return spec
        windows = min(2 * windows, limit)


@pytest.mark.parametrize("name", sorted(time_sample_shapes()))
def test_time_sample_spectrum_matches_the_one_shot_doubling(name):
    # transforming each window once keeps the window count and moves the
    # spectrum at rounding only
    f, sigma, n = time_sample_shapes()[name]
    spec = _spectrum_of(f, sigma, Grid(-sigma, sigma, n))
    ref = _one_shot_doubling(f, sigma, n)
    assert spec.grid == ref.grid
    top = np.max(np.abs(ref.values))
    assert np.max(np.abs(spec.values - ref.values)) <= 1e-14 * top
    rows = np.r_[0:spec.grid.count:max(1, spec.grid.count // 400),
                 spec.grid.count - 1]
    direct = direct_fourier_sum(f, spec.grid, rows)
    assert np.max(np.abs(spec.values[rows] - direct)) <= 1e-14 * top


@pytest.mark.parametrize("name", sorted(time_sample_shapes()))
def test_read_only_samples_keep_the_bytes_of_a_fresh_transform(name, monkeypatch):
    # read-only samples that own their memory are transformed once per
    # sigma and node count; the kept spectrum is read-only and has the
    # bytes of writable samples' spectrum, which is transformed every call
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    f, sigma, n = time_sample_shapes()[name]
    values = f.values.copy()
    values.flags.writeable = False
    frozen = SampledFunction(f.grid, values)
    grid = Grid(-sigma, sigma, n)
    kept = _spectrum_of(frozen, sigma, grid)
    assert _spectrum_of(frozen, sigma, grid) is kept
    assert not kept.values.flags.writeable
    fresh = _spectrum_of(f, sigma, grid)
    assert fresh is not _spectrum_of(f, sigma, grid)
    assert fresh.grid == kept.grid
    assert fresh.values.tobytes() == kept.values.tobytes()


def test_time_sample_spectrum_builds_one_chirp_plan(monkeypatch):
    # three windows, then five and nine: three transforms, one plan
    f, sigma, n = time_sample_shapes()["241-onto-257-sigma1"]
    calls = []
    transform = numerics.fourier_transform_sampled

    def counting(*args, **kwargs):
        calls.append(args[1].count)
        return transform(*args, **kwargs)

    numerics._chirp_plan.cache_clear()
    monkeypatch.setattr(shiftspace, "fourier_transform_sampled", counting)
    spec = _spectrum_of(f, sigma, Grid(-sigma, sigma, n))
    assert calls == [3 * 256 + 1, 5 * 256 + 1, 9 * 256 + 1]
    assert spec.grid.count == calls[-1]
    assert numerics._chirp_plan.cache_info().misses == 1


@pytest.mark.parametrize("count, n, size, rows", [
    # 385-node period (384 = 3 * 2^7), blocks of 768: extensions of 1153,
    # 1921 and 3457 nodes in 2, 3 and 5 rows
    (257, 385, 1024, 10),
    # blocks of 272: 769, 1281 and 2305 nodes in 3, 5 and 9 rows
    (241, 257, 512, 17),
    # blocks of 768: 12289 nodes in 16 rows and one direct node, 20481 in
    # 27 rows, 36865 in 48 rows and one direct node
    (257, 4097, 1024, 91),
])
def test_time_sample_spectrum_spends_the_fewest_fft_rows(
        monkeypatch, count, n, size, rows):
    # each extension of the doubling is cut into the fewest blocks the FFT
    # size of 2 * count - 1 points or more holds, and the kernel is
    # transformed once for all three; transformed one by one, each
    # extension spends the same rows and a kernel of its own
    grid = Grid(-8.6, 8.6, count)
    f = SampledFunction(grid, np.exp(-0.5 * grid.nodes() ** 2) + 0j)
    grids, points = [], []
    transform, fft = numerics.fourier_transform_sampled, np.fft.fft

    def recording(f, freq):
        grids.append(freq)
        return transform(f, freq)

    def counting(a, *args, **kwargs):
        out = fft(a, *args, **kwargs)
        points.append(out.size)
        return out

    monkeypatch.setattr(shiftspace, "fourier_transform_sampled", recording)
    monkeypatch.setattr(np.fft, "fft", counting)
    numerics._chirp_plan.cache_clear()
    _spectrum_of(f, 1.0, Grid(-1.0, 1.0, n))
    assert len(grids) == 3 and sum(points) == (rows + 1) * size
    points.clear()
    for freq in grids:
        numerics._chirp_plan.cache_clear()
        transform(f, freq)
    assert sum(points) == (rows + 3) * size


def test_time_samples_too_coarse_for_three_windows_raise():
    # dx = 1 resolves |y| <= 0.45 pi, short of 3 sigma: the three-window
    # transform held aliased copies, and best_approx_error_sq read 0.1641
    # where the resolved answer is 0.07565
    grid = Grid(-10.0, 10.0, 21)
    coarse = SampledFunction(grid, np.exp(-0.5 * grid.nodes() ** 2) + 0j)
    with pytest.raises(ResolutionError, match=r"dx=1 .*3\*sigma = 3"):
        best_approx_error_sq(coarse, spline(1), 1.0, 1.0, grid=Grid(-1.0, 1.0, 257))
    grid = Grid(-10.0, 10.0, 81)
    fine = SampledFunction(grid, np.exp(-0.5 * grid.nodes() ** 2) + 0j)
    assert best_approx_error_sq(fine, spline(1), 1.0, 1.0,
                                grid=Grid(-1.0, 1.0, 257)) == pytest.approx(
                                    0.07565, abs=1e-5)


def test_fine_samples_of_a_narrow_signal_fold_every_resolved_window():
    # a width-0.05 Gaussian in 1201 samples on +-0.6 (dx = 0.001) resolves
    # |y| <= 1414, 706 windows either side at sigma 1, and its energy
    # reaches past 16 of them: the error is the analytic f's to the
    # quadrature's 2.7e-10; cut at 16 windows it read 2.2% low
    grid = Grid(-0.6, 0.6, 1201)
    f = SampledFunction(grid, np.exp(-0.5 * (grid.nodes() / 0.05) ** 2) + 0j)
    period = Grid(-1.0, 1.0, 257)
    got = best_approx_error_sq(f, spline(1), 1.0, 1.0, grid=period)
    want = best_approx_error_sq(gaussian_generator(0.05), spline(1), 1.0, 1.0,
                                grid=period)
    assert abs(got - want) <= 1e-9 * want
