"""Gram systems, least-squares projection, and the oracle comparison."""

import dataclasses
import math

import numpy as np
import pytest

from shiftapprox.errors import MissingTimeDomainError, SingularGramError
from shiftapprox.generator import (Generator, gaussian_generator,
                                   shift_autocorrelation, spectrum_generator)
from shiftapprox.numerics import SampledFunction, make_uniform_grid, \
    quadrature_weights
from shiftapprox.oracle import compare, gram_matrix, ls_project
from shiftapprox import oracle, synthesize

from helpers import (analytic_gaussian_spectrum, band_member_spectrum,
                     knot_aligned_gaussian, oracle_gaps, random_expansion,
                     sinc_gen, spline)


def test_gram_structure_and_conditioning():
    gen = spline(2, 1.0)
    system = gram_matrix(gen, 1.0, 8)
    g = system.gram
    assert g.shape == (17, 17)
    assert np.array_equal(g, g.conj().T)
    # Toeplitz: every diagonal is constant
    assert np.array_equal(g[:-1, :-1], g[1:, 1:])
    # squared norm of the degree-2 spline in closed form
    diag = 4.0 * math.pi * 11.0 / 20.0
    assert g[0, 0] == pytest.approx(diag, rel=1e-12)
    eigs = np.linalg.eigvalsh(g)
    assert eigs.min() >= -1e-10 * eigs.max()
    assert 1.0 <= system.condition_estimate <= 20.0


def test_gram_holds_a_complex_autocorrelation_row_below_its_diagonal():
    # entry (j, k) is a_{j-k}, with a_{-d} = conj(a_d) above the diagonal:
    # a modulated Gaussian has a complex row, so the two triangles differ
    base = gaussian_generator(1.0)
    gen = dataclasses.replace(base, autocorrelation=lambda tau: (
        base.autocorrelation(tau) * np.exp(0.7j * tau)))
    acorr = shift_autocorrelation(gen, 1.0, 6)
    assert abs(acorr[1].imag) > 0.01 * acorr[0].real
    g = gram_matrix(gen, 1.0, 3).gram
    assert np.array_equal(g[:, 0], acorr) and np.array_equal(g[0], np.conj(acorr))
    assert np.array_equal(g[:-1, :-1], g[1:, 1:])


def test_box_gram_is_a_scaled_identity():
    system = gram_matrix(spline(0, 1.0), 1.0, 6)
    want = 4.0 * math.pi * np.eye(13)
    assert np.max(np.abs(system.gram - want)) < 1e-12
    assert system.condition_estimate == pytest.approx(1.0, rel=1e-12)


def test_hat_gram_matches_brute_quadrature():
    gen = spline(1, 1.0)
    system = gram_matrix(gen, 1.0, 4)
    row = system.gram[4:, 4]
    assert row[0] == pytest.approx(4.0 * math.pi * 2.0 / 3.0, rel=1e-12)
    assert (row[1] / row[0]).real == pytest.approx(0.25, rel=1e-12)
    assert abs(row[2]) == 0.0

    # independent route: knot-aligned Simpson of the overlap integrals;
    # hat products are piecewise quadratics, integrated exactly
    for q in (128, 256):
        grid = make_uniform_grid(-2.0 * math.pi, 2.0 * math.pi, 4 * q + 1)
        x = grid.nodes()
        w = quadrature_weights(grid)
        base = gen.time_domain(x)
        for d in (0, 1, 2):
            brute = (w * base * np.conj(gen.time_domain(x - d * math.pi))).sum()
            assert abs(brute - row[d]) <= 1e-8 * row[0].real, (q, d)


def test_sinc_gram_is_near_identity():
    sigma = 1.5
    system = gram_matrix(sinc_gen(sigma), sigma, 6)
    diag = 4.0 * math.pi * sigma
    assert np.max(np.abs(np.diag(system.gram) - diag)) < 1e-9 * diag
    off = system.gram - np.diag(np.diag(system.gram))
    assert np.max(np.abs(off)) < 1e-6 * diag


def test_gram_needs_a_time_domain():
    gen = spectrum_generator(analytic_gaussian_spectrum(1.0))
    with pytest.raises(MissingTimeDomainError):
        gram_matrix(gen, 1.0, 4)


def test_ls_project_recovers_a_shifted_generator():
    gen = spline(1, 1.0)
    h = math.pi
    grid = make_uniform_grid(-4.0 * h, 4.0 * h, 8 * 256 + 1)
    f = SampledFunction(grid=grid,
                        values=gen.time_domain(grid.nodes() - h) + 0.0j)
    coeffs, residual = ls_project(f, gen, 1.0, 2)
    want = np.zeros(5, dtype=complex)
    want[3] = 1.0  # index j = +1
    assert np.max(np.abs(coeffs - want)) < 1e-8
    assert residual <= 1e-8 * (4.0 * math.pi * 2.0 / 3.0)


def test_ls_project_annihilates_an_orthogonal_function():
    # one arch of sin(2x) inside a single box cell has zero mean against
    # every box shift, so the least-squares system returns nothing
    gen = spline(0, 1.0)
    grid = make_uniform_grid(-3.0 * math.pi, 3.0 * math.pi, 6 * 256 + 1)
    x = grid.nodes()
    vals = np.where((x >= 0.0) & (x <= math.pi), np.sin(2.0 * x), 0.0)
    f = SampledFunction(grid=grid, values=vals + 0.0j)
    coeffs, residual = ls_project(f, gen, 1.0, 3)
    assert np.max(np.abs(coeffs)) < 1e-10
    assert residual == pytest.approx(math.pi / 2.0, rel=1e-10)


def _box_comb_generator() -> Generator:
    """Sum of five binomially weighted box shifts.

    The shift symbol |1 + e^{-i pi y}|^8 has an eighth-order zero, so the
    truncated Gram systems degenerate as the range grows even though every
    finite one is positive definite.
    """
    box = spline(0, 1.0)
    weights = [math.comb(4, k) for k in range(5)]

    def time_domain(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape, dtype=np.complex128)
        for k, c in enumerate(weights):
            total = total + c * box.time_domain(x - k * math.pi)
        return total

    def spectrum(y):
        y = np.asarray(y, dtype=float)
        return box.spectrum(y) * (1.0 + np.exp(-1j * math.pi * y)) ** 4

    def autocorrelation(tau: np.ndarray) -> np.ndarray:
        # the weights correlate to comb(8, 4 + j) at shift j pi, each times
        # the box's triangle 4 pi (1 - |tau/pi - j|)_+
        d = np.asarray(tau, dtype=float) / math.pi
        return 4.0 * math.pi * sum(
            math.comb(8, 4 + j) * np.maximum(0.0, 1.0 - np.abs(d - j)) for j in range(-4, 5))

    return Generator(label="box-comb", spectrum=spectrum,
                     decay_exponent=box.decay_exponent,
                     decay_constant=16.0 * box.decay_constant,
                     time_domain=time_domain,
                     support=(-math.pi, 4.0 * math.pi),
                     autocorrelation=autocorrelation)


def test_degenerate_generator_trips_the_condition_monitor():
    comb = _box_comb_generator()
    small = gram_matrix(comb, 1.0, 4)
    assert small.gram[4, 4] == pytest.approx(4.0 * math.pi * 70.0, rel=1e-12)
    assert small.condition_estimate < 1e12

    wide = gram_matrix(comb, 1.0, 64)
    assert wide.condition_estimate > 1e12
    dummy = SampledFunction(grid=make_uniform_grid(-1.0, 1.0, 9),
                            values=np.zeros(9, dtype=complex))
    with pytest.raises(SingularGramError):
        ls_project(dummy, comb, 1.0, 64)


def test_comparison_gaps_vanish_for_a_member():
    rng = np.random.default_rng(61)
    gen = spline(2, 1.0)
    exp = random_expansion(rng, 1.0, 4)
    h = math.pi
    grid = make_uniform_grid(-9.0 * h, 9.0 * h, 18 * 256 + 1)
    f = synthesize(exp, gen, grid)
    fs = band_member_spectrum(gen, 1.0, exp.coeffs, windows=40)
    _, _, gaps, consistent = oracle_gaps(f, fs, gen, 1.0, [4, 6])
    assert consistent
    for gap in gaps:
        assert abs(gap) <= 1e-8


def test_comparison_converges_for_a_gaussian():
    f, fs = knot_aligned_gaussian(1.0)
    gen = spline(1, 1.0)
    report, _, gaps, consistent = oracle_gaps(f, fs, gen, 1.0, [4, 8, 16])
    assert consistent
    residuals = [row.oracle_residual for row in report.rows]
    assert residuals == sorted(residuals, reverse=True)
    slack = 1e-9 * max(1.0, math.sqrt(math.pi))
    for row, gap in zip(report.rows, gaps):
        assert gap >= -slack
        assert row.formula_error == report.rows[0].formula_error
        # each range solves with the central block of the top Gram matrix,
        # which is the matrix the range builds on its own
        assert row.oracle_residual == ls_project(f, gen, 1.0, row.j_range)[1]


@pytest.mark.parametrize("m,sigma", [(1, 1.0), (2, 2.0)])
def test_converged_residuals_never_rise_at_rounding_level(m, sigma):
    # these residuals settle by j_range 32; solving each range on its own
    # let the j_range 64 row rise over the 32 row by a few ulps of ||f||^2
    # (m = 1 under an LU solve, m = 2 under a LAPACK Cholesky), while the
    # leading-block factorization repeats it
    f, _ = knot_aligned_gaussian(sigma)
    gen = spline(m, sigma)
    report = compare(f, gen, sigma, [8, 16, 32, 64])
    residuals = [row.oracle_residual for row in report.rows]
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] == residuals[-2]
    for row in report.rows:
        assert row.oracle_residual == ls_project(f, gen, sigma, row.j_range)[1]


def test_comparison_holds_when_the_spline_and_lattice_sigma_differ():
    # a hat built at sigma_B = 2 on the sigma = 1 lattice: the Gram matrix
    # reads the closed-form autocorrelation at the lattice's lags pi d
    f, fs = knot_aligned_gaussian(2.0)
    _, formula, gaps, consistent = oracle_gaps(f, fs, spline(1, 2.0), 1.0, [8, 16])
    assert consistent
    for gap in gaps:
        assert abs(gap) <= 1e-8 * formula


def test_comparison_flags_an_inconsistent_formula(monkeypatch):
    # a formula side that reads a doubled spectrum quadruples the formula
    # error while the oracle still sees the true samples: the negative gap
    # must be flagged
    f, fs = knot_aligned_gaussian(1.0)
    doubled = type(fs)(grid=fs.grid, values=2.0 * fs.values)
    formula = oracle.best_approx_error_sq
    monkeypatch.setattr(oracle, "best_approx_error_sq",
                        lambda _, *args, **kwargs: formula(doubled, *args, **kwargs))
    report = compare(f, spline(1, 1.0), 1.0, [8])
    assert not report.consistent
    assert report.rows[0].gap < 0.0


def test_comparison_rejects_bad_ranges():
    f, _ = knot_aligned_gaussian(1.0)
    with pytest.raises(ValueError):
        compare(f, spline(1, 1.0), 1.0, [])
    with pytest.raises(ValueError):
        compare(f, spline(1, 1.0), 1.0, [-2, 4])
