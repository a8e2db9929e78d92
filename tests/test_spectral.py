import math

import numpy as np
import pytest

from shiftapprox import spectral, zak
from shiftapprox.errors import InvalidGridError, TruncationError
from shiftapprox.generator import (Generator, gaussian_generator, generator_l2_norm_sq,
                                   shift_autocorrelation)
from shiftapprox.numerics import make_uniform_grid
from shiftapprox.spectral import (
    EPSILON_D,
    HURWITZ_ORDER,
    envelope_order,
    envelope_tail,
    lattice_energy,
    lattice_order,
    lattice_sum,
    lattice_truncation,
    periodize,
    poisson_energy,
    poisson_lags,
    _denominator,
    riesz_bounds,
)

from helpers import sampled_spline, sinc_gen, spline


def brute_lattice_energy(gen, sigma, y, order=10_000):
    """Direct summation reference with a fixed large truncation."""
    y = np.asarray(y, dtype=float)
    total = np.zeros(y.shape)
    for nu in range(-order, order + 1):
        total += np.abs(gen.spectrum(y + 2.0 * sigma * nu)) ** 2
    return total


def band_grid(sigma, count=4097):
    return make_uniform_grid(-sigma, sigma, count)


def test_truncation_order_satisfies_its_own_bound():
    # the least order from 8 up whose envelope bound on the omitted mass
    # meets tol, and that bound
    n, tail = lattice_truncation(1.0, 2.0, 1.0, 1e-4)
    assert tail == envelope_tail(1.0, 2.0, 1.0, n) and tail <= 1e-4
    assert envelope_tail(1.0, 2.0, 1.0, n - 1) > 1e-4
    # deeper tolerance demands more terms
    n2, tail2 = lattice_truncation(1.0, 2.0, 1.0, 1e-5)
    assert n2 > n and tail2 <= 1e-5
    # a loose envelope still takes 8 terms
    assert lattice_truncation(1.0, 40.0, 1.0, 1e-8)[0] == 8


@pytest.mark.parametrize("coef,q,sigma,tol", [
    (1.0, 2.0, 1.0, 1e-8), (2.68, 42.0, 1.0, 1e-8), (7.5e30, 80.0, 2.0, 1e-12),
    (3.0, 1.5, 0.5, 1e-6)])
def test_envelope_order_inverts_the_envelope_tail(coef, q, sigma, tol):
    n = envelope_order(coef, q, sigma, tol)
    assert envelope_tail(coef, q, sigma, n) == pytest.approx(tol, rel=1e-12)
    assert envelope_tail(coef, q, sigma, np.ceil(n)) <= tol
    # no order bounds a divergent tail, or a zero tolerance
    assert envelope_order(coef, 1.0, sigma, tol) == np.inf
    assert envelope_order(coef, q, sigma, 0.0) == np.inf


def test_truncation_rejects_non_summable_decay():
    with pytest.raises(TruncationError):
        lattice_truncation(1.0, 0.9, 1.0, 1e-8)
    with pytest.raises(TruncationError):
        lattice_truncation(1.0, 1.0, 1.0, 1e-8)


def test_truncation_cap_is_enforced():
    with pytest.raises(TruncationError):
        lattice_truncation(1.0, 1.01, 1.0, 1e-300)


def test_box_periodization_is_flat():
    # the Poisson form is exact: D = a_0 / (4 pi sigma) = 1 with no tail;
    # so is the lattice form, |nu| <= 16 and one Hurwitz zeta value
    dv = periodize(spline(0, 1.0), 1.0, band_grid(1.0))
    assert dv.tail_bound == 0.0
    assert np.max(np.abs(dv.values - 1.0)) <= 1e-14
    values, order, tail = lattice_energy(spline(0, 1.0), 1.0, band_grid(1.0, 65).nodes())
    assert (order, tail) == (HURWITZ_ORDER, 0.0)
    assert np.max(np.abs(values - 1.0)) <= 1e-14


@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("m,count", [(m, count) for m in (0, 1, 2, 3)
                                     for count in (65, 257, 4097)]
                         + [(7, 65), (10, 65)])
def test_poisson_periodization_matches_the_lattice_sum(m, sigma, count):
    # the exact Poisson D against the lattice sum at tol 1e-12, |nu| <= 16
    # with exact class tails; on 4097 nodes every 16th node and the three
    # at either seam are checked.  Degrees 7 and 10 pin the closed-form a_d
    # read from the piece tables of N_16 and N_22
    gen = spline(m, sigma)
    grid = band_grid(sigma, count)
    dv = periodize(gen, sigma, grid, tol=1e-12)
    assert dv.truncation_order == m and dv.tail_bound == 0.0
    step = max(1, (count - 1) // 256)
    idx = np.unique(np.r_[0:3, 0:count:step, count - 3:count])
    ref, _, _ = lattice_energy(gen, sigma, grid.nodes()[idx], tol=1e-12)
    assert np.max(np.abs(dv.values[idx] - ref)) <= 1e-12 * np.max(dv.values)


def test_poisson_periodization_reads_the_lattice_lags():
    # a hat built at sigma_B = 2 on the sigma = 1 lattice: its support pi
    # spans no whole shift pi, so D = a_0 / (4 pi) = 4/3 is flat.  The
    # spectrum vanishes at every other lattice step; the reference is a
    # brute sum of 40001 terms
    gen = spline(1, 2.0)
    grid = band_grid(1.0, 65)
    dv = periodize(gen, 1.0, grid, tol=1e-12)
    assert dv.truncation_order == 0 and dv.tail_bound == 0.0
    assert np.max(np.abs(dv.values - 4.0 / 3.0)) <= 1e-14
    ref = brute_lattice_energy(gen, 1.0, grid.nodes(), order=20_000)
    assert np.max(np.abs(dv.values - ref)) <= 1e-12 * np.max(dv.values)


def test_lattice_energy_of_a_spline_on_half_its_lattice_is_exact():
    # a hat built at sigma_B = 2 on the sigma = 1 lattice: its terms vanish
    # at every other lattice step.  Each residue class of nu mod 2 is a
    # Hurwitz zeta value; the reference is a brute sum of 800 001 terms
    gen = spline(1, 2.0)
    y = np.linspace(-1.0, 1.0, 9)
    values, order, tail = lattice_energy(gen, 1.0, y, tol=1e-12)
    assert (order, tail) == (HURWITZ_ORDER, 0.0)
    nu = np.arange(-400_000, 400_001)
    brute = np.array([np.sum(np.abs(gen.spectrum(v + 2.0 * nu)) ** 2) for v in y])
    assert np.max(np.abs(values - brute)) <= 1e-13
    assert np.max(np.abs(values - 4.0 / 3.0)) <= 1e-13


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("sigma_b, sigma", [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0),
                                            (1.0, 2.0), (1.0, 3.0), (0.5, 1.5),
                                            (1.5, 1.0), (1.0, 1.5)])
def test_lattice_energy_of_a_spline_takes_exact_tails(m, sigma_b, sigma):
    # sigma/sigma_B = p/q, here 1, 1/2, 1/3, 2, 3, 2/3 and 3/2: explicit
    # terms |nu| <= 16 and a Hurwitz tail per class of nu mod q, against
    # the exact Poisson form
    gen = spline(m, sigma_b)
    grid = band_grid(sigma, 65)
    values, order, tail = lattice_energy(gen, sigma, grid.nodes(), tol=1e-12)
    assert (order, tail) == (HURWITZ_ORDER, 0.0)
    dv = periodize(gen, sigma, grid)
    assert dv.tail_bound == 0.0
    assert np.max(np.abs(values - dv.values)) <= 1e-13 * np.max(dv.values)


def test_lattice_energy_at_a_fractional_ratio_matches_brute_sums():
    # sigma/sigma_B = 2/3 (three classes of nu, u stepping by 2 along each)
    # and the box on its own lattice (1/u^2 tails): exact, against the
    # Poisson form and brute sums of 800 001 terms.  The hat's brute sum
    # omits 1e-17; the box's omits up to its envelope bound, 3.3e-6
    nu = np.arange(-400_000, 400_001)
    for gen, sigma in ((spline(1, 1.5), 1.0), (spline(0, 1.0), 1.0)):
        grid = band_grid(sigma, 9)
        values, order, tail = lattice_energy(gen, sigma, grid.nodes(), tol=1e-12)
        assert (order, tail) == (HURWITZ_ORDER, 0.0), gen.label
        assert np.max(np.abs(values - periodize(gen, sigma, grid).values)) <= 1e-14
        brute = np.array([np.sum(np.abs(gen.spectrum(v + 2.0 * sigma * nu)) ** 2)
                          for v in grid.nodes()])
        omitted = envelope_tail(gen.decay_constant ** 2, 2.0 * gen.decay_exponent,
                                sigma, nu[-1])
        assert np.max(np.abs(values - brute)) <= omitted + 1e-13, gen.label


@pytest.mark.parametrize("m, per_step, envelope", [(1, 32, 1430), (3, 16, 658)],
                         ids=["hat_h32", "cubic_h16"])
def test_class_tails_of_a_coefficient_spline_match_brute_sums(m, per_step, envelope):
    # the quintic spline through a B-spline's samples at step h/32 or h/16,
    # 141 or 123 coefficients, used as the generator at sigma = 1: sigma
    # step/pi = 1/32 or 1/16, so D's lattice form and Phi's spectral sum at
    # sigma x/pi = 0 and 1/8 take |nu| <= 16 and exact class tails, where
    # the envelope takes 1430 or 658 terms at tol 1e-10.  Against brute
    # sums of 40 001 terms, which omit less than 1e-20: each sum within
    # 2e-15 of its largest value, and its tails alone (`lattice_sum` over
    # no explicit term) within 2e-13 of theirs, which reach 1.5e-3 (hat)
    # and 5e-8 (cubic), plus 1e-20.  That floor is the rounding of the
    # coefficient sum, 123 terms near 1 that nearly cancel out there: the
    # cubic's brute tails differ by 3e-21 from its class tails, and by
    # 3e-18 from brute tails that sum the coefficients by a matrix product
    gen, sigma = sampled_spline(m, per_step), 1.0
    assert gen.spline.coeffs.size > 100
    assert lattice_order(gen, sigma, 1e-10, 1)[0] == envelope
    y = np.linspace(-sigma, sigma, 9)
    nu = np.arange(-20_000, 20_001)
    u = y[:, np.newaxis] + 2.0 * sigma * nu
    spec = gen.spectrum(u)
    outer = np.abs(nu) > HURWITZ_ORDER
    cases = [(2, None, np.abs(spec) ** 2)]
    cases += [(1, np.full(y.shape, c * math.pi / sigma),
               spec * np.exp(1j * u * c * math.pi / sigma)) for c in (0.0, 0.125)]
    for power, x, terms in cases:
        if power == 2:
            values, order, tail = lattice_energy(gen, sigma, y, tol=1e-10)
        else:
            values, order, tail = zak._phi_freq_array(gen, sigma, x, y, 1e-10)
        assert (order, tail) == (HURWITZ_ORDER, 0.0), power
        brute = terms.sum(axis=1)
        assert np.max(np.abs(values - brute)) <= 2e-15 * np.max(np.abs(brute)), power
        tails, _, _ = lattice_sum(gen, sigma, y, lambda shifts: 0.0, power, 1e-10, y.size, x=x)
        brute = terms[:, outer].sum(axis=1)
        assert np.max(np.abs(tails - brute)) <= 2e-13 * np.max(np.abs(brute)) + 1e-20, power


@pytest.mark.parametrize("v,b", [
    (1.0 / 3.0, 3), (-5.0 / 7.0, 7), (1.0 / 4096.0, 4096), (1.0 / 4097.0, 0),
    (math.pi, 0), (math.sqrt(2.0), 0), (1e6 + 1.0 / 3.0, 3), (0.0, 1)])
def test_denominator_is_the_least_within_the_class_cap(v, b):
    # the least b <= 4096 with v b an integer to rounding, 0 where none is
    assert _denominator(v) == b


def test_hurwitz_zeta_matches_scipy(monkeypatch):
    # within 1e-15 of scipy.special.zeta, the same Euler-Maclaurin scheme
    # (Cephes), for s = 2..44 over a log-uniform a in [1e-3, 1e4], and at
    # the parameters the class tails build: Phi's spectral sum and D's
    # lattice form on the cell mesh of bspline m = 0..3 on its own lattice
    # (m = 0 has D only: Phi's v**-1 is not summable), dgrid 33 and 257
    from scipy.special import zeta

    calls = []
    kernel = spectral._hurwitz_zeta

    def recorded(s, a):
        calls.append((s, np.array(a)))
        return kernel(s, a)

    monkeypatch.setattr(spectral, "_hurwitz_zeta", recorded)
    for m in range(4):
        for resolution in (33, 257):
            xs, ys, _, _ = zak._cell_mesh(1.0, resolution)
            if m:
                zak._phi_freq_array(spline(m, 1.0), 1.0, xs, ys, 1e-10)
            lattice_energy(spline(m, 1.0), 1.0, ys[0])
    monkeypatch.undo()
    assert len(calls) == 14
    a = np.exp(np.random.default_rng(5).uniform(math.log(1e-3), math.log(1e4), 20_000))
    calls += [(s, a) for s in range(2, 45)]
    for s, a in calls:
        ref = zeta(s, a)
        assert np.max(np.abs(kernel(s, a) - ref) / ref) <= 1e-15, (s, a.shape)


def test_hurwitz_zeta_meets_its_identities():
    # zeta(2, 1) = pi^2/6, zeta(4, 1) = pi^4/90 (DLMF 25.6.1), zeta(s, 1/2)
    # = (2^s - 1) zeta(s, 1) (25.11.11) and zeta(s, a) = zeta(s, a + 1) +
    # a^-s (25.11.3) at a = k/64, where a + 1 is exact.  The constants to
    # 2 ulp (measured 0.6 and 0.9); the identities, which add the rounding
    # of two values and of the arithmetic, to 6 ulp (measured 4.0 and 4.9)
    zeta = spectral._hurwitz_zeta
    eps = np.finfo(float).eps
    assert abs(zeta(2, 1.0) - math.pi ** 2 / 6) <= 2 * eps * math.pi ** 2 / 6
    assert abs(zeta(4, 1.0) - math.pi ** 4 / 90) <= 2 * eps * math.pi ** 4 / 90
    a = np.arange(1, 64 * 64) / 64
    for s in range(2, 45):
        half = zeta(s, 0.5)
        assert abs(half - (2.0 ** s - 1) * zeta(s, 1.0)) <= 6 * eps * half, s
        left = zeta(s, a)
        assert np.max(np.abs(left - (zeta(s, a + 1) + a ** -s)) / left) <= 6 * eps, s


def test_hurwitz_zeta_remainder_is_below_its_bound():
    # the first omitted Euler-Maclaurin term, B_26/26! (s)_25 w^(-s-25) at
    # w = a + 9, bounds the remainder: below 1e-20 of the direct terms plus
    # the integral from w, a lower bound on zeta, at s = 2..44 (spline
    # orders up to 22, squared) and a from 1e-6 to 1e6
    b26 = abs(8553103 / 6 / math.factorial(26))
    a = np.geomspace(1e-6, 1e6, 4001)
    w = a + spectral._ZETA_STEPS
    assert len(spectral._BERNOULLI) == 12
    for s in range(2, 45):
        log_rising = sum(math.log(s + i) for i in range(25))
        low = sum((w / (a + k)) ** s for k in range(spectral._ZETA_STEPS)) + w / (s - 1)
        ratio = np.exp(math.log(b26) + log_rising - 25 * np.log(w) - np.log(low))
        assert np.max(ratio) <= 1e-20, s


@pytest.mark.parametrize("s, a, error", [
    (1, 1.0, ValueError), (0, 1.0, ValueError), (2.5, 1.0, ValueError),
    (2, 0.0, ValueError), (2, -0.5, ValueError), (2, [1.0, np.nan], ValueError),
    (2, np.inf, ValueError), (200, 1e-3, OverflowError)])
def test_hurwitz_zeta_refuses_outside_its_domain(s, a, error):
    with pytest.raises(error):
        spectral._hurwitz_zeta(s, a)


@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("name", ["gauss", "sinc"])
def test_poisson_energy_without_a_closed_form(name, sigma):
    # the lags of a time radius (Gaussian), over quadrature
    # autocorrelations: the Poisson form meets the lattice form at the cell
    # midpoints within the Phi4 pairing's budget.  A spectral support alone
    # (sinc) bounds no lag, so there the lag rule raises
    if name == "sinc":
        with pytest.raises(TruncationError, match="lags"):
            poisson_lags(sinc_gen(sigma), sigma)
        return
    gen = gaussian_generator(0.8)
    lags, exact = poisson_lags(gen, sigma)
    # the shift count of twice the Gaussian's time radius, rounded up
    assert (lags, exact) == ({1.0: 5, 2.0: 9}[sigma], False)
    hy = 2.0 * sigma / 64
    y = -sigma + hy * (np.arange(64) + 0.5)
    energy = poisson_energy(shift_autocorrelation(gen, sigma, lags), sigma, y)
    ref, _, tail = lattice_energy(gen, sigma, y, tol=1e-9)
    residual = 2.0 * np.pi * np.sqrt(np.sum((energy - ref) ** 2) * hy)
    scale = max(1.0, generator_l2_norm_sq(gen, sigma) / (2.0 * sigma))
    assert residual <= 2.0 * np.pi * np.sqrt(2.0 * sigma) * tail + 1e-8 * scale + 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
def test_spline_periodization_matches_direct_summation(m):
    sigma = 1.0
    grid = band_grid(sigma, 65)
    dv = periodize(spline(m, sigma), sigma, grid)
    ref = brute_lattice_energy(spline(m, sigma), sigma, grid.nodes(), order=2000)
    assert np.max(np.abs(dv.values - ref)) < 1e-9


def test_hat_periodization_edge_value():
    # D at the band edge for the degree-1 spline: direct summation oracle
    sigma = 1.0
    dv = periodize(spline(1, sigma), sigma, band_grid(sigma))
    ref = float(brute_lattice_energy(spline(1, sigma), sigma,
                                     np.array([sigma]), order=10_000)[0])
    assert abs(dv.values[-1] - ref) <= 1e-6
    assert ref == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_bandlimited_periodization_is_exactly_one_inside():
    sigma = 1.0
    dv = periodize(sinc_gen(sigma), sigma, band_grid(sigma))
    assert np.all(dv.values == 1.0)
    assert dv.tail_bound == 0.0
    rep = riesz_bounds(dv)
    assert rep.lower == 1.0 and rep.upper == 1.0
    assert rep.classification == "riesz"


def test_periodization_is_stable_under_grid_refinement():
    sigma = 1.0
    coarse = periodize(spline(2, sigma), sigma, band_grid(sigma, 1025))
    fine = periodize(spline(2, sigma), sigma, band_grid(sigma, 4097))
    assert np.max(np.abs(coarse.values - fine.values[::4])) < 1e-9


def test_periodization_requires_full_span():
    with pytest.raises(InvalidGridError):
        periodize(spline(1, 1.0), 1.0, make_uniform_grid(-0.5, 1.0, 65))


def test_periodization_requires_an_odd_node_count():
    with pytest.raises(InvalidGridError, match="odd"):
        periodize(spline(1, 1.0), 1.0, band_grid(1.0, 64))


@pytest.mark.parametrize("spec_sigma,sigma,inside", [
    (1.0, 1.0, 1.0), (3.0, 1.0, 3.0), (31.0, 1.0, 31.0), (2.1, 0.7, 3.0)])
def test_periodization_seam_holds_the_limit_from_inside(spec_sigma, sigma, inside):
    # a sinc's spectrum is 1/2 on its edge, and at the seam y = +-sigma
    # some y + 2 nu sigma reach that edge (all of them but one on a sinc
    # of 2.1 over a lattice of 0.7): both seam nodes hold D from inside
    dv = periodize(sinc_gen(spec_sigma), sigma, band_grid(sigma, 65))
    assert np.all(dv.values == inside)


def test_riesz_classification_for_spline_families():
    sigma = 1.0
    for m, lo_ref in ((1, 1.0 / 3.0), (2, 2.0 / 15.0)):
        dv = periodize(spline(m, sigma), sigma, band_grid(sigma))
        rep = riesz_bounds(dv)
        assert rep.classification == "riesz"
        # D is exact (Poisson form, no tail): its greatest value is D(0) = 1
        # and its least D(sigma), which the seam nodes hold
        assert abs(rep.upper - 1.0) <= 1e-15
        ref = float(brute_lattice_energy(spline(m, sigma), sigma,
                                         np.array([sigma]))[0])
        assert rep.lower == pytest.approx(ref, abs=1e-12)
        assert ref == pytest.approx(lo_ref, abs=1e-12)
        assert abs(rep.lower - lo_ref) <= 1e-15 * lo_ref


@pytest.mark.parametrize("m,lower", [(0, 1.0), (1, 1.0 / 3.0), (2, 2.0 / 15.0),
                                     (3, 17.0 / 315.0)])
@pytest.mark.parametrize("count", [33, 65, 257])
def test_riesz_lower_bound_is_the_least_value_at_the_seam(m, lower, count):
    # a spline's D is least at the seam y = +-sigma, where it is
    # sum_nu sinc(nu + 1/2)**(2m+2): 1, 1/3, 2/15, 17/315; the nodes next
    # to the seam sit a grid step's curvature higher
    dv = periodize(spline(m, 1.0), 1.0, band_grid(1.0, count))
    rep = riesz_bounds(dv)
    assert abs(rep.lower - lower) <= 1e-14 * lower
    assert abs(rep.upper - 1.0) <= 1e-15


def _indicator_generator(lo, hi, floor=0.0):
    def spectrum(y):
        y = np.asarray(y, dtype=float)
        inside = ((y >= lo) & (y <= hi)).astype(np.complex128)
        return inside + floor * ((y < lo) & (y > -hi)).astype(np.complex128)

    return Generator(label="bandpass", spectrum=spectrum, decay_exponent=5.0,
                     decay_constant=1.0, spectral_support=abs(hi))


def test_one_sided_band_is_classified_degenerate():
    sigma = 1.0
    gen = _indicator_generator(sigma, 2.0 * sigma)
    dv = periodize(gen, sigma, band_grid(sigma))
    # the fold covers only half the period: D vanishes on the other half
    rep = riesz_bounds(dv)
    assert rep.classification == "degenerate"
    assert rep.upper >= 1.0


def test_tiny_positive_floor_is_bessel_only():
    sigma = 1.0
    gen = _indicator_generator(sigma, 2.0 * sigma, floor=1e-6)
    dv = periodize(gen, sigma, band_grid(sigma))
    rep = riesz_bounds(dv)
    assert 0.0 < rep.lower <= EPSILON_D
    assert rep.classification == "bessel_only"


def test_lattice_energy_values_are_nonnegative():
    for gen in (spline(0, 1.0), spline(3, 1.0), gaussian_generator(1.0)):
        vals, _, _ = lattice_energy(gen, 1.0, np.linspace(-1.0, 1.0, 33))
        assert np.all(vals >= 0.0), gen.label
