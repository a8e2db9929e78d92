"""Shared builders and reference oracles for the test suite.

The oracles here stay off the library's spectral pipeline on purpose:
expansion norms and inner products come from time-domain quadrature, so
agreement with the Plancherel-side numbers is evidence, not a tautology.

Quadrature routes per generator family:

* degree-0 splines: midpoint rule on a knot-offset grid.  The integrand
  is piecewise constant with jumps exactly between nodes, so the
  midpoint sum is the exact integral.
* degree >= 1 splines: Simpson on a knot-aligned grid.  Piecewise
  polynomial integrands of degree <= 3 integrate exactly; higher
  degrees leave O(step^4) residue far below the tolerances used here.
* bandlimited: windowed integrals I(T) over [-T, T] with T a multiple
  of the shift step, extrapolated over T, 2T, 4T, 8T with the weights
  (-1, 14, -56, 64)/21 that cancel the c1/T + c2/T^2 + c3/T^3 tail of
  the slowly decaying integrand (the windows share a phase mod pi, so
  the oscillatory tail terms cancel alongside the monotone ones).
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stdout
from typing import List, Optional, Sequence, Tuple

import numpy as np

from shiftapprox import (
    Generator,
    ShiftExpansion,
    bandlimited_generator,
    bspline_generator,
    gaussian_generator,
    sampled_generator,
    synthesize,
)
from shiftapprox.cli import main as cli_main
from shiftapprox.numerics import (
    TWO_PI,
    Grid,
    SampledFunction,
    SampledSpectrum,
    l2_norm_sq,
    make_uniform_grid,
    quadrature_weights,
)
from shiftapprox.oracle import ComparisonReport, compare
from shiftapprox.shiftspace import (_fold, _on_extension, best_approx_error_sq,
                                    zeta_of_coeffs)


def spline(m: int, sigma: float = 1.0) -> Generator:
    return bspline_generator(m, sigma)


def sinc_gen(sigma: float = 1.0) -> Generator:
    return bandlimited_generator(sigma)


def sampled_gaussian() -> Generator:
    """The quintic spline through e^{-x^2/2} in 513 samples on [-8, 8]."""
    tg = make_uniform_grid(-8.0, 8.0, 513)
    x = tg.nodes()
    return sampled_generator(SampledFunction(grid=tg, values=np.exp(-0.5 * x * x) + 0.0j))


def sampled_spline(m: int, per_step: int) -> Generator:
    """The quintic spline through ``spline(m)`` sampled over its support
    ``[-(m + 1) pi, 0]`` at step ``pi/per_step``, as a `file:` generator."""
    grid = make_uniform_grid(-(m + 1) * math.pi, 0.0, (m + 1) * per_step + 1)
    return sampled_generator(SampledFunction(grid=grid,
                                             values=spline(m).time_domain(grid.nodes())))


def fixed_gaussian_samples() -> SampledFunction:
    """513 samples of e^{-x^2/2} on +-8.6 (the benchmark's fixed file)."""
    grid = Grid(-8.6, 8.6, 513)
    x = grid.nodes()
    return SampledFunction(grid=grid, values=np.exp(-0.5 * x * x) + 0j)


def piecewise_inner(f, g, breaks: np.ndarray, nodes: int = 6) -> complex:
    """``integral f conj(g)`` by ``nodes``-point Gauss-Legendre on every
    interval between the sorted distinct ``breaks``: exact to rounding for
    integrands that are polynomials of degree up to ``2 nodes - 1`` between
    breaks and vanish outside them."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.unique(breaks)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    x = half[:, np.newaxis] * t + mid[:, np.newaxis]
    return complex(np.sum(half[:, np.newaxis] * w * f(x) * np.conj(g(x))))


def cauchy() -> Generator:
    """B(x) = 1/(1+x^2), spectrum e^{-|y|}/2: no support, no tail radius
    and no spectral support, so it has no time extent.  It declares its
    autocorrelation <B, B(. - tau)> = 2 pi / (4 + tau^2)."""
    return Generator(
        label="cauchy",
        spectrum=lambda y: 0.5 * np.exp(-np.abs(np.asarray(y, dtype=float))) + 0.0j,
        decay_exponent=10.0, decay_constant=6.2e5,
        time_domain=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2) + 0.0j,
        autocorrelation=lambda tau: 2.0 * math.pi / (4.0 + tau * tau))


def random_expansion(rng: np.random.Generator, sigma: float, j_max: int,
                     rho: Optional[float] = None) -> ShiftExpansion:
    n = 2 * j_max + 1
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return ShiftExpansion(sigma=sigma, rho=sigma if rho is None else rho,
                          coeffs=coeffs)


def _spline_quadrature_grid(gen: Generator, sigma: float, j_max: int,
                            degree: int) -> Grid:
    """Integration grid covering every retained shift's support."""
    h = np.pi / sigma
    lo = -(j_max + degree + 1) * h
    hi = j_max * h
    q = 256
    if degree == 0:
        # cell midpoints: piecewise-constant integrands are summed exactly
        step = h / q
        count = int(round((hi - lo) / step))
        return make_uniform_grid(lo + 0.5 * step, hi - 0.5 * step, count)
    count = int(round((hi - lo) * q / h)) + 1
    return make_uniform_grid(lo, hi, count)


def _degree_of(gen: Generator) -> int:
    # the audited decay exponent of the spline family is m + 1
    return int(round(gen.decay_exponent)) - 1


def expansion_time_products(gen: Generator, sigma: float,
                            exp_a: ShiftExpansion,
                            exp_b: Optional[ShiftExpansion] = None) -> complex:
    """<s_a, s_b> by time-domain quadrature (s_b defaults to s_a)."""
    if exp_b is None:
        exp_b = exp_a
    j_max = max(exp_a.j_max, exp_b.j_max)
    if gen.support is not None:
        degree = _degree_of(gen)
        grid = _spline_quadrature_grid(gen, sigma, j_max, degree)
        sa_v = synthesize(exp_a, gen, grid).values
        sb_v = synthesize(exp_b, gen, grid).values
        prod = sa_v * np.conj(sb_v)
        if degree == 0:
            return complex(prod.sum() * grid.step)
        return complex((quadrature_weights(grid) * prod).sum())
    return _bandlimited_products(gen, sigma, exp_a, exp_b, j_max)


def _bandlimited_products(gen: Generator, sigma: float, exp_a: ShiftExpansion,
                          exp_b: ShiftExpansion, j_max: int) -> complex:
    h = np.pi / sigma
    base = 4 * max(32, j_max) * h  # smallest window well past the shifts
    per_h = 128
    count_b = int(round(2 * base * per_h / h)) + 1
    full = make_uniform_grid(-8 * base, 8 * base, 8 * (count_b - 1) + 1)
    sa_v = synthesize(exp_a, gen, full).values
    sb_v = sa_v if exp_b is exp_a else synthesize(exp_b, gen, full).values
    prod = sa_v * np.conj(sb_v)
    mid = (full.count - 1) // 2

    def window(k: int) -> complex:
        half = (count_b - 1) // 2 * k
        sub = make_uniform_grid(-base * k, base * k, 2 * half + 1)
        return complex(
            (quadrature_weights(sub) * prod[mid - half:mid + half + 1]).sum())

    i1, i2, i4, i8 = window(1), window(2), window(4), window(8)
    return (-i1 + 14.0 * i2 - 56.0 * i4 + 64.0 * i8) / 21.0


def knot_aligned_gaussian(sigma: float, windows: int = 4
                          ) -> Tuple[SampledFunction, SampledSpectrum]:
    """Unit-width Gaussian sampled for oracle use, plus its exact spectrum.

    The time grid steps by an even divisor of pi/sigma from a multiple of
    pi/sigma, so every spline knot of every shift lands on a Simpson panel
    boundary.
    """
    h = np.pi / sigma
    radius = math.ceil(10.0 / h) * h
    q = 1
    while h / q > 8e-4:
        q *= 2
    count = int(round(2 * radius * q / h)) + 1
    tg = make_uniform_grid(-radius, radius, count)
    x = tg.nodes()
    f = SampledFunction(grid=tg, values=np.exp(-0.5 * x * x) + 0.0j)
    fs = analytic_gaussian_spectrum(sigma, windows)
    return f, fs


def oracle_gaps(f: SampledFunction, fs: SampledSpectrum, gen: Generator,
                sigma: float, ranges: Sequence[int]
                ) -> Tuple[ComparisonReport, float, List[float], bool]:
    """compare's oracle rows on the samples f, each against the formula
    error of `best_approx_error_sq` on f's spectrum fs at rho = sigma: the
    report, that error, the gaps (oracle minus formula), and whether every
    gap clears compare's rounding slack ``1e-9 max(1, ||f||^2)``."""
    report = compare(f, gen, sigma, ranges)
    formula = best_approx_error_sq(fs, gen, sigma, sigma)
    gaps = [row.oracle_residual - formula for row in report.rows]
    slack = 1e-9 * max(1.0, l2_norm_sq(f))
    return report, formula, gaps, all(gap >= -slack for gap in gaps)


def analytic_gaussian_spectrum(sigma: float, windows: int = 4,
                               per_window: int = 4096) -> SampledSpectrum:
    edge = (2 * windows + 1) * sigma
    fg = make_uniform_grid(-edge, edge, per_window * (2 * windows + 1) + 1)
    y = fg.nodes()
    vals = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi) + 0.0j
    return SampledSpectrum(grid=fg, values=vals)


def band_member_spectrum(gen: Generator, sigma: float, beta: np.ndarray,
                         windows: int = 20,
                         per_window: int = 4096) -> SampledSpectrum:
    """Exact spectrum of sum_j beta_j B(. - j pi/sigma) on an aligned grid."""
    edge = (2 * windows + 1) * sigma
    fg = make_uniform_grid(-edge, edge, per_window * (2 * windows + 1) + 1)
    y = fg.nodes()
    j_max = (beta.size - 1) // 2
    js = np.arange(-j_max, j_max + 1)
    zeta = np.zeros(y.size, dtype=np.complex128)
    for j, b in zip(js, beta):
        zeta += b * np.exp(-1j * j * np.pi * y / sigma)
    return SampledSpectrum(grid=fg, values=zeta * gen.spectrum(y))


def bump_spectrum_signal(rng: np.random.Generator, sigma: float,
                         windows: int = 4) -> SampledSpectrum:
    """Random smooth spectrum: three complex Gaussian bumps inside the cover."""
    edge = (2 * windows + 1) * sigma
    fg = make_uniform_grid(-edge, edge, 2048 * (2 * windows + 1) + 1)
    y = fg.nodes()
    vals = np.zeros(y.size, dtype=np.complex128)
    for _ in range(3):
        center = rng.uniform(-2.5 * sigma, 2.5 * sigma)
        width = rng.uniform(0.2 * sigma, 0.8 * sigma)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        vals += amp * np.exp(-0.5 * ((y - center) / width) ** 2)
    return SampledSpectrum(grid=fg, values=vals)


def spectrum_norm_sq(fs: SampledSpectrum) -> float:
    """2 pi * int |fhat|^2, the time-domain norm by Parseval."""
    w = quadrature_weights(fs.grid)
    return float(2.0 * np.pi * (w * np.abs(fs.values) ** 2).sum())


def time_norm_sq(f: SampledFunction) -> float:
    w = quadrature_weights(f.grid)
    return float((w * np.abs(f.values) ** 2).sum().real)


def direct_fourier_sum(f: SampledFunction, freq: Grid,
                       rows: Optional[np.ndarray] = None) -> np.ndarray:
    """The quadrature transform as a dense phase-matrix sum.

    Reference for the chirp-z route of `fourier_transform_sampled`:
    ``(1/2pi) sum_j w_j f(x_j) exp(-i x_j y)`` at the ``freq`` nodes picked
    by ``rows`` (all of them by default), in chunks of modest memory.
    """
    x = f.grid.nodes()
    weighted = quadrature_weights(f.grid) * f.values / (2.0 * np.pi)
    y = freq.nodes() if rows is None else freq.nodes()[rows]
    out = np.empty(y.size, dtype=np.complex128)
    chunk = max(1, 4_000_000 // x.size)
    for lo in range(0, y.size, chunk):
        phase = np.exp(np.outer(y[lo:lo + chunk], x) * (-1j))
        out[lo:lo + chunk] = (phase * weighted).sum(axis=1)
    return out


def time_sample_shapes() -> dict:
    """Time samples as the sampled benchmark feeds them to the fold, by
    name: ``(samples, sigma, period-grid nodes)``.  Gaussians of width
    about 1 on a window of about +-8.6 widths, in 241 to 273 samples onto
    257 nodes (sigma 1 and 2) and in 257 and 513 onto 4097; spline members
    ``sum_{|j| <= 3} beta_j B(x - j pi)`` at step pi/32 (353 samples,
    m = 2) and pi/16 (193, m = 3) onto 129."""
    rng = np.random.default_rng(29)
    shapes = {}
    for count, width, sigma in ((241, 0.93, 1.0), (257, 1.0, 2.0),
                                (273, 1.07, 1.0), (273, 1.07, 2.0)):
        half = 8.6 * width
        grid = Grid(-half, half, count)
        shapes[f"{count}-onto-257-sigma{sigma:g}"] = (SampledFunction(
            grid, np.exp(-0.5 * (grid.nodes() / width) ** 2) + 0j), sigma, 257)
    for count in (257, 513):
        grid = Grid(-8.6, 8.6, count)
        shapes[f"{count}-onto-4097"] = (SampledFunction(
            grid, np.exp(-0.5 * grid.nodes() ** 2) + 0j), 1.0, 4097)
    for m, q in ((2, 32), (3, 16)):
        gen, h = spline(m), math.pi
        grid = Grid(-(m + 5) * h, 4 * h, (m + 9) * q + 1)
        beta = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        values = sum(b * gen.time_domain(grid.nodes() - j * h)
                     for j, b in zip(range(-3, 4), beta))
        shapes[f"{grid.count}-onto-129-m{m}"] = (
            SampledFunction(grid, values), 1.0, 129)
    return shapes


def _reference_rho_mask(grid: Grid, rho: float) -> np.ndarray:
    return np.abs(grid.nodes()) <= rho * (1.0 + 1e-12)


def _reference_piece_weights(grid: Grid, lo: int, hi: int) -> np.ndarray:
    """`quadrature_weights` of the sub-grid of nodes lo..hi, zero elsewhere."""
    w = np.zeros(grid.count)
    nodes = grid.nodes()
    sub = Grid(start=float(nodes[lo]), stop=float(nodes[hi]), count=hi - lo + 1)
    w[lo:hi + 1] = quadrature_weights(sub)
    return w


def reference_band_weights(grid: Grid, rho: float) -> np.ndarray:
    """Simpson weights of the band |y| <= rho on its own sub-grid, built
    radius by radius: the reference for `shiftspace._band_rows`."""
    idx = np.nonzero(_reference_rho_mask(grid, rho))[0]
    if idx.size < 2:
        return np.zeros(grid.count)
    return _reference_piece_weights(grid, int(idx[0]), int(idx[-1]))


def _reference_complement_weights(grid: Grid, rho: float) -> np.ndarray:
    idx = np.nonzero(_reference_rho_mask(grid, rho))[0]
    if idx.size == 0:
        return quadrature_weights(grid)
    w = np.zeros(grid.count)
    lo, hi = int(idx[0]), int(idx[-1])
    if lo >= 1:
        w += _reference_piece_weights(grid, 0, lo)
    if hi <= grid.count - 2:
        w += _reference_piece_weights(grid, hi, grid.count - 1)
    return w


def reference_energy_split(fs: SampledSpectrum, gen: Generator, sigma: float,
                           rhos: Sequence[float], grid: Grid,
                           tol: float = 1e-8) -> list:
    """The energy split of a spectrum f at each radius by a loop over the
    radii, one band mask and one sub-grid `Grid` per radius: the slow-path
    reference for `best_approx_error_sq` and `project`.  Returns one
    ``(active, projection_norm_sq, error_sq, guard_mass, zeta)`` per radius,
    zeta being the band-limited transform.  The fold is the library's own:
    only the split that follows it is under test."""
    fold = _fold(_on_extension(fs, gen, sigma, grid, tol), gen, sigma, grid, tol)
    total_energy = float(TWO_PI * (quadrature_weights(grid) * fold.energy).sum())
    seam = [0, -1]
    splits = []
    for rho in rhos:
        weights = reference_band_weights(grid, rho)
        band = _reference_rho_mask(grid, rho)
        active = band & fold.live
        mass = weights * np.where(active, fold.captured, 0.0)
        seam_mass = mass[seam].sum()
        seam_cap = (weights[seam] * fold.energy[seam]).sum()
        if seam_mass > seam_cap:
            mass[seam] *= seam_cap / seam_mass
        projection_norm_sq = max(TWO_PI * float(mass.sum()), 0.0)
        guarded = band & ~fold.live
        splits.append((active, projection_norm_sq,
                       max(total_energy - projection_norm_sq, 0.0),
                       float((np.abs(fold.bracket[guarded]) ** 2).sum()),
                       np.where(active, fold.zeta, 0.0)))
    return splits


def reference_coeffs(zeta: np.ndarray, grid: Grid, sigma: float, rho: float,
                     j_range: int) -> Tuple[np.ndarray, float]:
    """Shift coefficients of a band-limited transform and their vanishing
    defect, on weights built radius by radius: the reference for
    `coeffs_from_zeta`."""
    weighted = reference_band_weights(grid, rho) * zeta
    period = grid.count - 1
    folded = weighted[:-1].copy()
    folded[0] += weighted[-1]
    dft = np.fft.ifft(folded) * period
    js = np.arange(-j_range, j_range + 1)
    coeffs = (1 - 2 * (js % 2)) * dft[js % period] / (2.0 * sigma)
    if rho >= sigma * (1.0 - 1e-12):
        return coeffs, 0.0
    trig = zeta_of_coeffs(ShiftExpansion(sigma=sigma, rho=sigma, coeffs=coeffs),
                          grid).values
    w = _reference_complement_weights(grid, rho)
    return coeffs, float(np.sqrt(max((w * np.abs(trig) ** 2).sum(), 0.0)))


def direct_coeffs(weighted: np.ndarray, grid: Grid, sigma: float,
                  j_range: int) -> np.ndarray:
    """``(1/2 sigma) sum_k weighted_k e^{i j pi y_k / sigma}``, |j| <= j_range,
    as a dense sum: the reference for the DFT route of `coeffs_from_zeta`."""
    js = np.arange(-j_range, j_range + 1).astype(float)
    phases = np.exp((1j * np.pi / sigma) * np.outer(js, grid.nodes()))
    return (phases * weighted).sum(axis=1) / (2.0 * sigma)


#: points and span of the log-spaced grid of `decay_audit_max_ratio`
_AUDIT_POINTS = 10_000
_AUDIT_SPAN = 1e3


def decay_audit_max_ratio(gen: Generator, sigma: float) -> float:
    """Worst ratio ``|spectrum| * (1+|y|)^p / C`` over the audit grid.

    The audit grid is log-spaced over ``[-1e3*sigma, 1e3*sigma]`` (both
    signs, plus zero) with ``1e4`` points.
    """
    half = np.geomspace(1e-3 * sigma, _AUDIT_SPAN * sigma, _AUDIT_POINTS // 2)
    ys = np.concatenate([-half[::-1], [0.0], half])
    ratio = np.abs(gen.spectrum(ys)) * (1.0 + np.abs(ys)) ** gen.decay_exponent
    return float(np.max(ratio) / gen.decay_constant)


def reference_csv(*columns: Sequence) -> str:
    """``%.17g`` CSV lines formatted value by value, the reference for
    `numerics.csv_text`: columns of Python numbers (``ndarray.tolist()``)."""
    return "\n".join(",".join(format(v, ".17g") for v in row)
                     for row in zip(*columns))


def run_cli(argv) -> Tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(list(argv))
    return rc, buf.getvalue()


GAUSS_WIDTH_ONE = gaussian_generator(1.0)
