"""Transform, synthesis, Plancherel identities, projection, and best error.

For a generator B with shifts B(. - j pi/sigma), a member
``s = sum_j beta_j B(. - j pi/sigma)`` is encoded by the 2*sigma-periodic
function ``zeta(y) = sum_j beta_j e^{-i j pi y / sigma}``; the map f |-> zeta
extends to all of L2 through the folded spectral sum

    zeta(y) = (1/D(y)) * sum_k conj(spectrum(y + 2 k sigma)) * fhat(y + 2 k sigma)

and every norm, inner product, projection, and best-approximation error of
the shift space is an explicit weighted integral of zeta over one period.

Numerical architecture: all period integrals share one uniform grid on
[-sigma, sigma]; the spectrum of f lives on the aligned extension of that
grid over 2K+1 periods so that folding is pure array slicing and the two
integrals of the error formula (total energy and captured energy) use the
same nodes.  Node-wise Cauchy-Schwarz then makes the Bessel inequality and
the monotonicity of the error in rho structural facts of the discretization
rather than accidents of quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (GridMismatchError, InvalidGridError,
                     MissingTimeDomainError, ResolutionError, ShiftSpaceError)
from .generator import Generator, _interp_complex
from .numerics import (Grid, SampledFunction, SampledSpectrum, TWO_PI,
                       chunk_slices, covering_windows,
                       fourier_transform_sampled, period_extension,
                       quadrature_weights, resolved_band)
from .spectral import (EPSILON_D, PeriodizedSpectrum, periodize,
                       require_period_grid)

_RHO_RTOL = 1e-12
#: outer-window energy share at which `_spectrum_of` stops doubling
_MASS_TOL = 1e-12
#: period-grid nodes of ``project`` and ``best_approx_error_sq`` by default
DEFAULT_GRID_COUNT = 4097


@dataclass(frozen=True)
class ShiftExpansion:
    """Finite coefficient vector beta_j, j = -j_max .. j_max.

    ``vanishing_defect`` is the L2 size of the trigonometric sum on the
    excluded band rho < |y| <= sigma; finite expansions of a proper
    subspace (rho < sigma) can satisfy the vanishing condition only
    approximately, so the residual is attached instead of asserted.
    """

    sigma: float
    rho: float
    coeffs: np.ndarray
    vanishing_defect: float = 0.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not 0 < self.rho <= self.sigma * (1.0 + _RHO_RTOL):
            raise ValueError(f"rho must be in (0, sigma], got {self.rho}")
        if self.coeffs.ndim != 1 or self.coeffs.size % 2 == 0:
            raise ValueError("coeffs must be a 1-d array of odd length "
                             "(symmetric index range)")

    @property
    def j_max(self) -> int:
        return (self.coeffs.size - 1) // 2

    def indices(self) -> np.ndarray:
        return np.arange(-self.j_max, self.j_max + 1)


@dataclass(frozen=True)
class ZetaFunction:
    sigma: float
    rho: float
    grid: Grid
    values: np.ndarray
    zero_set_enforced: bool = False

    def __post_init__(self) -> None:
        if self.values.shape != (self.grid.count,):
            raise ValueError("values length does not match grid")
        if self.zero_set_enforced:
            outside = np.abs(self.grid.nodes()) > self.rho * (1.0 + _RHO_RTOL)
            if np.any(self.values[outside] != 0):
                raise ValueError("zero_set_enforced but values are nonzero "
                                 "beyond |y| = rho")


@dataclass(frozen=True)
class ProjectionResult:
    zeta: ZetaFunction
    coeffs: ShiftExpansion
    projection_norm_sq: float
    error_sq: float
    guard_mass: float


def _same_grid(a: Grid, b: Grid) -> bool:
    tol = 1e-9 * max(a.span(), b.span(), 1.0)
    return (a.count == b.count and abs(a.start - b.start) <= tol
            and abs(a.stop - b.stop) <= tol)


def _rho_mask(grid: Grid, rho: float) -> np.ndarray:
    return np.abs(grid.nodes()) <= rho * (1.0 + _RHO_RTOL)


def _piece_weights(grid: Grid, lo: int, hi: int) -> np.ndarray:
    """Simpson weights of the contiguous sub-grid of nodes lo..hi, zero
    elsewhere."""
    w = np.zeros(grid.count)
    nodes = grid.nodes()
    sub = Grid(start=float(nodes[lo]), stop=float(nodes[hi]), count=hi - lo + 1)
    w[lo:hi + 1] = quadrature_weights(sub)
    return w


def _band_weights(grid: Grid, rho: float) -> np.ndarray:
    """Simpson weights for the sub-band |y| <= rho, zero outside.

    Rebuilt on the contiguous sub-grid rather than masked from the full
    interval, so the cut at +-rho carries no O(step) boundary error.  At
    rho = sigma this reduces to the plain full-interval weights.
    """
    idx = np.nonzero(_rho_mask(grid, rho))[0]
    if idx.size < 2:
        return np.zeros(grid.count)
    return _piece_weights(grid, int(idx[0]), int(idx[-1]))


def _complement_weights(grid: Grid, rho: float) -> np.ndarray:
    """Weights for the two closed pieces rho <= |y| <= sigma of the period."""
    idx = np.nonzero(_rho_mask(grid, rho))[0]
    if idx.size == 0:
        return quadrature_weights(grid)
    w = np.zeros(grid.count)
    lo, hi = int(idx[0]), int(idx[-1])
    if lo >= 1:
        w += _piece_weights(grid, 0, lo)
    if hi <= grid.count - 2:
        w += _piece_weights(grid, hi, grid.count - 1)
    return w


def _seam_extrapolate(values: np.ndarray) -> np.ndarray:
    """Replace the two period-boundary samples by interior quadratic
    extrapolation.

    The boundary nodes describe the split point of the period; spectra
    supported up to exactly the lattice edge take jump-midpoint values
    there (a measure-zero artifact), and squaring such samples breaks the
    midpoint cancellation that keeps every other panel accurate.  The
    continuity limit from the interior is the canonical representative;
    for smooth data the replacement changes the values by O(step^3).
    """
    if values.size < 5:
        return values
    out = values.copy()
    out[0] = 3.0 * values[1] - 3.0 * values[2] + values[3]
    out[-1] = 3.0 * values[-2] - 3.0 * values[-3] + values[-4]
    return out


def _regularized_density(dv: PeriodizedSpectrum) -> np.ndarray:
    out = _seam_extrapolate(dv.values)
    if out.size >= 5:
        out[0] = max(out[0], 0.0)
        out[-1] = max(out[-1], 0.0)
    return out


def zeta_of_coeffs(exp: ShiftExpansion, grid: Grid) -> ZetaFunction:
    """Exact finite sum ``sum_j beta_j e^{-i j pi y / sigma}`` at the nodes."""
    y = grid.nodes()
    js = exp.indices().astype(float)
    phases = np.exp((-1j * np.pi / exp.sigma) * y[:, np.newaxis] * js)
    values = (phases * exp.coeffs).sum(axis=1)
    return ZetaFunction(sigma=exp.sigma, rho=exp.rho, grid=grid, values=values,
                        zero_set_enforced=False)


def coeffs_from_zeta(zeta: ZetaFunction, j_range: int) -> ShiftExpansion:
    """Fourier coefficients ``beta_j = (1/2 sigma) integral_{-rho}^{rho}
    zeta(y) e^{i j pi y / sigma} dy`` for |j| <= j_range.

    Composite Simpson over one full period annihilates e^{i l pi y/sigma}
    exactly for 0 < |l| < (count-1)/2, so round trips with trigonometric
    polynomials are exact at the default resolution.

    The grid must span one period [-sigma, sigma].  There
    ``e^{i j pi y_k / sigma} = (-1)^j e^{2 pi i j k / (count-1)}``, so with
    the last node folded onto the first (same phase) the quadrature sum is
    one length-(count-1) inverse DFT.
    """
    grid = zeta.grid
    require_period_grid(grid, zeta.sigma)
    nodes_per_period = 2.0 * zeta.sigma / (max(j_range, 1) * grid.step)
    if nodes_per_period < 8.0:
        raise ResolutionError(
            f"grid step {grid.step:.3g} cannot resolve shift index "
            f"{j_range} (needs >= 8 nodes per oscillation period, "
            f"has {nodes_per_period:.2f})")
    weighted = _band_weights(grid, zeta.rho) * zeta.values
    period = grid.count - 1
    folded = weighted[:-1].copy()
    folded[0] += weighted[-1]
    dft = np.fft.ifft(folded) * period
    js = np.arange(-j_range, j_range + 1)
    coeffs = (1 - 2 * (js % 2)) * dft[js % period] / (2.0 * zeta.sigma)
    defect = _vanishing_defect(zeta.sigma, zeta.rho, coeffs, grid)
    return ShiftExpansion(sigma=zeta.sigma, rho=zeta.rho, coeffs=coeffs,
                          vanishing_defect=defect)


def _vanishing_defect(sigma: float, rho: float, coeffs: np.ndarray,
                      grid: Grid) -> float:
    if rho >= sigma * (1.0 - 1e-12):
        return 0.0
    tmp = ShiftExpansion(sigma=sigma, rho=sigma, coeffs=coeffs)
    trig = zeta_of_coeffs(tmp, grid).values
    w = _complement_weights(grid, rho)
    return float(np.sqrt(max((w * np.abs(trig) ** 2).sum(), 0.0)))


def synthesize(exp: ShiftExpansion, gen: Generator, x_grid: Grid) -> SampledFunction:
    """``s(x) = sum_j beta_j B(x - j pi / sigma)`` sampled on x_grid."""
    if gen.time_domain is None:
        raise MissingTimeDomainError(
            f"generator {gen.label!r} has no time-domain evaluator")
    x = x_grid.nodes()
    h = np.pi / exp.sigma
    js = exp.indices().astype(float)
    values = np.zeros(x.size, dtype=np.complex128)
    for sl in chunk_slices(js.size, x.size):
        values += (gen.time_domain(x[:, np.newaxis] - js[sl] * h)
                   * exp.coeffs[sl]).sum(axis=1)
    return SampledFunction(grid=x_grid, values=values)


@dataclass(frozen=True)
class _FoldResult:
    """Shared per-node arrays of the folded pipeline on the base grid.

    bracket and energy carry seam-extrapolated values at the two
    period-boundary nodes; density holds the raw periodization.  The
    division by the endpoint-regularized D is done once, at the live nodes
    (D above the guard), for the transform and the captured energy.
    """

    grid: Grid
    bracket: np.ndarray       # sum_k conj(B^)(y+2ks) fhat(y+2ks)
    energy: np.ndarray        # sum_k |fhat(y+2ks)|^2
    density: PeriodizedSpectrum
    live: np.ndarray          # regularized D > EPSILON_D
    zeta: np.ndarray          # bracket / D at live nodes, 0 elsewhere
    captured: np.ndarray      # |bracket|^2 / D at live nodes


def _fold(f_spec: SampledSpectrum, gen: Generator, sigma: float, grid: Grid,
          tol: float) -> _FoldResult:
    require_period_grid(grid, sigma)
    n = grid.count
    step = grid.step
    cover = max(abs(f_spec.grid.start), abs(f_spec.grid.stop))
    windows = covering_windows(cover, sigma)
    full = period_extension(sigma, n, windows)
    m = full.count
    y_full = full.nodes()

    fg = f_spec.grid
    offset = (fg.start - full.start) / step
    aligned = (abs(fg.step - step) <= 1e-9 * step
               and abs(offset - round(offset)) <= 1e-6)
    fvals = np.zeros(m, dtype=np.complex128)
    if aligned:
        i0 = int(round(offset))
        src_lo = max(0, -i0)
        src_hi = min(fg.count, m - i0)
        if src_hi > src_lo:
            fvals[i0 + src_lo:i0 + src_hi] = f_spec.values[src_lo:src_hi]
    else:
        fvals = _interp_complex(fg.nodes(), f_spec.values)(y_full)

    spec_full = np.conj(gen.spectrum(y_full))
    bracket = np.zeros(n, dtype=np.complex128)
    energy = np.zeros(n)
    for k in range(2 * windows + 1):
        sl = slice(k * (n - 1), k * (n - 1) + n)
        bracket += spec_full[sl] * fvals[sl]
        energy += np.abs(fvals[sl]) ** 2
    bracket = _seam_extrapolate(bracket)
    energy = np.maximum(_seam_extrapolate(energy), 0.0)
    density = periodize(gen, sigma, grid, tol=tol, min_terms=windows)
    density_reg = _regularized_density(density)
    live = density_reg > EPSILON_D
    safe = np.where(live, density_reg, 1.0)
    return _FoldResult(grid=grid, bracket=bracket, energy=energy,
                       density=density, live=live,
                       zeta=np.where(live, bracket / safe, 0.0),
                       captured=np.abs(bracket) ** 2 / safe)


@dataclass(frozen=True)
class _EnergySplit:
    """Energy of f on either side of the rho-band shift space."""

    active: np.ndarray        # |y| <= rho and D above the division guard
    projection_norm_sq: float
    error_sq: float
    guard_mass: float         # bracket mass discarded by the guard in band


def _energy_split(f: Union[SampledFunction, SampledSpectrum], gen: Generator,
                  sigma: float, rhos: Sequence[float], tol: float,
                  grid: Optional[Grid]
                  ) -> Tuple[_FoldResult, List[_EnergySplit]]:
    """Fold f once and split its energy at every band radius in ``rhos``.

    ``projection_norm_sq = 2 pi integral_{-rho}^{rho} |bracket|^2 / D`` and
    ``error_sq = 2 pi integral |fhat|^2 - projection_norm_sq``, each clamped
    at zero, with both integrals on the same nodes.  Time samples are first
    transformed onto aligned extensions of the base grid.

    Cauchy-Schwarz bounds the captured integrand node-wise by the energy.
    Inside the period that holds structurally.  The two seam nodes are
    one-sided limits at the same point of the period, extrapolated
    separately for bracket, energy and D, so the bound is imposed on their
    joint mass.
    """
    for rho in rhos:
        if not 0 < rho <= sigma * (1.0 + _RHO_RTOL):
            raise InvalidGridError(f"rho must be in (0, sigma], got {rho}")
    if grid is None:
        grid = Grid(start=-sigma, stop=sigma, count=DEFAULT_GRID_COUNT)
    if isinstance(f, SampledFunction):
        f = _spectrum_of(f, sigma, grid)
    fold = _fold(f, gen, sigma, grid, tol)
    total_energy = float(TWO_PI * (quadrature_weights(grid) * fold.energy).sum())
    seam = [0, -1]
    splits = []
    for rho in rhos:
        weights = _band_weights(grid, rho)
        band = _rho_mask(grid, rho)
        active = band & fold.live
        mass = weights * np.where(active, fold.captured, 0.0)
        seam_mass = mass[seam].sum()
        seam_cap = (weights[seam] * fold.energy[seam]).sum()
        if seam_mass > seam_cap:
            mass[seam] *= seam_cap / seam_mass
        projection_norm_sq = max(TWO_PI * float(mass.sum()), 0.0)
        if projection_norm_sq > total_energy * (1.0 + 1e-9) + tol:
            raise ShiftSpaceError(
                f"captured energy {projection_norm_sq} exceeds input energy "
                f"{total_energy}: quadrature inconsistency")
        guarded = band & ~fold.live
        splits.append(_EnergySplit(
            active=active, projection_norm_sq=projection_norm_sq,
            error_sq=max(total_energy - projection_norm_sq, 0.0),
            guard_mass=float((np.abs(fold.bracket[guarded]) ** 2).sum())))
    return fold, splits


def zeta_transform(f_spec: SampledSpectrum, gen: Generator, sigma: float,
                   grid: Grid, tol: float = 1e-8) -> ZetaFunction:
    """The folded-spectrum transform of f on one period.

    Nodes where D is at or below the division guard contribute zero; their
    discarded bracket mass is visible through ``project``.
    """
    fold, _ = _energy_split(f_spec, gen, sigma, (), tol, grid)
    return ZetaFunction(sigma=float(sigma), rho=float(sigma), grid=grid,
                        values=fold.zeta, zero_set_enforced=False)


def plancherel_norm_sq(zeta: ZetaFunction, dv: PeriodizedSpectrum) -> float:
    """``2 pi * integral_{-rho}^{rho} |zeta|^2 D`` on the shared grid."""
    if not _same_grid(zeta.grid, dv.grid):
        raise GridMismatchError("zeta and D live on different grids")
    w = _band_weights(zeta.grid, zeta.rho)
    total = (w * np.abs(zeta.values) ** 2 * _regularized_density(dv)).sum()
    return float(max(TWO_PI * total, 0.0))


def plancherel_inner(zeta_s: ZetaFunction, zeta_t: ZetaFunction,
                     dv: PeriodizedSpectrum) -> complex:
    """``2 pi * integral zeta_S conj(zeta_T) D`` over the common band."""
    if not (_same_grid(zeta_s.grid, zeta_t.grid)
            and _same_grid(zeta_s.grid, dv.grid)):
        raise GridMismatchError("inner product operands on different grids")
    rho = min(zeta_s.rho, zeta_t.rho)
    w = _band_weights(zeta_s.grid, rho)
    total = (w * zeta_s.values * np.conj(zeta_t.values)
             * _regularized_density(dv)).sum()
    return complex(TWO_PI * total)


def _spectrum_of(f: SampledFunction, sigma: float, grid: Grid) -> SampledSpectrum:
    """Spectrum of time samples on aligned extensions of the base grid.

    The frequency extent doubles until the outermost period windows hold a
    negligible share of the energy, up to the most windows that stay inside
    the band the samples resolve (`resolved_band`), and at most 16: beyond
    that band the quadrature transform returns aliased copies of the
    spectrum, not the spectrum.
    """
    n = grid.count
    limit = min(16, int((resolved_band(f.grid.step) / sigma - 1.0) // 2.0))
    windows = 1
    while True:
        freq = period_extension(sigma, n, windows)
        spec = fourier_transform_sampled(f, freq)
        power = np.abs(spec.values) ** 2
        outer = power[:n - 1].sum() + power[freq.count - n + 1:].sum()
        if outer <= _MASS_TOL * max(power.sum(), 1e-300) or windows >= limit:
            return spec
        windows = min(2 * windows, limit)


def project(f: Union[SampledFunction, SampledSpectrum], gen: Generator,
            sigma: float, rho: float, tol: float = 1e-8,
            grid: Optional[Grid] = None, j_range: int = 64) -> ProjectionResult:
    """Orthogonal projection of f onto the rho-band shift space.

    Returns the band-limited transform (zero enforced outside |y| <= rho),
    recovered shift coefficients, the captured energy, the exact-formula
    squared error, and the bracket mass discarded by the division guard.
    """
    fold, (split,) = _energy_split(f, gen, sigma, (rho,), tol, grid)
    zeta = ZetaFunction(sigma=float(sigma), rho=float(rho), grid=fold.grid,
                        values=np.where(split.active, fold.zeta, 0.0),
                        zero_set_enforced=True)
    coeffs = coeffs_from_zeta(zeta, j_range)
    return ProjectionResult(zeta=zeta, coeffs=coeffs,
                            projection_norm_sq=split.projection_norm_sq,
                            error_sq=split.error_sq,
                            guard_mass=split.guard_mass)


def best_approx_error_sq(f: Union[SampledFunction, SampledSpectrum],
                         gen: Generator, sigma: float,
                         rho: Union[float, Sequence[float]], tol: float = 1e-8,
                         grid: Optional[Grid] = None
                         ) -> Union[float, np.ndarray]:
    """Exact-formula squared distance of f from the rho-band shift space.

    Computed as ``2 pi (integral |fhat|^2 - integral_{-rho}^{rho}
    |bracket|^2 / D)`` with both integrals on the same nodes; clamped at
    zero.  ``rho`` may be one radius (a float is returned) or a 1-d
    sequence of radii (an array is returned); f is folded once for all of
    them.  Use ``project`` for the coefficients and the discarded guard
    mass.
    """
    rhos = np.asarray(rho, dtype=float)
    if rhos.ndim > 1:
        raise ValueError(f"rho must be a number or a 1-d sequence, "
                         f"got shape {rhos.shape}")
    _, splits = _energy_split(f, gen, sigma, [float(r) for r in rhos.ravel()],
                              tol, grid)
    errors = np.array([split.error_sq for split in splits])
    return float(errors[0]) if rhos.ndim == 0 else errors
