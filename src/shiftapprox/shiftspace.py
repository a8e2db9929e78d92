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
rather than accidents of quadrature.  f is folded once per sigma; every band
radius then splits its energy in one vectorised pass over the rows of
`_band_rows`, each row reading the bytes of a single-radius run.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (GridMismatchError, InvalidGridError,
                     MissingTimeDomainError, ResolutionError, ShiftSpaceError)
from .generator import Generator, _interp_complex
from .numerics import (Grid, SampledFunction, SampledSpectrum, TWO_PI,
                       chunk_slices, covering_windows,
                       add_quadrature_weights, fourier_transform_sampled,
                       period_extension, quadrature_weights, resolved_band,
                       shared_grid, subgrid_offset)
from .spectral import (EPSILON_D, PeriodizedSpectrum, _kept, envelope_order,
                       lattice_spectrum, periodize, require_period_grid)

_RHO_RTOL = 1e-12
#: outer-window energy share at which `_spectrum_of` stops doubling
_MASS_TOL = 1e-12
#: period-grid nodes of ``project`` and ``best_approx_error_sq`` by default
DEFAULT_GRID_COUNT = 4097

#: a signal: time samples, a spectrum, or an analytic f as a generator
Signal = Union[SampledFunction, SampledSpectrum, Generator]


def rho_in_band(rho: float, sigma: float) -> bool:
    """The band rule: ``0 < rho <= sigma``, up to a relative 1e-12 above."""
    return 0 < rho <= sigma * (1.0 + _RHO_RTOL)


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
        if not rho_in_band(self.rho, self.sigma):
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


def _simpson_rows(nodes: np.ndarray, lo: Sequence[int], hi: Sequence[int]
                  ) -> np.ndarray:
    """Simpson weights on the nodes ``lo[r] .. hi[r]``, one row each, zero
    elsewhere and on a row of fewer than two nodes.

    Each row slice takes `add_quadrature_weights` at the step of
    ``Grid(nodes[lo], nodes[hi], hi - lo + 1)``: the sub-grid's own weights,
    value for value.
    """
    w = np.zeros((len(lo), nodes.size))
    for row, a, b in zip(w, lo, hi):
        if b > a:
            add_quadrature_weights(row[a:b + 1], float(nodes[b] - nodes[a]) / (b - a))
    return w


def _band_rows(grid: Grid, rhos: Sequence[float]
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the bands ``|y| <= rho`` and their Simpson weights, as
    ``(radii, count)`` arrays.

    ``|y| <= t`` is ``-t <= y <= t``, so each band runs between two sorted
    searches of the nodes.  Its weights are rebuilt on the band's
    contiguous sub-grid rather than masked from the full interval.  For
    rho on a node that sub-grid ends at +-rho, so the cut carries no O(step)
    boundary error; for rho between nodes the band stops short of +-rho by
    up to a step, an O(step) error in what the row integrates (ROADMAP
    item 2).  When every band covers the period the rows are the grid's
    own full-period weights (`quadrature_weights`), read-only.
    """
    t = np.asarray(rhos, dtype=float) * (1.0 + _RHO_RTOL)
    nodes = grid.nodes()
    lo = np.searchsorted(nodes, -t).tolist()
    hi = (np.searchsorted(nodes, t, side="right") - 1).tolist()
    last = grid.count - 1
    if all(a == 0 for a in lo) and all(b == last for b in hi):
        weights = np.broadcast_to(quadrature_weights(grid), (len(lo), grid.count))
    else:
        weights = _simpson_rows(nodes, lo, hi)
    return np.abs(nodes) <= t[:, None], weights


def _jumps_at_seam(radius: Optional[float], sigma: float) -> bool:
    """Whether a declared spectral support ``radius`` is an odd multiple of
    sigma (to a relative 1e-9): the spectrum jumps on a seam of the fold."""
    if radius is None:
        return False
    ratio = radius / sigma
    k = round(ratio)
    return k % 2 == 1 and abs(ratio - k) <= 1e-9 * k


def _seam_extrapolate(values: np.ndarray) -> np.ndarray:
    """Replace the two seam samples of a fold by interior quadratic
    extrapolation.

    The seam nodes are one point of the period.  A spectrum of f or B that
    jumps there (a sinc) puts a midpoint value on them, and squaring it
    breaks the midpoint cancellation that keeps every other panel accurate.
    The extrapolation gives the limit from inside, which D's seam nodes
    hold.  Smooth data would move O(step^3), capping a fold that is
    otherwise spectrally accurate, so `_fold` calls this only under a
    declared jump (`_jumps_at_seam`).
    """
    if values.size < 5:
        return values
    out = values.copy()
    out[0] = 3.0 * values[1] - 3.0 * values[2] + values[3]
    out[-1] = 3.0 * values[-2] - 3.0 * values[-3] + values[-4]
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

    The grid must be a period grid (`require_period_grid`).  There
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
    band, weights = _band_rows(grid, (zeta.rho,))
    weighted = weights[0] * zeta.values
    period = grid.count - 1
    folded = weighted[:-1].copy()
    folded[0] += weighted[-1]
    dft = np.fft.ifft(folded) * period
    js = np.arange(-j_range, j_range + 1)
    coeffs = (1 - 2 * (js % 2)) * dft[js % period] / (2.0 * zeta.sigma)
    defect = _vanishing_defect(zeta.sigma, zeta.rho, coeffs, grid, band[0])
    return ShiftExpansion(sigma=zeta.sigma, rho=zeta.rho, coeffs=coeffs,
                          vanishing_defect=defect)


def _vanishing_defect(sigma: float, rho: float, coeffs: np.ndarray,
                      grid: Grid, band: np.ndarray) -> float:
    """L2 size of the trigonometric sum on the two closed pieces
    rho <= |y| <= sigma of the period, each a row of `_simpson_rows`: from
    the period's ends to the first and last node of ``band`` (a lone node
    weighs nothing), or the whole period when ``band`` holds no node."""
    if rho >= sigma * (1.0 - 1e-12):
        return 0.0
    tmp = ShiftExpansion(sigma=sigma, rho=sigma, coeffs=coeffs)
    trig = zeta_of_coeffs(tmp, grid).values
    idx, last = np.flatnonzero(band), grid.count - 1
    lo, hi = (idx[0], idx[-1]) if idx.size else (last, last)
    w = _simpson_rows(grid.nodes(), (0, hi), (lo, last))
    return float(np.sqrt(max((w.sum(axis=0) * np.abs(trig) ** 2).sum(), 0.0)))


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

    bracket and energy are the raw fold, or carry seam-extrapolated values
    (`_seam_extrapolate`) when a spectrum declares a jump on the seam, and
    density is `periodize`'s D.  The division by D is done once, at the
    live nodes (D above the guard), for the transform and the captured
    energy.
    """

    grid: Grid
    bracket: np.ndarray       # sum_k conj(B^)(y+2ks) fhat(y+2ks)
    energy: np.ndarray        # sum_k |fhat(y+2ks)|^2
    density: PeriodizedSpectrum
    live: np.ndarray          # D > EPSILON_D
    zeta: np.ndarray          # bracket / D at live nodes, 0 elsewhere
    captured: np.ndarray      # |bracket|^2 / D at live nodes


_Extended = Tuple[np.ndarray, int, Optional[float]]


def _on_extension(f: Signal, gen: Generator, sigma: float, grid: Grid,
                  tol: float) -> _Extended:
    """f-hat on ``period_extension(sigma, grid.count, windows)``, the
    windows, and f's declared spectral support (for `_jumps_at_seam`).

    An analytic f is sampled on the windows `_signal_windows` gives.  A
    spectrum, a file's or that of time samples (`_spectrum_of`), covers its
    own windows: read as it is on exactly that extension, copied when its
    nodes are nodes of it (`subgrid_offset`), interpolated otherwise.
    """
    n = grid.count
    if isinstance(f, Generator):
        windows = _signal_windows(f, gen, sigma, tol)
        full = period_extension(sigma, n, windows)
        # validated as a spectrum sample: finite, held as complex128
        values = SampledSpectrum(grid=full, values=f.spectrum(full.nodes())).values
        return values, windows, f.spectral_support
    if isinstance(f, SampledFunction):
        f = _spectrum_of(f, sigma, grid)
    fg = f.grid
    windows = covering_windows(max(abs(fg.start), abs(fg.stop)), sigma)
    # the extension starts windows periods of n - 1 steps before the grid
    i0 = subgrid_offset(fg, grid)
    if i0 is not None:
        i0 += windows * (n - 1)
        if i0 == 0 and fg.count == (n - 1) * (2 * windows + 1) + 1:
            return f.values, windows, None
    full = period_extension(sigma, n, windows)
    if i0 is None:
        return _interp_complex(fg.nodes(), f.values)(full.nodes()), windows, None
    values = np.zeros(full.count, dtype=np.complex128)
    src_lo, src_hi = max(0, -i0), min(fg.count, full.count - i0)
    if src_hi > src_lo:
        values[i0 + src_lo:i0 + src_hi] = f.values[src_lo:src_hi]
    return values, windows, None


def _fold(fhat: _Extended, gen: Generator, sigma: float, grid: Grid,
          tol: float) -> _FoldResult:
    """Fold f-hat, given on an extension of ``grid`` (`_on_extension`),
    against B-hat over its windows.

    The extension is the shared grid (`period_extension`) and B-hat comes
    from the keeper (`lattice_spectrum`).  The seam nodes are extrapolated
    only when B's spectral support or f's is an odd multiple of sigma
    (`_jumps_at_seam`); every other fold is raw.
    """
    n = grid.count
    fvals, windows, f_support = fhat
    spec_full = lattice_spectrum(gen, sigma, n, windows)
    bracket = np.zeros(n, dtype=np.complex128)
    energy = np.zeros(n)
    for k in range(2 * windows + 1):
        sl = slice(k * (n - 1), k * (n - 1) + n)
        bracket += spec_full[sl] * fvals[sl]
        energy += np.abs(fvals[sl]) ** 2
    if any(_jumps_at_seam(r, sigma) for r in (gen.spectral_support, f_support)):
        bracket = _seam_extrapolate(bracket)
        energy = np.maximum(_seam_extrapolate(energy), 0.0)
    density = periodize(gen, sigma, grid, tol=tol)
    live = density.values > EPSILON_D
    safe = np.where(live, density.values, 1.0)
    return _FoldResult(grid=grid, bracket=bracket, energy=energy,
                       density=density, live=live,
                       zeta=np.where(live, bracket / safe, 0.0),
                       captured=np.abs(bracket) ** 2 / safe)


@dataclass(frozen=True)
class _EnergySplit:
    """Energy of f on either side of the rho-band shift space, one row (or
    entry) per band radius."""

    active: np.ndarray              # |y| <= rho and D above the division guard
    projection_norm_sq: np.ndarray
    error_sq: np.ndarray
    guard_mass: np.ndarray          # bracket mass discarded by the guard in band


def _energy_split(f: Signal, gen: Generator,
                  sigma: float, rhos: Sequence[float], tol: float,
                  grid: Optional[Grid]
                  ) -> Tuple[_FoldResult, _EnergySplit]:
    """Fold f once and split its energy at every band radius in ``rhos``,
    all radii in one pass over `_band_rows`.

    ``projection_norm_sq = 2 pi integral_{-rho}^{rho} |bracket|^2 / D`` and
    ``error_sq = 2 pi integral |fhat|^2 - projection_norm_sq``, each clamped
    at zero, with both integrals on the same nodes.  f-hat is laid on one
    extension of the base grid (`_on_extension`) and folded there.

    The fold extrapolates its seam nodes only under a declared jump
    (`_fold`); time samples and spectrum files declare none.

    Cauchy-Schwarz bounds the captured integrand node-wise by the energy.
    Inside the period, and on the seam of a raw fold, that holds
    structurally.  An extrapolated seam takes bracket and energy each from
    the interior while D is evaluated, so the bound is imposed on the two
    seam nodes' joint mass.

    Each row reduces as a contiguous row, so every radius reads the same
    values, to the bit, as a split at that radius alone.
    """
    for rho in rhos:
        if not rho_in_band(rho, sigma):
            raise InvalidGridError(f"rho must be in (0, sigma], got {rho}")
    if grid is None:
        grid = shared_grid(-sigma, sigma, DEFAULT_GRID_COUNT)
    require_period_grid(grid, sigma)
    fold = _fold(_on_extension(f, gen, sigma, grid, tol), gen, sigma, grid, tol)
    total_energy = float(TWO_PI * (quadrature_weights(grid) * fold.energy).sum())
    band, weights = _band_rows(grid, rhos)
    active = band & fold.live
    mass = weights * np.where(active, fold.captured, 0.0)
    seam_mass = mass[:, 0] + mass[:, -1]
    seam_cap = weights[:, 0] * fold.energy[0] + weights[:, -1] * fold.energy[-1]
    for r in np.flatnonzero(seam_mass > seam_cap):
        mass[r, [0, -1]] *= seam_cap[r] / seam_mass[r]
    projection_norm_sq = np.maximum(TWO_PI * mass.sum(axis=1), 0.0)
    exceeds = projection_norm_sq > total_energy * (1.0 + 1e-9) + tol
    if exceeds.any():
        raise ShiftSpaceError(
            f"captured energy {projection_norm_sq[exceeds.argmax()]} exceeds "
            f"input energy {total_energy}: quadrature inconsistency")
    guard_mass = np.zeros(len(rhos))
    if not fold.live.all():
        guarded = band & ~fold.live
        for r in np.flatnonzero(guarded.any(axis=1)):
            guard_mass[r] = (np.abs(fold.bracket[guarded[r]]) ** 2).sum()
    return fold, _EnergySplit(
        active=active, projection_norm_sq=projection_norm_sq,
        error_sq=np.maximum(total_energy - projection_norm_sq, 0.0),
        guard_mass=guard_mass)


def zeta_transform(f: Signal, gen: Generator, sigma: float, grid: Grid,
                   tol: float = 1e-8) -> ZetaFunction:
    """The folded-spectrum transform of f on one period.

    f is any input `project` takes, and the values are those of its zeta at
    rho = sigma.  Nodes where D is at or below the division guard contribute
    zero; their discarded bracket mass is visible through ``project``.
    """
    require_period_grid(grid, sigma)
    fold = _fold(_on_extension(f, gen, sigma, grid, tol), gen, sigma, grid, tol)
    return ZetaFunction(sigma=float(sigma), rho=float(sigma), grid=grid,
                        values=fold.zeta, zero_set_enforced=False)


def plancherel_norm_sq(zeta: ZetaFunction, dv: PeriodizedSpectrum) -> float:
    """``2 pi * integral_{-rho}^{rho} |zeta|^2 D`` on the shared grid."""
    if not _same_grid(zeta.grid, dv.grid):
        raise GridMismatchError("zeta and D live on different grids")
    w = _band_rows(zeta.grid, (zeta.rho,))[1][0]
    total = (w * np.abs(zeta.values) ** 2 * dv.values).sum()
    return float(max(TWO_PI * total, 0.0))


def plancherel_inner(zeta_s: ZetaFunction, zeta_t: ZetaFunction,
                     dv: PeriodizedSpectrum) -> complex:
    """``2 pi * integral zeta_S conj(zeta_T) D`` over the common band."""
    if not (_same_grid(zeta_s.grid, zeta_t.grid)
            and _same_grid(zeta_s.grid, dv.grid)):
        raise GridMismatchError("inner product operands on different grids")
    rho = min(zeta_s.rho, zeta_t.rho)
    w = _band_rows(zeta_s.grid, (rho,))[1][0]
    total = (w * zeta_s.values * np.conj(zeta_t.values) * dv.values).sum()
    return complex(TWO_PI * total)


def _spectrum_of(f: SampledFunction, sigma: float, grid: Grid) -> SampledSpectrum:
    """Spectrum of time samples on aligned extensions of the base grid.

    The frequency extent doubles until the outermost period windows hold a
    negligible share of the energy, up to the most windows that stay inside
    the band the samples resolve (`resolved_band`): beyond that band the
    quadrature transform returns aliased copies of the spectrum, not the
    spectrum.  Samples that do not resolve the three windows
    ``[-3 sigma, 3 sigma]`` raise `ResolutionError`.

    Each period window is transformed once: the first call covers three
    windows, and each doubling passes the spectrum so far as the ``inner``
    of `fourier_transform_sampled`, which transforms the new left and
    right windows in one batched FFT and keeps the inner values.

    The spectrum depends on the samples, sigma and ``grid.count`` alone.
    For samples whose values are read-only and own their memory (every
    ``file:`` parse), it is kept per (samples object, sigma, count) as a
    "spectrum" in the keeper (`spectral._kept`), read-only: a repeat on the
    same samples gets the bytes of its first transform.  Writable samples,
    or a read-only view of memory that may be written, are transformed on
    every call, so a change to them is always seen.  The transform is read
    through this module's name `fourier_transform_sampled`, and an entry
    belongs to the function bound there when it was made (held by weak
    reference): a transform bound in its place, say a tracer's wrapper,
    makes and reads entries of its own, so it is called for every spectrum
    it has not itself made.
    """
    n = grid.count
    band = resolved_band(f.grid.step)
    limit = int((band / sigma - 1.0) // 2.0)
    if limit < 1:
        raise ResolutionError(
            f"time step dx={f.grid.step:.6g} resolves the band |y| <= "
            f"{band:.6g}, short of the 3*sigma = {3.0 * sigma:.6g} that three "
            "period windows need: sample f more finely")

    def build() -> Tuple[np.ndarray, SampledSpectrum]:
        windows, spec = 1, None
        while True:
            freq = period_extension(sigma, n, windows)
            spec = fourier_transform_sampled(f, freq, inner=spec)
            power = np.abs(spec.values) ** 2
            outer = power[:n - 1].sum() + power[freq.count - n + 1:].sum()
            if outer <= _MASS_TOL * max(power.sum(), 1e-300) or windows >= limit:
                return spec.values, spec
            windows = min(2 * windows, limit)

    if f.values.flags.writeable or f.values.base is not None:
        return build()[1]
    transform = weakref.ref(fourier_transform_sampled)
    return _kept(f, ("spectrum", transform, float(sigma), n), build)[1]


def _signal_windows(gen_f: Generator, gen: Generator, sigma: float,
                    tol: float) -> int:
    """Period windows on each side an analytic f-hat is folded over:
    f's spectral support, or else the fewest windows (1 to 64) beyond which
    the envelope tails (`envelope_order`) of the bracket, ``C_f C_B`` at
    exponent ``p_f + p_B``, and of f's energy, ``C_f**2`` at ``2 p_f``, are
    each at most ``tol``; under a spectral support of B, where the bracket
    terms vanish, the bracket takes B's covering windows instead."""
    if gen_f.spectral_support is not None:
        return covering_windows(gen_f.spectral_support, sigma)
    c, p = gen_f.decay_constant, gen_f.decay_exponent
    if gen.spectral_support is not None:
        bracket = covering_windows(gen.spectral_support, sigma)
    else:
        bracket = envelope_order(c * gen.decay_constant,
                                 p + gen.decay_exponent, sigma, tol)
    energy = envelope_order(c * c, 2.0 * p, sigma, tol)
    return int(min(64, max(1, np.ceil(bracket), np.ceil(energy))))


def project(f: Signal, gen: Generator, sigma: float, rho: float,
            tol: float = 1e-8, grid: Optional[Grid] = None,
            j_range: int = 64) -> ProjectionResult:
    """Orthogonal projection of f onto the rho-band shift space.

    f is time samples, a spectrum, or an analytic f as a `Generator`, whose
    spectrum is sampled over the periods its support or decay envelope needs.
    Returns the band-limited transform (zero enforced outside |y| <= rho),
    recovered shift coefficients, the captured energy, the exact-formula
    squared error, and the bracket mass discarded by the division guard.
    """
    fold, split = _energy_split(f, gen, sigma, (rho,), tol, grid)
    zeta = ZetaFunction(sigma=float(sigma), rho=float(rho), grid=fold.grid,
                        values=np.where(split.active[0], fold.zeta, 0.0),
                        zero_set_enforced=True)
    coeffs = coeffs_from_zeta(zeta, j_range)
    return ProjectionResult(zeta=zeta, coeffs=coeffs,
                            projection_norm_sq=float(split.projection_norm_sq[0]),
                            error_sq=float(split.error_sq[0]),
                            guard_mass=float(split.guard_mass[0]))


def best_approx_error_sq(f: Signal, gen: Generator, sigma: float,
                         rho: Union[float, Sequence[float]], tol: float = 1e-8,
                         grid: Optional[Grid] = None
                         ) -> Union[float, np.ndarray]:
    """Exact-formula squared distance of f from the rho-band shift space.

    Computed as ``2 pi (integral |fhat|^2 - integral_{-rho}^{rho}
    |bracket|^2 / D)`` with both integrals on the same nodes; clamped at
    zero.  f is any input `project` takes.  ``rho`` may be one radius (a
    float is returned) or a 1-d sequence of radii (an array is returned);
    f is folded once for all of them, and all of them split in one
    vectorised pass, each entry the bytes of a single-radius call.  Use
    ``project`` for the coefficients and the discarded guard mass.
    """
    rhos = np.asarray(rho, dtype=float)
    if rhos.ndim > 1:
        raise ValueError(f"rho must be a number or a 1-d sequence, "
                         f"got shape {rhos.shape}")
    _, split = _energy_split(f, gen, sigma, rhos.ravel(), tol, grid)
    return float(split.error_sq[0]) if rhos.ndim == 0 else split.error_sq
