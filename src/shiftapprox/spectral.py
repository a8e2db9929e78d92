"""Lattice sums over the 2*sigma lattice, and the periodization D.

``D(y) = sum_nu |spectrum(y + 2 nu sigma)|^2`` is the 2*sigma-periodic
energy density whose essential bounds are the frame bounds of the shift
system.  It has two forms, which the Phi4 audit in `zak` compares:

* the Poisson form `poisson_energy`, ``(1/(4 pi sigma)) sum_{|d|<=L} a_d
  e^{-i d pi y/sigma}`` with ``a_d = <B, B(. - d pi/sigma)>`` over the lags
  of `poisson_lags` (de Boor, DeVore & Ron 1994; Blu & Unser 1999), exact
  under a declared support: shifts by ``d pi/sigma >= hi - lo`` do not overlap.
* the lattice form `lattice_energy`, through `lattice_sum`, the one lattice
  sum of the package (the spectral form of Phi in `zak` sums
  ``spectrum(u) e^{iux}`` with it).  `lattice_order` truncates it
  by the generator's audited decay contract; an asymptotic power-law tail
  estimate calibrated on the boundary terms is then added, which brings
  slowly decaying spectra (p close to 1/2) within desk tolerances at a few
  hundred terms.  The recorded ``tail_bound`` is the rigorous envelope
  bound on the omitted mass; the calibrated correction is never larger.

A spline of degree m >= 1 built at ``sigma_B`` (`Generator.spline`) on a
lattice with ``sigma_B/sigma`` or ``sigma/sigma_B`` an integer takes its
tails in closed form instead: its terms are a factor that repeats in each
residue class of nu times ``u**-(m+1)``, so each class beyond
``|nu| <= HURWITZ_ORDER`` sums to a Hurwitz zeta value (`spline_lattice`,
`hurwitz_tail`; DLMF 25.11, Blu & Unser 1999).  Such a sum reports
``truncation_order = HURWITZ_ORDER`` and ``tail_bound = 0``, as a declared
spectral support does.  `lattice_energy` takes these tails on every node
set; Phi's spectral sum takes them on the cell mesh of a spline on its own
lattice (`zak`).  Every other generator, and a spline on any other lattice,
keeps the truncation and the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidGridError, TruncationError
from .generator import Generator, SplineParams, shift_autocorrelation, time_extent
from .numerics import Grid, chunk_slices

#: nodes where D falls at or below this threshold are treated as a vanishing
#: periodization (guarded in downstream divisions)
EPSILON_D = 1e-10

_SPAN_RTOL = 1e-9
#: most terms `lattice_truncation` tries before it raises
_LATTICE_CAP = 200_000
#: explicit terms |nu| <= HURWITZ_ORDER ahead of a spline's Hurwitz tails
HURWITZ_ORDER = 16
_RATIO_RTOL = 1e-12


@dataclass(frozen=True)
class PeriodizedSpectrum:
    """Samples of ``D`` on a grid spanning exactly ``[-sigma, sigma]``."""

    sigma: float
    grid: Grid
    values: np.ndarray
    truncation_order: int
    tail_bound: float


@dataclass(frozen=True)
class RieszReport:
    lower: float
    upper: float
    classification: str  # "riesz" | "bessel_only" | "degenerate"


def require_period_grid(grid: Grid, sigma: float) -> None:
    """Raise unless ``grid`` spans exactly one period ``[-sigma, sigma]``."""
    tol = _SPAN_RTOL * max(1.0, sigma)
    if abs(grid.start + sigma) > tol or abs(grid.stop - sigma) > tol:
        raise InvalidGridError(
            f"grid [{grid.start}, {grid.stop}] must span [-sigma, sigma] = "
            f"[{-sigma}, {sigma}]")


def envelope_tail(coef: float, q: float, sigma: float, n: float) -> float:
    """Bound on ``sum_{|nu| > n} coef * (1 + |y + 2 nu sigma|)**(-q)`` for
    ``|y| <= sigma``."""
    return 2.0 * coef * (1.0 + (2.0 * n - 1.0) * sigma) ** (1.0 - q) / (2.0 * sigma * (q - 1.0))


def envelope_order(coef: float, q: float, sigma: float, tol: float) -> float:
    """The real ``n`` at which `envelope_tail` equals ``tol``; inf where no
    order meets it (``q <= 1``, a divergent tail, or ``tol <= 0``)."""
    if not (q > 1.0 and tol > 0):
        return np.inf
    edge = (coef / (tol * sigma * (q - 1.0))) ** (1.0 / (q - 1.0))
    return 0.5 * ((edge - 1.0) / sigma + 1.0)


def lattice_truncation(coef: float, q: float, sigma: float,
                       tol: float) -> Tuple[int, float]:
    """Truncation order for a lattice sum with envelope ``coef*(1+|u|)^-q``.

    Stops at the first ``N`` where either the raw envelope tail or the
    residual of the calibrated tail correction (modelled as
    ``tail * max(1, q^2/8) / N^2``) is below ``tol``.

    Returns
    -------
    (N, tail_bound)
        ``tail_bound`` is the envelope bound on the omitted mass at ``N``.
    """
    if not q > 1.0:
        raise TruncationError(
            f"lattice sum with decay exponent {q/2:.3g} per factor is not "
            "truncatable (needs combined exponent > 1)")
    kappa = max(1.0, q * q / 8.0)
    n = 8
    while n <= _LATTICE_CAP:
        tail = envelope_tail(coef, q, sigma, n)
        if tail <= tol or tail * kappa / (n * n) <= tol:
            return n, tail
        n *= 2
    raise TruncationError(
        f"lattice truncation above {_LATTICE_CAP} terms still exceeds "
        f"tol={tol:.3g}")


def lattice_order(gen: Generator, sigma: float, tol: float,
                  power: int) -> Tuple[int, float]:
    """Order and tail bound of the lattice sum of ``|spectrum|**power``.

    The sum is ``sum_nu |spectrum(y + 2 nu sigma)|**power``.  A declared
    compact spectral support gives the exact finite order and a zero tail;
    otherwise the decay contract ``|spectrum(u)| <= C (1+|u|)**(-p)`` gives
    the envelope ``C**power (1+|u|)**(-power*p)`` for `lattice_truncation`.
    """
    if gen.spectral_support is not None:
        n_exact = int(np.ceil((gen.spectral_support + sigma) / (2.0 * sigma))) + 1
        return n_exact, 0.0
    return lattice_truncation(gen.decay_constant ** power,
                              power * gen.decay_exponent, sigma, tol)


def _tail_correction(t_edge: np.ndarray, t_prev: np.ndarray,
                     u_edge: np.ndarray, q: float, sigma: float) -> np.ndarray:
    """Tail of one side of a lattice sum from its last two terms.

    Tails that do not rotate (phase drift at rounding level between the two
    terms, as for any nonnegative summand) get the power-law tail calibrated
    on the boundary term, in the midpoint form ``sum_{nu > N} ~
    integral_{N+1/2}`` (exact to ``O(1/N^2)`` relative; the ratio
    ``(u_edge/u_half)**q`` cannot overflow).  Rotating tails get a geometric
    model with the modulus ratio pinned to the power law.  Points where
    neither model is safe (a drift below about 0.05 rad far out) are left
    uncorrected (the envelope bound covers them).  Real terms give a real
    correction.
    """
    active = (np.abs(t_edge) > 0) & (np.abs(t_prev) > 0)
    phase = np.angle(np.where(active, t_edge / np.where(active, t_prev, 1.0), 1.0))
    power = active & (np.abs(phase) < 1e-9)
    u_half = u_edge + sigma
    out = np.where(power, t_edge * (u_edge / u_half) ** q * u_half
                   / (2.0 * sigma * (q - 1.0)), 0.0)
    rotating = active & ~power
    if rotating.any():
        geo_ratio = (u_edge / (u_edge + 2.0 * sigma)) ** q * np.exp(1j * phase)
        osc = rotating & (np.abs(1.0 - geo_ratio) > 0.05)
        out = np.where(osc, t_edge * geo_ratio / np.where(osc, 1.0 - geo_ratio, 1.0), out)
    return out if np.iscomplexobj(t_edge) else out.real


def spline_lattice(gen: Generator, sigma: float,
                   y: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(p, q)`` with ``sigma/sigma_B = p/q`` where a spline's tails are exact.

    A degree-m spline built at ``sigma_B`` has its lattice terms at
    ``u = alpha + nu p/q`` with ``alpha = y/(2 sigma_B)``, and the term is
    ``(e^{i pi u} sin(pi u)/(pi u))**(m+1)``.  When p or q is 1, ``sin(pi u)``
    repeats in each residue class of nu mod q, up to a sign that the
    energy's square removes, so each class is that factor times a Hurwitz
    zeta value (`hurwitz_tail`).  None for any other generator or ratio, for
    the degree 0 (whose lattice sums keep the estimate), and at nodes past
    ``|y| <= 2 sigma HURWITZ_ORDER``, where a Hurwitz parameter would not be
    positive.
    """
    spline = gen.spline
    if (spline is None or spline.degree == 0
            or not np.all(np.abs(y) <= 2.0 * sigma * HURWITZ_ORDER)):
        return None
    ratio = sigma / spline.sigma
    for p, q in ((round(ratio), 1), (1, round(1.0 / ratio))):
        if p >= 1 and q >= 1 and abs(ratio * q - p) <= _RATIO_RTOL * p:
            return p, q
    return None


def hurwitz_tail(s: int, theta: np.ndarray, period: float) -> np.ndarray:
    """``sum_{j >= 0} (theta + period j)**-s = period**-s zeta(s, theta/period)``
    for ``theta > 0`` (DLMF 25.11.1)."""
    # imported here: scipy.special costs about 60 ms and 2.6 MiB to import,
    # and only these sums read it
    from scipy.special import zeta

    return zeta(s, theta / period) / float(period) ** s


def lattice_sum(gen: Generator, sigma: float, y: np.ndarray,
                block: Callable[[np.ndarray], np.ndarray], power: int,
                tol: float, points: int,
                tails: Optional[Callable[[int], np.ndarray]] = None
                ) -> Tuple[np.ndarray, int, float]:
    """``sum_nu term(y + 2 nu sigma)``, summed over blocks of ``nu``.

    ``block(shifts)`` receives a 1-D array of lattice shifts ``2 nu sigma``
    (the terms sit at ``u = shift + y``) and returns the sum of their terms;
    given one shift, that is the term itself, which the tail estimate reads
    at the two outermost shifts of each side.  A term is bounded by
    ``|spectrum(u)|**power``, which sets the order (`lattice_order`).
    ``points`` is the number of values one shift adds to a block's arrays
    (the size of ``u`` times the other factors that broadcast against it,
    or ``nx + ny`` for a mesh contracted by a matrix product); a block
    holds at most 4e6 of them.  ``tails(N)``, when given, is the exact sum
    of the terms with ``|nu| > N``: the sum then runs to ``N =
    HURWITZ_ORDER`` with a zero tail bound.  Returns ``(values,
    truncation_order, tail_bound)``.
    """
    if not sigma > 0:
        raise InvalidGridError(f"sigma must be > 0, got {sigma}")
    if tails is None:
        n_trunc, tail_bound = lattice_order(gen, sigma, tol, power)
    else:
        n_trunc, tail_bound = HURWITZ_ORDER, 0.0
    shifts = np.arange(-n_trunc, n_trunc + 1) * (2.0 * sigma)
    values = 0.0
    for sl in chunk_slices(shifts.size, points):
        values = values + block(shifts[sl])
    if tails is not None:
        return values + tails(n_trunc), n_trunc, tail_bound
    if gen.spectral_support is None:
        for sign in (1.0, -1.0):
            edge = (2.0 * sigma) * (sign * n_trunc)
            prev = (2.0 * sigma) * (sign * (n_trunc - 1))
            values = values + _tail_correction(
                block(np.array([edge])), block(np.array([prev])),
                np.abs(y + edge), power * gen.decay_exponent, sigma)
    return values, n_trunc, tail_bound


def lattice_energy(gen: Generator, sigma: float, y: np.ndarray,
                   tol: float = 1e-8) -> Tuple[np.ndarray, int, float]:
    """``sum_nu |spectrum(y + 2 nu sigma)|^2`` at arbitrary nodes.

    The lattice form of D for every generator: `periodize`'s route where D
    has no exact Poisson form, and the Phi4 audit's reference for that form.
    A spline on a commensurate lattice (`spline_lattice`) takes its tails
    in closed form.  Returns ``(values, truncation_order, tail_bound)``.
    """
    y = np.asarray(y, dtype=float)

    def energy(shifts: np.ndarray) -> np.ndarray:
        return (np.abs(gen.spectrum(np.add.outer(shifts, y))) ** 2).sum(axis=0)

    ratio = spline_lattice(gen, sigma, y)

    def tails(order: int) -> np.ndarray:
        return _spline_energy_tails(gen.spline, ratio, y, order)

    return lattice_sum(gen, sigma, y, energy, 2, tol, y.size,
                       None if ratio is None else tails)


def _spline_energy_tails(spline: SplineParams, ratio: Tuple[int, int],
                         y: np.ndarray, order: int) -> np.ndarray:
    """``sum_{|nu| > order} |spectrum(y + 2 nu sigma)|**2`` of a spline.

    With ``sigma/sigma_B = p/q`` (`spline_lattice`), the class of
    ``nu = order + 1 + r + q j`` (r < q) starts at ``u = theta_r = alpha +
    p (order + 1 + r)/q`` and steps by p, and ``sin(pi u)**2`` is constant
    on it; the side ``nu < -order`` is the same sum at ``-alpha``.
    """
    p, q = ratio
    s = 2 * (spline.degree + 1)
    start = p * (order + 1 + np.arange(q)).reshape((-1,) + (1,) * y.ndim)
    alpha = y / (2.0 * spline.sigma)
    out = 0.0
    for side in (alpha, -alpha):
        # sin(pi theta_r) read at the fractional part of the class offset
        weight = np.sin(np.pi * (side + (start % q) / q)) ** s
        out = out + (weight * hurwitz_tail(s, side + start / q, p)).sum(axis=0)
    return out / np.pi ** s


def poisson_lags(gen: Generator, sigma: float) -> Tuple[int, bool]:
    """``(L, exact)``: the autocorrelation lags of the Poisson form of D.

    A declared support gives the exact L, the largest d with
    ``d*pi/sigma < hi - lo`` (a span within rounding of k shifts gives
    k - 1: the lag k overlaps B on a null set).  A time tail radius at
    1e-14 gives its shift count plus 2.  Raises `TruncationError` when the
    generator declares neither: a spectral support alone bounds no lag (a
    spectrum interpolated linearly at step s has autocorrelation images
    near ``d = 2 sigma/s``, and a spectrum with a jump has lags that decay
    like ``1/d``).
    """
    try:
        lo, hi, exact = time_extent(gen, 1e-14)
    except TruncationError as exc:
        raise TruncationError(
            f"{exc}; the autocorrelation lags the pairing needs are "
            "unknown") from exc
    shifts = (hi - lo) * sigma / np.pi
    if exact:
        return max(0, int(np.ceil(shifts - 1e-9)) - 1), True
    return int(np.ceil(shifts)) + 2, False


def poisson_energy(acorr: np.ndarray, sigma: float, y: np.ndarray) -> np.ndarray:
    """The Poisson form of D from the row ``a_0..a_L`` of
    `shift_autocorrelation`; real, as ``a_{-d} = conj(a_d)``."""
    values = np.full(np.shape(y), acorr[0].real)
    for d in range(1, len(acorr)):
        values += 2.0 * (acorr[d] * np.exp((-1j * d * np.pi / sigma) * y)).real
    return values / (4.0 * np.pi * sigma)


def periodize(gen: Generator, sigma: float, grid: Grid,
              tol: float = 1e-8) -> PeriodizedSpectrum:
    """``D(y) = sum |spectrum(y + 2 nu sigma)|^2`` on one period.

    A generator with a closed-form ``autocorrelation`` and a declared
    support takes the exact Poisson form (see the module docstring):
    ``truncation_order`` is its largest lag L and ``tail_bound`` is 0.
    Any other generator takes the lattice sum `lattice_energy`, to ``tol``
    after its tail correction: ``truncation_order`` is its order N and
    ``tail_bound`` the envelope bound on the mass beyond it.  The grid must
    span exactly ``[-sigma, sigma]``.  Raises `TruncationError` if the
    decay exponent is <= 1/2 and the spectrum has no declared compact
    support.
    """
    require_period_grid(grid, sigma)
    y = grid.nodes()
    if gen.autocorrelation is not None and gen.support is not None:
        order, _ = poisson_lags(gen, sigma)
        values = poisson_energy(shift_autocorrelation(gen, sigma, order), sigma, y)
        tail_bound = 0.0
    else:
        values, order, tail_bound = lattice_energy(gen, sigma, y, tol=tol)
    return PeriodizedSpectrum(sigma=float(sigma), grid=grid, values=values,
                              truncation_order=order, tail_bound=tail_bound)


def riesz_bounds(dperiod: PeriodizedSpectrum) -> RieszReport:
    """Frame-bound estimates from the sampled periodization.

    The extrema are taken over the interior nodes: the two boundary nodes of
    ``[-sigma, sigma]`` describe the same point of the period and can carry
    split-point values (half the one-sided limit) for spectra supported up
    to exactly the lattice edge, which would misreport the essential bounds.
    The envelope ``tail_bound`` widens the interval on both sides; an exact
    D (Poisson form or compact spectral support) has none.
    """
    interior = dperiod.values[1:-1] if dperiod.grid.count > 4 else dperiod.values
    lower = float(np.min(interior)) - dperiod.tail_bound
    upper = float(np.max(interior)) + dperiod.tail_bound
    if lower > EPSILON_D:
        kind = "riesz"
    elif lower > 0.0:
        kind = "bessel_only"
    else:
        kind = "degenerate"
    return RieszReport(lower=lower, upper=upper, classification=kind)
