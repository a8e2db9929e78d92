"""Brute-force least-squares ground truth for the projection pipeline.

Projecting onto the span of finitely many shifts B(. - j pi/sigma),
|j| <= J, via normal equations gives an upper oracle for the
best-approximation error of the full shift space: the finite-span residual
decreases in J and converges to the exact spectral-formula error from
above.  The comparison table of the two is the package's primary
end-to-end consistency check.

The Gram matrix is Toeplitz (entry depends on j - k only) and tiny, so the
normal-equation solve with a condition monitor is preferred over an
orthogonal factorization of a dense design matrix.  The oracle integrates
in time, so this module samples an analytic f (`_time_samples`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (MissingTimeDomainError, ShiftSpaceError,
                     SingularGramError, TruncationError)
from .generator import (Generator, shift_autocorrelation, shift_range,
                        time_extent)
from .numerics import (Grid, SampledFunction, chunk_slices, l2_norm_sq,
                       quadrature_weights)
from .shiftspace import Signal, best_approx_error_sq
# not called here: the benchmark's tracer (perfbench/tracing.py) wraps this name
from .shiftspace import project  # noqa: F401

_CONDITION_LIMIT = 1e12
#: a signal sampled for the oracle has at least this many steps
_ORACLE_STEPS = 4096
#: largest denominator of a spline knot ratio `_knot_denominator` reads
_KNOT_DENOMINATOR = 64


@dataclass(frozen=True)
class GramSystem:
    """Normal equations data for the truncated shift system.

    ``gram[j, k] = <B(. - k h), B(. - j h)>`` with h = pi/sigma and rows
    and columns indexed j, k = -j_range .. j_range.
    """

    sigma: float
    j_range: int
    gram: np.ndarray
    condition_estimate: float


def gram_matrix(gen: Generator, sigma: float, j_range: int) -> GramSystem:
    """Toeplitz Gram matrix of the shifts from the autocorrelation row.

    A single row of inner products ``a_d = <B, B(. - d h)>`` determines the
    whole matrix; computing it once both exploits and enforces the Toeplitz
    structure.
    """
    if gen.time_domain is None:
        raise MissingTimeDomainError(
            f"generator {gen.label!r} has no time-domain evaluator")
    acorr = shift_autocorrelation(gen, sigma, 2 * j_range)
    # a_{-d} = conj(a_d): entry (j, k) holds a_{j-k}
    lag = np.subtract.outer(np.arange(acorr.size), np.arange(acorr.size))
    gram = np.where(lag >= 0, acorr[np.abs(lag)], np.conj(acorr[np.abs(lag)]))
    condition = float(np.linalg.cond(gram))
    return GramSystem(sigma=float(sigma), j_range=j_range, gram=gram,
                      condition_estimate=condition)


def _knot_denominator(gens: Sequence[Generator], sigma: float) -> int:
    """Least common denominator q of ``sigma step/pi`` and ``sigma origin/pi``
    over the splines among gens: their knots ``origin + j step`` all fall on
    multiples of ``pi/(sigma q)``.  A ratio more than 1e-12 (relative) from
    every fraction of denominator up to `_KNOT_DENOMINATOR` counts as 1."""
    q = 1
    for spline in (gen.spline for gen in gens if gen.spline is not None):
        for ratio in (sigma * spline.step / np.pi, sigma * spline.origin / np.pi):
            near = Fraction(ratio).limit_denominator(_KNOT_DENOMINATOR)
            if abs(near - ratio) <= 1e-12 * abs(ratio):
                q = math.lcm(q, near.denominator)
    return q


def _time_samples(gen_f: Generator, gen: Generator, sigma: float) -> SampledFunction:
    """f sampled in time for the oracle, with every knot of f and of every
    shift of B on an even node, a Simpson panel edge.

    The window is f's `time_extent` rounded out to multiples of
    ``h = pi/sigma`` (`shift_range`, which refuses a window of more
    shifts than it allows); the step is ``h/(2 q 2^k)``, with q from
    `_knot_denominator` and k the least that makes it at most a
    `_ORACLE_STEPS`-th of the window.
    """
    try:
        lo, hi, _ = time_extent(gen_f)
    except TruncationError as exc:
        raise TruncationError(
            f"signal {gen_f.label!r} has no time window to sample for the "
            "oracle: it declares neither compact support nor a time tail "
            "radius") from exc
    if gen_f.time_domain is None:
        raise MissingTimeDomainError(f"signal {gen_f.label!r} has no time domain")
    first, last = shift_range(lo, hi, sigma)
    h = np.pi / sigma
    per_shift = 2 * _knot_denominator((gen_f, gen), sigma)
    while (last - first) * per_shift < _ORACLE_STEPS:
        per_shift *= 2
    grid = Grid(start=first * h, stop=last * h,
                count=(last - first) * per_shift + 1)
    return SampledFunction(grid=grid,
                           values=np.asarray(gen_f.time_domain(grid.nodes()),
                                             dtype=np.complex128))


def _shift_inner_products(f: SampledFunction, gen: Generator, sigma: float,
                          j_range: int) -> np.ndarray:
    """``<f, B(. - j h)>`` by quadrature on f's own grid.

    f's window must be wide enough that every retained shift is fully
    integrated, as the window `_time_samples` gives is.
    """
    x = f.grid.nodes()
    weighted = quadrature_weights(f.grid) * f.values
    h = np.pi / sigma
    js = np.arange(-j_range, j_range + 1).astype(float)
    rhs = np.zeros(js.size, dtype=np.complex128)
    for sl in chunk_slices(js.size, x.size):
        shifts = x[np.newaxis, :] - js[sl, np.newaxis] * h
        rhs[sl] = (np.conj(gen.time_domain(shifts))
                   * weighted[np.newaxis, :]).sum(axis=1)
    return rhs


def _by_magnitude(j_range: int) -> np.ndarray:
    """Positions of j = -j_range .. j_range ordered 0, -1, 1, -2, 2, ...:
    the first ``2 j + 1`` are the range ``|j| <= j``."""
    return np.argsort(np.abs(np.arange(-j_range, j_range + 1)), kind="stable")


def _eliminate(system: GramSystem, rhs: np.ndarray,
               norm_sq: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cholesky ``G = L L^H`` of the condition-checked Gram in the order of
    `_by_magnitude`, with ``y = L^{-1} rhs``, and the squared residuals
    ``norm_sq - |y_0|^2 - ... - |y_k|^2`` of every leading range.

    Column k is eliminated by elementwise updates alone, so every entry of
    L and y depends on the leading block and rhs entries it is built from,
    never on the size of the system: a smaller range's factors are bitwise
    the leading block of a larger one's, and its residuals a prefix of the
    larger one's.  Summing the nonnegative |y_k|^2 in order makes the
    residuals nonincreasing in floating point as in exact arithmetic.
    """
    condition = system.condition_estimate
    if not np.isfinite(condition) or condition > _CONDITION_LIMIT:
        raise SingularGramError(
            f"Gram matrix condition {condition:.3g} at j_range="
            f"{system.j_range} exceeds {_CONDITION_LIMIT:.0e}; truncated "
            "shift system is numerically singular")
    order = _by_magnitude(system.j_range)
    work = system.gram[np.ix_(order, order)].astype(np.complex128)
    y = rhs[order].astype(np.complex128)
    n = y.size
    chol = np.zeros((n, n), dtype=np.complex128)
    for k in range(n):
        pivot = float(work[k, k].real)
        if not pivot > 0.0:
            raise SingularGramError(
                f"Gram matrix at j_range={system.j_range} is not positive "
                "definite; truncated shift system is numerically singular")
        col = work[k:, k] / np.sqrt(pivot)
        chol[k:, k] = col
        y[k] /= col[0]
        y[k + 1:] -= col[1:] * y[k]
        work[k + 1:, k + 1:] -= np.outer(col[1:], np.conj(col[1:]))
    residuals = norm_sq - np.cumsum(np.abs(y) ** 2)
    return chol, y, np.maximum(residuals, 0.0)


def _solve(system: GramSystem, rhs: np.ndarray,
           norm_sq: float) -> Tuple[np.ndarray, float]:
    """Condition-checked Hermitian solve: the coefficients and the squared
    residual ``norm_sq - <coeffs, rhs>``, clamped at zero."""
    chol, y, residuals = _eliminate(system, rhs, norm_sq)
    coeffs = np.empty_like(y)
    coeffs[_by_magnitude(system.j_range)] = np.linalg.solve(chol.conj().T, y)
    return coeffs, float(residuals[-1])


def ls_project(f: SampledFunction, gen: Generator, sigma: float,
               j_range: int) -> Tuple[np.ndarray, float]:
    """Least-squares coefficients over |j| <= j_range and the residual.

    Solves the Hermitian normal equations; the squared residual is
    ``||f||^2 - Re <coeffs, rhs>``, clamped at zero.

    Raises
    ------
    SingularGramError
        If the Gram condition estimate exceeds 1e12 (the truncated system
        is numerically rank-deficient, e.g. for a degenerate generator).
    """
    return _solve(gram_matrix(gen, sigma, j_range),
                  _shift_inner_products(f, gen, sigma, j_range), l2_norm_sq(f))


@dataclass(frozen=True)
class ComparisonRow:
    j_range: int
    oracle_residual: float
    formula_error: float
    gap: float


@dataclass(frozen=True)
class ComparisonReport:
    sigma: float
    rows: Tuple[ComparisonRow, ...]
    consistent: bool


def compare(f: Signal, gen: Generator, sigma: float,
            j_range_list: Sequence[int], tol: float = 1e-8,
            grid: Optional[Grid] = None) -> ComparisonReport:
    """Oracle residuals against the exact-formula error at rho = sigma.

    f is any input `project` takes but a spectrum, which the oracle cannot
    integrate in time: time samples are read as they are, and an analytic
    f is sampled first (`_time_samples`).  The formula side is
    `best_approx_error_sq` of f at rho = sigma on the period grid ``grid``
    (default as there), evaluated once: it does not depend on j_range.  The
    oracle side factors one Gram matrix, after one inner-product pass, at
    the largest requested range, and reads each smaller range's residual
    off its leading block (see `_eliminate`).

    A report is consistent when every gap (oracle minus formula) is
    nonnegative within rounding: the finite span is a subspace, so its
    residual can never beat the full-space error.
    """
    ranges = sorted(set(int(j) for j in j_range_list))
    if not ranges or ranges[0] < 0:
        raise ValueError("j_range_list must hold nonnegative integers")
    samples = _time_samples(f, gen, sigma) if isinstance(f, Generator) else f
    if not isinstance(samples, SampledFunction):
        raise ShiftSpaceError(
            "compare needs time-domain samples of f (the oracle integrates "
            "against the shifts in time); provide a time-sampled CSV or a "
            "generator spec with a time-domain form")
    formula = best_approx_error_sq(f, gen, sigma, rho=sigma, tol=tol, grid=grid)

    j_top = ranges[-1]
    norm_sq = l2_norm_sq(samples)
    # the top system's residuals over its leading ranges are those each
    # range's own solve gives, bit for bit (see `_eliminate`)
    _, _, residuals = _eliminate(gram_matrix(gen, sigma, j_top),
                                 _shift_inner_products(samples, gen, sigma, j_top),
                                 norm_sq)

    found = [float(residuals[2 * j]) for j in ranges]
    rows = tuple(ComparisonRow(j_range=j, oracle_residual=r, formula_error=formula,
                               gap=r - formula) for j, r in zip(ranges, found))
    slack = 1e-9 * max(1.0, norm_sq)
    return ComparisonReport(sigma=float(sigma), rows=rows,
                            consistent=all(row.gap >= -slack for row in rows))
