"""Brute-force least-squares ground truth for the projection pipeline.

Projecting onto the span of finitely many shifts B(. - j pi/sigma),
|j| <= J, via normal equations gives an upper oracle for the
best-approximation error of the full shift space: the finite-span residual
decreases in J and converges to the exact spectral-formula error from
above.  The comparison table of the two is the package's primary
end-to-end consistency check.

The Gram matrix is Toeplitz (entry depends on j - k only) and tiny, so the
normal-equation solve with a condition monitor is preferred over an
orthogonal factorization of a dense design matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import MissingTimeDomainError, SingularGramError
from .generator import Generator, shift_autocorrelation
from .numerics import SampledFunction, chunk_slices, l2_norm_sq, quadrature_weights
from .shiftspace import Signal, best_approx_error_sq, project

_CONDITION_LIMIT = 1e12


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
    gram = scipy.linalg.toeplitz(acorr, np.conj(acorr))
    condition = float(np.linalg.cond(gram))
    return GramSystem(sigma=float(sigma), j_range=j_range, gram=gram,
                      condition_estimate=condition)


def _shift_inner_products(f: SampledFunction, gen: Generator, sigma: float,
                          j_range: int) -> np.ndarray:
    """``<f, B(. - j h)>`` by quadrature on f's own grid.

    The caller is responsible for sampling f on a window wide enough that
    every retained shift is fully integrated.
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


def _solve(system: GramSystem, rhs: np.ndarray,
           norm_sq: float) -> Tuple[np.ndarray, float]:
    """Condition-checked Hermitian solve: the coefficients and the squared
    residual ``norm_sq - Re <coeffs, rhs>``, clamped at zero."""
    condition = system.condition_estimate
    if not np.isfinite(condition) or condition > _CONDITION_LIMIT:
        raise SingularGramError(
            f"Gram matrix condition {condition:.3g} at j_range="
            f"{system.j_range} exceeds {_CONDITION_LIMIT:.0e}; truncated "
            "shift system is numerically singular")
    coeffs = scipy.linalg.solve(system.gram, rhs, assume_a="her")
    return coeffs, max(norm_sq - float(np.real(np.vdot(coeffs, rhs))), 0.0)


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


def compare(f: SampledFunction, gen: Generator, sigma: float,
            j_range_list: Sequence[int], tol: float = 1e-8,
            f_spectrum: Optional[Signal] = None) -> ComparisonReport:
    """Oracle residuals against the exact-formula error at rho = sigma.

    The formula side is evaluated once (it does not depend on j_range); the
    oracle side reuses one Gram matrix and one inner-product pass at the
    largest requested range, and each smaller range solves with its
    central block.  ``f_spectrum`` optionally hands the formula side f in
    another form, a spectrum or an analytic f as a `Generator` (see
    `project`), in place of the quadrature transform of the time samples.

    A report is consistent when every gap (oracle minus formula) is
    nonnegative within rounding: the finite span is a subspace, so its
    residual can never beat the full-space error.
    """
    ranges = sorted(set(int(j) for j in j_range_list))
    if not ranges or ranges[0] < 0:
        raise ValueError("j_range_list must hold nonnegative integers")
    if f_spectrum is not None:
        formula = best_approx_error_sq(f_spectrum, gen, sigma, rho=sigma, tol=tol)
    else:
        formula = project(f, gen, sigma, rho=sigma, tol=tol).error_sq

    j_top = ranges[-1]
    top = gram_matrix(gen, sigma, j_top)
    rhs_top = _shift_inner_products(f, gen, sigma, j_top)
    norm_sq = l2_norm_sq(f)

    rows = []
    for j in ranges:
        # a central block of a Toeplitz matrix is the smaller range's matrix
        keep = slice(j_top - j, j_top + j + 1)
        gram = top.gram[keep, keep]
        system = top if j == j_top else GramSystem(
            float(sigma), j, gram, float(np.linalg.cond(gram)))
        _, residual = _solve(system, rhs_top[keep], norm_sq)
        rows.append(ComparisonRow(j_range=j, oracle_residual=residual,
                                  formula_error=formula,
                                  gap=residual - formula))
    slack = 1e-9 * max(1.0, norm_sq)
    consistent = all(row.gap >= -slack for row in rows)
    return ComparisonReport(sigma=float(sigma), rows=tuple(rows),
                            consistent=consistent)
