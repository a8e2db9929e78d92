"""The doubly indexed function system Phi(x, y) and its property checks.

``Phi(x, y) = (1/2 sigma) sum_j B(x - j pi/sigma) e^{i j pi y / sigma}``
is computed either by that time-domain sum or by the equivalent spectral
lattice sum ``sum_nu spectrum(y + 2 nu sigma) e^{i (y + 2 nu sigma) x}``
(`spectral.lattice_sum`, which also sums `lattice_energy`).  On an x-by-y
mesh (x a column, y a row) both sums are matrix products, so a block of
terms holds its count times ``nx + ny`` values, not ``nx * ny``.  The time
sum multiplies ``B(x - j pi/sigma)`` ``(x, j)`` by ``e^{i j pi y/sigma}``
``(j, y)``.  The spectral sum is a contraction because
``e^{i(y + 2 nu sigma)x} = e^{iyx} e^{2i nu sigma x}``: each block of nu
multiplies ``(x, nu)`` phases by ``(nu, y)`` spectrum values.  Other
shapes broadcast x against y and sum the terms elementwise, the reference
the mesh is tested against.  The spectral sum passes x to
`spectral.lattice_sum`, which makes it exact for a spline where
``sigma step/pi`` and ``sigma (x - end)/pi`` are rational (on the cell mesh
``x_k = k pi/(sigma P)`` of a `bspline`, whose end is 0, ``e^{2 i nu sigma
x_k}`` depends on nu mod P only, and the terms beyond ``|nu| <= 16`` sum
per residue class to Hurwitz zeta values), and truncates it at the decay
contract's envelope bound otherwise.  The time sum takes the shifts whose `time_extent` reaches x,
and one more either side: beyond it B vanishes or is below `TIME_EPS`,
so the time sum is exact to rounding and reports no tail.
Both formulas are exactly 2*sigma-periodic in y and exactly quasi-periodic
in x term by term, so those structural identities hold to rounding; the
interesting checks are the norm identity over the fundamental cell, the
agreement of the two representations, and the pairing with the
periodization D: Phi4 compares D's Poisson form (`spectral.poisson_energy`
of the shift autocorrelation) with its lattice form (`lattice_energy`).

Pointwise evaluation of the spectral sum is refused when the decay
contract only guarantees mean-square convergence (exponent <= 1 with no
compact spectral support): silently returning a divergent sum would be
worse than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .errors import (InvalidGridError, MissingTimeDomainError,
                     ShiftSpaceError, TruncationError)
from .generator import (Generator, generator_l2_norm_sq, shift_autocorrelation,
                        shift_range, time_extent)
from .numerics import (TWO_PI, Grid, chunk_slices, quadrature_weights,
                       shared_grid)
from .spectral import lattice_energy, lattice_sum, poisson_energy, poisson_lags


@dataclass(frozen=True)
class PhiField:
    """Phi sampled on an x-grid times y-grid mesh.

    The system is completely determined by its values on the fundamental
    cell [0, pi/sigma] x [-sigma, sigma]; larger grids are allowed (the
    formulas extend them consistently).  ``values[i, k]`` is
    Phi(x_grid node i, y_grid node k).
    """

    sigma: float
    x_grid: Grid
    y_grid: Grid
    values: np.ndarray
    representation: str  # "time_sum" | "freq_sum"
    truncation_order: int
    tail_bound: float

    def __post_init__(self) -> None:
        if self.values.shape != (self.x_grid.count, self.y_grid.count):
            raise ValueError(
                f"values shape {self.values.shape} does not match grids "
                f"({self.x_grid.count}, {self.y_grid.count})")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be >= 0")


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    residual: float
    budget: float
    status: str  # "ok" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    sigma: float
    resolution: int
    checks: Tuple[PropertyCheck, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _time_window(gen: Generator, sigma: float, xmin: float,
                 xmax: float) -> Tuple[int, int]:
    """Index range of the shifts whose `time_extent` reaches [xmin, xmax],
    one more on either side; `TruncationError` past `shift_range`'s cap or
    where x moved by a shift of the range passes the largest double."""
    lo, hi, _ = time_extent(gen)
    first, last = shift_range(xmin - hi, xmax - lo, sigma)
    j = max(1 - first, last + 1)
    if not max(abs(xmin), abs(xmax)) + j * (math.pi / sigma) < math.inf:
        raise TruncationError(f"sigma={sigma:g}: x in [{xmin:g}, {xmax:g}] "
                              f"moved by {j} shifts pi/sigma overflows a double")
    return first - 1, last + 1


def _is_mesh(x: np.ndarray, y: np.ndarray) -> bool:
    """x a column and y a row: Phi's sums become matrix products."""
    return x.ndim == 2 == y.ndim and x.shape[1] == 1 and y.shape[0] == 1


def _phi_time_array(gen: Generator, sigma: float, x: np.ndarray,
                    y: np.ndarray) -> Tuple[np.ndarray, int, float]:
    if not sigma > 0:
        raise InvalidGridError(f"sigma must be > 0, got {sigma}")
    if gen.time_domain is None:
        raise MissingTimeDomainError(
            f"generator {gen.label!r} has no time-domain evaluator")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    h = np.pi / sigma
    jmin, jmax = _time_window(gen, sigma, float(np.min(x)), float(np.max(x)))
    js = np.arange(jmin, jmax + 1)
    acc = np.zeros(shape, dtype=np.complex128)
    if _is_mesh(x, y):
        # a mesh: each block of shifts is one product of (x, j) generator
        # values with (j, y) phases
        for sl in chunk_slices(js.size, x.size + y.size):
            jc = js[sl].astype(float)
            phases = np.exp((1j * np.pi / sigma) * y * jc[:, np.newaxis])
            acc += gen.time_domain(x - jc * h) @ phases
        return acc / (2.0 * sigma), max(abs(jmin), abs(jmax)), 0.0
    for sl in chunk_slices(js.size, int(np.prod(shape))):
        jc = js[sl].astype(float)
        shifts = x[..., np.newaxis] - jc * h
        phases = np.exp((1j * np.pi / sigma) * y[..., np.newaxis] * jc)
        acc += (gen.time_domain(shifts) * phases).sum(axis=-1)
    return acc / (2.0 * sigma), max(abs(jmin), abs(jmax)), 0.0


def _phi_freq_array(gen: Generator, sigma: float, x: np.ndarray, y: np.ndarray,
                    tol: float) -> Tuple[np.ndarray, int, float]:
    if not _freq_available(gen):
        raise TruncationError(
            f"generator {gen.label!r} has spectral decay exponent "
            f"{gen.decay_exponent:.3g} <= 1: the lattice sum converges "
            "only in mean square, pointwise evaluation refused")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if _is_mesh(x, y):
        # a mesh: lattice_sum rotates by e^{iyx}, so a block of shifts s
        # contracts (x, s) phases e^{isx} with (s, y) spectrum values
        def block(shifts: np.ndarray) -> np.ndarray:
            return np.exp(1j * (x * shifts)) @ gen.spectrum(shifts[:, np.newaxis] + y)

        return lattice_sum(gen, sigma, y, block, 1, tol, x.size + y.size, x=x)
    shape = np.broadcast_shapes(x.shape, y.shape)
    lead = (-1,) + (1,) * len(shape)

    def terms(shifts: np.ndarray) -> np.ndarray:
        shifts = shifts.reshape(lead)
        return (gen.spectrum(shifts + y) * np.exp(1j * shifts * x)).sum(axis=0)

    return lattice_sum(gen, sigma, y, terms, 1, tol, int(np.prod(shape)), x=x)


def phi_time(gen: Generator, sigma: float, x, y):
    """Time-sum evaluation of Phi over the shifts that reach x; exact to
    rounding for every generator with a `time_extent`.

    Scalars in, complex out; arrays broadcast elementwise.
    """
    vals, _, _ = _phi_time_array(gen, sigma, x, y)
    return complex(vals) if vals.ndim == 0 else vals


def phi_freq(gen: Generator, sigma: float, x, y, tol: float = 1e-8):
    """Spectral-sum evaluation of Phi over the 2*sigma lattice."""
    vals, _, _ = _phi_freq_array(gen, sigma, x, y, tol)
    return complex(vals) if vals.ndim == 0 else vals


def _time_available(gen: Generator) -> bool:
    """Whether the time sum is finite: a time domain and a `time_extent`."""
    return gen.time_domain is not None and (
        gen.support is not None or gen.time_radius is not None)


def _freq_available(gen: Generator) -> bool:
    return gen.spectral_support is not None or gen.decay_exponent > 1.0


def _phi_array(gen: Generator, sigma: float, tol: float) -> Tuple[str, Callable]:
    """The time sum when it is finite, the spectral sum at tol otherwise,
    as a map ``(x, y) -> (values, truncation_order, tail_bound)``."""
    if _time_available(gen):
        return "time_sum", lambda x, y: _phi_time_array(gen, sigma, x, y)
    return "freq_sum", lambda x, y: _phi_freq_array(gen, sigma, x, y, tol)


def phi_field(gen: Generator, sigma: float, x_grid: Grid, y_grid: Grid,
              tol: float = 1e-8) -> PhiField:
    """Phi on a full mesh.

    The time sum runs, exact to rounding, whenever the generator declares a
    support or a time radius; otherwise the spectral sum runs at tol.
    ``PhiField.representation`` names the one used.
    """
    representation, fn = _phi_array(gen, sigma, tol)
    xs = x_grid.nodes()[:, np.newaxis]
    ys = y_grid.nodes()[np.newaxis, :]
    values, order, tail = fn(xs, ys)
    return PhiField(sigma=float(sigma), x_grid=x_grid, y_grid=y_grid,
                    values=values, representation=representation,
                    truncation_order=order, tail_bound=tail)


def _cell_mesh(sigma: float, count: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Quadrature mesh of the cell [0, pi/sigma] x [-sigma, sigma].

    Returns count x nodes (a column) with their Simpson weights, and the
    midpoints of count - 1 cells in y (a row) with their weight.  The
    y-integrand is 2*sigma-periodic, so the midpoint rule is spectrally
    accurate and never samples the split lines y = +-sigma, where edge
    conventions of discontinuous spectra would pollute the quadrature.
    """
    x_grid = shared_grid(0.0, np.pi / sigma, count)
    hy = 2.0 * sigma / (count - 1)
    y_mid = -sigma + hy * (np.arange(count - 1) + 0.5)
    return (x_grid.nodes()[:, np.newaxis], y_mid[np.newaxis, :],
            quadrature_weights(x_grid)[:, np.newaxis], hy)


def verify_phi_properties(gen: Generator, sigma: float, resolution: int = 257,
                          tol: float = 1e-8) -> PropertyReport:
    """Numerical audit of the defining identities of the Phi system.

    Checks: the norm identity over the fundamental cell; 2*sigma
    periodicity, quasi-periodicity in x, and conjugation symmetry on the
    cell mesh; pointwise agreement of the two representations; and the
    L2[-sigma, sigma] identity pairing the generator against Phi, namely
    ``integral B(t) conj(Phi(t, y)) dt = 2 pi D(y)``, with D's Poisson form
    on the left and its lattice form on the right.  Checks 1-3 read one
    evaluation of Phi on the cell mesh, by the representation phi_field picks.

    Residuals are reported next to an honest numerical budget; a check is
    "ok" when its residual is within max(budget, tol * scale), where
    scale = max(1, ||B||^2 / (2 sigma)) is the size of the cell integral,
    "fail" otherwise, and "skipped" when a representation refuses to
    evaluate.  A residual or budget that is not finite (at a small enough
    sigma the cell integral of |Phi|^2 overflows) raises `ShiftSpaceError`.
    """
    if resolution < 9 or resolution % 2 == 0:
        raise ValueError(f"resolution must be odd and >= 9, got {resolution}")
    use_time = _time_available(gen)
    use_freq = _freq_available(gen)
    checks = []

    norm_sq = generator_l2_norm_sq(gen, sigma)
    scale = max(1.0, norm_sq / (2.0 * sigma))

    def graded(name: str, residual: float, budget: float) -> PropertyCheck:
        if not (math.isfinite(residual) and math.isfinite(budget)):
            raise ShiftSpaceError(
                f"{name} at sigma={sigma:g} cannot be graded: its residual "
                f"{residual:g} or budget {budget:g} is not finite")
        ok = residual <= max(budget, tol * scale)
        return PropertyCheck(name=name, residual=residual, budget=budget,
                             status="ok" if ok else "fail")

    def skipped(name: str, detail: str) -> PropertyCheck:
        return PropertyCheck(name=name, residual=float("nan"), budget=0.0,
                             status="skipped", detail=detail)

    h = np.pi / sigma
    xs, ys, wx, hy = _cell_mesh(sigma, resolution)
    y_mid = ys[0]

    if use_time or use_freq:
        _, fn = _phi_array(gen, sigma, tol)
        base, _, tail_b = fn(xs, ys)

        # Phi1: cell integral of |Phi|^2 against ||B||^2 / (2 sigma)
        half_xs, half_ys, half_wx, half_hy = _cell_mesh(sigma, resolution // 2 + 1)
        half, _, _ = fn(half_xs, half_ys)
        # an overflow leaves an infinite residual, which `graded` refuses
        with np.errstate(over="ignore"):
            cell = float((np.abs(base) ** 2 * wx).sum() * hy)
            half_cell = float((np.abs(half) ** 2 * half_wx).sum() * half_hy)
        quad_budget = abs(cell - half_cell) * 1.1
        residual = abs(cell - norm_sq / (2.0 * sigma))
        budget = quad_budget + 2.0 * tol * scale + 1e-10
        checks.append(graded("phi1_norm", residual, budget))

        # Phi2: structural symmetries on the cell mesh (interior in y)
        shifted_y, _, _ = fn(xs, ys + 2.0 * sigma)
        shifted_x, _, _ = fn(xs + h, ys)
        sym_budget = 2.0 * tail_b + 1e-10
        res_period = float(np.max(np.abs(shifted_y - base)))
        checks.append(graded("phi2_periodic", res_period, sym_budget))
        quasi = np.exp(1j * np.pi * ys / sigma) * base
        res_quasi = float(np.max(np.abs(shifted_x - quasi)))
        checks.append(graded("phi2_quasiperiodic", res_quasi, sym_budget))
        if gen.real_valued:
            mirrored, _, _ = fn(xs, -ys)
            res_conj = float(np.max(np.abs(np.conj(base) - mirrored)))
            checks.append(graded("phi2_conjugation", res_conj, sym_budget))
        else:
            checks.append(skipped("phi2_conjugation",
                                  "generator not declared real-valued"))
    else:
        for name in ("phi1_norm", "phi2_periodic", "phi2_quasiperiodic",
                     "phi2_conjugation"):
            checks.append(skipped(name, "no convergent representation"))

    # Phi3: the two representations agree pointwise
    if use_time and use_freq:
        # base is the exact time sum; the spectral sum is at the budget floor
        try:
            f_vals, _, tail_f = _phi_freq_array(gen, sigma, xs, ys, min(tol, 1e-10))
        except TruncationError as exc:
            checks.append(skipped("phi3_representations", str(exc)))
        else:
            res3 = float(np.max(np.abs(base - f_vals)))
            budget3 = tail_f + 1e-10
            checks.append(graded("phi3_representations", res3, budget3))
    else:
        missing = "time" if not use_time else "frequency"
        checks.append(skipped("phi3_representations", f"{missing} "
                              "representation not pointwise convergent"))

    # Phi4: the pairing, 2 pi times D's Poisson form, against D's lattice form
    try:
        lags, _ = poisson_lags(gen, sigma)
        pair = TWO_PI * poisson_energy(shift_autocorrelation(gen, sigma, lags),
                                       sigma, y_mid)
        d_mid, _, d_tail = lattice_energy(gen, sigma, y_mid, tol=min(tol, 1e-9))
        res4 = float(np.sqrt((np.abs(pair - TWO_PI * d_mid) ** 2).sum() * hy))
        budget4 = (2.0 * np.pi * np.sqrt(2.0 * sigma) * d_tail
                   + 1e-8 * scale + 1e-10)
        checks.append(graded("phi4_pairing", res4, budget4))
    except TruncationError as exc:
        checks.append(skipped("phi4_pairing", str(exc)))

    return PropertyReport(sigma=float(sigma), resolution=resolution,
                          checks=tuple(checks))

