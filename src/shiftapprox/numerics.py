"""Uniform grids, quadrature and the continuous Fourier transform at desk scale.

Conventions used throughout the package:

.. math:: \\hat{f}(y) = \\frac{1}{2\\pi}\\int_\\mathbb{R} f(x) e^{-ixy}\\,dx,
          \\qquad f(x) = \\int_\\mathbb{R} \\hat{f}(y) e^{ixy}\\,dy,

so that ``norm(f)**2 == 2*pi*norm(fhat)**2``.  All reductions go through
`numpy.sum`, whose pairwise accumulation is deterministic for a fixed shape,
so repeated runs produce identical bytes.  Every function here is pure; the
types are frozen dataclasses and safe to share between threads as long as the
caller does not mutate the value arrays.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Sequence, TextIO, Union

import numpy as np

from .errors import InvalidGridError

TWO_PI = 2.0 * np.pi

#: relative tolerance used when checking that CSV input is uniformly spaced
UNIFORM_SPACING_RTOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Uniform one-dimensional grid with both endpoints included.

    Parameters
    ----------
    start, stop : float
        Interval endpoints, ``start < stop``.
    count : int
        Number of nodes, at least 2.

    Notes
    -----
    ``step`` is derived once as ``(stop - start) / (count - 1)`` and stored.
    ``nodes()`` delegates to `numpy.linspace`, which reproduces the endpoints
    exactly.
    """

    start: float
    stop: float
    count: int
    step: float = field(init=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise InvalidGridError("grid endpoints must be finite")
        if not self.start < self.stop:
            raise InvalidGridError(
                f"grid needs start < stop, got [{self.start}, {self.stop}]")
        if int(self.count) != self.count or self.count < 2:
            raise InvalidGridError(f"grid needs count >= 2, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(
            self, "step", (self.stop - self.start) / (self.count - 1))

    def nodes(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def span(self) -> float:
        return self.stop - self.start


def make_uniform_grid(start: float, stop: float, count: int) -> Grid:
    """Validated `Grid` constructor; raises `InvalidGridError` on bad input."""
    return Grid(float(start), float(stop), count)


def covering_windows(radius: float, sigma: float) -> int:
    """Fewest ``K >= 0`` with ``[-radius, radius]`` in ``[-(2K+1), 2K+1] sigma``."""
    return max(0, int(np.ceil((radius - sigma) / (2.0 * sigma) - 1e-12)))


def resolved_band(step: float) -> float:
    """Radius ``0.45 pi / step`` of the band a grid of this step resolves,
    short of ``pi / step``, where Simpson's weights alias a third-amplitude
    copy of the spectrum."""
    return 0.45 * np.pi / step


def period_extension(sigma: float, count: int, windows: int) -> Grid:
    """The period grid ``[-sigma, sigma]`` of ``count`` nodes continued over
    ``2*windows + 1`` periods, so that every period is a slice of it."""
    edge = (2.0 * windows + 1.0) * sigma
    return Grid(start=-edge, stop=edge,
                count=(count - 1) * (2 * windows + 1) + 1)


def chunk_slices(total: int, points: int) -> List[slice]:
    """Blocks of ``range(total)`` sized so that one block evaluated at
    ``points`` nodes holds at most 4e6 values (one index at least)."""
    size = max(1, int(4_000_000 // max(points, 1)))
    return [slice(lo, lo + size) for lo in range(0, total, size)]


def _check_samples(grid: Grid, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] != grid.count:
        raise InvalidGridError(
            f"values shape {arr.shape} does not match grid count {grid.count}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvalidGridError("sampled values must all be finite")
    return arr


@dataclass(frozen=True)
class SampledFunction:
    """Complex time-domain samples on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_samples(self.grid, self.values))


@dataclass(frozen=True)
class SampledSpectrum:
    """Complex frequency-domain samples on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_samples(self.grid, self.values))


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights for `integrate` on ``grid``.

    Composite Simpson when the node count is odd; for an even count, Simpson
    over the first ``count - 1`` nodes plus one trapezoid panel at the end.
    A two-node grid degenerates to the single trapezoid panel.
    """
    n, h = grid.count, grid.step
    w = np.zeros(n)
    if n == 2:
        w[:] = h / 2.0
        return w
    m = n if n % 2 == 1 else n - 1
    w[0] += h / 3.0
    w[m - 1] += h / 3.0
    w[1:m - 1:2] += 4.0 * h / 3.0
    w[2:m - 1:2] += 2.0 * h / 3.0
    if n % 2 == 0:
        w[-2] += h / 2.0
        w[-1] += h / 2.0
    return w


def integrate_values(values: np.ndarray, grid: Grid) -> complex:
    """Quadrature of raw samples over ``grid`` (see `quadrature_weights`)."""
    return complex(np.sum(quadrature_weights(grid) * values))


def integrate(f: SampledFunction | SampledSpectrum) -> complex:
    """Approximate the integral of ``f`` over its grid interval."""
    return integrate_values(f.values, f.grid)


def l2_norm_sq(f: SampledFunction | SampledSpectrum) -> float:
    """Squared L2 norm of ``f`` over its grid interval (real, >= 0)."""
    val = np.sum(quadrature_weights(f.grid) * np.abs(f.values) ** 2)
    return float(val.real)


def fourier_transform_sampled(f: SampledFunction, freq: Grid) -> SampledSpectrum:
    """Quadrature Fourier transform of time samples, by blocked chirp-z.

    Evaluates ``(1/2pi) * sum_j w_j f(x_j) exp(-i x_j y)`` at every node of
    ``freq``, with the weights ``w`` of `integrate`.  Accuracy requires the
    time grid to resolve the oscillation ``exp(-i x y)`` at the largest
    requested ``|y|`` (keep ``f.grid.step * max|y|`` well below 1).

    Both grids are uniform, so on a block of ``L`` frequency nodes
    ``y_b + l dy`` the sum is

        exp(-i x_0 l dy) * sum_j [c_j exp(-i x_j y_b)] exp(-i theta j l),

    ``theta = dx dy``, and the inner sum is one chirp convolution (Bluestein;
    Rabiner, Schafer & Rader 1969).  The block-start phases are computed
    directly, like the phases of a direct sum, and blocks are about as long
    as the time grid, so the chirp phases ``theta (n + L)^2 / 2`` stay small
    and the result matches the direct sum to its own phase rounding,
    ``eps * max|x| * max|y| * sum|c|``.  All blocks go through one batched
    power-of-two FFT: cost ``O((freq.count + f.grid.count) log f.grid.count)``,
    memory ``O(freq.count + f.grid.count)``.

    Returns
    -------
    SampledSpectrum
        Transform values on ``freq``.
    """
    n, m = f.grid.count, freq.count
    x = f.grid.nodes()
    y = freq.nodes()
    weighted = quadrature_weights(f.grid) * f.values / TWO_PI
    size = 1 << (2 * n - 2).bit_length()        # smallest power of two >= 2n-1
    block = min(size - n + 1, m)
    size = 1 << (n + block - 2).bit_length()     # shrinks when m is short
    starts = y[::block]
    k = np.arange(max(n, block), dtype=np.int64)   # k^2 exact before scaling
    chirp = np.exp((-0.5j * f.grid.step * freq.step) * (k * k).astype(float))

    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:block] = np.conj(chirp[:block])
    kernel[size - n + 1:] = np.conj(chirp[n - 1:0:-1])
    heads = np.zeros((starts.size, size), dtype=np.complex128)
    heads[:, :n] = np.exp(np.outer(starts, x) * (-1j)) * (weighted * chirp[:n])
    conv = np.fft.ifft(np.fft.fft(heads, axis=-1) * np.fft.fft(kernel), axis=-1)
    post = chirp[:block] * np.exp((-1j * f.grid.start * freq.step)
                                  * np.arange(block))
    out = (conv[:, :block] * post).reshape(-1)[:m]
    return SampledSpectrum(grid=freq, values=out)


# ---------------------------------------------------------------------------
# CSV interchange: header "x,re,im" (time domain) or "y,re,im" (frequency)

_HEADERS = {"x": SampledFunction, "y": SampledSpectrum}


def _table(columns: Sequence[Sequence], spec: str) -> str:
    """Equal-length columns as comma-separated rows joined by newlines,
    every value rendered by ``spec``: one ``%`` over a repeated row
    template, so the formatting loop runs in C.  No rows give ``""``."""
    width, count = len(columns), len(columns[0])
    flat: list = [None] * (width * count)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return "\n".join([",".join([spec] * width)] * count) % tuple(flat)


def csv_text(*columns: Union[np.ndarray, Sequence[float]]) -> str:
    """``%.17g`` CSV lines of equal-length numeric columns, joined by
    newlines without a trailing one.

    This is the one writer of every numeric table the package prints.
    ``%.17g`` round-trips every double, and the text is byte-identical to
    ``",".join(format(v, ".17g") for v in row)`` row by row, ints, signed
    zeros and non-finite values included.  Columns are read through
    ``tolist()``: numpy scalars format several times slower.
    """
    return _table([np.asarray(c).tolist() for c in columns], "%.17g")


def csv_join(*columns: Sequence[str]) -> str:
    """Equal-length columns of already formatted strings as `csv_text`
    lays them out, for tables whose columns repeat their values."""
    return _table(columns, "%s")


def write_samples_csv(dest: Union[str, TextIO],
                      sampled: SampledFunction | SampledSpectrum) -> None:
    """Write samples as ``x,re,im`` (or ``y,re,im`` for spectra) CSV rows.

    Floats are rendered with ``%.17g`` so values round-trip exactly and the
    output is byte-identical across runs.
    """
    label = "x" if isinstance(sampled, SampledFunction) else "y"
    own = isinstance(dest, str)
    fh = open(dest, "w", encoding="ascii", newline="") if own else dest
    try:
        values = sampled.values
        body = csv_text(sampled.grid.nodes(), values.real, values.imag)
        fh.write(f"{label},re,im\n{body}\n")
    finally:
        if own:
            fh.close()


def read_samples_csv(src: Union[str, TextIO]) -> SampledFunction | SampledSpectrum:
    """Load CSV written by `write_samples_csv`.

    The first header column decides the type (``x`` -> `SampledFunction`,
    ``y`` -> `SampledSpectrum`).  Non-uniform node spacing is rejected with
    `InvalidGridError` (relative tolerance ``1e-9``).
    """
    own = isinstance(src, str)
    fh = open(src, "r", encoding="ascii") if own else src
    try:
        header = fh.readline().strip()
        parts = [p.strip() for p in header.split(",")]
        if len(parts) != 3 or parts[0] not in _HEADERS or parts[1:] != ["re", "im"]:
            raise InvalidGridError(f"unrecognized CSV header: {header!r}")
        body = fh.read()
    finally:
        if own:
            fh.close()
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidGridError(f"malformed CSV body: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != 3:
        raise InvalidGridError("CSV needs at least two rows of three columns")
    nodes = data[:, 0]
    grid = make_uniform_grid(nodes[0], nodes[-1], len(nodes))
    drift = np.max(np.abs(nodes - grid.nodes()))
    if drift > UNIFORM_SPACING_RTOL * grid.span():
        raise InvalidGridError(
            f"CSV nodes deviate from uniform spacing by {drift:.3e} "
            f"(allowed {UNIFORM_SPACING_RTOL:.0e} relative to the span)")
    values = data[:, 1] + 1j * data[:, 2]
    return _HEADERS[parts[0]](grid=grid, values=values)
