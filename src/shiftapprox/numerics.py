"""Uniform grids, quadrature and the continuous Fourier transform at desk scale.

Conventions used throughout the package:

.. math:: \\hat{f}(y) = \\frac{1}{2\\pi}\\int_\\mathbb{R} f(x) e^{-ixy}\\,dx,
          \\qquad f(x) = \\int_\\mathbb{R} \\hat{f}(y) e^{ixy}\\,dy,

so that ``norm(f)**2 == 2*pi*norm(fhat)**2``.  All reductions go through
`numpy.sum`, whose pairwise accumulation is deterministic for a fixed shape,
so repeated runs produce identical bytes.  The types are frozen
dataclasses and safe to share between threads as long as the caller does not
mutate the value arrays.  A grid builds its nodes, their ``%.17g`` words
and its Simpson row once, on first use, and keeps them read-only.  Every
function here is pure but the keeper's: `keep` holds what the process
reuses, in one least-recently-used table under one byte bound (the shared
grids, parsed CSV content, and for `generator` and `spectral` file
generators, D, the fold's B-hat and time-sample spectra).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Callable, Iterable, List, NamedTuple,
                    Optional, Sequence, TextIO, Tuple, Union)

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
    The grid builds three arrays on first use and keeps each, read-only,
    for every later call: ``nodes()``, by `numpy.linspace`, which
    reproduces the endpoints exactly; ``text_words()``, the ``%.17g``
    words of the nodes that `csv_tables` copies for a grid column; and
    ``weights()``, the Simpson row of `quadrature_weights`.  `shared_grid`
    hands out one grid per (start, stop, count), so what one request
    builds the next reads.
    """

    start: float
    stop: float
    count: int
    step: float = field(init=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise InvalidGridError("grid endpoints must be finite")
        if not np.isfinite(self.stop - self.start):
            raise InvalidGridError(
                f"grid span [{self.start}, {self.stop}] overflows a double")
        if not self.start < self.stop:
            raise InvalidGridError(
                f"grid needs start < stop, got [{self.start}, {self.stop}]")
        if int(self.count) != self.count or self.count < 2:
            raise InvalidGridError(f"grid needs count >= 2, got {self.count}")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(
            self, "step", (self.stop - self.start) / (self.count - 1))

    def _held(self, name: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The array ``name``, built on first use and kept read-only; a
        shared grid then holds more bytes, so the keeper checks its bound."""
        held = self.__dict__.get(name)
        if held is None:
            held = build()
            held.flags.writeable = False
            object.__setattr__(self, name, held)
            _grid_grew(self)
        return held

    def nodes(self) -> np.ndarray:
        return self._held(
            "_nodes", lambda: np.linspace(self.start, self.stop, self.count))

    def text_words(self) -> np.ndarray:
        """``%.17g`` of the nodes as `_text_words` lays them out."""
        return self._held("_words", lambda: _text_words(self.nodes()))

    def weights(self) -> np.ndarray:
        """The Simpson row of `quadrature_weights`."""
        return self._held(
            "_weights", lambda: add_quadrature_weights(np.zeros(self.count),
                                                       self.step))

    def held_bytes(self) -> int:
        """Bytes of the arrays the grid has built and keeps."""
        return sum(self.__dict__[name].nbytes for name in _HELD
                   if name in self.__dict__)

    def span(self) -> float:
        return self.stop - self.start


_HELD = ("_nodes", "_words", "_weights")


def make_uniform_grid(start: float, stop: float, count: int) -> Grid:
    """Validated `Grid` constructor; raises `InvalidGridError` on bad input."""
    return Grid(float(start), float(stop), count)


# ---------------------------------------------------------------------------
# The keeper: what the process reuses, in one table under one byte bound

#: bound on the bytes of everything `keep` holds together
_KEPT_BYTES = 100 * 2 ** 20
#: key -> (value, size) of what the process keeps, least recently used
#: first; a key's first item names the kind of value
_KEPT: "OrderedDict[tuple, Tuple[Any, Callable[[Any], int]]]" = OrderedDict()
_KEPT_LOCK = threading.Lock()


def keep(key: tuple, build: Callable[[], Any], size: Callable[[Any], int]) -> Any:
    """The value kept under ``key``, or ``build()``, kept there.

    ``key``'s first item names the kind of value ("grid", "csv", ...); an
    item may name an object by `weakref.ref`, and an entry whose referent
    has died is dropped at the next store.  ``build`` runs outside the
    lock; the first value stored under a key wins a race.  ``size(value)``,
    read at every store, is the bytes a value holds: least-recently-used
    entries go while the sizes pass ``_KEPT_BYTES``; a larger value is
    handed out but not kept.
    """
    with _KEPT_LOCK:
        value = _hit(key)
    if value is None:
        value = build()
        with _KEPT_LOCK:
            value = _store(key, value, size)
    return value


def _hit(key: tuple) -> Any:
    """The value kept under ``key``, now the most recently used, or None;
    the caller holds ``_KEPT_LOCK``, as for `_store`."""
    entry = _KEPT.get(key)
    if entry is None:
        return None
    _KEPT.move_to_end(key)
    return entry[0]


def _store(key: tuple, value: Any, size: Callable[[Any], int]) -> Any:
    """Keep ``value`` under ``key`` unless one is kept there, and return
    the one kept; then hold the keeper to its bound, and drop every path
    whose content went."""
    for dead in [k for k in _KEPT if any(
            isinstance(r, weakref.ref) and r() is None for r in k)]:
        del _KEPT[dead]
    value, size = _KEPT.setdefault(key, (value, size))
    if size(value) > _KEPT_BYTES:
        del _KEPT[key]
    else:
        _KEPT.move_to_end(key)
    total = sum(sized(v) for v, sized in _KEPT.values())
    while total > _KEPT_BYTES:
        _, (old, sized) = _KEPT.popitem(last=False)
        total -= sized(old)
    for path in [p for p, (_, k) in _PATHS.items() if k not in _KEPT]:
        del _PATHS[path]
    return value


def _grid_key(start: float, stop: float, count: int) -> tuple:
    # the signs tell -0.0 from 0.0, which print apart
    return ("grid", start, stop, count, math.copysign(1.0, start),
            math.copysign(1.0, stop))


def shared_grid(start: float, stop: float, count: int) -> Grid:
    """The process's one `Grid` of ``(start, stop, count)``; raises
    `InvalidGridError` on bad input, as `Grid` does.

    Every period grid, its extensions (`period_extension`), zak's cell
    grids and project's index column come from here, so each is built
    once per process with whatever it has been asked for: its nodes, their
    ``%.17g`` words and its Simpson row, all read-only.  A grid is kept
    (`keep`), its size the arrays it holds, stored again whenever it
    builds one; a grid dropped keeps working, and the next call builds
    anew.  A grid's arrays are the bytes a fresh grid builds.
    """
    key = _grid_key(float(start), float(stop), int(count))
    return keep(key, lambda: Grid(key[1], key[2], key[3]), Grid.held_bytes)


def _grid_grew(grid: Grid) -> None:
    """Hold the keeper to its bound after ``grid`` built an array, if
    ``grid`` is the one it shares."""
    key = _grid_key(grid.start, grid.stop, grid.count)
    with _KEPT_LOCK:
        if _hit(key) is grid:
            _store(key, grid, Grid.held_bytes)


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
    ``2*windows + 1`` periods, so that every period is a slice of it: the
    shared grid (`shared_grid`), so a fold samples f-hat on nodes built
    once."""
    edge = (2.0 * windows + 1.0) * sigma
    return shared_grid(-edge, edge, (count - 1) * (2 * windows + 1) + 1)


def subgrid_offset(inner: Grid, outer: Grid) -> Optional[int]:
    """Index of the node of ``outer`` (or of its continuation) that
    ``inner`` starts on, to 1e-6 of a step, when the two steps agree to
    1e-9; None otherwise."""
    offset = (inner.start - outer.start) / outer.step
    lo = int(round(offset))
    if abs(inner.step - outer.step) <= 1e-9 * outer.step and abs(offset - lo) <= 1e-6:
        return lo
    return None


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


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex time-domain samples on a uniform grid.

    Hashed and compared by identity, like `generator.Generator`: the
    spectrum `shiftspace` transforms from read-only samples is kept per
    samples object (held by weak reference) in the keeper (`keep`).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_samples(self.grid, self.values))


@dataclass(frozen=True, eq=False)
class SampledSpectrum:
    """Complex frequency-domain samples on a uniform grid, hashed and
    compared by identity like `SampledFunction`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_samples(self.grid, self.values))


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Quadrature weights for `integrate` on ``grid``.

    Composite Simpson when the node count is odd; for an even count, Simpson
    over the first ``count - 1`` nodes plus one trapezoid panel at the end.
    A two-node grid degenerates to the single trapezoid panel.  The row is
    the grid's own (`Grid.weights`), read-only.
    """
    return grid.weights()


def add_quadrature_weights(w: np.ndarray, h: float) -> np.ndarray:
    """Add the `quadrature_weights` of a ``w.size``-node grid of step ``h``
    into ``w``, say a zero row's slice, and return ``w``."""
    n = w.size
    if n == 2:
        w += h / 2.0
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


def _fft_size(count: int, block: int) -> int:
    """Smallest power of two that holds the chirp convolution of ``count``
    time nodes onto a block of ``block`` frequency nodes."""
    return 1 << (count + block - 2).bit_length()


class _ChirpPlan(NamedTuple):
    """What a chirp transform of one time grid onto blocks of one
    frequency step reuses: FFT size, offset of a block's middle node, time
    nodes, quadrature weights over 2 pi (bare, and times the time-side
    chirp), kernel spectrum and post-phase.  The arrays are read-only."""

    size: int
    half: int
    nodes: np.ndarray
    weights: np.ndarray
    chirped: np.ndarray
    kernel: np.ndarray
    post: np.ndarray


@functools.lru_cache(maxsize=1)
def _chirp_plan(grid: Grid, dy: float, size: int) -> _ChirpPlan:
    """The `_ChirpPlan` of ``grid`` onto frequency nodes of step ``dy`` in
    FFTs of ``size`` points, on blocks of the ``size - grid.count + 1``
    nodes they hold: built once and shared by every transform of the same
    grids and size, the extensions of one doubling among them.
    The plan used last is kept: a request transforms one set of time
    samples, its signal's (a time-sample generator is read in closed form).

    The chirp is centred on the middle time node and the middle node of a
    block, so its indices stay within ``(count + block) / 2``."""
    count = grid.count
    block = size - count + 1
    mid, half = count // 2, block // 2
    k = np.arange(mid + half + 1, dtype=np.int64)   # k^2 exact before scaling
    chirp = np.exp((-0.5j * grid.step * dy) * (k * k).astype(float))
    lags = np.arange(-(count - 1), block) + (mid - half)   # block - time offset
    kernel = np.conj(chirp[np.abs(lags)])
    nodes = grid.nodes()
    weights = quadrature_weights(grid) / TWO_PI
    offsets = np.arange(block) - half
    plan = _ChirpPlan(
        size=size, half=half, nodes=nodes, weights=weights,
        chirped=weights * chirp[np.abs(np.arange(count) - mid)],
        kernel=np.fft.fft(np.roll(kernel, -(count - 1))),
        post=chirp[np.abs(offsets)] * np.exp((-1j * nodes[mid] * dy) * offsets))
    for arr in plan[2:]:
        arr.flags.writeable = False
    return plan


def fourier_transform_sampled(f: SampledFunction, freq: Grid) -> SampledSpectrum:
    """Quadrature Fourier transform of time samples, by blocked chirp-z.

    Evaluates ``(1/2pi) * sum_j w_j f(x_j) exp(-i x_j y)`` at every node of
    ``freq``, with the weights ``w`` of `integrate`.  Accuracy requires the
    time grid to resolve the oscillation ``exp(-i x y)`` at the largest
    requested ``|y|`` (keep ``f.grid.step * max|y|`` well below 1).

    Both grids are uniform, so on a block of ``L`` frequency nodes
    ``y_b + l dy``, with ``y_b`` its middle node, ``x_c`` the middle time
    node and ``l`` and ``j`` counted from them, the sum is

        exp(-i x_c l dy) * sum_j [c_j exp(-i x_j y_b)] exp(-i theta j l),

    ``theta = dx dy``, and the inner sum is one chirp convolution (Bluestein;
    Rabiner, Schafer & Rader 1969).  The block phases ``x_j y_b`` are
    computed directly, like the phases of a direct sum.  The FFT size is
    the smallest power of two that holds the convolution onto
    ``min(n, m)`` nodes (``n`` time nodes, ``m = freq.count``), the
    smallest of ``2n - 1`` points or more once ``m >= n``, and blocks are
    the ``L = size - n + 1`` nodes it holds, the fewest blocks at that
    size.  Centred, the chirp phases stay below ``theta (n + L)^2 / 8``, so
    the result matches the direct sum to its own phase rounding,
    ``eps * max|x| * max|y| * sum|c|``.  ``freq`` is cut into blocks of
    ``L`` from its first node, the last one cut short; a rest of one node,
    such as the last node of an extension whose ``m - 1`` is a multiple of
    ``L``, is a direct sum rather than an FFT row of one node.  All blocks
    go through one batched power-of-two FFT against a kernel built once
    for the pair of grids and the size (`_chirp_plan`), so the extensions
    of a doubling share one plan: cost
    ``O((freq.count + f.grid.count) log f.grid.count)``, memory
    ``O(freq.count + f.grid.count)``.

    Returns
    -------
    SampledSpectrum
        Transform values on ``freq``.
    """
    m, n = freq.count, f.grid.count
    plan = _chirp_plan(f.grid, freq.step, _fft_size(n, min(n, m)))
    block = plan.size - n + 1
    out = np.empty(m, dtype=np.complex128)
    blocked = m - 1 if m % block == 1 else m   # a rest of one node is direct
    if blocked:
        y = freq.start + (np.arange(0, blocked, block) + plan.half) * freq.step
        heads = np.exp(np.outer(y, plan.nodes) * (-1j)) * (f.values * plan.chirped)
        conv = np.fft.ifft(np.fft.fft(heads, n=plan.size) * plan.kernel)
        out[:blocked] = (conv[:, :block] * plan.post).reshape(-1)[:blocked]
    if blocked < m:
        y = freq.start + np.array([blocked]) * freq.step
        out[blocked:] = (np.exp(np.outer(y, plan.nodes) * (-1j))
                         * (f.values * plan.weights)).sum(axis=1)
    return SampledSpectrum(grid=freq, values=out)


# ---------------------------------------------------------------------------
# CSV interchange: header "x,re,im" (time domain) or "y,re,im" (frequency)

_HEADERS = {"x": SampledFunction, "y": SampledSpectrum}


def _table(columns: Sequence[Sequence]) -> str:
    """Equal-length columns as comma-separated rows joined by newlines,
    every value rendered by ``%.17g``: one ``%`` over a repeated row
    template, so the formatting loop runs in C.  No rows give ``""``."""
    width, count = len(columns), len(columns[0])
    flat: list = [None] * (width * count)
    for i, column in enumerate(columns):
        flat[i::width] = column
    return "\n".join([",".join(["%.17g"] * width)] * count) % tuple(flat)


#: `csv_tables` calls of at least this many values, counted over all the
#: columns of all their tables, are formatted in numpy in one pass per call
#: (a CLI command makes one call), smaller ones by Python's row template:
#: for one to four columns of doubles the two cost about the same near 320
#: values, and from 384 values numpy takes at most 0.97 of the time
#: (x86-64, numpy 2.4, median of 101 alternating calls, measured warm)
NUMPY_TEXT_VALUES = 384

#: most data values in one numpy formatting pass: past about 4 096 values
#: one pass ran slower than passes over row blocks (2 049 x 3 and
#: 4 097 x 3 tables), so a larger call is cut into blocks of about equal size
_PASS_VALUES = 4096

# A value's text is laid out in six 8-byte words, written whole:
#   [sign 0 . 0 0 0 d0 .] [d1 . d2 . d3 . d4 .] ... [d13 . d14 . d15 . d16 .]
#   [e sign e2 e1 e0 0 0 separator]
# and a mask picked by notation and significant-digit count zeroes the bytes
# `%.17g` does not print; the zero bytes are then deleted.
_WORDS = 6
_DIGIT0 = 6          # byte of the leading digit; digit i is at 6 + 2i
_EXPONENT_SPAN = 300  # x of |v| in [1e-280, 1e280] and of zero


def _as_words(rows: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as one native uint64 each (byte order kept)."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)[:, 0]


def _interleave(digits: np.ndarray, fill: int) -> np.ndarray:
    out = np.full(digits.shape[:-1] + (2 * digits.shape[-1],), fill, dtype=np.uint8)
    out[..., ::2] = digits + ord("0")
    return out


def _mask_words() -> np.ndarray:
    """Byte masks by ``18 * notation + significant digits``.  Notation
    ``0..20`` is fixed with decimal exponent ``notation - 4``; 21 and 22
    are exponent form with two and three exponent digits."""
    keep = np.zeros((23, 18, 8 * _WORDS), dtype=np.uint8)
    keep[..., 0] = keep[..., -1] = 255                  # sign and separator
    for notation in range(23):
        x = notation - 4
        for s in range(1, 18):
            row = keep[notation, s]
            if notation > 20:
                row[_DIGIT0:_DIGIT0 + 2 * s:2] = 255
                row[_DIGIT0 + 1] = 255 if s > 1 else 0
                row[40:42] = 255                        # "e" and its sign
                row[64 - notation:45] = 255             # two or three digits
            elif x < 0:
                row[1:2 - x] = 255                      # "0." and -x-1 zeros
                row[_DIGIT0:_DIGIT0 + 2 * s:2] = 255
            else:
                row[_DIGIT0:_DIGIT0 + 2 * max(s, x + 1):2] = 255
                if s > x + 1:
                    row[_DIGIT0 + 2 * x + 1] = 255
    return keep.reshape(23 * 18, 8 * _WORDS).view(np.uint64)


def _digit_tables():
    quad = np.arange(10_000)
    quad_digits = (quad[:, np.newaxis] // [1000, 100, 10, 1]) % 10
    exponent = np.arange(-_EXPONENT_SPAN, _EXPONENT_SPAN)
    exponent_rows = np.zeros((exponent.size, 8), dtype=np.uint8)
    exponent_rows[:, 0] = ord("e")
    exponent_rows[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    exponent_rows[:, 2:5] = ((np.abs(exponent)[:, np.newaxis] // [100, 10, 1]) % 10
                             + ord("0"))
    head = np.zeros((2, 10, 8), dtype=np.uint8)
    head[1, :, 0] = ord("-")
    head[:, :, 1:6] = np.frombuffer(b"0.000", dtype=np.uint8)
    head[:, :, 6:] = _interleave(np.arange(10)[:, np.newaxis], ord("."))
    return (_as_words(head.reshape(20, 8)),
            _as_words(_interleave(quad_digits, ord("."))),
            # trailing zeros of a four-digit group; 0 counts all four
            ((quad % 10 == 0).astype(np.int64) + (quad % 100 == 0)
             + (quad % 1000 == 0) + (quad == 0)),
            _as_words(exponent_rows))


_HEAD, _QUAD, _QUAD_ZEROS, _EXPONENT = _digit_tables()
_MASK = _mask_words()
_SEPARATOR = {sep: np.frombuffer(b"\0" * 7 + sep, dtype=np.uint64)[0]
              for sep in (b",", b"\n")}


def _split(a):
    """Veltkamp's split of doubles into halves of at most 26 bits each."""
    cut = 134217729.0 * a  # 2**27 + 1
    head = cut - (cut - a)
    return head, a - head


def _power_of_ten(p: int) -> Tuple[float, float, float, float]:
    """10**p as ``hi + lo`` (hi the nearest double, lo the nearest double to
    the rest, both by correctly rounded int division) and hi's halves."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return (hi, (num * d - n * den) / (den * d)) + _split(hi)


#: column ``x + _POWER_OFFSET`` holds `_power_of_ten` ``(16 - x)`` for every
#: x of a plain |v| in [1e-280, 1e280] and one either side, where log10's
#: rounding may first put it (see `_text_words`)
_POWER_OFFSET = 281
_POWERS = np.array([_power_of_ten(16 - x)
                    for x in range(-_POWER_OFFSET, _POWER_OFFSET + 1)]).T.copy()


def _scaled(a: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - x)`` as a double ``big`` plus a small ``rest``: Dekker's
    exact product of a with 10**p's head, then a times its tail."""
    hi, lo, bh, bl = np.take(_POWERS, x + _POWER_OFFSET, axis=1)
    big = a * hi
    ah, al = _split(a)
    err = ((ah * bh - big) + ah * bl + al * bh) + al * bl
    return big, err + a * lo


def _text_words(values: np.ndarray) -> np.ndarray:
    """``%.17g`` of each value as (n, 6) words whose zero bytes are padding,
    the last byte of each row left zero for a separator (see `csv_tables`)."""
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    zero = a == 0.0
    plain = zero | ((a >= 1e-280) & (a <= 1e280))
    a = np.where(plain & ~zero, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    big, rest = _scaled(a, x)
    # log10 may round across a power of ten: move x once where the scaled
    # value left [1e16, 1e17)
    shift = (((big - 1e17) + rest >= 0.0).astype(np.int64)
             - ((big - 1e16) + rest < 0.0))
    moved = np.flatnonzero(shift)
    if moved.size:
        x[moved] += shift[moved]
        big[moved], rest[moved] = _scaled(a[moved], x[moved])
    # big is a whole number here (>= 2**53); round the rest
    whole = np.floor(rest)
    frac = rest - whole
    fallback = np.flatnonzero(~plain | (np.abs(frac - 0.5) < 1e-9))
    n = big.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    x += carry
    n[zero] = 0          # prints "0": one significant digit, x = 0
    x[zero] = 0
    top, g4 = np.divmod(n, 10 ** 4)
    top, g3 = np.divmod(top, 10 ** 4)
    top, g2 = np.divmod(top, 10 ** 4)
    lead, g1 = np.divmod(top, 10 ** 4)
    z = _QUAD_ZEROS
    digits = 17 - (z[g4] + (g4 == 0) * (z[g3] + (g3 == 0) * (z[g2] + (g2 == 0) * z[g1])))
    notation = np.where((x >= -4) & (x < 17), x + 4, 21 + (np.abs(x) >= 100))
    words = np.empty((v.size, _WORDS), dtype=np.uint64)
    words[:, 0] = _HEAD[lead + 10 * np.signbit(v)]
    for i, group in enumerate((g1, g2, g3, g4)):
        words[:, 1 + i] = _QUAD[group]
    words[:, 5] = _EXPONENT[x + _EXPONENT_SPAN]
    words &= np.take(_MASK, 18 * notation + digits, axis=0)
    _print_rows(words.view(np.uint8), fallback, v)
    return words


def _print_rows(rows: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """Python's ``%.17g`` of ``values[i]`` from byte 0 of the zeroed byte
    row ``rows[i]``, for each i of ``index``."""
    for i in index.tolist():
        text = b"%.17g" % float(values[i])
        rows[i] = 0
        rows[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def _pass_words(values: np.ndarray) -> np.ndarray:
    """`_text_words` of a float64 array in one pass per block of at most
    `_PASS_VALUES` values, the blocks of about equal size."""
    passes = -(-values.size // _PASS_VALUES)
    if passes < 2:
        return _text_words(values)
    step = -(-values.size // passes)
    return np.concatenate([_text_words(values[lo:lo + step])
                           for lo in range(0, values.size, step)])


#: a column of a table `csv_tables` formats: a grid stands for its nodes
Column = Union[Grid, np.ndarray, Sequence[float]]


def csv_tables(*tables: Sequence[Column]) -> List[str]:
    """``%.17g`` CSV text of each table, a sequence of equal-length numeric
    columns, its lines joined by newlines without a trailing one.

    This is the writer of every numeric table the package prints but the
    Phi mesh, which `csv_mesh` lays out from the same words, and a command
    hands every table it prints to one call.  ``%.17g``
    round-trips every double, and the text is byte-identical to
    ``",".join(format(v, ".17g") for v in row)`` row by row, ints, signed
    zeros and non-finite values included.  A column may be a `Grid`,
    which stands for its nodes: the grid formats them once and keeps the
    words (`Grid.text_words`), so a table on a shared grid formats its data
    columns alone.

    A call of fewer than `NUMPY_TEXT_VALUES` values, counted over all the
    columns of all its tables, reads each table through ``tolist()`` (a
    grid's nodes too) and renders it by one ``%`` over a repeated row
    template.  A larger call is formatted in numpy in one pass: the data
    columns of every table are written row by row into one float64 array,
    the tables one after another (an int converts as ``%.17g`` converts
    it), whose words go into each table's (rows, columns, words) table
    beside its grid columns' words; the separators are set on that table.
    So the numpy kernel's fixed cost is paid once per call, not once per
    table or column.  A call of more than `_PASS_VALUES` data values takes
    one such pass per block of that array, the blocks of about equal size.
    With x = floor(log10 |v|), corrected once where the scaled
    value leaves [1e16, 1e17), the digits are N = round(|v| 10**(16 - x)).
    The product is a double-double: Dekker's exact TwoProduct (Veltkamp
    split) of |v| with the double nearest 10**p, plus |v| times the nearest
    double to 10**p's remainder, both built from Python ints by correctly
    rounded division once for every p a plain |v| can read (`_POWERS`).
    What is left of the error is the remainder's
    rounding (2**-107 relative), the rounding of |v| times it, and the sum
    of the two small parts, about 5e-15 of N's last digit in all; so N is
    exact wherever the fraction is more than 1e-9 from 1/2.  Python's
    ``%`` formats the rest: fractions within 1e-9 of 1/2 (exact ties among
    them, which round to even), nan and infinities, subnormals and |v|
    outside [1e-280, 1e280], where the split could overflow or underflow.
    Digits come from four-digit lookup tables, trailing zeros are dropped,
    and ``%g``'s rule picks exponent form for x < -4 or x >= 17.
    """
    shapes = [(len(t), t[0].count if isinstance(t[0], Grid) else len(t[0]))
              for t in tables]
    if sum([width * count for width, count in shapes]) < NUMPY_TEXT_VALUES:
        return [_table([(c.nodes() if isinstance(c, Grid) else np.asarray(c)).tolist()
                        for c in table]) for table in tables]
    data = [[i for i, c in enumerate(t) if not isinstance(c, Grid)] for t in tables]
    values = np.empty(sum([count * len(d) for (_, count), d in zip(shapes, data)]))
    at = 0
    for table, (_, count), d in zip(tables, shapes, data):
        rows = values[at:at + count * len(d)].reshape(count, len(d))
        for k, i in enumerate(d):
            rows[:, k] = table[i]
        at += rows.size
    words = _pass_words(values)
    texts, at = [], 0
    for table, (width, count), d in zip(tables, shapes, data):
        own = words[at:at + count * len(d)].reshape(count, len(d), _WORDS)
        at += count * len(d)
        if len(d) < width:
            cells = np.empty((count, width, _WORDS), dtype=np.uint64)
            for i, c in enumerate(table):
                if isinstance(c, Grid):
                    cells[:, i] = c.text_words()
            cells[:, d] = own
        else:
            cells = own
        cells[..., -1] |= _separators(width)
        texts.append(cells.tobytes().translate(None, b"\0")[:-1].decode("ascii"))
    return texts


@functools.lru_cache(maxsize=16)
def _separators(width: int) -> np.ndarray:
    """The separator of each column of a row, set in its words' last byte."""
    out = np.full(width, _SEPARATOR[b","])
    out[-1] = _SEPARATOR[b"\n"]
    out.flags.writeable = False
    return out


def csv_text(*columns: Column) -> str:
    """``%.17g`` CSV lines of equal-length numeric columns, joined by
    newlines without a trailing one: the one-table case of `csv_tables`."""
    return csv_tables(columns)[0]


def csv_mesh(x_grid: Grid, y_grid: Grid, values: np.ndarray) -> str:
    """``%.17g`` CSV lines ``x,y,re,im`` of a complex mesh of shape
    (x_grid.count, y_grid.count), x outer and y inner, joined by newlines
    without a trailing one: the text `csv_text` prints for the repeated x
    nodes, the tiled y nodes, re and im, built without a string per value.

    A mesh repeats its magnitudes (the Phi mesh is conjugate-symmetric on a
    symmetric y grid), so each of re and im formats each distinct |v| once
    (`_signed_rows`).  The rows are laid out a block of x rows at a time,
    as many as hold at most `_PASS_VALUES` values, and at least one (7 x
    rows of 129 y nodes, about 170 KB of padded words), so that a block
    stays in cache: the y words are set once, the x words
    (`Grid.text_words`) broadcast along y, re and im gathered from their
    tables, the separators ORed in, and the zero bytes of the block deleted
    by one ``translate``.
    """
    values = np.asarray(values).reshape(x_grid.count, y_grid.count)
    count = y_grid.count
    columns = [_signed_rows(part.ravel()) for part in (values.real, values.imag)]
    x_words = x_grid.text_words()
    rows = max(1, _PASS_VALUES // (4 * count))
    cells = np.empty((min(rows, x_grid.count), count, 4, _WORDS), dtype=np.uint64)
    cells[:, :, 1] = y_grid.text_words()
    chunks = []
    for lo in range(0, x_grid.count, rows):
        block = cells[:min(rows, x_grid.count - lo)]
        block[:, :, 0] = x_words[lo:lo + len(block), np.newaxis]
        for k, (table, index) in enumerate(columns, 2):
            block[:, :, k] = table[index[lo * count:(lo + len(block)) * count]
                                   ].reshape(len(block), count, _WORDS)
        block[..., -1] |= _separators(4)
        chunks.append(block.tobytes().translate(None, b"\0"))
    chunks[-1] = chunks[-1][:-1]
    return b"".join(chunks).decode("ascii")


def _signed_rows(column: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The words of each distinct magnitude of a column, then of its
    negative, and the row of each value in that table.

    A row of a plain magnitude holds a zero sign slot in byte 0, which its
    negative's row sets to ``-``; a row Python's ``%`` printed (a
    subnormal, |v| outside [1e-280, 1e280], an infinity, nan, a fraction
    near a rounding tie) begins its text in byte 0, so its negative is
    printed again from the signed value, and a nan's negative prints
    ``nan``, as ``%.17g`` prints every nan.  Byte 0 is read through a uint8
    view, whatever the byte order.  A value takes the negative's row where
    its sign bit is set, so ``-0`` keeps its sign.
    """
    magnitudes, inverse = np.unique(np.abs(column), return_inverse=True)
    words = _pass_words(magnitudes)
    table = np.concatenate([words, words])
    negative = table.view(np.uint8)[magnitudes.size:]
    printed = negative[:, 0] != 0
    negative[~printed, 0] = ord("-")
    _print_rows(negative, np.flatnonzero(printed), -magnitudes)
    return table, inverse.reshape(-1) + magnitudes.size * np.signbit(column)


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


#: path -> (fstat signature, keeper key) of a file read unchanged
_PATHS: "dict[str, Tuple[_Signature, tuple]]" = {}
#: a file changed within this many ns of a read may be rewritten inside the
#: same timestamp tick, keeping its signature: it is not recorded by path.
#: 2 s is FAT's timestamp granularity, the coarsest in common use
_RACY_NS = 2 * 10 ** 9
_TOO_FEW_ROWS = "CSV needs at least two rows of three columns"


class _Signature(NamedTuple):
    """What ``os.fstat`` tells of an open file."""

    dev: int
    ino: int
    size: int
    mtime_ns: int
    ctime_ns: int


def _signature(fh) -> _Signature:
    st = os.fstat(fh.fileno())
    return _Signature(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
                      st.st_ctime_ns)


def read_samples_csv(src: Union[str, TextIO]) -> SampledFunction | SampledSpectrum:
    """Load CSV written by `write_samples_csv`.

    The first header column decides the type (``x`` -> `SampledFunction`,
    ``y`` -> `SampledSpectrum`).  Non-uniform node spacing is rejected with
    `InvalidGridError` (relative tolerance ``1e-9``), as are a bad header,
    a malformed body, fewer than two rows of three columns, non-finite
    values and, for a path, a byte that is not ASCII.

    A path is read as bytes and keyed by their SHA-256: the same content,
    at any path and whatever its modification time, is parsed once per
    process and the validated value is returned again.  Its ``values`` are
    read-only, so an in-place write raises instead of changing later
    reads.  The content is kept (`keep`), its size its ``values`` and the
    arrays its grid has built (`Grid.held_bytes`); failures are not.  A
    file object is parsed on every call and not kept.

    Beside the content a path index, ``_PATHS``, keeps per path the
    ``os.fstat`` signature of the open file (device, inode, size, mtime and
    ctime in ns; taken after the open, where NFS close-to-open consistency
    revalidates it) and the content's keeper key.  A read whose signature
    matches, while that content is still kept, returns it without reading
    or hashing a byte.  A read records its path only when the signature is
    unchanged across the read and the file's last change,
    ``max(mtime, ctime)``, lies more than ``_RACY_NS`` (2 s) before the
    read began.  So a file changed in the last 2 s (a same-size rewrite
    inside one timestamp tick keeps its signature), one dated in the future
    or changed during the read, a rewritten or replaced file and a path
    whose content was dropped, by whichever store, are read and hashed
    again.  Both live in the process: a subprocess per call gains nothing
    from them.
    """
    if not isinstance(src, str):
        return _parse_samples(src.readline(), src)
    began = time.time_ns()
    with open(src, "rb") as fh:
        seen = _signature(fh)
        with _KEPT_LOCK:
            known = _PATHS.get(src)
            loaded = _hit(known[1]) if known and known[0] == seen else None
        if loaded is not None:
            return loaded
        raw = fh.read()
        settled = (_signature(fh) == seen
                   and began - max(seen.mtime_ns, seen.ctime_ns) > _RACY_NS)
    key = ("csv", hashlib.sha256(raw).digest())
    with _KEPT_LOCK:
        loaded = _hit(key)
        if loaded is not None and settled:
            _PATHS[src] = (seen, key)
    if loaded is not None:
        return loaded
    if not raw.isascii():
        at = next(i for i, byte in enumerate(raw) if byte > 0x7F)
        raise InvalidGridError(f"{src}: byte {raw[at]:#04x} at offset {at} "
                               "is not ASCII")
    # bytes split at \n, \r\n and \r only, as a text-mode read translates
    header, *body = raw.splitlines() or [b""]
    del raw  # the parse holds the byte lines alone
    loaded = _parse_samples(header.decode("ascii"), body)
    loaded.values.flags.writeable = False
    with _KEPT_LOCK:
        loaded = _store(key, loaded, lambda c: c.values.nbytes + c.grid.held_bytes())
        if settled and key in _KEPT:
            _PATHS[src] = (seen, key)
    return loaded


def _holds_row(line: Union[str, bytes]) -> bool:
    """Whether `numpy.loadtxt` reads a row from the line: text before a
    ``#`` comment."""
    comment = b"#" if isinstance(line, bytes) else "#"
    return bool(line.partition(comment)[0].strip())


def _parse_samples(header: str, body: Iterable) -> SampledFunction | SampledSpectrum:
    """Samples from a header line and the body's lines (`numpy.loadtxt`
    takes str or bytes lines, or a text file positioned after the header)."""
    header = header.strip()
    parts = [p.strip() for p in header.split(",")]
    if len(parts) != 3 or parts[0] not in _HEADERS or parts[1:] != ["re", "im"]:
        raise InvalidGridError(f"unrecognized CSV header: {header!r}")
    # numpy.loadtxt warns on a body without a row, so such a body raises
    # here; loadtxt gets back the lines read up to the first row
    lines, read = iter(body), []
    for line in lines:
        read.append(line)
        if _holds_row(line):
            break
    else:
        raise InvalidGridError(_TOO_FEW_ROWS)
    try:
        data = np.loadtxt(itertools.chain(read, lines), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidGridError(f"malformed CSV body: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] != 3:
        raise InvalidGridError(_TOO_FEW_ROWS)
    nodes = data[:, 0]
    grid = make_uniform_grid(nodes[0], nodes[-1], len(nodes))
    # the nodes of `Grid.nodes`, not kept by the grid a kept parse holds
    drift = np.max(np.abs(nodes - np.linspace(grid.start, grid.stop, grid.count)))
    if drift > UNIFORM_SPACING_RTOL * grid.span():
        raise InvalidGridError(
            f"CSV nodes deviate from uniform spacing by {drift:.3e} "
            f"(allowed {UNIFORM_SPACING_RTOL:.0e} relative to the span)")
    values = data[:, 1] + 1j * data[:, 2]
    return _HEADERS[parts[0]](grid=grid, values=values)
