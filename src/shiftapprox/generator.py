"""Generators: the single function whose shifts span the approximation space.

A `Generator` bundles an analytic (vectorized) spectrum, an optional time
domain form, and a declared decay contract ``|spectrum(y)| <= C/(1+|y|)^p``
that downstream lattice sums rely on for truncation.  `time_extent` is the
one reading of where a generator lives in time: its declared support, or
the declared `Generator.time_radius` beyond which ``|B| <= TIME_EPS``.
`shift_autocorrelation` is the one reading of its Gram sequence
``<B, B(. - tau)>``.  Built-in families, with the source of that sequence:

cardinal splines
    ``sum_k c_k N_order((x - origin)/step - k)``, ``N_k`` the cardinal
    B-spline of order k on ``[0, k]``: one record (`CardinalSpline`) from
    which `spline_generator` declares every field.  Two builders:
    ``bspline`` (`bspline_generator`), one coefficient ``2 sigma`` of order
    m + 1 at step ``pi/sigma`` on ``[-(m+1) pi/sigma, 0]``, whose spectrum
    is ``((exp(i pi y/sigma) - 1)/(i pi y/sigma))**(m+1)``; and ``file``
    time samples (`sampled_generator`), the quintic spline through them.
``gauss``
    ``exp(-x^2/(2 w^2))`` with spectrum ``(w/sqrt(2 pi)) exp(-w^2 y^2 / 2)``.
    Autocorrelation in closed form, ``w sqrt(pi) exp(-tau^2/(4 w^2))``.
    Time radius ``w sqrt(2 ln(1/TIME_EPS))``.
``sinc``
    Spectrum is the indicator of ``[-sigma, sigma]`` (value 1/2 on the edge),
    time domain ``2*sin(sigma*x)/x`` with value ``2*sigma`` at 0.
    Autocorrelation in closed form, ``2 pi B(tau)``.
``file`` spectrum
    Tabulated spectrum, linearly interpolated inside its grid, whose radius
    is its spectral support; its autocorrelation is Parseval over it.

`bspline_generator`, `gaussian_generator` and `bandlimited_generator` build
one `Generator` per argument tuple and hand that object to every caller
(the last `_SHARED_GENERATORS` tuples of each family are kept), so the
arrays `spectral` keeps per generator serve every request on that space.
A generator is immutable: its fields are frozen, its spline coefficients
and tables read-only.  `parse_generator_spec` hands out one ``file``
generator per parsed content object and spec text from the process's
keeper (`numerics.keep`), which holds the content by weak reference and
drops the generator once that content has died, so a file read again
unchanged serves the same space.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidGridError, TruncationError
from .numerics import (
    TWO_PI,
    SampledFunction,
    SampledSpectrum,
    keep,
    make_uniform_grid,
    quadrature_weights,
    read_samples_csv,
)
# not called here: the benchmark's tracer (perfbench/tracing.py) wraps this name
from .numerics import fourier_transform_sampled  # noqa: F401

#: decay exponent of tabulated spectra (any p is exact under their support)
_TABULATED_DECAY = 2.0
#: taps either side of the truncated inverse of the quintic prefilter
#: (1, 26, 66, 26, 1)/120, where powers of its pole 0.4306 fall below 1e-17
_PREFILTER_TAPS = 47
#: nodes per block of a spline's coefficient sum (Horner), which stays in cache
_HORNER_BLOCK = 8192
#: ``|B| <= TIME_EPS`` beyond a declared `Generator.time_radius`: sums over
#: the shifts that reach a window are exact to rounding
TIME_EPS = 1e-16
#: most shifts a window of multiples of pi/sigma holds (`shift_range`)
_SHIFT_CAP = 1_000_000
#: argument tuples per family whose generator is kept and shared
_SHARED_GENERATORS = 1024


@dataclass(frozen=True, eq=False)
class CardinalSpline:
    """``B(x) = sum_k coeffs[k] N_order((x - origin)/step - k)``: a cardinal
    spline of degree ``order - 1`` with knots ``origin + j step``, j = 0 ..
    ``len(coeffs) + order - 1``.  ``coeffs`` is a 1-D array, real or complex.
    """

    coeffs: np.ndarray
    order: int
    step: float
    origin: float

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def end(self) -> float:
        """``origin + order step``: the spectrum's phase reads ``e^{-i y end}``."""
        return self.origin + self.order * self.step

    def symbol(self, theta: np.ndarray) -> np.ndarray:
        """``sum_k coeffs[k] e^{-i k theta}``, of period 2 pi in theta: a
        constant for one coefficient, otherwise Horner in ``e^{-i theta}``
        over blocks of `_HORNER_BLOCK` nodes, which stay in cache."""
        theta = np.asarray(theta, dtype=float)
        flat, c = theta.ravel(), self.coeffs
        total = np.full(flat.size, c[-1], dtype=np.complex128)
        for lo in range(0, flat.size if c.size > 1 else 0, _HORNER_BLOCK):
            z = np.exp(-1j * flat[lo:lo + _HORNER_BLOCK])
            acc = total[lo:lo + _HORNER_BLOCK]
            for coeff in c[-2::-1]:
                acc *= z
                acc += coeff
        return total.reshape(theta.shape)


@dataclass(frozen=True, eq=False)
class Generator:
    """A square-integrable generator described in the frequency domain.

    Generators compare and hash by identity: two objects are two spaces to
    every cache keyed by generator, whatever their fields or label.

    Attributes
    ----------
    label : str
        Human-readable tag used in CLI output.
    spectrum : callable
        Vectorized map ``y -> complex``; must accept numpy arrays.
    decay_exponent : float
        ``p`` in the declared bound ``|spectrum(y)| <= C / (1+|y|)^p``.
    decay_constant : float
        ``C`` in the same bound, strictly positive.
    time_domain : callable, optional
        Vectorized map ``x -> complex`` consistent with ``spectrum`` under
        the package Fourier convention.
    support : tuple, optional
        Closed interval outside which ``time_domain`` vanishes.
    time_radius : float, optional
        ``R`` with ``|time_domain(x)| <= TIME_EPS`` for ``|x| >= R``.
        Only meaningful when ``support`` is None (see `time_extent`).
    spectral_support : float, optional
        Radius beyond which the spectrum is identically zero; lattice sums
        over such a spectrum truncate exactly.
    real_valued : bool
        Whether the time-domain function is real (spectrum Hermitian).
    autocorrelation : callable, optional
        Vectorized map ``tau -> <B, B(. - tau)>``, exact at any real time
        lags ``tau``; a lattice of half-period sigma reads a whole row at
        ``tau = d*pi/sigma`` in one call (`shift_autocorrelation`).  Every
        family but a spectrum file (spline, Gaussian, sinc, time samples)
        sets this, so the Gram oracle, ``||B||^2`` and the Phi4 pairing
        read exact rows; with a declared support it also makes the
        periodization D an exact finite sum (`spectral.periodize`).
        Without it a generator must declare a spectral support.
    spline : CardinalSpline, optional
        The record `spline_generator` declares every other field from.  At
        a rational ``sigma step/pi`` the lattice sums of `spectral` and
        `zak` take its tails as Hurwitz zeta values.
    """

    label: str
    spectrum: Callable[[np.ndarray], np.ndarray]
    decay_exponent: float
    decay_constant: float
    time_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support: Optional[Tuple[float, float]] = None
    time_radius: Optional[float] = None
    spectral_support: Optional[float] = None
    real_valued: bool = True
    autocorrelation: Optional[Callable[[np.ndarray], np.ndarray]] = None
    spline: Optional[CardinalSpline] = None

    def __post_init__(self) -> None:
        if self.decay_exponent < 0:
            raise InvalidGridError("decay_exponent must be >= 0")
        if not self.decay_constant > 0:
            raise InvalidGridError("decay_constant must be > 0")


def time_extent(gen: Generator) -> Tuple[float, float, bool]:
    """``(lo, hi, exact)``: the declared support (exact, B vanishes outside),
    else ``[-R, R]`` with ``R = time_radius`` (``|B| <= TIME_EPS``
    outside).  Raises `TruncationError` when the generator declares neither.
    """
    if gen.support is not None:
        lo, hi = gen.support
        return lo, hi, True
    if gen.time_radius is not None:
        return -gen.time_radius, gen.time_radius, False
    raise TruncationError(
        f"generator {gen.label!r} declares neither compact support nor a "
        "time tail radius: its shifts cannot be cut off in time")


def shift_range(lo: float, hi: float, sigma: float) -> Tuple[int, int]:
    """``(floor(lo/h), ceil(hi/h))`` for the shift step ``h = pi/sigma``:
    the multiples of h that cover ``[lo, hi]``.  Raises `TruncationError`,
    before any work is spent on them, where h is not a positive finite
    double (sigma below ``pi`` over the largest double, or infinite) or
    where they number more than ``_SHIFT_CAP``."""
    h = math.pi / sigma
    if not 0 < h < math.inf:
        raise TruncationError(
            f"sigma={sigma:g}: the shift step pi/sigma overflows a double")
    first, last = lo / h, hi / h
    if not last - first <= _SHIFT_CAP:
        raise TruncationError(
            f"sigma={sigma:g}: [{lo:g}, {hi:g}] spans {last - first:g} shift "
            f"steps pi/sigma = {h:g}, more than the {_SHIFT_CAP} a window holds")
    return math.floor(first), math.ceil(last)


@functools.lru_cache(maxsize=None)
def _bspline_pieces(order: int) -> np.ndarray:
    """Power coefficients of the cardinal B-spline ``N_order`` on its unit
    pieces: ``N_order(i + u) = sum_p out[p, i] u**p`` for u in [0, 1) and
    i = 0..order-1.  Piece i holds the truncated powers of the knots
    ``k <= i``, ``(1/n!) sum_k (-1)**k C(order, k) (i - k + u)**n`` with
    ``n = order - 1``, expanded in exact rationals and rounded once.
    """
    n = order - 1
    out = np.empty((order, order))
    for i in range(order):
        for p in range(order):
            total = sum((-1) ** k * math.comb(order, k) * (i - k) ** (n - p)
                        for k in range(i + 1))
            out[p, i] = float(Fraction(math.comb(n, p) * total, math.factorial(n)))
    out.flags.writeable = False
    return out


def _cardinal_spline(coeffs: np.ndarray, order: int) -> Callable[[np.ndarray], np.ndarray]:
    """``t -> sum_k coeffs[k] N_order(t - k)``, by Horner in ``u = t -
    floor(t)`` on per-interval power coefficients.

    The interval ``[j, j + 1)`` reads ``sum_i coeffs[j - i]`` times piece
    i of `_bspline_pieces`: row j of one convolution per power.  A last
    row of zeros serves every t outside.  The table is read-only, the
    first argument of the returned partial.
    """
    pieces = _bspline_pieces(order)
    table = np.stack([np.convolve(coeffs, pieces[p]) for p in range(order)])
    table = np.append(table, np.zeros((order, 1)), axis=1)
    table.flags.writeable = False
    return functools.partial(_horner, table)


def _horner(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The `_cardinal_spline` of ``table`` at t."""
    t = np.asarray(t, dtype=float)
    order, outside = table.shape[0], table.shape[1] - 1
    floor = np.floor(t)
    index = np.where((floor >= 0) & (floor < outside), floor, outside).astype(np.intp)
    u = t - floor
    acc = table[order - 1][index]
    for p in range(order - 2, -1, -1):
        acc = acc * u + table[p][index]
    return acc


@functools.lru_cache(maxsize=None)
def _unit_spline(order: int) -> Callable[[np.ndarray], np.ndarray]:
    """``N_order`` itself, built once per order: `_cardinal_spline` of one
    unit coefficient, or the box `_box` at order 1."""
    return _box if order == 1 else _cardinal_spline(np.ones(1), order)


def _box(t: np.ndarray) -> np.ndarray:
    """The cardinal box ``N_1`` on ``[0, 1]``, taking the jump midpoint 0.5
    at its two knots: that is the value the symmetric spectral partial sums
    converge to, and it lets Simpson panels on knot-aligned grids cancel the
    jump error against a continuous cofactor."""
    t = np.asarray(t, dtype=float)
    on_knot = (np.abs(t) <= 1e-9) | (np.abs(t - 1.0) <= 1e-9)
    return np.where(on_knot, 0.5, np.where((t > 0.0) & (t < 1.0), 1.0, 0.0))


def spline_generator(spline: CardinalSpline, label: str) -> Generator:
    """The generator of a `CardinalSpline`, every field read from it
    (Unser, Aldroubi & Eden, "B-spline signal processing I/II", IEEE TSP
    1993).  With ``v = y step/2 pi``: spectrum ``(step/2 pi) e^{-i y end}
    (e^{i pi v} sinc v)**order sum_k c_k e^{-2 pi i k v}`` under the
    envelope ``(step/2 pi) sum|c_k| (1 + 2/step)**order (1 + |y|)**-order``;
    support from the first knot to the last; autocorrelation ``step sum_d
    r_d N_{2 order}(order + d - tau/step)``, ``r_d = sum_k c_k
    conj(c_{k-d})``.  Both N read the piece tables by Horner, the time
    domain at ``(x - a)/step + k``, k the integer nearest ``-origin/step``
    (a = 0 for a `bspline`).  One coefficient reads the unit tables of its
    order (`_unit_spline`), shared by every such spline.
    """
    coeffs, order, step, origin = spline.coeffs, spline.order, spline.step, spline.origin
    count, end, k = coeffs.size, spline.end, round(-origin / step)
    anchor = origin + k * step
    if count == 1:
        amplitude, shape, gram = coeffs[0], _unit_spline(order), _unit_spline(2 * order)
    else:  # the Gram row reversed: entry j is r_{count - 1 - j}
        amplitude, shape = 1.0, _cardinal_spline(coeffs, order)
        gram = _cardinal_spline(np.correlate(coeffs, coeffs, "full")[::-1], 2 * order)
    # a Python float's square raises OverflowError where numpy's would warn
    weight, scale = step * float(abs(amplitude)) ** 2, (step / TWO_PI) * amplitude

    def time_domain(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return amplitude * shape((x - anchor if anchor else x) / step + k) + 0.0j

    def spectrum(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        v = y * (step / TWO_PI)
        # the removable singularity at v = 0 is handled inside np.sinc
        out = scale * (np.exp(1j * np.pi * v) * np.sinc(v)) ** order
        if count > 1:
            out *= spline.symbol(step * y)
        if end:
            out *= np.exp(-1j * end * y)
        return out

    return Generator(
        label=label,
        spectrum=spectrum,
        decay_exponent=float(order),
        decay_constant=((step / TWO_PI) * float(np.abs(coeffs).sum())
                        * (1.0 + 2.0 / step) ** order),
        time_domain=time_domain,
        support=(origin, origin + (count + order - 1) * step),
        real_valued=not np.iscomplexobj(coeffs),
        # lags of a whole support or more read t <= 0, where N_{2 order} is 0
        autocorrelation=lambda tau: weight * gram(
            order + count - 1 - np.asarray(tau, dtype=float) / step),
        spline=spline,
    )


def _in_range(name: str) -> Callable:
    """A family builder whose last argument, ``name``, must keep the
    family's constants in the double range: where its arithmetic
    overflows or divides by an underflowed zero, or a support, time radius,
    spectral support, spline step or coefficient it declares is not
    finite, the builder raises `InvalidGridError` naming ``name=value``.
    Under `functools.lru_cache` a refused value is never kept.  An infinite
    decay constant is kept: it bounds nothing, so an envelope-truncated
    sum refuses it (`TruncationError`) and a fold takes its most windows."""
    def wrap(build: Callable[..., Generator]) -> Callable[..., Generator]:
        @functools.wraps(build)
        def checked(*args) -> Generator:
            try:
                gen = build(*args)
            except (ArithmeticError, ValueError):  # ValueError: round() of nan
                gen = None
            declared = () if gen is None else (
                *(gen.support or ()), gen.time_radius or 0.0,
                gen.spectral_support or 0.0,
                *((gen.spline.step, *gen.spline.coeffs) if gen.spline else ()))
            if gen is None or not all(math.isfinite(v) for v in declared):
                raise InvalidGridError(
                    f"{name}={args[-1]:g} is out of range: the generator's "
                    "constants overflow a double")
            return gen
        return checked
    return wrap


def bspline_generator(degree: int, sigma: float) -> Generator:
    """One coefficient ``2 sigma`` of ``N_{m+1}`` at step ``pi/sigma`` from
    ``-(m + 1) pi/sigma``: the degree-m B-spline, spectrum 1 at y = 0.
    One shared generator per ``(m, float(sigma))``; a sigma whose constants
    overflow a double raises `InvalidGridError` (`_in_range`)."""
    if not sigma > 0:
        raise InvalidGridError(f"sigma must be > 0, got {sigma}")
    if int(degree) != degree or not 0 <= degree <= 10:
        raise InvalidGridError(f"degree must be an integer in [0, 10], got {degree}")
    return _bspline(int(degree), float(sigma))


@functools.lru_cache(maxsize=_SHARED_GENERATORS)
@_in_range("sigma")
def _bspline(m: int, sigma: float) -> Generator:
    h = np.pi / sigma
    return spline_generator(CardinalSpline(np.array([2.0 * sigma]), m + 1, h, -(m + 1) * h),
                            label=f"bspline:m={m},sigma={sigma:g}")


def gaussian_generator(width: float) -> Generator:
    """``exp(-x^2/(2 w^2))``; one shared generator per ``float(width)``; a
    width whose constants overflow a double raises `InvalidGridError`."""
    if not float(width) > 0:
        raise InvalidGridError(f"width must be > 0, got {width}")
    return _gaussian(float(width))


@functools.lru_cache(maxsize=_SHARED_GENERATORS)
@_in_range("width")
def _gaussian(w: float) -> Generator:
    # a square past the double range is inf, and exp(-inf) the 0 it stands for
    def spectrum(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            return (w / math.sqrt(TWO_PI)) * np.exp(-0.5 * (w * y) ** 2) + 0.0j

    def time_domain(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * (x / w) ** 2) + 0.0j

    def autocorrelation(tau: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return w * math.sqrt(math.pi) * np.exp(-tau * tau / (4.0 * w * w))

    # |spectrum(y)| (1+y)^p peaks where w^2 y (1+y) = p
    p = 40.0
    y_peak = np.float64(0.5 * (math.sqrt(1.0 + 4.0 * p / w ** 2) - 1.0))
    c_fit = float(np.abs(spectrum(y_peak)) * (1.0 + y_peak) ** p) * 1.01
    return Generator(
        label=f"gauss:width={w:g}",
        spectrum=spectrum,
        decay_exponent=p,
        decay_constant=c_fit,
        time_domain=time_domain,
        time_radius=w * math.sqrt(2.0 * math.log(1.0 / TIME_EPS)),
        autocorrelation=autocorrelation,
    )


def bandlimited_generator(sigma: float) -> Generator:
    """The sinc of band ``sigma``; one shared generator per ``float(sigma)``;
    a sigma whose constants overflow a double raises `InvalidGridError`."""
    if not float(sigma) > 0:
        raise InvalidGridError(f"sigma must be > 0, got {sigma}")
    return _bandlimited(float(sigma))


@functools.lru_cache(maxsize=_SHARED_GENERATORS)
@_in_range("sigma")
def _bandlimited(s: float) -> Generator:
    def spectrum(y: np.ndarray) -> np.ndarray:
        ay = np.abs(np.asarray(y, dtype=float))
        return np.where(ay < s, 1.0, np.where(ay == s, 0.5, 0.0)) + 0.0j

    def time_domain(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        small = np.abs(x) < 1e-8
        safe = np.where(small, 1.0, x)
        out = np.where(small, 2.0 * s * (1.0 - (s * x) ** 2 / 6.0),
                       2.0 * np.sin(s * safe) / safe)
        return out + 0.0j

    return Generator(
        label=f"sinc:sigma={s:g}",
        spectrum=spectrum,
        decay_exponent=1.5,
        decay_constant=(1.0 + s) ** 1.5,
        time_domain=time_domain,
        spectral_support=s,
        # Parseval: 2 pi * integral_{-s}^{s} e^{i tau y} dy = 2 pi B(tau)
        autocorrelation=lambda tau: TWO_PI * time_domain(tau),
    )


def _interp_complex(nodes: np.ndarray, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    def evaluate(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        re = np.interp(t, nodes, values.real, left=0.0, right=0.0)
        im = np.interp(t, nodes, values.imag, left=0.0, right=0.0)
        return re + 1j * im
    return evaluate


def spectrum_generator(spec: SampledSpectrum, label: str = "spectrum-file") -> Generator:
    """Generator backed by tabulated spectrum values (zero outside the grid).

    The grid's radius Y is the declared spectral support, under which the
    contract p = 2, ``C = max|values| (1+Y)^2`` is exact, not fitted.  It
    declares no time domain, and is real only on a grid symmetric about 0
    with Hermitian values.
    """
    grid, values = spec.grid, spec.values
    radius = max(abs(grid.start), abs(grid.stop))
    symmetric = abs(grid.start + grid.stop) <= 1e-9 * grid.span()
    return Generator(
        label=label,
        spectrum=_interp_complex(grid.nodes(), values),
        decay_exponent=_TABULATED_DECAY,
        decay_constant=max(float(np.max(np.abs(values)))
                           * (1.0 + radius) ** _TABULATED_DECAY, 1e-30),
        spectral_support=radius,
        real_valued=symmetric and np.allclose(values, np.conj(values[::-1]), atol=1e-9),
    )


@functools.lru_cache(maxsize=1)
def _inverse_prefilter() -> np.ndarray:
    """The symmetric inverse of the prefilter ``(1, 26, 66, 26, 1)/120``,
    the quintic B-spline at the integers, truncated at `_PREFILTER_TAPS`
    taps a side; its response is positive, at least 16/120, so the inverse
    is the transform of its reciprocal."""
    w = TWO_PI * np.arange(256) / 256
    taps = np.fft.ifft(120.0 / (66.0 + 52.0 * np.cos(w) + 2.0 * np.cos(2.0 * w))).real
    return np.concatenate([taps[-_PREFILTER_TAPS:], taps[:_PREFILTER_TAPS + 1]])


def sampled_generator(samples: SampledFunction, label: str = "sampled") -> Generator:
    """The quintic cardinal spline through compactly supported time samples.

    With ``x_k = x_0 + k dx``, ``f = sum_k c_k beta5((x - x_k)/dx)``, beta5
    the centred ``N_6``: c is the samples, zeros beyond the file, through
    `_inverse_prefilter`, kept from the first to the last coefficient above
    rounding, so f takes the sample values at the knots.  It is the
    `CardinalSpline` of c at order 6, step dx and origin ``x_0 - 3 dx``;
    `spline_generator` declares the rest.
    """
    grid, values = samples.grid, samples.values
    coeffs = np.convolve(values if np.any(values.imag) else values.real, _inverse_prefilter())
    magnitude = np.abs(coeffs)
    kept = np.flatnonzero(magnitude > np.finfo(float).eps * np.max(magnitude))
    if kept.size == 0:
        raise InvalidGridError("time samples of a generator must not all vanish")
    origin = grid.start + (kept[0] - _PREFILTER_TAPS - 3) * grid.step
    return spline_generator(CardinalSpline(coeffs[kept[0]:kept[-1] + 1], 6, grid.step, origin),
                            label)


def is_file_spec(text: str) -> bool:
    """Whether ``text`` is a ``file:<path>`` spec, whose generator
    `parse_generator_spec` builds from the file alone, whatever sigma."""
    return text.strip().startswith("file:")


def parse_generator_spec(text: str, default_sigma: float = 1.0) -> Generator:
    """Build a generator from a CLI-style spec string.

    Formats: ``bspline:m=<int>,sigma=<r>``, ``gauss:width=<r>``,
    ``sinc:sigma=<r>``, ``file:<path>``.  Omitted sigma falls back to
    ``default_sigma``; bad family parameters raise one `ValueError`.
    A ``file`` spec returns one generator per content object that
    `read_samples_csv` hands out and spec text (`keep`, sized by its spline
    coefficients): an unchanged file parses to the same generator, a
    rewritten one to a new generator.
    """
    text = text.strip()
    if is_file_spec(text):
        loaded = read_samples_csv(text[len("file:"):])
        build = (spectrum_generator if isinstance(loaded, SampledSpectrum)
                 else sampled_generator)
        return keep(("file generator", weakref.ref(loaded), text),
                    lambda: build(loaded, label=text),
                    lambda gen: gen.spline.coeffs.nbytes if gen.spline else 0)
    name, _, rest = text.partition(":")
    known = {"bspline": ("m", "sigma"), "gauss": ("width",), "sinc": ("sigma",)}
    if name not in known:
        raise ValueError(f"unknown generator family {name!r}")
    params, problems = {}, []
    for item in filter(None, (s.strip() for s in rest.split(","))):
        key, eq, val = (part.strip() for part in item.partition("="))
        if not eq:
            raise ValueError(f"bad generator parameter {item!r} in {text!r}")
        if key in params:
            problems.append(f"repeats {key!r}")
        params[key] = val
    unknown = sorted(set(params) - set(known[name]))
    if unknown:
        problems.append(f"has unknown parameters {unknown}")
    if name == "bspline" and "m" not in params:
        problems.append("is missing 'm'")
    if problems:
        raise ValueError(f"generator spec {text!r} " + ", ".join(problems))
    try:
        if name == "bspline":
            return bspline_generator(sigma=float(params.get("sigma", default_sigma)),
                                     degree=int(params["m"]))
        if name == "gauss":
            return gaussian_generator(float(params.get("width", 1.0)))
        return bandlimited_generator(float(params.get("sigma", default_sigma)))
    except InvalidGridError as exc:
        raise ValueError(f"generator spec {text!r}: {exc}") from exc


def shift_autocorrelation(gen: Generator, sigma: float, max_lag: int) -> np.ndarray:
    """Inner products ``a_d = <B, B(. - d*pi/sigma)>`` for ``d = 0..max_lag``.

    Two sources, in this order:

    * the declared closed form ``gen.autocorrelation`` (spline, Gaussian,
      sinc, time samples), read in one call at the lags ``d*pi/sigma``
      whatever sigma the generator was built with;
    * a spectral support ``Y`` (a spectrum file): Parseval,
      ``a_d = 2*pi * integral |spectrum|^2 exp(i d pi y / sigma) dy`` over
      ``[-Y, Y]``.

    Raises `TruncationError` for any other generator.
    """
    h = np.pi / sigma
    if gen.autocorrelation is not None:
        # lag 0 is 0 also where the step pi/sigma overflows to inf
        lags = np.r_[0.0, np.arange(1, max_lag + 1) * h]
        return np.asarray(gen.autocorrelation(lags), dtype=np.complex128)
    if gen.spectral_support is not None:
        out = np.zeros(max_lag + 1, dtype=np.complex128)
        count = max(4097, 64 * max_lag + 1)
        count += (count + 1) % 2
        grid = make_uniform_grid(-gen.spectral_support, gen.spectral_support, count)
        y = grid.nodes()
        energy = quadrature_weights(grid) * np.abs(gen.spectrum(y)) ** 2
        for d in range(max_lag + 1):
            out[d] = TWO_PI * np.sum(energy * np.exp(1j * d * h * y))
        return out
    raise TruncationError(
        f"generator {gen.label!r} declares no closed-form autocorrelation "
        "and no spectral support: its shift autocorrelation has no exact source")


def generator_l2_norm_sq(gen: Generator, sigma: float = 1.0) -> float:
    """``norm(B)**2``, the lag-0 term of `shift_autocorrelation`."""
    return float(shift_autocorrelation(gen, sigma, 0)[0].real)
