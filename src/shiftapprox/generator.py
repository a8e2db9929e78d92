"""Generators: the single function whose shifts span the approximation space.

A `Generator` bundles an analytic (vectorized) spectrum, an optional time
domain form, and a declared decay contract ``|spectrum(y)| <= C/(1+|y|)^p``
that downstream lattice sums rely on for truncation.  `time_extent` is the
one reading of where a generator lives in time: its declared support, or
the declared `Generator.time_radius` beyond which ``|B| <= TIME_EPS``.
`shift_autocorrelation` is the one reading of its Gram sequence
``<B, B(. - tau)>``.  Built-in families, with the source of that sequence:

``bspline``
    ``spectrum(y) = ((exp(i pi y/sigma) - 1)/(i pi y/sigma))**(m+1)``,
    evaluated in the cancellation-free form ``(exp(i u/2) * sin(u/2)/(u/2))**(m+1)``
    with ``u = pi y / sigma``.  The matching time domain is the piecewise
    polynomial ``2*sigma*N_{m+1}(sigma*x/pi + m + 1)`` supported on
    ``[-(m+1)*pi/sigma, 0]``, where ``N_k`` is the cardinal B-spline of order
    ``k`` on ``[0, k]``.  Autocorrelation in closed form, ``N_{2(m+1)}``.
    Both read the piece tables the time-sample spline reads
    (`_cardinal_spline`); the box (m = 0) keeps its jump midpoints 1/2.
    It declares its degree and sigma (`Generator.spline`): on a lattice
    at a rational ratio to its own, its lattice tails are Hurwitz zeta values.
``gauss``
    ``exp(-x^2/(2 w^2))`` with spectrum ``(w/sqrt(2 pi)) exp(-w^2 y^2 / 2)``.
    Autocorrelation in closed form, ``w sqrt(pi) exp(-tau^2/(4 w^2))``.
    Time radius ``w sqrt(2 ln(1/TIME_EPS))``.
``sinc``
    Spectrum is the indicator of ``[-sigma, sigma]`` (value 1/2 on the edge),
    time domain ``2*sin(sigma*x)/x`` with value ``2*sigma`` at 0.
    Autocorrelation in closed form, ``2 pi B(tau)``.
``file`` time samples
    The quintic cardinal spline through the samples (`sampled_generator`),
    ``sum_k c_k beta5((x - x_k)/dx)``, declared like the analytic families:
    time domain, support, spectrum ``(dx/2 pi) sinc(y dx/2)**6 sum_k c_k
    exp(-i y x_k)`` with decay exponent 6, and autocorrelation in closed
    form, ``dx sum_d r_d beta11(d - tau/dx)`` with r the autocorrelation of
    c (Unser, Aldroubi & Eden, "B-spline signal processing I/II", IEEE TSP
    1993).
``file`` spectrum
    Tabulated spectrum, linearly interpolated inside its grid, whose radius
    is its spectral support; its autocorrelation is Parseval over it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidGridError, TruncationError
from .numerics import (
    TWO_PI,
    SampledFunction,
    SampledSpectrum,
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
#: y nodes per block of a sampled spectrum's Horner sum, which stays in cache
_HORNER_BLOCK = 8192
#: ``|B| <= TIME_EPS`` beyond a declared `Generator.time_radius`: sums over
#: the shifts that reach a window are exact to rounding
TIME_EPS = 1e-16


@dataclass(frozen=True)
class SplineParams:
    sigma: float
    degree: int

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise InvalidGridError(f"sigma must be > 0, got {self.sigma}")
        if int(self.degree) != self.degree or not 0 <= self.degree <= 10:
            raise InvalidGridError(f"degree must be an integer in [0, 10], got {self.degree}")


@dataclass(frozen=True)
class Generator:
    """A square-integrable generator described in the frequency domain.

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
    spline : SplineParams, optional
        Set by `bspline_generator`: the spectrum is the degree-m B-spline's
        built at ``spline.sigma``, whose lattice terms are a periodic factor
        times a power law, so the lattice sums of `spectral` and `zak` take
        their tails as Hurwitz zeta values.
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
    spline: Optional[SplineParams] = None

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


def _cardinal_spline(coeffs: np.ndarray, order: int,
                     offset: int = 0) -> Callable[[np.ndarray], np.ndarray]:
    """``t -> sum_k coeffs[k] N_order(t + offset - k)`` for an integer
    offset, by Horner in ``u = t - floor(t)`` on per-interval power
    coefficients.

    The interval ``[j, j + 1)`` reads ``sum_i coeffs[j + offset - i]``
    times piece i of `_bspline_pieces`: row ``j + offset`` of one
    convolution per power.  The offset goes into the row, not into t, so
    u stays exact.  A last row of zeros serves every t outside.  The
    table is read-only, the first argument of the returned partial.
    """
    pieces = _bspline_pieces(order)
    table = np.stack([np.convolve(coeffs, pieces[p]) for p in range(order)])
    table = np.append(table, np.zeros((order, 1)), axis=1)
    table.flags.writeable = False
    return functools.partial(_horner, table, offset)


def _horner(table: np.ndarray, offset: int, t: np.ndarray) -> np.ndarray:
    """The `_cardinal_spline` of ``table`` and ``offset`` at t."""
    t = np.asarray(t, dtype=float)
    order, outside = table.shape[0], table.shape[1] - 1
    floor = np.floor(t)
    row = floor + offset
    index = np.where((row >= 0) & (row < outside), row, outside).astype(np.intp)
    u = t - floor
    acc = table[order - 1][index]
    for p in range(order - 2, -1, -1):
        acc = acc * u + table[p][index]
    return acc


@functools.lru_cache(maxsize=None)
def _unit_spline(order: int) -> Callable[[np.ndarray], np.ndarray]:
    """``N_order`` itself, `_cardinal_spline` of one unit coefficient: built
    once per order, so every `bspline` generator of the order shares it."""
    return _cardinal_spline(np.ones(1), order)


def _box(t: np.ndarray) -> np.ndarray:
    """The cardinal box ``N_1`` on ``[0, 1]``, taking the jump midpoint 0.5
    at its two knots: that is the value the symmetric spectral partial sums
    converge to, and it lets Simpson panels on knot-aligned grids cancel the
    jump error against a continuous cofactor."""
    t = np.asarray(t, dtype=float)
    on_knot = (np.abs(t) <= 1e-9) | (np.abs(t - 1.0) <= 1e-9)
    return np.where(on_knot, 0.5, np.where((t > 0.0) & (t < 1.0), 1.0, 0.0))


def bspline_generator(params: SplineParams) -> Generator:
    sigma, m = float(params.sigma), int(params.degree)
    h = np.pi / sigma

    def spectrum(y: np.ndarray) -> np.ndarray:
        u = np.asarray(y, dtype=float) / (2.0 * sigma)
        # exact factorization of (e^{i pi y/sigma}-1)/(i pi y/sigma); the
        # removable singularity at y=0 is handled inside np.sinc
        base = np.exp(1j * np.pi * u) * np.sinc(u)
        return base ** (m + 1)

    shape = _box if m == 0 else _unit_spline(m + 1)
    gram = _unit_spline(2 * (m + 1))

    def time_domain(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float) / h + (m + 1)
        return (2.0 * sigma) * shape(t) + 0.0j

    def autocorrelation(tau: np.ndarray) -> np.ndarray:
        # <N_p(.), N_p(. - s)> = N_{2p}(p + s) with s = tau/h in the spline's
        # own knot spacing; the amplitude 2*sigma and the substitution
        # x = (t - p) h contribute (2*sigma)^2 * h = 4*pi*sigma.  Lags of a
        # whole support or more give t <= 0, where N_{2p} is exactly 0
        t = m + 1 - np.abs(tau) / h
        return 4.0 * np.pi * sigma * gram(t)

    return Generator(
        label=f"bspline:m={m},sigma={sigma:g}",
        spectrum=spectrum,
        decay_exponent=float(m + 1),
        decay_constant=(1.0 + 2.0 * sigma / np.pi) ** (m + 1),
        time_domain=time_domain,
        support=(-(m + 1) * h, 0.0),
        autocorrelation=autocorrelation,
        spline=SplineParams(sigma=sigma, degree=m),
    )


def gaussian_generator(width: float) -> Generator:
    w = float(width)
    if not w > 0:
        raise InvalidGridError(f"width must be > 0, got {width}")

    def spectrum(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return (w / math.sqrt(TWO_PI)) * np.exp(-0.5 * (w * y) ** 2) + 0.0j

    def time_domain(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x / w) ** 2) + 0.0j

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
        autocorrelation=lambda tau: (
            w * math.sqrt(math.pi) * np.exp(-tau * tau / (4.0 * w * w))),
    )


def bandlimited_generator(sigma: float) -> Generator:
    s = float(sigma)
    if not s > 0:
        raise InvalidGridError(f"sigma must be > 0, got {sigma}")

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


def sampled_generator(samples: SampledFunction) -> Generator:
    """The quintic cardinal spline through compactly supported time samples.

    With ``x_k = x_0 + k dx``, ``f = sum_k c_k beta5((x - x_k)/dx)``: c is
    the samples, zeros beyond the file, through `_inverse_prefilter`, kept
    from the first to the last coefficient above rounding, so f takes the
    sample values at the knots.  Every reader sees this one function in
    closed form: its time domain (Horner on per-interval power
    coefficients), its support ``[x_first - 3 dx, x_last + 3 dx]``, its
    spectrum ``(dx/2 pi) sinc(y dx/2)**6 sum_k c_k exp(-i y x_k)``, bounded
    by ``C (1 + |y|)**-6`` with ``C = (dx/2 pi) sum|c_k| (1 + 2/dx)**6``,
    and its autocorrelation ``dx sum_d r_d beta11(d - tau/dx)``, with
    ``r_d = sum_k c_k conj(c_{k-d})``.
    """
    grid, values = samples.grid, samples.values
    real = not np.any(values.imag)
    dx = grid.step
    coeffs = np.convolve(values.real if real else values, _inverse_prefilter())
    magnitude = np.abs(coeffs)
    kept = np.flatnonzero(magnitude > np.finfo(float).eps * np.max(magnitude))
    if kept.size == 0:
        raise InvalidGridError("time samples of a generator must not all vanish")
    coeffs = coeffs[kept[0]:kept[-1] + 1]
    x0 = grid.start + (kept[0] - _PREFILTER_TAPS) * dx
    count = coeffs.size
    # beta5 and beta11 are N_6 and N_12 centred: offsets 3 and 6
    spline = _cardinal_spline(coeffs, 6, 3)
    gram = _cardinal_spline(np.correlate(coeffs, coeffs, "full"), 12, 6)

    def time_domain(x: np.ndarray) -> np.ndarray:
        return spline((np.asarray(x, dtype=float) - x0) / dx) + 0.0j

    def spectrum(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        total = np.empty(flat.size, dtype=np.complex128)
        for lo in range(0, flat.size, _HORNER_BLOCK):
            # sum_k c_k z**k at z = exp(-i y dx), highest power first
            z = np.exp(-1j * dx * flat[lo:lo + _HORNER_BLOCK])
            acc = np.full(z.size, coeffs[-1], dtype=np.complex128)
            for c in coeffs[-2::-1]:
                acc *= z
                acc += c
            total[lo:lo + _HORNER_BLOCK] = acc
        shape = (dx / TWO_PI) * np.sinc(y * (dx / TWO_PI)) ** 6
        return shape * np.exp(-1j * x0 * y) * total.reshape(y.shape)

    def autocorrelation(tau: np.ndarray) -> np.ndarray:
        # beta11 is even, and row d of r sits at index d + count - 1
        return dx * gram(np.asarray(tau, dtype=float) / dx + (count - 1))

    return Generator(
        label="sampled",
        spectrum=spectrum,
        decay_exponent=6.0,
        decay_constant=(dx / TWO_PI) * float(np.abs(coeffs).sum()) * (1.0 + 2.0 / dx) ** 6,
        time_domain=time_domain,
        support=(x0 - 3.0 * dx, x0 + (count + 2) * dx),
        real_valued=real,
        autocorrelation=autocorrelation,
    )


def is_file_spec(text: str) -> bool:
    """Whether ``text`` is a ``file:<path>`` spec, whose generator
    `parse_generator_spec` builds from the file alone, whatever sigma."""
    return text.strip().startswith("file:")


def parse_generator_spec(text: str, default_sigma: float = 1.0) -> Generator:
    """Build a generator from a CLI-style spec string.

    Formats: ``bspline:m=<int>,sigma=<r>``, ``gauss:width=<r>``,
    ``sinc:sigma=<r>``, ``file:<path>``.  Omitted sigma falls back to
    ``default_sigma``; bad family parameters raise one `ValueError`.
    """
    text = text.strip()
    if is_file_spec(text):
        path = text[len("file:"):]
        loaded = read_samples_csv(path)
        if isinstance(loaded, SampledSpectrum):
            return spectrum_generator(loaded, label=f"file:{path}")
        return sampled_generator(loaded)
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
            return bspline_generator(SplineParams(
                sigma=float(params.get("sigma", default_sigma)),
                degree=int(params["m"])))
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
        return np.asarray(gen.autocorrelation(np.arange(max_lag + 1) * h),
                          dtype=np.complex128)
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
