"""Generators: the single function whose shifts span the approximation space.

A `Generator` bundles an analytic (vectorized) spectrum, an optional time
domain form, and a declared decay contract ``|spectrum(y)| <= C/(1+|y|)^p``
that downstream lattice sums rely on for truncation.  `time_extent` is the
one reading of where a generator lives in time.  Built-in families:

``bspline``
    ``spectrum(y) = ((exp(i pi y/sigma) - 1)/(i pi y/sigma))**(m+1)``,
    evaluated in the cancellation-free form ``(exp(i u/2) * sin(u/2)/(u/2))**(m+1)``
    with ``u = pi y / sigma``.  The matching time domain is the piecewise
    polynomial ``2*sigma*N_{m+1}(sigma*x/pi + m + 1)`` supported on
    ``[-(m+1)*pi/sigma, 0]``, where ``N_k`` is the cardinal B-spline of order
    ``k`` on ``[0, k]``.
``gauss``
    ``exp(-x^2/(2 w^2))`` with spectrum ``(w/sqrt(2 pi)) exp(-w^2 y^2 / 2)``.
``sinc``
    Spectrum is the indicator of ``[-sigma, sigma]`` (value 1/2 on the edge),
    time domain ``2*sin(sigma*x)/x`` with value ``2*sigma`` at 0.
``file`` / sampled
    Tabulated spectrum (a CSV, or the transform of time samples), linearly
    interpolated inside its grid, whose radius is its spectral support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidGridError, TruncationError
from .numerics import (
    TWO_PI,
    Grid,
    SampledFunction,
    SampledSpectrum,
    fourier_transform_sampled,
    integrate_values,
    make_uniform_grid,
    quadrature_weights,
    read_samples_csv,
    resolved_band,
)

#: points per audit decade and span used by `decay_audit_max_ratio`
_AUDIT_POINTS = 10_000
_AUDIT_SPAN = 1e3
#: decay exponent of tabulated spectra (any p is exact under their support)
_TABULATED_DECAY = 2.0


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
    time_tail_radius : callable, optional
        ``eps -> R`` with ``|time_domain(x)| <= eps`` for ``|x| >= R``.
        Only meaningful when ``support`` is None (see `time_extent`).
    spectral_support : float, optional
        Radius beyond which the spectrum is identically zero; lattice sums
        over such a spectrum truncate exactly.
    time_step_hint : float, optional
        Natural sampling step for time-domain quadrature (e.g. the width of
        a Gaussian divided by a safety factor).
    real_valued : bool
        Whether the time-domain function is real (spectrum Hermitian).
    autocorrelation : callable, optional
        Exact ``d -> <B, B(. - d*pi/sigma)>`` for the sigma the generator
        was built with.  Families with a closed form set this so the Gram
        oracle does not inherit quadrature error from jump discontinuities.
    """

    label: str
    spectrum: Callable[[np.ndarray], np.ndarray]
    decay_exponent: float
    decay_constant: float
    time_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support: Optional[Tuple[float, float]] = None
    time_tail_radius: Optional[Callable[[float], float]] = None
    spectral_support: Optional[float] = None
    time_step_hint: Optional[float] = None
    real_valued: bool = True
    autocorrelation: Optional[Callable[[int], complex]] = None

    def __post_init__(self) -> None:
        if self.decay_exponent < 0:
            raise InvalidGridError("decay_exponent must be >= 0")
        if not self.decay_constant > 0:
            raise InvalidGridError("decay_constant must be > 0")


def time_extent(gen: Generator, eps: float) -> Tuple[float, float, bool]:
    """``(lo, hi, exact)``: the declared support (exact, B vanishes outside),
    else ``[-R, R]`` with ``R = time_tail_radius(eps)`` (``|B| <= eps``
    outside).  Raises `TruncationError` when the generator declares neither.
    """
    if gen.support is not None:
        lo, hi = gen.support
        return lo, hi, True
    if gen.time_tail_radius is not None:
        radius = gen.time_tail_radius(eps)
        return -radius, radius, False
    raise TruncationError(
        f"generator {gen.label!r} declares neither compact support nor a "
        "time tail radius: its shifts cannot be cut off in time")


@dataclass(frozen=True)
class SplineParams:
    sigma: float
    degree: int

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise InvalidGridError(f"sigma must be > 0, got {self.sigma}")
        if int(self.degree) != self.degree or not 0 <= self.degree <= 10:
            raise InvalidGridError(f"degree must be an integer in [0, 10], got {self.degree}")


def _cardinal_bspline(order: int, t: np.ndarray) -> np.ndarray:
    """Cardinal B-spline ``N_order`` on ``[0, order]`` (unit integral).

    The order-1 box takes the jump midpoint 0.5 at its two knots: that is
    the value the symmetric spectral partial sums converge to, and it lets
    Simpson panels on knot-aligned grids cancel the jump error against a
    continuous cofactor.
    """
    t = np.asarray(t, dtype=float)
    if order == 1:
        edge_tol = 1e-9
        inner = np.where((t > 0.0) & (t < 1.0), 1.0, 0.0)
        on_knot = (np.abs(t) <= edge_tol) | (np.abs(t - 1.0) <= edge_tol)
        return np.where(on_knot, 0.5, inner)
    acc = np.zeros_like(t)
    for i in range(order + 1):
        acc += ((-1.0) ** i) * math.comb(order, i) * np.maximum(t - i, 0.0) ** (order - 1)
    return acc / math.factorial(order - 1)


def bspline_generator(params: SplineParams) -> Generator:
    sigma, m = float(params.sigma), int(params.degree)
    h = np.pi / sigma

    def spectrum(y: np.ndarray) -> np.ndarray:
        u = np.asarray(y, dtype=float) / (2.0 * sigma)
        # exact factorization of (e^{i pi y/sigma}-1)/(i pi y/sigma); the
        # removable singularity at y=0 is handled inside np.sinc
        base = np.exp(1j * np.pi * u) * np.sinc(u)
        return base ** (m + 1)

    def time_domain(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=float) / h + (m + 1)
        return (2.0 * sigma) * _cardinal_bspline(m + 1, t) + 0.0j

    def autocorrelation(d: int) -> complex:
        # <N_p(.), N_p(. - d)> = N_{2p}(p + d); the amplitude 2*sigma and
        # the substitution x = (t - p) h contribute (2*sigma)^2 * h = 4*pi*sigma
        val = float(_cardinal_bspline(2 * (m + 1), np.array(m + 1 + abs(d), dtype=float)))
        return complex(4.0 * np.pi * sigma * val)

    return Generator(
        label=f"bspline:m={m},sigma={sigma:g}",
        spectrum=spectrum,
        decay_exponent=float(m + 1),
        decay_constant=(1.0 + 2.0 * sigma / np.pi) ** (m + 1),
        time_domain=time_domain,
        support=(-(m + 1) * h, 0.0),
        autocorrelation=autocorrelation,
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

    def tail_radius(eps: float) -> float:
        eps = max(float(eps), 1e-300)
        return w * math.sqrt(2.0 * math.log(1.0 / eps)) if eps < 1.0 else 0.0

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
        time_tail_radius=tail_radius,
        time_step_hint=w / 16.0,
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
        time_step_hint=0.2 / s,
    )


def _interp_complex(nodes: np.ndarray, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    def evaluate(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        re = np.interp(t, nodes, values.real, left=0.0, right=0.0)
        im = np.interp(t, nodes, values.imag, left=0.0, right=0.0)
        return re + 1j * im
    return evaluate


def spectrum_generator(spec: SampledSpectrum, label: str = "spectrum-file",
                       time_domain: Optional[Callable] = None,
                       support: Optional[Tuple[float, float]] = None,
                       time_step_hint: Optional[float] = None) -> Generator:
    """Generator backed by tabulated spectrum values (zero outside the grid).

    The grid's radius Y is the declared spectral support, under which the
    contract p = 2, ``C = max|values| (1+Y)^2`` is exact, not fitted.  The
    time domain is real only on a grid symmetric about 0 with Hermitian
    values.
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
        time_domain=time_domain,
        support=support,
        spectral_support=radius,
        time_step_hint=time_step_hint,
        real_valued=symmetric and np.allclose(values, np.conj(values[::-1]), atol=1e-9),
    )


def sampled_generator(samples: SampledFunction, freq: Grid) -> Generator:
    """Generator from compactly supported time samples.

    The spectrum is `fourier_transform_sampled` of the samples on ``freq``,
    tabulated as by `spectrum_generator` (so ``freq`` bounds its support),
    and the time domain is the linear interpolant of the samples on their
    grid, its declared support.
    """
    spec = fourier_transform_sampled(samples, freq)
    return spectrum_generator(
        spec,
        label="sampled",
        time_domain=_interp_complex(samples.grid.nodes(), samples.values),
        support=(samples.grid.start, samples.grid.stop),
        time_step_hint=samples.grid.step,
    )


def default_freq_grid(samples: SampledFunction, count: int = 4097) -> Grid:
    """Frequency grid over the band the time grid resolves (`resolved_band`)."""
    ymax = resolved_band(samples.grid.step)
    return make_uniform_grid(-ymax, ymax, count)


def parse_generator_spec(text: str, default_sigma: float = 1.0) -> Generator:
    """Build a generator from a CLI-style spec string.

    Formats: ``bspline:m=<int>,sigma=<r>``, ``gauss:width=<r>``,
    ``sinc:sigma=<r>``, ``file:<path>``.  Omitted sigma falls back to
    ``default_sigma``.
    """
    text = text.strip()
    if text.startswith("file:"):
        path = text[len("file:"):]
        loaded = read_samples_csv(path)
        if isinstance(loaded, SampledSpectrum):
            return spectrum_generator(loaded, label=f"file:{path}")
        return sampled_generator(loaded, default_freq_grid(loaded))
    name, _, rest = text.partition(":")
    params = {}
    for item in filter(None, (s.strip() for s in rest.split(","))):
        key, eq, val = item.partition("=")
        if not eq:
            raise ValueError(f"bad generator parameter {item!r} in {text!r}")
        params[key.strip()] = val.strip()
    try:
        if name == "bspline":
            return bspline_generator(SplineParams(
                sigma=float(params.pop("sigma", default_sigma)),
                degree=int(params.pop("m"))))
        if name == "gauss":
            return gaussian_generator(float(params.pop("width", 1.0)))
        if name == "sinc":
            return bandlimited_generator(float(params.pop("sigma", default_sigma)))
    except KeyError as exc:
        raise ValueError(f"generator spec {text!r} is missing {exc.args[0]!r}") from exc
    finally:
        if name in ("bspline", "gauss", "sinc") and params:
            raise ValueError(f"unknown parameters {sorted(params)} in {text!r}")
    raise ValueError(f"unknown generator family {name!r}")


def decay_audit_max_ratio(gen: Generator, sigma: float) -> float:
    """Worst ratio ``|spectrum| * (1+|y|)^p / C`` over the audit grid.

    The audit grid is log-spaced over ``[-1e3*sigma, 1e3*sigma]`` (both
    signs, plus zero) with ``1e4`` points.
    """
    half = np.geomspace(1e-3 * sigma, _AUDIT_SPAN * sigma, _AUDIT_POINTS // 2)
    ys = np.concatenate([-half[::-1], [0.0], half])
    ratio = np.abs(gen.spectrum(ys)) * (1.0 + np.abs(ys)) ** gen.decay_exponent
    return float(np.max(ratio) / gen.decay_constant)


def _window_integral(values: np.ndarray, start: float, step: float, lo: float, hi: float) -> complex:
    """Integrate pre-tabulated samples over the sub-window [lo, hi]."""
    i0 = max(0, int(math.ceil((lo - start) / step - 1e-9)))
    i1 = min(len(values) - 1, int(math.floor((hi - start) / step + 1e-9)))
    if i1 - i0 < 1:
        return 0.0 + 0.0j
    sub = make_uniform_grid(start + i0 * step, start + i1 * step, i1 - i0 + 1)
    return integrate_values(values[i0:i1 + 1], sub)


def shift_autocorrelation(gen: Generator, sigma: float, max_lag: int,
                          tol: float = 1e-10) -> np.ndarray:
    """Inner products ``a_d = <B, B(. - d*pi/sigma)>`` for ``d = 0..max_lag``.

    Generators with a time extent (`time_extent` at ``tol * 1e-2``)
    integrate on a window whose step divides the shift: the exact overlap
    on a knot-aligned grid for a compact support, the tail radius plus the
    largest lag otherwise.  Spectra with compact support but slowly
    decaying time domains (the bandlimited family) use Parseval:
    ``a_d = 2*pi * integral |spectrum|^2 exp(i d pi y / sigma) dy``.  A
    time domain with neither takes a wide window and one Richardson step in
    its size: ``I(T) ~ I - c/T``, so ``I ~ 2 I(T) - I(T/2)``.
    """
    h = np.pi / sigma
    out = np.zeros(max_lag + 1, dtype=np.complex128)
    if gen.autocorrelation is not None:
        return np.array([gen.autocorrelation(d) for d in range(max_lag + 1)],
                        dtype=np.complex128)
    if gen.support is None and gen.spectral_support is not None:
        s_edge = gen.spectral_support * (1.0 - 1e-12)
        count = max(4097, 64 * max_lag + 1)
        count += (count + 1) % 2
        grid = make_uniform_grid(-s_edge, s_edge, count)
        y = grid.nodes()
        energy = np.abs(gen.spectrum(y)) ** 2
        w = quadrature_weights(grid)
        for d in range(max_lag + 1):
            out[d] = TWO_PI * np.sum(w * energy * np.exp(1j * d * np.pi * y / sigma))
        return out
    if gen.time_domain is None:
        raise TruncationError("autocorrelation needs a time domain or a compact spectrum")
    # window [a, a + (count-1) step] whose step divides h exactly, so every
    # lag is a whole number of nodes and (for a compact support) the knots
    # fall on panel edges
    try:
        lo, hi, exact = time_extent(gen, tol * 1e-2)
    except TruncationError:
        exact, richardson = False, True
        q = max(1, int(round(h / min(0.05 * min(1.0, h / np.pi), h / 64.0))))
        radius = 4.0e4 * max(1.0, h / np.pi)
    else:
        richardson = False
        step = h / 128.0
        if gen.time_step_hint is not None:
            step = min(step, gen.time_step_hint / 2.0)
        q = max(2, int(math.ceil(h / step / 2.0)) * 2)
        radius = hi + max_lag * h
    step = h / q
    if exact:
        a, count = lo, int(round((hi - lo) / step)) + 1
        count += (count + 1) % 2
    else:
        half = int(math.ceil(radius / step))
        a, count = -half * step, 2 * half + 1
    grid = make_uniform_grid(a, a + (count - 1) * step, count)
    base = gen.time_domain(grid.nodes())
    for d in range(max_lag + 1):
        lag = d * q
        if lag >= count - 1:
            break
        # B(t) on nodes[lag:], B(t - d h) equals base[:-lag]
        seg = base[lag:] * np.conj(base[:count - lag])
        sub = make_uniform_grid(grid.start + lag * step, grid.stop, count - lag)
        out[d] = integrate_values(seg, sub)
        if richardson:
            quarter = sub.span() / 4.0
            out[d] = 2.0 * out[d] - _window_integral(
                seg, sub.start, step, sub.start + quarter, sub.stop - quarter)
    return out


def generator_l2_norm_sq(gen: Generator, sigma: float = 1.0, tol: float = 1e-10) -> float:
    """``norm(B)**2`` via the best available route (time or spectral)."""
    return float(shift_autocorrelation(gen, sigma, 0, tol)[0].real)
