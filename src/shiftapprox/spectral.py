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
  ``spectrum(u) e^{iux}`` with it).

Every lattice sum is exact, truncated at its envelope bound, or refused.
A declared spectral support makes it a finite sum.  A spline of order r
and step s (`Generator.spline`) has terms ``w(v) v**-r`` at ``v = y s/(2
pi) + nu p/q``, ``p/q = sigma s/pi``, w of period 1 in v; where
``sigma (x - end)/pi = c/b``, Phi's phase times the spectrum's depends on
nu mod b only.  So at rational ``sigma s/pi`` and ``sigma (x - end)/pi``
the sum splits into ``lcm(q, b)`` residue classes of nu, and beyond
``|nu| <= HURWITZ_ORDER`` each class is one Hurwitz zeta value
(`_class_tails`; DLMF 25.11, Blu & Unser 1999), which `_hurwitz_zeta`
computes in numpy: such a sum reports ``truncation_order =
HURWITZ_ORDER`` and ``tail_bound = 0``.  Any
other sum runs to the order where the decay contract's envelope bound on
the omitted mass meets tol (`lattice_truncation`), reported as
``tail_bound``, and raises `TruncationError` when that order passes
``_LATTICE_CAP``.

`periodize` samples D on a period grid (`require_period_grid`); its two end
nodes, the seam, hold the limit of D from inside the period.

D and the conjugate spectrum a fold multiplies f-hat by (`lattice_spectrum`)
belong to the space: each is computed once per generator object and grid.
The spectrum of read-only time samples on its period extension
(`shiftspace._spectrum_of`) depends on the samples, sigma and the grid's
node count alone: it is computed once per samples object.  All three are
kept, read-only, in the process's keeper (`numerics.keep`), through
`_kept`, under the kinds "D", "fold" and "spectrum".  An entry holds its
owner, the generator or the samples, by weak reference: it neither keeps
the owner alive nor serves a later object at the same address, so a
generator or samples object built anew misses.  A kept value is the bytes
a fresh computation gives.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidGridError, TruncationError
from .generator import CardinalSpline, Generator, shift_autocorrelation, time_extent
from .numerics import TWO_PI, Grid, chunk_slices, keep, period_extension

#: nodes where D falls at or below this threshold are treated as a vanishing
#: periodization (guarded in downstream divisions)
EPSILON_D = 1e-10

_SPAN_RTOL = 1e-9
#: most terms an envelope-truncated lattice sum takes before it raises
_LATTICE_CAP = 200_000
#: explicit terms |nu| <= HURWITZ_ORDER ahead of a spline's class tails
HURWITZ_ORDER = 16
#: most residue classes of nu that a spline's class tails split a sum into
_CLASS_CAP = 4096
#: how far from an integer a rational's numerator may fall, relative
_RATIO_RTOL = 1e-12
#: steps of `_hurwitz_zeta`'s direct sum before its Euler-Maclaurin tail
_ZETA_STEPS = 9
#: ``B_2j/(2j)!`` for j = 1..12, the Bernoulli terms of that tail (DLMF Table 24.2.1)
_BERNOULLI = tuple(Fraction(b) / math.factorial(2 * j) for j, b in enumerate(
    ("1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6", "-3617/510",
     "43867/798", "-174611/330", "854513/138", "-236364091/2730"), 1))


@dataclass(frozen=True)
class PeriodizedSpectrum:
    """Samples of ``D`` on a period grid, the seam's from inside the period."""

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
    """Raise unless ``grid`` spans exactly one period ``[-sigma, sigma]`` in
    an odd node count, as Simpson's rule over the whole period needs, of a
    shift space whose step ``pi/sigma`` is a double."""
    if sigma > 0 and math.pi / float(sigma) == math.inf:
        raise InvalidGridError(
            f"sigma={sigma:g}: the shift step pi/sigma overflows a double")
    tol = _SPAN_RTOL * max(1.0, sigma)
    if (abs(grid.start + sigma) > tol or abs(grid.stop - sigma) > tol
            or grid.count % 2 == 0):
        raise InvalidGridError(
            f"a period grid spans [-sigma, sigma] = [{-sigma}, {sigma}] in an "
            f"odd node count, got [{grid.start}, {grid.stop}] in {grid.count}")


def envelope_tail(coef: float, q: float, sigma: float, n: float) -> float:
    """Bound on ``sum_{|nu| > n} coef * (1 + |y + 2 nu sigma|)**(-q)`` for
    ``|y| <= sigma``."""
    return 2.0 * coef * (1.0 + (2.0 * n - 1.0) * sigma) ** (1.0 - q) / (2.0 * sigma * (q - 1.0))


def envelope_order(coef: float, q: float, sigma: float, tol: float) -> float:
    """The real ``n`` at which `envelope_tail` equals ``tol``; inf where no
    order meets it (``q <= 1``, a divergent tail, or ``tol <= 0``)."""
    if not (q > 1.0 and tol > 0):
        return np.inf
    try:
        edge = (coef / (tol * sigma * (q - 1.0))) ** (1.0 / (q - 1.0))
    except (OverflowError, ZeroDivisionError):  # the divisor may underflow
        return np.inf
    return 0.5 * ((edge - 1.0) / sigma + 1.0)


def lattice_truncation(coef: float, q: float, sigma: float,
                       tol: float) -> Tuple[int, float]:
    """Truncation order for a lattice sum with envelope ``coef*(1+|u|)^-q``.

    Returns ``(N, tail_bound)``: the least ``N >= 8`` whose `envelope_tail`,
    the bound on the omitted mass, is at most ``tol``, and that bound.
    Raises `TruncationError` for a divergent envelope (``q <= 1``) and
    where ``N`` would pass ``_LATTICE_CAP``.
    """
    if not q > 1.0:
        raise TruncationError(
            f"lattice sum with decay exponent {q/2:.3g} per factor is not "
            "truncatable (needs combined exponent > 1)")
    order = envelope_order(coef, q, sigma, tol)
    if not order <= _LATTICE_CAP:
        raise TruncationError(
            f"lattice truncation above {_LATTICE_CAP} terms still exceeds "
            f"tol={tol:.3g}")
    n = max(8, int(np.ceil(order)))
    return n, envelope_tail(coef, q, sigma, n)


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


def _denominator(v: float) -> int:
    """The denominator b of the fraction closest to v among those with
    ``b <= _CLASS_CAP`` (`Fraction.limit_denominator`) when ``v b`` is an
    integer to rounding, 0 otherwise.

    Below ``|v| = 1/(2 _RATIO_RTOL _CLASS_CAP**2)``, about 3e4, this b is
    the least that passes: two such fractions differ by at least
    ``1/_CLASS_CAP**2``, and two passing fractions lie closer than that.
    Past it, a closer fraction may win over a smaller passing one.
    """
    near = Fraction(v).limit_denominator(_CLASS_CAP)
    b = near.denominator
    return b if abs(v * b - near.numerator) <= _RATIO_RTOL * max(1.0, abs(v * b)) else 0


def _rational(t) -> Optional[Tuple[int, np.ndarray]]:
    """``(b, c)`` with ``t = c/b`` at every node to rounding, b the least
    denominator up to ``_CLASS_CAP``; None where there is none.

    b starts as the denominator of a grid's step, the first two nodes;
    each vectorised pass over the nodes raises it to its least common
    multiple with the denominator of the first node off it (a grid's
    offset), so a grid whose offset fits its step takes one pass.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    if not np.isfinite(flat).all():
        return None
    b = _denominator(float(flat[1] - flat[0])) if flat.size > 1 else 1
    while b:
        tb = flat * b
        c = np.rint(tb)
        off = np.abs(tb - c) > _RATIO_RTOL * np.maximum(1.0, np.abs(tb))
        if not off.any():
            return b, c.astype(np.int64).reshape(t.shape)
        b = math.lcm(b, _denominator(float(flat[np.argmax(off)])))
        b = b if b <= _CLASS_CAP else 0
    return None


def _hurwitz_zeta(s: int, a: np.ndarray) -> np.ndarray:
    """Hurwitz zeta ``zeta(s, a) = sum_{k >= 0} (a + k)**-s`` (DLMF 25.11.1)
    at an integer ``s >= 2`` and each of the finite ``a > 0``.

    Euler-Maclaurin from ``w = a + _ZETA_STEPS`` (DLMF 2.10.1, the scheme of
    Cephes' ``zeta``): the terms ``k = 0.._ZETA_STEPS`` summed directly,
    ``w**(1-s)/(s-1)`` less half the last of them, and the 12 Bernoulli
    terms ``B_2j/(2j)! (s)_{2j-1} w**(1-s-2j)``.  Every even derivative of
    ``x**-s`` is positive, so the remainder lies between 0 and the first
    omitted term, ``B_26/26! (s)_25 w**(-s-25)``; with ``w >= 9`` that is
    below 5.6e-21 of ``zeta(s, a)`` for every ``a > 0`` at ``s = 2..400``,
    and tends to 6.1e-21 as s grows.  Each ``(a + k)**-s`` is a power of
    the rounded ``a + k``, whose rounding the power multiplies by s.
    Raises ValueError outside that domain and OverflowError where the sum
    passes the largest double.
    """
    a = np.asarray(a, dtype=float)
    if s != int(s) or s < 2:
        raise ValueError(f"zeta(s, a) needs an integer s >= 2, got {s}")
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("zeta(s, a) needs finite a > 0")
    s, w = int(s), a + _ZETA_STEPS
    with np.errstate(over="ignore"):
        total = a ** -s
        for k in range(1, _ZETA_STEPS + 1):
            last = (a + k) ** -s
            total += last
        total += last * w / (s - 1)
        total -= 0.5 * last
        # B_2j/(2j)! (s)_{2j-1} w**(1-s-2j) from j = 1: last/w, then w**-2 a step
        term, step, rising = last / w, 1.0 / (w * w), s
        for j, b in enumerate(_BERNOULLI, 1):
            total += (b.numerator * rising / b.denominator) * term
            term *= step
            rising *= (s + 2 * j - 1) * (s + 2 * j)
    if not np.all(np.isfinite(total)):
        raise OverflowError(f"zeta({s}, a) overflows at a = {a.min():.3g}")
    return total


def _class_tails(spline: CardinalSpline, power: int, p: int, q: int, b: int,
                 y: np.ndarray, order: int) -> np.ndarray:
    """``sum_{|nu| > order} spectrum(y + 2 nu sigma)**power e^{2 pi i nu k/b}``
    of a spline at ``sigma step/pi = p/q``, for ``k = 0..b-1`` (rows) at the
    flattened nodes y (columns); ``power`` 2 reads ``|spectrum|**2``.

    The term at ``v = y step/(2 pi) + nu p/q`` is ``w(v) v**-S``, ``S =
    power order``, and with ``a = (step/2 pi) symbol(2 pi v)``, ``w = a
    e^{-i y end} (e^{i pi v} sin(pi v)/pi)**order`` (``power`` 1, whose
    ``e^{-2 i nu sigma end}`` the phase classes take) or ``|a|**2 (sin(pi
    v)/pi)**S`` (``power`` 2), of period 1 in v.  Along a class of nu mod
    ``L = lcm(q, b)`` both w and the phase are fixed and v steps by the
    integer ``P = L p/q``, so the terms ``nu = order + 1 + i + L j`` from
    ``v = theta`` sum to ``P**-S zeta(S, theta/P)`` (DLMF 25.11.1); ``nu =
    -(order + 1 + i + L j)`` give ``(-1)**S`` times that sum at ``-y``,
    which on symmetric nodes is the first sum read backwards.  The L classes
    fold into nu mod b and meet their phases in one length-b FFT.
    """
    s, big = power * spline.order, math.lcm(q, b)
    alpha = np.ravel(y) * (spline.step / TWO_PI)
    first = (order + 1 + np.arange(big))[:, np.newaxis] * p / q
    period = big * p // q
    up = _hurwitz_zeta(s, (first + alpha) / period) / float(period) ** s
    if np.all(np.abs(alpha[::-1] + alpha) <= 1e-15):
        down = up[:, ::-1]  # the midpoints of a cell mesh, symmetric to rounding
    else:
        down = _hurwitz_zeta(s, (first - alpha) / period) / float(period) ** s
    # class rho of nu mod L holds the row i = rho - order - 1 of the
    # right-hand side and the row i = -rho - order - 1 of the left-hand side
    rho = np.arange(big)
    right, left = up[(rho - order - 1) % big], down[(-rho - order - 1) % big]
    classes = right - left if s % 2 else right + left
    # w at the class offset's fractional part, by nu mod q
    v = alpha + (np.arange(q)[:, np.newaxis] * p % q) / q
    a = (spline.step / TWO_PI) * spline.symbol(TWO_PI * v)
    if power == 1:
        weight = (np.exp(1j * np.pi * v) * np.sin(np.pi * v) / np.pi) ** spline.order * a
        if spline.end:
            weight *= np.exp(-1j * spline.end * np.ravel(y))
    else:
        weight = (np.sin(np.pi * v) / np.pi) ** s * np.abs(a) ** 2
    folded = (classes.reshape(big // q, q, -1) * weight).reshape(big // b, b, -1).sum(axis=0)
    return b * np.fft.ifft(folded, axis=0) if b > 1 else folded


def lattice_sum(gen: Generator, sigma: float, y: np.ndarray,
                block: Callable[[np.ndarray], np.ndarray], power: int,
                tol: float, points: int, x: Optional[np.ndarray] = None
                ) -> Tuple[np.ndarray, int, float]:
    """``sum_nu term(y + 2 nu sigma)``, summed over blocks of ``nu``.

    ``block(shifts)`` receives a 1-D array of lattice shifts ``2 nu sigma``
    (the terms sit at ``u = shift + y``) and returns the sum of their
    terms, each ``spectrum(u)**power`` (``|spectrum(u)|**2`` for ``power``
    2), times ``e^{i shift x}`` when x is given (broadcast against y); each
    block's sum is then rotated by ``e^{i y x}``, which makes each term's
    phase ``e^{i u x}``.
    ``points`` is the number of values one shift adds to a block's arrays
    (the size of ``u`` times the other factors that broadcast against it,
    or ``nx + ny`` for a mesh contracted by a matrix product); a block
    holds at most 4e6 of them.  The sum is one of three:

    * exact: a declared spectral support (the finite order of
      `lattice_order`), or a spline whose ``sigma step/pi`` and phase
      (`_class_split`) are rationals with at most ``_CLASS_CAP`` classes
      ``lcm(q, b)`` (|nu| <= ``HURWITZ_ORDER`` and `_class_tails`);
    * truncated where the envelope bound meets ``tol`` (`lattice_order`),
      with that bound reported;
    * refused with `TruncationError` (a divergent envelope, or one that
      needs more than ``_LATTICE_CAP`` terms).

    Returns ``(values, truncation_order, tail_bound)``.
    """
    if not sigma > 0:
        raise InvalidGridError(f"sigma must be > 0, got {sigma}")
    split = _class_split(gen, sigma, y, x, power)
    if split is None:
        n_trunc, tail_bound = lattice_order(gen, sigma, tol, power)
    else:
        n_trunc, tail_bound = HURWITZ_ORDER, 0.0
    shifts = np.arange(-n_trunc, n_trunc + 1) * (2.0 * sigma)
    rotation = 1.0 if x is None else np.exp(1j * y * x)
    values = 0.0
    for sl in chunk_slices(shifts.size, points):
        values = values + rotation * block(shifts[sl])
    if split is None:
        return values, n_trunc, tail_bound
    p, q, b, c = split
    tails = _class_tails(gen.spline, power, p, q, b, y, n_trunc)
    # each node reads the phase class c mod b of its sigma x/pi = c/b
    nodes = np.arange(np.size(y)).reshape(np.shape(y))
    return values + rotation * tails[c % b, nodes], n_trunc, tail_bound


def _class_split(gen: Generator, sigma: float, y: np.ndarray,
                 x: Optional[np.ndarray], power: int):
    """``(p, q, b, c)`` where `lattice_sum` takes a spline's class tails:
    ``sigma step/pi = p/q`` and ``sigma x/pi = c/b`` (b = 1 without x),
    where ``power`` 1 reads ``x - end`` (x = 0 without x), at most
    ``_CLASS_CAP`` classes, a summable ``v**-S`` and nodes ``|y| <= 2 sigma
    HURWITZ_ORDER`` (positive Hurwitz parameters).  None otherwise.
    """
    spline = gen.spline
    if (spline is None or power * spline.order < 2
            or not np.all(np.abs(y) <= 2.0 * sigma * HURWITZ_ORDER)):
        return None
    ratio = sigma * spline.step / np.pi
    q = _denominator(ratio)
    if power == 1 and spline.end:
        x = (0.0 if x is None else np.asarray(x)) - spline.end
    phase = (1, 0) if x is None else _rational(sigma * np.asarray(x) / np.pi)
    if not q or phase is None or math.lcm(q, phase[0]) > _CLASS_CAP:
        return None
    return round(ratio * q), q, *phase


def lattice_energy(gen: Generator, sigma: float, y: np.ndarray,
                   tol: float = 1e-8) -> Tuple[np.ndarray, int, float]:
    """``sum_nu |spectrum(y + 2 nu sigma)|^2`` at arbitrary nodes.

    The lattice form of D for every generator: `periodize`'s route where D
    has no exact Poisson form, and the Phi4 audit's reference for that form.
    Exact for a spline at a rational ``sigma step/pi`` (`lattice_sum`).
    Returns ``(values, truncation_order, tail_bound)``.
    """
    y = np.asarray(y, dtype=float)

    def energy(shifts: np.ndarray) -> np.ndarray:
        return (np.abs(gen.spectrum(np.add.outer(shifts, y))) ** 2).sum(axis=0)

    return lattice_sum(gen, sigma, y, energy, 2, tol, y.size)


def poisson_lags(gen: Generator, sigma: float) -> Tuple[int, bool]:
    """``(L, exact)``: the autocorrelation lags of the Poisson form of D.

    A declared support gives the exact L, the largest d with
    ``d*pi/sigma < hi - lo`` (a span within rounding of k shifts gives
    k - 1: the lag k overlaps B on a null set).  A declared time radius
    gives its shift count: past it ``|B| <= TIME_EPS``.  Raises
    `TruncationError` when the generator declares neither: a spectral
    support alone bounds no lag (a spectrum interpolated linearly at step
    s has autocorrelation images near ``d = 2 sigma/s``, and a spectrum
    with a jump has lags that decay like ``1/d``).
    """
    try:
        lo, hi, exact = time_extent(gen)
    except TruncationError as exc:
        raise TruncationError(
            f"{exc}; the autocorrelation lags the pairing needs are "
            "unknown") from exc
    shifts = (hi - lo) * sigma / np.pi
    if exact:
        return max(0, int(np.ceil(shifts - 1e-9)) - 1), True
    return int(np.ceil(shifts)), False


def poisson_energy(acorr: np.ndarray, sigma: float, y: np.ndarray) -> np.ndarray:
    """The Poisson form of D from the row ``a_0..a_L`` of
    `shift_autocorrelation`; real, as ``a_{-d} = conj(a_d)``."""
    values = np.full(np.shape(y), acorr[0].real)
    for d in range(1, len(acorr)):
        values += 2.0 * (acorr[d] * np.exp((-1j * d * np.pi / sigma) * y)).real
    return values / (4.0 * np.pi * sigma)


def _kept(owner: object, key: tuple, build: Callable[[], tuple]) -> tuple:
    """The entry ``build()`` of ``owner``, a generator or time samples,
    under ``key``, whose first item names its kind, from the keeper or
    built and kept there.  Its first item is an array, made read-only,
    whose bytes are its size.  ``owner`` is held by weak reference."""
    def frozen() -> tuple:
        entry = build()
        entry[0].flags.writeable = False
        return entry
    return keep((key[0], weakref.ref(owner), *key[1:]), frozen,
                lambda entry: entry[0].nbytes)


def lattice_spectrum(gen: Generator, sigma: float, count: int,
                     windows: int) -> np.ndarray:
    """``conj(spectrum)`` on ``period_extension(sigma, count, windows)``, the
    factor a fold multiplies f-hat by; read-only, and kept per (generator,
    sigma, count, windows) in the keeper.  A miss samples B-hat on the
    nodes of the shared extension grid, which the fold's f-hat reads too."""
    def build() -> tuple:
        grid = period_extension(sigma, count, windows)
        return (np.conj(gen.spectrum(grid.nodes())),)
    return _kept(gen, ("fold", float(sigma), count, windows), build)[0]


def periodize(gen: Generator, sigma: float, grid: Grid,
              tol: float = 1e-8) -> PeriodizedSpectrum:
    """``D(y) = sum |spectrum(y + 2 nu sigma)|^2`` on one period.

    A generator with a closed-form ``autocorrelation`` and a declared
    support takes the exact Poisson form (see the module docstring):
    ``truncation_order`` is its largest lag L and ``tail_bound`` is 0.
    Any other generator takes the lattice sum `lattice_energy`:
    ``truncation_order`` is its order N and ``tail_bound`` the envelope
    bound on the mass beyond it (0 for an exact sum).  The grid must be a
    period grid (`require_period_grid`).  Under a spectral support S, where
    a spectrum may be cut off at a lattice edge, its seam nodes are read
    ``4 eps max(sigma, S)`` inside, so every ``y + 2 nu sigma`` at that edge
    is inside too.  `lattice_sum` may raise `TruncationError`.

    D is kept per (generator, sigma, grid, tol) in the keeper, its
    values read-only.
    """
    require_period_grid(grid, sigma)
    values, order, tail_bound = _kept(
        gen, ("D", float(sigma), grid.start, grid.stop, grid.count, float(tol)),
        lambda: _periodized(gen, sigma, grid, tol))
    return PeriodizedSpectrum(sigma=float(sigma), grid=grid, values=values,
                              truncation_order=order, tail_bound=tail_bound)


def _periodized(gen: Generator, sigma: float, grid: Grid,
                tol: float) -> Tuple[np.ndarray, int, float]:
    """``(values, truncation_order, tail_bound)`` of `periodize`."""
    y = grid.nodes()
    if gen.spectral_support is not None:
        inset = 4.0 * np.finfo(float).eps * max(sigma, gen.spectral_support)
        y = y.copy()
        y[[0, -1]] += (inset, -inset)
    if gen.autocorrelation is not None and gen.support is not None:
        order, _ = poisson_lags(gen, sigma)
        values = poisson_energy(shift_autocorrelation(gen, sigma, order), sigma, y)
        return values, order, 0.0
    return lattice_energy(gen, sigma, y, tol=tol)


def riesz_bounds(dperiod: PeriodizedSpectrum) -> RieszReport:
    """Frame-bound estimates from the sampled periodization.

    The extrema are taken over every node, the seam included, where
    `periodize` leaves the limit of D from inside the period.  The envelope
    ``tail_bound`` widens the interval on both sides; an exact D (Poisson
    form or compact spectral support) has none.
    """
    lower = float(np.min(dperiod.values)) - dperiod.tail_bound
    upper = float(np.max(dperiod.values)) + dperiod.tail_bound
    if lower > EPSILON_D:
        kind = "riesz"
    elif lower > 0.0:
        kind = "bessel_only"
    else:
        kind = "degenerate"
    return RieszReport(lower=lower, upper=upper, classification=kind)
