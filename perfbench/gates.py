"""Correctness gates for the benchmark, sharing no code with the package.

Every reference here is written from the closed forms of the generator
families, so a gate that passes is evidence about the formula pipeline and
not a comparison of the pipeline with itself:

* cardinal B-spline values at the integers come from the Cox-de Boor
  recursion in exact rational arithmetic;
* the B-spline periodization is the Poisson form
  ``D(y) = sum_d N_{2m+2}(m+1+d) e^{-i d pi y / sigma}``, i.e.
  ``(1/(4 pi sigma)) sum_d a_d e^{-i d pi y/sigma}`` with
  ``a_d = 4 pi sigma N_{2m+2}(m+1+d)``;
* the Gaussian periodization is a direct sum over ``|nu| <= 20``;
* the bandlimited (sinc) periodization is 1 inside the period.

Each ``check_<command>`` takes the request's generator and signal
description with the CLI's exit code and stdout, and returns a `Verdict`.
A request *fails* when the program reports failure (non-zero exit) or a
gate trips; it is *incorrect* when the program reports success but a gate
trips, or when its exit code contradicts the table it printed.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

# Bounds.  Where a bound differs from the one tests/test_acceptance.py uses
# for the same figure, the reason is given beside it.
COEFF_TOL = 1e-8            # member recovery, aligned spectrum input
# Time-sampled members: the quadrature transform at step h/16 or h/32
# sees |y| * step of 3-6 in the outer windows, where Simpson keeps an
# O((step*y)^4) error that |spectrum| damps only to ~1e-5 of max |beta|;
# the acceptance test samples at h/128 with a 4097-node period grid.
COEFF_TOL_SAMPLED = 1e-4
DENSITY_TOL = 1e-6          # closed-form D, relative to max D
ENERGY_TOL = 1e-6           # ||P f||^2 + error^2 against ||f||^2
MONOTONE_TOL = 1e-12        # besterr non-increasing in rho, times ||f||^2
ORACLE_TOP_REL = 1e-4       # |gap| / formula error at the top j range
ORACLE_SLACK = 1e-9         # compare's own consistency slack, times ||f||^2
# riesz: [A, B] is the sampled range of D widened by the envelope tail
# bound, which stays below 1e-3 of max D at the tolerances used here
# (bspline m=0 at tol 1e-10: 3.3e-4)
RIESZ_WIDEN = 1e-3
ZAK_NORM_TOL = 1e-6         # cell integral of |Phi|^2, smooth families
# sinc: the seam rows y = +-sigma of the zak mesh hold |Phi|^2 = cos^2(sigma x)
# instead of 1, an O(1/dgrid) term of any node rule on the period.
ZAK_NORM_TOL_SINC = 1.0     # multiplied by 1/(dgrid - 1)


@dataclass(frozen=True)
class GenSpec:
    """A generator family as the benchmark describes it to the CLI."""

    family: str             # "bspline" | "gauss" | "sinc"
    sigma: float
    m: int = 0
    width: float = 1.0

    def cli(self) -> str:
        """The ``--gen`` spec; sigma travels separately as ``--sigma``."""
        if self.family == "bspline":
            return f"bspline:m={self.m}"
        if self.family == "gauss":
            return f"gauss:width={self.width!r}"
        return "sinc"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    incorrect: bool = False
    figures: Dict[str, float] = field(default_factory=dict)
    reason: str = ""


def _fail(reason: str, incorrect: bool = True, **figures: float) -> Verdict:
    return Verdict(ok=False, incorrect=incorrect, figures=figures, reason=reason)


# ---------------------------------------------------------------------------
# closed forms

@lru_cache(maxsize=None)
def cardinal_at_integers(order: int) -> Tuple[Fraction, ...]:
    """``N_order(i)`` for ``i = 0..order`` by the Cox-de Boor recursion."""
    vals = [Fraction(1)] + [Fraction(0)] * order      # N_1 on [0, 1)
    for k in range(2, order + 1):
        prev = vals
        vals = [(i * prev[i] + (k - i) * (prev[i - 1] if i >= 1 else 0))
                / (k - 1) for i in range(order + 1)]
    return tuple(vals)


def autocorrelation(gen: GenSpec, lags: int) -> np.ndarray:
    """``a_d = <B, B(. - d pi/sigma)>`` for ``d = 0..lags`` in closed form."""
    h = math.pi / gen.sigma
    d = np.arange(lags + 1)
    if gen.family == "bspline":
        n = cardinal_at_integers(2 * gen.m + 2)
        p = gen.m + 1
        vals = [float(n[p + k]) if p + k <= 2 * p else 0.0 for k in d]
        return 4.0 * math.pi * gen.sigma * np.array(vals)
    if gen.family == "gauss":
        w = gen.width
        return w * math.sqrt(math.pi) * np.exp(-(d * h) ** 2 / (4.0 * w * w))
    return np.where(d == 0, 4.0 * math.pi * gen.sigma, 0.0)


def norm_sq(gen: GenSpec) -> float:
    return float(autocorrelation(gen, 0)[0])


def density(gen: GenSpec, y: np.ndarray) -> np.ndarray:
    """The periodization ``D(y) = sum_nu |spectrum(y + 2 nu sigma)|^2``."""
    y = np.asarray(y, dtype=float)
    s = gen.sigma
    if gen.family == "bspline":
        n = cardinal_at_integers(2 * gen.m + 2)
        p = gen.m + 1
        out = np.full(y.shape, float(n[p]))
        for d in range(1, p + 1):
            out += 2.0 * float(n[p + d]) * np.cos(d * math.pi * y / s)
        return out
    if gen.family == "gauss":
        w = gen.width
        nu = np.arange(-20, 21)[:, None]
        u = y[None, :] + 2.0 * s * nu
        return (w * w / (2.0 * math.pi) * np.exp(-(w * u) ** 2)).sum(axis=0)
    return np.where(np.abs(y) < s, 1.0, np.where(np.abs(y) == s, 0.5, 0.0))


def spectrum(gen: GenSpec, y: np.ndarray) -> np.ndarray:
    """Generator spectrum under ``fhat(y) = (1/2pi) int f(x) e^{-ixy} dx``."""
    y = np.asarray(y, dtype=float)
    if gen.family == "bspline":
        u = math.pi * y / gen.sigma
        small = np.abs(u) < 1e-3
        safe = np.where(small, 1.0, u)
        ratio = np.where(small, 1.0 + 0.5j * u - u * u / 6.0 - 1j * u ** 3 / 24.0,
                         (np.exp(1j * safe) - 1.0) / (1j * safe))
        return ratio ** (gen.m + 1)
    if gen.family == "gauss":
        w = gen.width
        return w / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (w * y) ** 2) + 0j
    ay = np.abs(y)
    return np.where(ay < gen.sigma, 1.0, np.where(ay == gen.sigma, 0.5, 0.0)) + 0j


def bspline_time(gen: GenSpec, x: np.ndarray) -> np.ndarray:
    """``B(x) = 2 sigma N_{m+1}(sigma x / pi + m + 1)`` by de Boor's recursion."""
    t = np.asarray(x, dtype=float) * gen.sigma / math.pi + gen.m + 1
    order = gen.m + 1
    # N_1 on the unit cells [i, i+1), then raise the order in place
    vals = [np.where((t >= i) & (t < i + 1), 1.0, 0.0) for i in range(order)]
    for k in range(2, order + 1):
        vals = [((t - i) * vals[i] + (i + k - t) * vals[i + 1]) / (k - 1)
                for i in range(order + 1 - k)]
    return 2.0 * gen.sigma * vals[0]


def member_time(gen: GenSpec, beta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_j beta_j B(x - j pi/sigma)`` for j = -J..J, B a B-spline."""
    j_max = (beta.size - 1) // 2
    h = math.pi / gen.sigma
    out = np.zeros(x.size, dtype=np.complex128)
    for j, b in zip(range(-j_max, j_max + 1), beta):
        out += b * bspline_time(gen, x - j * h)
    return out


def member_spectrum(gen: GenSpec, beta: np.ndarray, y: np.ndarray) -> np.ndarray:
    j_max = (beta.size - 1) // 2
    js = np.arange(-j_max, j_max + 1)
    zeta = np.exp(-1j * math.pi / gen.sigma * np.outer(y, js)) @ beta
    return zeta * spectrum(gen, y)


def simpson_weights(n: int, step: float) -> np.ndarray:
    """Composite Simpson weights on an odd number of uniform nodes."""
    if n % 2 == 0 or n < 3:
        raise ValueError("simpson needs an odd node count >= 3")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (step / 3.0)


# ---------------------------------------------------------------------------
# CSV parsing of CLI output

def _rows(text: str) -> Tuple[str, np.ndarray]:
    head, _, body = text.partition("\n")
    return head, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


def parse_project(text: str) -> Tuple[np.ndarray, np.ndarray, Dict[str, float]]:
    """(indices, coefficients, summary) of ``project`` output."""
    lines = text.splitlines()
    if not lines or lines[0] != "j,re,im":
        raise ValueError("project output lacks the coefficient header")
    cut = lines.index("y,re,im")
    coef = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:cut]])
    summary = dict(item.split("=") for item in lines[-1].split())
    return (coef[:, 0].astype(int), coef[:, 1] + 1j * coef[:, 2],
            {k: float(v) for k, v in summary.items()})


# ---------------------------------------------------------------------------
# gates

def _status(rc: int, text: str) -> Optional[Verdict]:
    if rc != 0:
        return _fail(f"exit code {rc}", incorrect=False)
    if not text:
        return _fail("no output")
    return None


def check_dfun(gen: GenSpec, rc: int, text: str) -> Verdict:
    bad = _status(rc, text)
    if bad:
        return bad
    head, rows = _rows(text)
    if head != "y,D" or rows.shape[1] != 2:
        return _fail("dfun output malformed")
    # the two end nodes are the seam of the period; sinc takes its edge
    # convention there, so every family is compared on interior nodes
    y, d = rows[1:-1, 0], rows[1:-1, 1]
    ref = density(gen, y)
    err = float(np.max(np.abs(d - ref)) / np.max(np.abs(ref)))
    if not err <= DENSITY_TOL:
        return _fail(f"D off by {err:.3e}", dfun_err=err)
    return Verdict(ok=True, figures={"dfun_err": err})


def check_riesz(gen: GenSpec, dgrid: int, rc: int, text: str) -> Verdict:
    bad = _status(rc, text)
    if bad:
        return bad
    try:
        fields = dict(item.split("=") for item in text.split())
        lower, upper = float(fields["A"]), float(fields["B"])
        kind = fields["class"]
    except (KeyError, ValueError):
        return _fail("riesz output malformed")
    y = np.linspace(-gen.sigma, gen.sigma, dgrid)[1:-1]
    ref = density(gen, y)
    lo, hi = float(ref.min()), float(ref.max())
    slack = DENSITY_TOL * hi
    encloses = lower <= lo + slack and upper >= hi - slack
    sharp = lower >= lo - RIESZ_WIDEN * hi and upper <= hi + RIESZ_WIDEN * hi
    err = max(abs(lower - lo), abs(upper - hi)) / hi
    if not (encloses and sharp and kind == "riesz"):
        return _fail(f"riesz A={lower} B={upper} class={kind} vs [{lo}, {hi}]",
                     riesz_err=err)
    return Verdict(ok=True, figures={"riesz_err": err})


def _coeff_energy(gen: GenSpec, coeffs: np.ndarray) -> float:
    """``||sum_j c_j B(. - j h)||^2`` from the closed-form Gram row."""
    n = coeffs.size
    a = autocorrelation(gen, n - 1)
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return float(np.real(np.conj(coeffs) @ (a[lag] @ coeffs)))


def check_project(gen: GenSpec, f_norm_sq: float, beta: Optional[np.ndarray],
                  coeff_tol: float, rc: int, text: str) -> Verdict:
    """Member inputs: coefficients against beta.  Other inputs: the energy
    split and the energy of the printed coefficients against ||f||^2."""
    bad = _status(rc, text)
    if bad:
        return bad
    try:
        idx, coeffs, summary = parse_project(text)
        proj, err_sq = summary["norm_sq"], summary["error_sq"]
        guard = summary["guard_mass"]
    except (KeyError, ValueError):
        return _fail("project output malformed")
    if beta is not None:
        j_max = (beta.size - 1) // 2
        want = np.zeros(idx.size, dtype=np.complex128)
        inside = np.abs(idx) <= j_max
        want[inside] = beta[idx[inside] + j_max]
        err = float(np.max(np.abs(coeffs - want)))
        if not err <= coeff_tol * max(1.0, float(np.max(np.abs(beta)))):
            return _fail(f"coefficient error {err:.3e}", coeff_err=err)
        return Verdict(ok=True, figures={"coeff_err": err})
    split = abs(proj + err_sq - f_norm_sq) / f_norm_sq
    route = abs(_coeff_energy(gen, coeffs) - proj) / f_norm_sq
    worst = max(split, route)
    if not (worst <= ENERGY_TOL and proj >= 0.0 and err_sq >= 0.0
            and guard >= 0.0):
        return _fail(f"energy split {split:.3e}, coefficient route {route:.3e}",
                     energy_err=worst)
    return Verdict(ok=True, figures={"energy_err": worst})


def check_besterr(f_norm_sq: float, rhos: Sequence[float], rc: int,
                  text: str) -> Verdict:
    bad = _status(rc, text)
    if bad:
        return bad
    head, rows = _rows(text)
    if head != "param,error_sq" or rows.shape != (len(rhos), 2):
        return _fail("besterr output malformed")
    if not np.array_equal(rows[:, 0], rhos):
        return _fail("besterr rows out of order")
    errs = rows[:, 1]
    order = np.argsort(rows[:, 0], kind="stable")
    rise = float(np.max(np.diff(errs[order]), initial=0.0)) / f_norm_sq
    if np.any(errs < 0.0) or np.any(errs > f_norm_sq * (1.0 + ENERGY_TOL)) \
            or rise > MONOTONE_TOL:
        return _fail(f"besterr not monotone (rise {rise:.3e}) or out of range",
                     besterr_rise=rise)
    return Verdict(ok=True, figures={"besterr_rise": rise})


def check_compare(f_norm_sq: float, ranges: Sequence[int], rc: int,
                  text: str) -> Verdict:
    if rc not in (0, 1) or not text:
        return _fail(f"exit code {rc}", incorrect=False)
    head, rows = _rows(text)
    if head != "j_range,oracle_residual,formula_error,gap" \
            or rows.shape != (len(ranges), 4):
        return _fail("compare output malformed")
    if list(rows[:, 0].astype(int)) != sorted(ranges):
        return _fail("compare ranges differ from the request")
    residual, formula, gap = rows[:, 1], rows[:, 2], rows[:, 3]
    slack = ORACLE_SLACK * max(1.0, f_norm_sq)
    below = bool(np.any(gap < -slack))
    top_rel = abs(float(gap[-1])) / float(formula[-1])
    figures = {"oracle_gap_rel": top_rel}
    if below != (rc == 1):
        return _fail(f"exit code {rc} contradicts min gap {gap.min():.3e}",
                     **figures)
    if rc == 1:
        # the program reported its own inconsistency: a failed request,
        # not a wrong output
        return Verdict(ok=False, figures=figures,
                       reason=f"oracle below formula by {-gap.min():.3e}")
    if np.any(np.diff(residual) > slack) or np.ptp(formula) != 0.0 \
            or top_rel > ORACLE_TOP_REL:
        return _fail(f"oracle table inconsistent (top rel gap {top_rel:.3e})",
                     **figures)
    return Verdict(ok=True, figures=figures)


def check_validate(gen: GenSpec, tol: float, rc: int, text: str) -> Verdict:
    if rc not in (0, 1) or not text:
        return _fail(f"exit code {rc}", incorrect=False)
    lines = text.splitlines()
    if lines[0] != "check,residual,budget,status":
        return _fail("validate output malformed")
    scale = max(1.0, norm_sq(gen) / (2.0 * gen.sigma))
    worst, checked, failed = 0.0, 0, []
    for line in lines[1:]:
        name, residual, budget, status = line.split(",")
        if status == "skipped":
            continue
        checked += 1
        ratio = float(residual) / max(float(budget), tol * scale)
        worst = max(worst, ratio)
        if status != "ok":
            failed.append(name)
        elif not ratio <= 1.0:
            return _fail(f"{name} reads ok at ratio {ratio:.3e}",
                         validate_ratio=ratio)
    if (rc == 1) != bool(failed):
        return _fail(f"exit code {rc} contradicts failed checks {failed}")
    if failed or not checked:
        return _fail(f"checks {failed or 'none'} not ok", incorrect=False,
                     validate_ratio=worst)
    return Verdict(ok=True, figures={"validate_ratio": worst})


def check_zak(gen: GenSpec, dgrid: int, rc: int, text: str) -> Verdict:
    bad = _status(rc, text)
    if bad:
        return bad
    head, rows = _rows(text)
    if head != "x,y,re,im" or rows.shape != (dgrid * dgrid, 4):
        return _fail("zak output malformed")
    mag = (rows[:, 2] ** 2 + rows[:, 3] ** 2).reshape(dgrid, dgrid)
    hx = math.pi / gen.sigma / (dgrid - 1)
    hy = 2.0 * gen.sigma / (dgrid - 1)
    # Simpson in x (piecewise polynomial between knots); the periodic
    # trapezoid in y, exact for the trigonometric polynomials of the
    # compactly supported families
    in_x = simpson_weights(dgrid, hx) @ mag
    cell = float(hy * (in_x[1:-1].sum() + 0.5 * (in_x[0] + in_x[-1])))
    want = norm_sq(gen) / (2.0 * gen.sigma)
    rel = abs(cell - want) / want
    bound = ZAK_NORM_TOL_SINC / (dgrid - 1) if gen.family == "sinc" \
        else ZAK_NORM_TOL
    if not rel <= bound:
        return _fail(f"cell integral off by {rel:.3e}", zak_norm_rel=rel)
    return Verdict(ok=True, figures={"zak_norm_rel": rel})
