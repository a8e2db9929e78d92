"""Command-line front end: CSV emission for every pipeline stage.

Commands
--------
dfun      periodized spectral energy D on one period        -> y,D
riesz     frame-bound estimates                             -> one report line
zak       the Phi system on the fundamental cell            -> x,y,re,im
project   projection of a signal onto the shift space       -> coeff/zeta blocks
besterr   best-approximation error, optionally swept        -> param,error_sq
compare   brute-force oracle vs. exact error formula        -> comparison table
validate  property audit of the Phi system                  -> check table

Output is CSV only (plots are downstream concerns); identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 numerical failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ShiftSpaceError
from .generator import Generator, parse_generator_spec, time_extent
from .numerics import (Grid, SampledFunction, SampledSpectrum,
                       covering_windows, period_extension, read_samples_csv)
from .shiftspace import DEFAULT_GRID_COUNT, best_approx_error_sq, project
from .spectral import periodize, riesz_bounds
from .oracle import compare
from .zak import _time_available, phi_field, verify_phi_properties

_SWEEPABLE = {"besterr": ("sigma", "rho"), "compare": ("jrange",)}
_DEFAULT_COMPARE_RANGES = (8, 16, 32, 64)


@dataclass(frozen=True)
class RunConfig:
    command: str
    generator_spec: str
    f_spec: Optional[str]
    sigma: float
    rho: float
    tol: float
    dgrid: int
    j_range: int
    output_path: Optional[str]
    sweep: Optional[Tuple[str, Tuple[float, ...]]]


def _fmt(value: float) -> str:
    return "" if not np.isfinite(value) else f"{value:.17g}"


def _csv_rows(*columns: Sequence[float]) -> List[str]:
    """``%.17g`` CSV lines of equal-length columns of Python numbers
    (``ndarray.tolist()``: numpy scalars format several times slower)."""
    line = ",".join(["{:.17g}"] * len(columns))
    return [line.format(*row) for row in zip(*columns)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftapprox",
        description="projections onto spaces spanned by equidistant shifts "
                    "of a single square-integrable generator")
    sub = parser.add_subparsers(dest="command", required=True)
    needs_f = {"project", "besterr", "compare"}
    for name in ("dfun", "riesz", "zak", "project", "besterr", "compare",
                 "validate"):
        p = sub.add_parser(name)
        p.add_argument("--gen", required=True, dest="generator_spec",
                       help="generator spec, e.g. bspline:m=2,sigma=1 | "
                            "gauss:width=1 | sinc:sigma=2 | file:spec.csv")
        if name in needs_f:
            p.add_argument("--f", required=True, dest="f_spec",
                           help="signal: generator-style spec or file:path "
                                "(CSV with x,re,im or y,re,im header)")
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--rho", type=float, default=None,
                       help="band radius, defaults to sigma")
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--dgrid", type=int, default=None,
                       help="period-grid resolution (default 4097; "
                            "129 for zak, 257 for validate)")
        p.add_argument("--jrange", type=int, default=64, dest="j_range")
        p.add_argument("--out", default=None, dest="output_path")
        if name in _SWEEPABLE:
            p.add_argument("--sweep", default=None,
                           help="<name>=<v1,v2,...> over " +
                                "|".join(_SWEEPABLE[name]))
    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(list(argv))
    sigma = ns.sigma
    if not sigma > 0:
        parser.error(f"--sigma must be > 0, got {sigma}")
    rho = ns.rho if ns.rho is not None else sigma
    if not 0 < rho <= sigma * (1.0 + 1e-12):
        parser.error(f"--rho {rho} must lie in (0, sigma={sigma}]")
    if not ns.tol > 0:
        parser.error(f"--tol must be > 0, got {ns.tol}")
    dgrid = ns.dgrid
    if dgrid is None:
        dgrid = {"zak": 129, "validate": 257}.get(ns.command, DEFAULT_GRID_COUNT)
    if dgrid < 9:
        parser.error(f"--dgrid must be >= 9, got {dgrid}")
    if ns.command in ("zak", "validate") and dgrid % 2 == 0:
        parser.error(f"--dgrid must be odd for {ns.command}, got {dgrid}")
    if ns.j_range < 1:
        parser.error(f"--jrange must be >= 1, got {ns.j_range}")
    sweep = None
    raw_sweep = getattr(ns, "sweep", None)
    if raw_sweep is not None:
        name, _, tail = raw_sweep.partition("=")
        if name not in _SWEEPABLE.get(ns.command, ()) or not tail:
            parser.error(f"--sweep {raw_sweep!r} is not valid for "
                         f"{ns.command} (allowed: "
                         f"{', '.join(_SWEEPABLE.get(ns.command, ()))})")
        try:
            values = tuple(float(v) for v in tail.split(","))
        except ValueError:
            parser.error(f"--sweep values in {raw_sweep!r} are not numeric")
        if name == "sigma" and ns.rho is not None:
            parser.error("--rho cannot be fixed while sweeping sigma")
        sweep = (name, values)
    return RunConfig(command=ns.command, generator_spec=ns.generator_spec,
                     f_spec=getattr(ns, "f_spec", None), sigma=sigma, rho=rho,
                     tol=ns.tol, dgrid=dgrid, j_range=ns.j_range,
                     output_path=ns.output_path, sweep=sweep)


def _signal_freq_extent(gen_f: Generator, sigma: float, dgrid: int) -> Grid:
    """Aligned frequency grid wide enough to hold essentially all of f-hat."""
    if gen_f.spectral_support is not None:
        windows = covering_windows(gen_f.spectral_support, sigma)
    else:
        c, p = gen_f.decay_constant, gen_f.decay_exponent
        windows = 1
        while windows < 64:
            edge = (2.0 * windows + 1.0) * sigma
            bound = 2.0 * c * c * (1.0 + edge) ** (1.0 - 2.0 * p) / (2.0 * p - 1.0)
            if bound <= 1e-12:
                break
            windows *= 2
    return period_extension(sigma, dgrid, windows)


def _load_signal(text: str, sigma: float, dgrid: int
                 ) -> Union[SampledFunction, SampledSpectrum]:
    """Signal from a file or a generator-style spec."""
    if text.startswith("file:"):
        return read_samples_csv(text[len("file:"):])
    return _sample_signal(parse_generator_spec(text, default_sigma=sigma),
                          sigma, dgrid, prefer_time=False)


def _sample_signal(gen_f: Generator, sigma: float, dgrid: int,
                   prefer_time: bool
                   ) -> Union[SampledFunction, SampledSpectrum]:
    """A generator-style signal, sampled where it is numerically safest.

    That is the time domain when f declares a compact support or fast time
    decay and either the caller insists or the spectrum decays too slowly
    to cover, otherwise the spectrum on a grid aligned with the period grid.
    """
    slow_spectrum = gen_f.spectral_support is None and gen_f.decay_exponent <= 1.5
    if _time_available(gen_f) and (prefer_time or slow_spectrum):
        lo, hi, _ = time_extent(gen_f, 1e-16)
        step = gen_f.time_step_hint / 4.0 if gen_f.time_step_hint else (hi - lo) / 4096.0
        count = max(int(np.ceil((hi - lo) / step)) + 1, 257)
        grid = Grid(start=lo, stop=hi, count=count)
        return SampledFunction(grid=grid,
                               values=np.asarray(gen_f.time_domain(grid.nodes()),
                                                 dtype=np.complex128))
    return _analytic_spectrum(gen_f, sigma, dgrid)


def _analytic_spectrum(gen_f: Generator, sigma: float,
                       dgrid: int) -> SampledSpectrum:
    """f-hat sampled on the aligned extension of the period grid."""
    freq = _signal_freq_extent(gen_f, sigma, dgrid)
    return SampledSpectrum(grid=freq,
                           values=np.asarray(gen_f.spectrum(freq.nodes()),
                                             dtype=np.complex128))


def _run_dfun(cfg: RunConfig) -> Tuple[List[str], int]:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    grid = Grid(start=-cfg.sigma, stop=cfg.sigma, count=cfg.dgrid)
    dv = periodize(gen, cfg.sigma, grid, tol=cfg.tol)
    return ["y,D"] + _csv_rows(grid.nodes().tolist(), dv.values.tolist()), 0


def _run_riesz(cfg: RunConfig) -> Tuple[List[str], int]:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    grid = Grid(start=-cfg.sigma, stop=cfg.sigma, count=cfg.dgrid)
    report = riesz_bounds(periodize(gen, cfg.sigma, grid, tol=cfg.tol))
    return [f"A={report.lower:.17g} B={report.upper:.17g} "
            f"class={report.classification}"], 0


def _run_zak(cfg: RunConfig) -> Tuple[List[str], int]:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    x_grid = Grid(start=0.0, stop=np.pi / cfg.sigma, count=cfg.dgrid)
    y_grid = Grid(start=-cfg.sigma, stop=cfg.sigma, count=cfg.dgrid)
    field = phi_field(gen, cfg.sigma, x_grid, y_grid, tol=cfg.tol)
    values = field.values.ravel()  # row-major: x outer, y inner
    return ["x,y,re,im"] + _csv_rows(
        np.repeat(x_grid.nodes(), y_grid.count).tolist(),
        np.tile(y_grid.nodes(), x_grid.count).tolist(),
        values.real.tolist(), values.imag.tolist()), 0


def _run_project(cfg: RunConfig) -> Tuple[List[str], int]:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    signal = _load_signal(cfg.f_spec, cfg.sigma, cfg.dgrid)
    grid = Grid(start=-cfg.sigma, stop=cfg.sigma, count=cfg.dgrid)
    result = project(signal, gen, cfg.sigma, cfg.rho, tol=cfg.tol,
                     grid=grid, j_range=cfg.j_range)
    coeffs, zeta = result.coeffs.coeffs, result.zeta.values
    lines = ["j,re,im"]
    lines += _csv_rows(result.coeffs.indices().tolist(),
                       coeffs.real.tolist(), coeffs.imag.tolist())
    lines.append("y,re,im")
    lines += _csv_rows(grid.nodes().tolist(),
                       zeta.real.tolist(), zeta.imag.tolist())
    lines.append(f"norm_sq={result.projection_norm_sq:.17g} "
                 f"error_sq={result.error_sq:.17g} "
                 f"guard_mass={result.guard_mass:.17g}")
    return lines, 0


def _run_besterr(cfg: RunConfig) -> Tuple[List[str], int]:
    # one fold per sigma; the param column is rho (a sigma sweep sets rho)
    name, values = cfg.sweep or ("rho", (cfg.rho,))
    if name == "sigma":
        runs = [(v, (v,)) for v in values]
    else:
        runs = [(cfg.sigma, values)]
    lines = ["param,error_sq"]
    for sigma, rhos in runs:
        gen = parse_generator_spec(cfg.generator_spec, default_sigma=sigma)
        signal = _load_signal(cfg.f_spec, sigma, cfg.dgrid)
        grid = Grid(start=-sigma, stop=sigma, count=cfg.dgrid)
        errors = best_approx_error_sq(signal, gen, sigma, rhos,
                                      tol=cfg.tol, grid=grid)
        lines += _csv_rows(rhos, errors.tolist())
    return lines, 0


def _run_compare(cfg: RunConfig) -> Tuple[List[str], int]:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    gen_f = None
    if cfg.f_spec.startswith("file:"):
        signal = read_samples_csv(cfg.f_spec[len("file:"):])
    else:
        gen_f = parse_generator_spec(cfg.f_spec, default_sigma=cfg.sigma)
        signal = _sample_signal(gen_f, cfg.sigma, DEFAULT_GRID_COUNT, prefer_time=True)
    if not isinstance(signal, SampledFunction):
        raise ShiftSpaceError(
            "compare needs time-domain samples of f (the oracle integrates "
            "against the shifts in time); provide a time-sampled CSV or a "
            "generator spec with a time-domain form")
    if cfg.sweep is not None:
        ranges = [int(v) for v in cfg.sweep[1]]
    else:
        ranges = list(_DEFAULT_COMPARE_RANGES)
    # compare folds on the default period grid (not --dgrid); sampling f-hat
    # on its aligned extension keeps the fold from interpolating
    spectrum = (None if gen_f is None
                else _analytic_spectrum(gen_f, cfg.sigma, DEFAULT_GRID_COUNT))
    report = compare(signal, gen, cfg.sigma, ranges, tol=cfg.tol,
                     f_spectrum=spectrum)
    rows = report.rows
    lines = ["j_range,oracle_residual,formula_error,gap"] + _csv_rows(
        [r.j_range for r in rows], [r.oracle_residual for r in rows],
        [r.formula_error for r in rows], [r.gap for r in rows])
    if not report.consistent:
        print("comparison inconsistent: oracle residual fell below the "
              "exact formula error", file=sys.stderr)
        return lines, 1
    return lines, 0


def _run_validate(cfg: RunConfig) -> Tuple[List[str], int]:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    report = verify_phi_properties(gen, cfg.sigma, resolution=cfg.dgrid,
                                   tol=cfg.tol)
    lines = ["check,residual,budget,status"]
    failed = False
    for c in report.checks:
        lines.append(f"{c.name},{_fmt(c.residual)},{_fmt(c.budget)},{c.status}")
        failed = failed or c.status == "fail"
    return lines, 1 if failed else 0


_RUNNERS = {"dfun": _run_dfun, "riesz": _run_riesz, "zak": _run_zak,
            "project": _run_project, "besterr": _run_besterr,
            "compare": _run_compare, "validate": _run_validate}


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit status."""
    lines, status = _RUNNERS[config.command](config)
    text = "\n".join(lines) + "\n"
    if config.output_path is None:
        sys.stdout.write(text)
    else:
        with open(config.output_path, "w", encoding="ascii") as handle:
            handle.write(text)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return run(config)
    except ShiftSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
