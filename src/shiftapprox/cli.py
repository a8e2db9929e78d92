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

Every command takes ``--gen``, ``--sigma``, ``--tol``, ``--dgrid`` and
``--out``; project, besterr and compare take ``--f``; ``--rho`` belongs to
project and besterr, ``--jrange`` to project, and ``--sweep`` to besterr
(sigma or rho) and compare (jrange, nonnegative integers).  ``--dgrid`` is
odd and >= 9: the period-grid nodes of every command, the fold of compare's
formula side included; ``--sigma``, each swept sigma and ``--tol`` are
finite and > 0.

The grammar is one table of flags (`_FLAGS`): option string, dest, type,
default, the commands that take it, and help.  An argv of the documented
form ``<command> (--flag value)*`` is read straight from it (`_direct`):
each flag a full option string of the command, given once, with a value
that does not start with ``-`` and converts with the flag's type, the
required flags present.  Any other argv (an ``=`` spelling, an
abbreviation, a repeat, a negative value, ``--``, ``-h``) goes to the
argparse parser built from the same table (`_build_parser`), which is the
only reporter of usage errors and help.  Either namespace passes the same
checks (`_config`).

A ``--f`` signal is a ``file:`` CSV (time samples or a spectrum) or a spec
handed on as the generator itself: `shiftspace` decides how far its
spectrum is taken, and `oracle.compare` how it is sampled in time.

Output is CSV only (plots are downstream concerns); identical invocations
produce byte-identical output.  A runner returns its lines with its numeric
tables as column tuples between them, and `run` formats every table of the
command in one `numerics.csv_tables` call: one ``%.17g`` pass per command,
its values counted over all its tables against
`numerics.NUMPY_TEXT_VALUES` (a crossover measured warm).  zak prints its
mesh by `numerics.csv_mesh`: each distinct magnitude formatted once, a
negative value's sign set in its text's sign byte, and the rows laid out
a block of x rows at a time.  riesz and validate print f-strings.  Exit
codes: 0 success, 1 numerical failure, 2 usage error (a bad flag or spec
parameter).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ShiftSpaceError
from .generator import is_file_spec, parse_generator_spec
from .numerics import (Column, csv_mesh, csv_tables, read_samples_csv,
                       shared_grid)
from .shiftspace import (DEFAULT_GRID_COUNT, Signal, best_approx_error_sq,
                         project, rho_in_band)
from .spectral import periodize, riesz_bounds
from .oracle import compare
from .zak import phi_field, verify_phi_properties

_SWEEPABLE = {"besterr": ("sigma", "rho"), "compare": ("jrange",)}
_DEFAULT_COMPARE_RANGES = (8, 16, 32, 64)

#: what a runner prints, in order: lines, and numeric tables as column
#: tuples, which `run` formats in one writer call; and the exit status
_Output = Tuple[List[Union[str, Tuple[Column, ...]]], int]


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


_COMMANDS = ("dfun", "riesz", "zak", "project", "besterr", "compare",
             "validate")


@dataclass(frozen=True)
class _Flag:
    """One flag of the grammar, read by `_build_parser` and `_direct`."""
    option: str
    dest: str
    type: Callable[[str], object]
    default: object
    commands: Tuple[str, ...]
    help: Optional[str] = None
    required: bool = False


#: the grammar, in argparse's order; ``{sweepable}`` in a help text reads
#: the sweepable names of the command
_FLAGS = (
    _Flag("--gen", "generator_spec", str, None, _COMMANDS, required=True,
          help="generator spec, e.g. bspline:m=2,sigma=1 | gauss:width=1 | "
               "sinc:sigma=2 | file:spec.csv"),
    _Flag("--f", "f_spec", str, None, ("project", "besterr", "compare"),
          required=True,
          help="signal: generator-style spec or file:path (CSV with "
               "x,re,im or y,re,im header)"),
    _Flag("--sigma", "sigma", float, 1.0, _COMMANDS),
    _Flag("--rho", "rho", float, None, ("project", "besterr"),
          help="band radius, defaults to sigma"),
    _Flag("--tol", "tol", float, 1e-8, _COMMANDS),
    _Flag("--dgrid", "dgrid", int, None, _COMMANDS,
          help="period-grid nodes, odd, >= 9 (default 4097; 129 for zak, "
               "257 for validate)"),
    _Flag("--jrange", "j_range", int, 64, ("project",),
          help="coefficient range J (default 64)"),
    _Flag("--out", "output_path", str, None, _COMMANDS),
    _Flag("--sweep", "sweep", str, None, tuple(_SWEEPABLE),
          help="<name>=<v1,v2,...> over {sweepable}"),
)
#: every dest is a field of every command's namespace; a flag exists only
#: on the commands that read it
_DEFAULTS = {flag.dest: flag.default for flag in _FLAGS}
_TAKES = {name: {flag.option: flag for flag in _FLAGS if name in flag.commands}
          for name in _COMMANDS}
_REQUIRED = {name: {option for option, flag in takes.items() if flag.required}
             for name, takes in _TAKES.items()}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing does not alter it."""
    parser = argparse.ArgumentParser(
        prog="shiftapprox",
        description="projections onto spaces spanned by equidistant shifts "
                    "of a single square-integrable generator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.set_defaults(**_DEFAULTS)
        sweepable = "|".join(_SWEEPABLE.get(name, ()))
        for flag in _TAKES[name].values():
            p.add_argument(flag.option, dest=flag.dest, type=flag.type,
                           default=flag.default, required=flag.required,
                           help=flag.help and flag.help.format(
                               sweepable=sweepable))
    return parser


def _direct(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace argparse would return for an argv of the documented
    form ``<command> (--flag value)*``, read from the flag table; None for
    any other argv.

    Each flag must be a full option string of the command, given once,
    with a value that does not start with ``-`` and converts with the
    flag's type, and the command's required flags must be present.  Any
    other argv (an ``=`` spelling, an abbreviation, a repeat, a negative
    value, ``--``, ``-h``, a stray positional, a missing or unknown flag,
    a bad value) is left to argparse, which reports usage and help.
    """
    takes = _TAKES.get(argv[0]) if len(argv) % 2 == 1 else None
    if takes is None:
        return None
    values = dict(_DEFAULTS)
    seen = set()
    for option, text in zip(argv[1::2], argv[2::2]):
        flag = takes.get(option)
        if flag is None or option in seen or text.startswith("-"):
            return None
        seen.add(option)
        try:
            values[flag.dest] = flag.type(text)
        except ValueError:
            return None
    if not _REQUIRED[argv[0]] <= seen:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _usage_error(message: str) -> NoReturn:
    """Exit 2 with argparse's usage line and ``message`` on stderr."""
    _build_parser().error(message)


def _config(ns: argparse.Namespace) -> RunConfig:
    """The run configuration of a parsed namespace, after the checks no
    flag type makes; a failed check is a usage error."""
    sigma = ns.sigma
    if not 0 < sigma < math.inf:
        _usage_error(f"--sigma must be finite and > 0, got {sigma}")
    rho = ns.rho if ns.rho is not None else sigma
    if not rho_in_band(rho, sigma):
        _usage_error(f"--rho {rho} must lie in (0, sigma={sigma}]")
    if not 0 < ns.tol < math.inf:
        _usage_error(f"--tol must be finite and > 0, got {ns.tol}")
    dgrid = ns.dgrid
    if dgrid is None:
        dgrid = {"zak": 129, "validate": 257}.get(ns.command, DEFAULT_GRID_COUNT)
    if dgrid < 9 or dgrid % 2 == 0:
        _usage_error(f"--dgrid must be odd and >= 9, got {dgrid}")
    if ns.j_range < 1:
        _usage_error(f"--jrange must be >= 1, got {ns.j_range}")
    sweep = None
    if ns.sweep is not None:
        name, _, tail = ns.sweep.partition("=")
        if name not in _SWEEPABLE.get(ns.command, ()) or not tail:
            _usage_error(f"--sweep {ns.sweep!r} is not valid for "
                         f"{ns.command} (allowed: "
                         f"{', '.join(_SWEEPABLE.get(ns.command, ()))})")
        try:
            values = tuple((int if name == "jrange" else float)(v)
                           for v in tail.split(","))
        except ValueError:
            values = ()
        if not values or (name == "jrange" and min(values) < 0):
            _usage_error(f"--sweep values in {ns.sweep!r} must be " + (
                "nonnegative integers" if name == "jrange" else "numbers"))
        if name in ("sigma", "rho") and ns.rho is not None:
            _usage_error(f"--rho cannot be fixed while sweeping {name}")
        # a swept value is checked by the rule of its flag
        for v in values:
            if name == "sigma" and not 0 < v < math.inf:
                _usage_error(f"--sweep sigma={v} must be finite and > 0")
            if name == "rho" and not rho_in_band(v, sigma):
                _usage_error(f"--sweep rho={v} must lie in (0, sigma={sigma}]")
        sweep = (name, values)
    return RunConfig(command=ns.command, generator_spec=ns.generator_spec,
                     f_spec=ns.f_spec, sigma=sigma, rho=rho, tol=ns.tol,
                     dgrid=dgrid, j_range=ns.j_range,
                     output_path=ns.output_path, sweep=sweep)


def parse_args(argv: Sequence[str]) -> RunConfig:
    """The validated config of ``argv``; exits 2 on a usage error, 0 after
    ``--help``."""
    ns = _direct(argv)
    if ns is None:
        ns = _build_parser().parse_args(list(argv))
    return _config(ns)


def _load_signal(text: str, sigma: float) -> Signal:
    """Signal from a file (its samples) or a generator-style spec, told
    apart as `parse_generator_spec` tells them (`is_file_spec`)."""
    if is_file_spec(text):
        return read_samples_csv(text.strip()[len("file:"):])
    return parse_generator_spec(text, default_sigma=sigma)


def _run_dfun(cfg: RunConfig) -> _Output:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    grid = shared_grid(-cfg.sigma, cfg.sigma, cfg.dgrid)
    dv = periodize(gen, cfg.sigma, grid, tol=cfg.tol)
    return ["y,D", (grid, dv.values)], 0


def _run_riesz(cfg: RunConfig) -> _Output:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    grid = shared_grid(-cfg.sigma, cfg.sigma, cfg.dgrid)
    report = riesz_bounds(periodize(gen, cfg.sigma, grid, tol=cfg.tol))
    return [f"A={report.lower:.17g} B={report.upper:.17g} "
            f"class={report.classification}"], 0


def _run_zak(cfg: RunConfig) -> _Output:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    x_grid = shared_grid(0.0, np.pi / cfg.sigma, cfg.dgrid)
    y_grid = shared_grid(-cfg.sigma, cfg.sigma, cfg.dgrid)
    field = phi_field(gen, cfg.sigma, x_grid, y_grid, tol=cfg.tol)
    return ["x,y,re,im", csv_mesh(x_grid, y_grid, field.values)], 0


def _run_project(cfg: RunConfig) -> _Output:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    signal = _load_signal(cfg.f_spec, cfg.sigma)
    grid = shared_grid(-cfg.sigma, cfg.sigma, cfg.dgrid)
    result = project(signal, gen, cfg.sigma, cfg.rho, tol=cfg.tol,
                     grid=grid, j_range=cfg.j_range)
    coeffs, zeta = result.coeffs.coeffs, result.zeta.values
    # the indices -J..J are the nodes of a grid of step 1
    j = result.coeffs.j_max
    return ["j,re,im", (shared_grid(-j, j, 2 * j + 1), coeffs.real, coeffs.imag),
            "y,re,im", (grid, zeta.real, zeta.imag),
            f"norm_sq={result.projection_norm_sq:.17g} "
            f"error_sq={result.error_sq:.17g} "
            f"guard_mass={result.guard_mass:.17g}"], 0


def _run_besterr(cfg: RunConfig) -> _Output:
    # one fold per sigma; the param column is rho (a sigma sweep sets rho)
    name, values = cfg.sweep or ("rho", (cfg.rho,))
    if name == "sigma":
        runs = [(v, (v,)) for v in values]
    else:
        runs = [(cfg.sigma, values)]
    lines: list = ["param,error_sq"]
    for sigma, rhos in runs:
        # a file: input is parsed once per process (`read_samples_csv`), and
        # a file: generator, which does not depend on sigma, is one object
        gen = parse_generator_spec(cfg.generator_spec, default_sigma=sigma)
        signal = _load_signal(cfg.f_spec, sigma)
        grid = shared_grid(-sigma, sigma, cfg.dgrid)
        errors = best_approx_error_sq(signal, gen, sigma, rhos,
                                      tol=cfg.tol, grid=grid)
        lines.append((rhos, errors))
    return lines, 0


def _run_compare(cfg: RunConfig) -> _Output:
    gen = parse_generator_spec(cfg.generator_spec, default_sigma=cfg.sigma)
    signal = _load_signal(cfg.f_spec, cfg.sigma)
    ranges = list(cfg.sweep[1] if cfg.sweep else _DEFAULT_COMPARE_RANGES)
    grid = shared_grid(-cfg.sigma, cfg.sigma, cfg.dgrid)
    report = compare(signal, gen, cfg.sigma, ranges, tol=cfg.tol, grid=grid)
    rows = report.rows
    lines = ["j_range,oracle_residual,formula_error,gap", (
        [r.j_range for r in rows], [r.oracle_residual for r in rows],
        [r.formula_error for r in rows], [r.gap for r in rows])]
    if not report.consistent:
        print("comparison inconsistent: oracle residual fell below the "
              "exact formula error", file=sys.stderr)
        return lines, 1
    return lines, 0


def _run_validate(cfg: RunConfig) -> _Output:
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
    blocks, status = _RUNNERS[config.command](config)
    tables = iter(csv_tables(*(b for b in blocks if not isinstance(b, str))))
    text = "\n".join([b if isinstance(b, str) else next(tables) for b in blocks]
                     + [""])
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
