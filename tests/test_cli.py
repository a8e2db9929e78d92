"""End-to-end checks of the command-line interface.

Every invocation goes through `cli.main` in-process: stdout is captured,
exit codes are asserted (0 success, 1 numerical failure, 2 usage error),
and repeated identical invocations must produce byte-identical output.
Numerical accuracy has its own test modules; here the closed forms are
only used to confirm the right quantity reached the right column.
"""

from __future__ import annotations

import ast
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftapprox
from shiftapprox import cli, generator, numerics, oracle
from shiftapprox.errors import ResolutionError
from shiftapprox.generator import parse_generator_spec, sampled_generator
from shiftapprox.numerics import (NUMPY_TEXT_VALUES, Grid, SampledFunction,
                                  SampledSpectrum, csv_text, read_samples_csv,
                                  write_samples_csv)
from shiftapprox.shiftspace import project
from shiftapprox.spectral import periodize
from shiftapprox.zak import phi_field

from helpers import fixed_gaussian_samples, reference_csv, run_cli

SQRT_PI = math.sqrt(math.pi)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _rows(output: str) -> List[str]:
    assert output.endswith("\n")
    return output[:-1].split("\n")


def _split_project(output: str) -> Tuple[List[List[str]], List[List[str]], str]:
    lines = _rows(output)
    assert lines[0] == "j,re,im"
    k = lines.index("y,re,im")
    coeff = [r.split(",") for r in lines[1:k]]
    zeta = [r.split(",") for r in lines[k + 1:-1]]
    return coeff, zeta, lines[-1]


_TAIL = re.compile(r"\Anorm_sq=(\S+) error_sq=(\S+) guard_mass=(\S+)\Z")


# ---------------------------------------------------------------- usage errors

@pytest.mark.parametrize("argv", [
    [],
    ["dfun"],
    ["bogus", "--gen", "sinc"],
    ["dfun", "--gen", "sinc", "--sigma", "0"],
    ["dfun", "--gen", "sinc", "--sigma=-1"],
    ["project", "--gen", "sinc", "--f", "gauss:width=1", "--rho", "1.5"],
    ["project", "--gen", "sinc", "--f", "gauss:width=1", "--rho=-0.2"],
    ["dfun", "--gen", "sinc", "--tol", "0"],
    ["dfun", "--gen", "sinc", "--dgrid", "7"],
    ["zak", "--gen", "sinc", "--dgrid", "128"],
    ["validate", "--gen", "sinc", "--dgrid", "64"],
    ["project", "--gen", "sinc", "--f", "gauss:width=1", "--jrange", "0"],
    ["dfun", "--gen", "sinc", "--sweep", "rho=1"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "jrange=8"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "sigma="],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "rho=a,b"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1",
     "--sweep", "sigma=1,2", "--rho", "0.5"],
    ["besterr", "--gen", "bspline:m=2", "--f", "gauss:width=1",
     "--rho", "0.5", "--sweep", "rho=0.25,1"],
    ["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1",
     "--sweep", "rho=1"],
    # flags a command does not read, and J values that are not integers
    ["dfun", "--gen", "sinc", "--rho", "0.5"],
    ["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1", "--jrange", "4"],
    ["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1",
     "--sweep", "jrange=4.5"],
    ["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1",
     "--sweep", "jrange=4,-8"],
    # a period grid needs an odd node count, for every command
    ["dfun", "--gen", "sinc", "--dgrid", "64"],
    ["riesz", "--gen", "bspline:m=3", "--dgrid", "32"],
    ["project", "--gen", "sinc", "--f", "gauss:width=1", "--dgrid", "256"],
    ["besterr", "--gen", "bspline:m=2", "--f", "gauss:width=1",
     "--dgrid", "256"],
    ["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1",
     "--dgrid", "256"],
    # swept radii and sigmas are held to the rules of --rho and --sigma
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "rho=0"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "rho=-0.1"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "rho=nan"],
    ["besterr", "--gen", "gauss:width=1", "--f", "gauss:width=1",
     "--sweep", "sigma=0,1"],
    # sigma, each swept sigma and tol are finite
    ["dfun", "--gen", "sinc", "--sigma", "inf"],
    ["zak", "--gen", "bspline:m=2", "--sigma", "inf"],
    ["project", "--gen", "sinc", "--f", "gauss:width=1", "--sigma", "inf"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sigma=inf"],
    ["besterr", "--gen", "gauss:width=1", "--f", "gauss:width=1",
     "--sweep", "sigma=1,inf"],
    ["riesz", "--gen", "bspline:m=1", "--tol", "inf"],
])
def test_usage_errors_exit_2(argv, capsys):
    rc, out = run_cli(argv)
    capsys.readouterr()
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize("argv,name", [
    (["dfun", "--gen", "sinc", "--sigma", "1e308"], "sigma=1e+308"),
    (["project", "--gen", "sinc", "--f", "gauss:width=1", "--sigma", "1e308"],
     "sigma=1e+308"),
    (["zak", "--gen", "bspline:m=1", "--sigma", "1e308"], "sigma=1e+308"),
    (["riesz", "--gen", "gauss:width=1e308"], "width=1e+308"),
    (["dfun", "--gen", "bspline:m=2", "--sigma", "1e-308"], "sigma=1e-308"),
    (["besterr", "--gen", "bspline:m=1", "--f", "gauss:width=1e-308"],
     "width=1e-308"),
    (["dfun", "--gen", "bspline:m=0", "--sigma", "1e308"], "sigma=1e+308"),
])
def test_parameters_past_the_double_range_exit_2_with_one_line(argv, name, capsys):
    # a sigma or width whose generator constants overflow a double is a
    # usage error naming the parameter, not a traceback
    rc, out = run_cli(argv + ["--dgrid", "9"])
    err = capsys.readouterr().err
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err, err


@pytest.mark.parametrize("argv", [
    ["zak", "--gen", "gauss:width=1", "--sigma", "1e308"],
    ["validate", "--gen", "gauss:width=1", "--sigma", "1e308"],
    ["compare", "--gen", "gauss:width=1", "--f", "gauss:width=1",
     "--sigma", "1e308"],
])
def test_sigma_at_the_top_of_the_double_range_exits_1_with_one_line(argv, capsys):
    # a generator whose constants do not read sigma passes the spec check;
    # the shifts by pi/sigma that reach its time window, and the period's
    # span, pass the double range: one error line, where an OverflowError
    # traceback was
    rc, out = run_cli(argv + ["--dgrid", "9"])
    err = capsys.readouterr().err
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("gen", ["sinc", "gauss:width=1"])
def test_sigma_at_the_bottom_of_the_double_range_exits_1_at_once(gen):
    # pi/1e-308 overflows a double: the oracle's window of shift multiples
    # held none, and its step halved without end
    argv = ["compare", "--gen", gen, "--f", "gauss:width=1", "--sigma", "1e-308",
            "--sweep", "jrange=1", "--dgrid", "9"]
    src = str(Path(shiftapprox.__file__).resolve().parent.parent)
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "shiftapprox", *argv],
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=env_path))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (b"error: sigma=1e-308: the shift step pi/sigma "
                           b"overflows a double\n")


def test_validate_refuses_a_check_it_cannot_grade(capsys):
    # at sigma = 1e-300 the cell integral of |Phi|^2 overflows a double:
    # the table printed `phi1_norm,,,fail`, a row with neither residual
    # nor budget
    rc, out = run_cli(["validate", "--gen", "gauss:width=1", "--sigma", "1e-300",
                       "--dgrid", "9"])
    err = capsys.readouterr().err
    assert (rc, out) == (1, "")
    assert err.startswith("error: phi1_norm ") and err.count("\n") == 1, err


def test_compare_refuses_a_spectrum_with_one_line(tmp_path, capsys):
    # the oracle integrates against the shifts in time, which a spectrum
    # file cannot give it
    path = tmp_path / "spectrum.csv"
    y = np.linspace(-3.0, 3.0, 193)
    write_samples_csv(str(path), SampledSpectrum(Grid(-3.0, 3.0, 193),
                                                 np.exp(-y * y) + 0j))
    rc, out = run_cli(["compare", "--gen", "bspline:m=2", "--f", f"file:{path}",
                       "--dgrid", "257"])
    assert (rc, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: compare needs time-domain samples of f (the oracle integrates "
        "against the shifts in time); provide a time-sampled CSV or a "
        "generator spec with a time-domain form\n")


_EDGE_COMMANDS = {
    "dfun": [], "riesz": [], "zak": [], "validate": [],
    "project": ["--f", "gauss:width=1", "--jrange", "1"],
    "besterr": ["--f", "gauss:width=1"],
    "compare": ["--f", "gauss:width=1", "--sweep", "jrange=1"],
}


@pytest.mark.parametrize("command,gen,sigma", [
    (command, gen, sigma) for command in _EDGE_COMMANDS
    for gen in ("gauss:width=1", "bspline:m=1", "sinc")
    for sigma in ("1e300", "1e-300", "1e200", "1e-200", "1e155", "2e-308",
                  "1e-308", "5e-324")])
def test_extreme_sigma_leaks_no_runtime_warning(command, gen, sigma, capsys):
    # a Gaussian's square past the double range is inf, whose exp is the 0
    # printed; a B-spline whose constants overflow is refused by exception
    argv = [command, "--gen", gen, "--sigma", sigma, "--dgrid", "9",
            *_EDGE_COMMANDS[command]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_cli(argv)
    err = capsys.readouterr().err
    assert rc in (0, 1, 2), err
    if gen == "bspline:m=1" and float(sigma) >= 1e155:
        assert (rc, out) == (2, "") and "out of range" in err, err


@pytest.mark.parametrize("spec", [
    "bspline",              # missing m
    "mystery:a=1",          # unknown family
    "bspline:m=1,bogus=3",  # stray parameter
    "bspline:m",            # parameter without '='
    # values out of range
    "gauss:width=-1", "bspline:m=11", "bspline:m=1,sigma=0", "sinc:sigma=-2",
    "bspline:m=1,m=3",      # repeated parameter
    "bspline:foo=2",        # stray parameter and missing m
])
def test_bad_generator_spec_exits_2(spec, capsys):
    rc, out = run_cli(["dfun", "--gen", spec, "--dgrid", "65"])
    capsys.readouterr()
    assert rc == 2
    assert out == ""


# ------------------------------------------------------------ tables per command

def test_dfun_box_density_is_flat():
    rc, out = run_cli(["dfun", "--gen", "bspline:m=0", "--dgrid", "257"])
    assert rc == 0
    lines = _rows(out)
    assert lines[0] == "y,D"
    assert len(lines) == 1 + 257
    ys, ds = [], []
    for row in lines[1:]:
        y, d = row.split(",")
        ys.append(float(y))
        ds.append(float(d))
    assert ys[0] == -1.0 and ys[-1] == 1.0
    assert all(abs(d - 1.0) <= 1e-6 for d in ds)


def test_dfun_on_time_samples_prints_the_sampled_generators_density(tmp_path):
    # --gen file: with x,re,im samples is the library's quintic spline
    # through them, whose D is the exact Poisson form
    path = tmp_path / "gen-x.csv"
    grid_x = Grid(-8.0, 8.0, 257)
    x = grid_x.nodes()
    write_samples_csv(str(path), SampledFunction(
        grid=grid_x, values=np.exp(-0.5 * x * x) + 0.0j))
    rc, out = run_cli(["dfun", "--gen", f"file:{path}", "--dgrid", "65"])
    assert rc == 0
    gen = sampled_generator(read_samples_csv(str(path)))
    grid = Grid(-1.0, 1.0, 65)
    want = periodize(gen, 1.0, grid, tol=1e-8)
    assert (want.truncation_order, want.tail_bound) == (5, 0.0)
    assert out == "y,D\n" + csv_text(grid.nodes(), want.values) + "\n"


def _fixed_gaussian_file(path: Path) -> str:
    """`fixed_gaussian_samples` written to path; the spec."""
    write_samples_csv(str(path), fixed_gaussian_samples())
    return f"file:{path}"


def test_validate_passes_on_a_time_sample_generator(tmp_path):
    spec = _fixed_gaussian_file(tmp_path / "gen-x.csv")
    rc, out = run_cli(["validate", "--gen", spec, "--dgrid", "33"])
    assert rc == 0
    rows = [r.split(",") for r in _rows(out)[1:]]
    assert len(rows) == 6
    for name, residual, _, status in rows:
        assert status == "ok" and float(residual) <= 1e-12, name


def test_compare_agrees_on_a_time_sample_generator(tmp_path):
    # the oracle's Gram row and the formula's D read the same spline
    spec = _fixed_gaussian_file(tmp_path / "gen-x.csv")
    rc, out = run_cli(["compare", "--gen", spec, "--f", "gauss:width=1.3"])
    assert rc == 0
    rows = [r.split(",") for r in _rows(out)[1:]]
    assert [int(r[0]) for r in rows] == [8, 16, 32, 64]
    assert all(abs(float(r[3])) <= 1e-12 for r in rows)


def test_a_signal_spec_reads_one_grammar(tmp_path):
    # --f " file:..." is the file, as --gen " file:..." is: both spellings
    # print the same bytes
    spec = _fixed_gaussian_file(tmp_path / "f-x.csv")
    for argv in (["besterr", "--gen", "bspline:m=2", "--dgrid", "257"],
                 ["compare", "--gen", "bspline:m=2"]):
        rc, want = run_cli(argv + ["--f", spec])
        assert rc in (0, 1) and want
        assert run_cli(argv + ["--f", f" {spec} "]) == (rc, want)


def test_riesz_line_hat():
    rc, out = run_cli(["riesz", "--gen", "bspline:m=1", "--dgrid", "257"])
    assert rc == 0
    m = re.fullmatch(r"A=(\S+) B=(\S+) class=(\S+)\n", out)
    assert m is not None
    lower, upper = float(m.group(1)), float(m.group(2))
    # extrema come from every node, the seam included, where D takes its
    # least value 1/3; D is exact (Poisson form), so neither bound is
    # widened by a tail
    assert abs(lower - 1.0 / 3.0) <= 1e-15
    assert abs(upper - 1.0) <= 1e-15
    assert m.group(3) == "riesz"


def test_riesz_line_box_is_exact():
    # the box's D is 1 by Poisson duality, with no tail to widen the bounds
    rc, out = run_cli(["riesz", "--gen", "bspline:m=0", "--tol", "1e-12",
                       "--dgrid", "257"])
    assert rc == 0
    assert out == "A=1 B=1 class=riesz\n"


def test_zak_grid_shape():
    rc, out = run_cli(["zak", "--gen", "bspline:m=1", "--dgrid", "9"])
    assert rc == 0
    lines = _rows(out)
    assert lines[0] == "x,y,re,im"
    assert len(lines) == 1 + 81
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] == 0.0 and first[1] == -1.0
    assert abs(last[0] - math.pi) <= 1e-15 and last[1] == 1.0
    for row in lines[1:]:
        parts = row.split(",")
        assert len(parts) == 4
        assert all(math.isfinite(float(p)) for p in parts)
    # the column formatter against a node-by-node loop over the field
    xg = Grid(start=0.0, stop=math.pi, count=9)
    yg = Grid(start=-1.0, stop=1.0, count=9)
    field = phi_field(parse_generator_spec("bspline:m=1"), 1.0, xg, yg)
    assert lines[1:] == [f"{x:.17g},{y:.17g},{v.real:.17g},{v.imag:.17g}"
                         for x, row in zip(xg.nodes(), field.values)
                         for y, v in zip(yg.nodes(), row)]


@pytest.mark.parametrize("spec", ["bspline:m=2", "sinc:sigma=1"],
                         ids=["time_sum", "freq_sum"])
def test_zak_rows_match_four_formatted_columns(spec):
    # the axes are formatted once each and re, im once per distinct
    # magnitude; the rows must equal four columns formatted value by value
    rc, out = run_cli(["zak", "--gen", spec, "--dgrid", "17"])
    assert rc == 0
    xg = Grid(start=0.0, stop=math.pi, count=17)
    yg = Grid(start=-1.0, stop=1.0, count=17)
    values = phi_field(parse_generator_spec(spec), 1.0, xg, yg).values.ravel()
    assert out == "x,y,re,im\n" + reference_csv(
        np.repeat(xg.nodes(), 17).tolist(), np.tile(yg.nodes(), 17).tolist(),
        values.real.tolist(), values.imag.tolist()) + "\n"


def test_zak_signs_an_unmirrored_mesh_value_by_value(monkeypatch):
    # random values share magnitudes under both signs, but not along the
    # y mirror; signed zeros keep their sign and a nan prints without one
    d = 9
    rng = np.random.default_rng(11)
    magnitudes = rng.choice([0.0, 0.5, 1.0 / 3.0, 5e-324, 1e17, np.inf, np.nan],
                            size=(2, d * d))
    signs = rng.choice([-1.0, 1.0], size=(2, d * d))
    re, im = np.copysign(magnitudes, signs)
    values = np.empty((d, d), dtype=np.complex128)
    values.real, values.imag = re.reshape(d, d), im.reshape(d, d)
    assert np.any(np.signbit(values.real) & (values.real == 0))
    assert np.any(np.signbit(values.imag) & np.isnan(values.imag))
    assert not np.array_equal(values[:, ::-1], np.conj(values))
    monkeypatch.setattr(cli, "phi_field",
                        lambda *args, **kwargs: SimpleNamespace(values=values))
    rc, out = run_cli(["zak", "--gen", "bspline:m=1", "--dgrid", str(d)])
    assert rc == 0
    xg = Grid(start=0.0, stop=math.pi, count=d)
    yg = Grid(start=-1.0, stop=1.0, count=d)
    assert out == "x,y,re,im\n" + reference_csv(
        np.repeat(xg.nodes(), d).tolist(), np.tile(yg.nodes(), d).tolist(),
        re.tolist(), im.tolist()) + "\n"


def _tabulated_gaussian(path: Path) -> str:
    y = np.linspace(-4.0, 4.0, 801)
    write_samples_csv(str(path), SampledSpectrum(
        grid=Grid(-4.0, 4.0, 801),
        values=np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)))
    return f"file:{path}"


@pytest.mark.parametrize("case", ["tabulated", "sinc_on_a_finer_lattice"])
def test_validate_skips_the_pairing_without_a_time_extent(case, tmp_path):
    # a spectral support alone bounds no autocorrelation lag: a linearly
    # interpolated spectrum has lag images far out, and the sinc's D on
    # the sigma = 2 lattice has a jump, so its lags decay like 1/d
    if case == "tabulated":
        argv = ["--gen", _tabulated_gaussian(tmp_path / "spec.csv")]
    else:
        argv = ["--gen", "sinc:sigma=1", "--sigma", "2"]
    rc, out = run_cli(["validate"] + argv)
    assert rc == 0
    assert "phi4_pairing,,0,skipped" in _rows(out)


def test_validate_skips_a_refused_spectral_sum():
    # a hat at an irrational sigma_B: Phi3's spectral sum needs more terms
    # than the lattice cap allows and raises, which the table reports as a
    # skipped check rather than an exit status of 1
    rc, out = run_cli(["validate", "--gen", "bspline:m=1,sigma=1.4142135623730951",
                       "--sigma", "1", "--dgrid", "33"])
    assert rc == 0
    assert "phi3_representations,,0,skipped" in _rows(out)


def test_validate_table_passes():
    rc, out = run_cli(["validate", "--gen", "bspline:m=1", "--dgrid", "129"])
    assert rc == 0
    lines = _rows(out)
    assert lines[0] == "check,residual,budget,status"
    assert len(lines) > 1
    for row in lines[1:]:
        name, residual, budget, status = row.split(",")
        assert name
        assert status in ("ok", "skipped")
        # empty residual/budget fields are the encoding for non-finite
        for field in (residual, budget):
            if field:
                assert math.isfinite(float(field))


def test_validate_reads_a_degree_ten_spline_to_rounding():
    # Phi1 compares the time sum of |Phi|^2, which reads N_11 at every mesh
    # point, with ||B||^2 from N_22: the piece tables keep both within one
    # ulp, where a truncated-power sum read 2.2e-13
    rc, out = run_cli(["validate", "--gen", "bspline:m=10", "--dgrid", "33"])
    assert rc == 0
    name, residual, _, status = _rows(out)[1].split(",")
    assert name == "phi1_norm" and status == "ok"
    assert float(residual) <= 1e-15


def test_validate_skips_conjugation_for_an_off_centre_spectrum(tmp_path):
    # a real spectrum on [0, 4] is not Hermitian (y -> -y leaves the grid):
    # the conjugation symmetry does not apply, so it is skipped, not failed
    grid = Grid(start=0.0, stop=4.0, count=401)
    y = grid.nodes()
    path = tmp_path / "offcentre.csv"
    write_samples_csv(str(path), SampledSpectrum(
        grid=grid, values=np.exp(-4.0 * (y - 2.0) ** 2) + 0.0j))
    _, out = run_cli(["validate", "--gen", f"file:{path}", "--dgrid", "33"])
    status = {row.split(",")[0]: row.split(",")[3] for row in _rows(out)[1:]}
    assert status["phi2_conjugation"] == "skipped"
    assert status["phi2_periodic"] == "ok"


def test_project_output_blocks_and_energy_split():
    rc, out = run_cli(["project", "--gen", "bspline:m=2",
                       "--f", "gauss:width=1", "--dgrid", "257",
                       "--jrange", "8"])
    assert rc == 0
    coeff, zeta, tail = _split_project(out)
    assert [int(r[0]) for r in coeff] == list(range(-8, 9))
    assert len(zeta) == 257
    for r in coeff + zeta:
        assert len(r) == 3
        assert math.isfinite(float(r[1])) and math.isfinite(float(r[2]))
    m = _TAIL.fullmatch(tail)
    assert m is not None
    norm_sq, error_sq, guard = (float(g) for g in m.groups())
    assert norm_sq >= 0 and error_sq >= 0 and guard == 0.0
    # the two parts must reassemble the signal energy ||f||^2 = sqrt(pi)
    assert abs(norm_sq + error_sq - SQRT_PI) <= 1e-6 * SQRT_PI
    # the degree-2 spline is supported on [-3 pi, 0] and even about its
    # midpoint, so an even real signal gives real coefficients with the
    # reflected symmetry c_j = c_{3-j} (up to the 257-node quadrature,
    # which resolves the j and 3-j oscillations unequally)
    by_j = {int(r[0]): complex(float(r[1]), float(r[2])) for r in coeff}
    for j in range(-5, 9):
        assert abs(by_j[j] - by_j[3 - j]) <= 1e-6
        assert abs(by_j[j].imag) <= 1e-9


def test_project_signal_from_csv_file(tmp_path):
    path = tmp_path / "gauss.csv"
    n = 2049
    lines = ["x,re,im"]
    for i in range(n):
        x = -8.0 + 16.0 * i / (n - 1)
        lines.append(f"{x:.17g},{math.exp(-0.5 * x * x):.17g},0")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc, out = run_cli(["project", "--gen", "bspline:m=1",
                       "--f", f"file:{path}", "--dgrid", "257",
                       "--jrange", "4"])
    assert rc == 0
    coeff, zeta, tail = _split_project(out)
    assert [int(r[0]) for r in coeff] == list(range(-4, 5))
    norm_sq, error_sq, _ = (float(g) for g in _TAIL.fullmatch(tail).groups())
    assert abs(norm_sq + error_sq - SQRT_PI) <= 1e-5 * SQRT_PI


def test_project_missing_file_exits_1(tmp_path, capsys):
    rc, out = run_cli(["project", "--gen", "bspline:m=1",
                       "--f", f"file:{tmp_path / 'absent.csv'}"])
    capsys.readouterr()
    assert rc == 1
    assert out == ""


def test_project_malformed_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n1,2\n", encoding="ascii")
    rc, out = run_cli(["project", "--gen", "bspline:m=1",
                       "--f", f"file:{path}"])
    capsys.readouterr()
    assert rc == 1
    assert out == ""


@pytest.mark.parametrize("flag, header", [("--f", "x,re,im"), ("--gen", "y,re,im")])
def test_header_only_csv_reports_one_error(tmp_path, flag, header):
    # run as its own process, where a warning numpy printed would reach
    # stderr beside the package's error
    path = tmp_path / "empty.csv"
    path.write_text(header + "\n", encoding="ascii")
    argv = ["besterr", "--gen", "bspline:m=1", "--f", "gauss:width=1"]
    argv[argv.index(flag) + 1] = f"file:{path}"
    src = str(Path(shiftapprox.__file__).resolve().parent.parent)
    env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "shiftapprox", *argv],
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=env_path))
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr == b"error: CSV needs at least two rows of three columns\n"


def test_project_non_ascii_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x,re,im\n0,1,0\n1,2\xc3,0\n")
    rc, out = run_cli(["project", "--gen", "bspline:m=1",
                       "--f", f"file:{path}"])
    err = capsys.readouterr().err
    assert rc == 1
    assert out == ""
    assert "latin.csv" in err and "offset 17" in err


# ------------------------------------------------------------------- besterr

def test_besterr_single_row_uses_rho():
    argv = ["besterr", "--gen", "sinc", "--f", "gauss:width=1",
            "--dgrid", "1025"]
    rc, out = run_cli(argv + ["--rho", "0.5"])
    assert rc == 0
    lines = _rows(out)
    assert lines[0] == "param,error_sq"
    assert len(lines) == 2
    param, err = (float(v) for v in lines[1].split(","))
    assert param == 0.5
    # the sinc space at band radius rho captures exactly the in-band mass
    assert abs(err - SQRT_PI * math.erfc(0.5)) <= 1e-6 * SQRT_PI


def test_besterr_rho_sweep_is_monotone():
    rc, out = run_cli(["besterr", "--gen", "sinc", "--f", "gauss:width=1",
                       "--dgrid", "1025", "--sweep", "rho=0.25,0.5,1.0"])
    assert rc == 0
    lines = _rows(out)
    assert len(lines) == 4
    rows = [tuple(float(v) for v in r.split(",")) for r in lines[1:]]
    assert [r[0] for r in rows] == [0.25, 0.5, 1.0]
    errs = [r[1] for r in rows]
    assert errs[0] >= errs[1] >= errs[2] > 0
    for rho, err in rows:
        assert abs(err - SQRT_PI * math.erfc(rho)) <= 1e-6 * SQRT_PI


def test_besterr_sigma_sweep():
    rc, out = run_cli(["besterr", "--gen", "sinc", "--f", "gauss:width=1",
                       "--dgrid", "1025", "--sweep", "sigma=1,2"])
    assert rc == 0
    rows = [tuple(float(v) for v in r.split(",")) for r in _rows(out)[1:]]
    assert [r[0] for r in rows] == [1.0, 2.0]
    for sigma, err in rows:
        assert abs(err - SQRT_PI * math.erfc(sigma)) <= 1e-6 * SQRT_PI


@pytest.mark.parametrize("f_spec", ["gauss:width=1", "bspline:m=0"])
def test_besterr_rho_sweep_rows_equal_single_runs(f_spec):
    # the sweep folds f once; each row must still be the single-rho answer
    base = ["besterr", "--gen", "bspline:m=1", "--f", f_spec, "--dgrid", "257"]
    rc, out = run_cli(base + ["--sweep", "rho=0.25,0.5,1.0"])
    assert rc == 0
    singles = []
    for rho in ("0.25", "0.5", "1.0"):
        rc_one, one = run_cli(base + ["--rho", rho])
        assert rc_one == 0
        assert _rows(one)[0] == "param,error_sq"
        singles.extend(_rows(one)[1:])
    assert _rows(out) == ["param,error_sq"] + singles


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 2 and 7: the box f against the hat prints "
    "4.5798698614875066, short of the exact 4.5996108782"))
def test_besterr_of_the_box_against_the_hat_is_exact():
    rc, out = run_cli(["besterr", "--gen", "bspline:m=1", "--f", "bspline:m=0",
                       "--sigma", "1.0", "--rho", "1.0"])
    assert rc == 0
    value = float(_rows(out)[1].split(",")[1])
    assert value == pytest.approx(4.5996108782, rel=1e-9)


@pytest.mark.parametrize("sigma", [
    0.1, 0.05,
    pytest.param(0.02, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 9 and 11: f is cut at the 64-window cap of "
        "shiftspace._signal_windows; prints 1.7319919640019457 against "
        "1.7324591835989103"))),
    pytest.param(0.01, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 9 and 11: f is cut at the 64-window cap of "
        "shiftspace._signal_windows; prints 1.6317479868093983 against "
        "1.7524545175521828, 7% low")))])
def test_besterr_of_a_gaussian_against_the_band_is_its_energy_beyond(sigma):
    # the sinc shift space at sigma is the band [-sigma, sigma], so the best
    # error of exp(-x**2 / 2) is its energy beyond: sqrt(pi) erfc(sigma).  At
    # small sigma the 64 windows of 2 sigma an analytic f is folded over stop
    # short of its spectrum, and what lies beyond is dropped without a word
    rc, out = run_cli(["besterr", "--gen", "sinc", "--f", "gauss:width=1",
                       "--dgrid", "257", "--sigma", str(sigma)])
    assert rc == 0
    value = float(_rows(out)[1].split(",")[1])
    assert value == pytest.approx(math.sqrt(math.pi) * math.erfc(sigma), rel=1e-9)


def test_besterr_on_time_samples_recovers_no_coefficients(tmp_path):
    # the 257-node grid cannot resolve the default --jrange 64, which
    # besterr never needs because it prints no coefficients
    path = tmp_path / "box.csv"
    write_samples_csv(str(path), oracle._time_samples(
        parse_generator_spec("bspline:m=0"), parse_generator_spec("bspline:m=1"), 1.0))
    rc, out = run_cli(["besterr", "--gen", "bspline:m=1", "--f", f"file:{path}",
                       "--dgrid", "257", "--rho", "0.5"])
    assert rc == 0
    gen, grid = parse_generator_spec("bspline:m=1"), Grid(-1.0, 1.0, 257)
    signal = read_samples_csv(str(path))
    with pytest.raises(ResolutionError):
        project(signal, gen, 1.0, 0.5, grid=grid)
    want = project(signal, gen, 1.0, 0.5, grid=grid, j_range=8)
    assert _rows(out) == ["param,error_sq", f"0.5,{want.error_sq:.17g}"]


def test_besterr_sigma_sweep_builds_a_file_generator_once(tmp_path, monkeypatch):
    # time samples as the generator: their spline does not depend on
    # sigma, so a four-sigma sweep builds it once, and each row is the row
    # of a run at that sigma alone.  The single runs have built the one
    # generator of the parsed file: the sweep starts from an empty table
    path = tmp_path / "gen-x.csv"
    x = np.linspace(-8.0, 8.0, 513)
    write_samples_csv(str(path), SampledFunction(
        grid=Grid(-8.0, 8.0, 513), values=np.exp(-0.5 * x * x) + 0j))
    base = ["besterr", "--gen", f"file:{path}", "--f", "gauss:width=1",
            "--dgrid", "257"]
    singles = []
    for sigma in ("0.5", "1", "1.5", "2"):
        rc_one, one = run_cli(base + ["--sigma", sigma])
        assert rc_one == 0
        singles.extend(_rows(one)[1:])
    calls = []
    build = generator.sampled_generator

    def counting(samples, **kwargs):
        calls.append(samples.grid)
        return build(samples, **kwargs)

    monkeypatch.setattr(generator, "sampled_generator", counting)
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    monkeypatch.setattr(numerics, "_PATHS", {})
    rc, out = run_cli(base + ["--sweep", "sigma=0.5,1,1.5,2"])
    assert rc == 0
    assert len(calls) == 1
    assert _rows(out) == ["param,error_sq"] + singles


def test_time_samples_too_coarse_for_three_windows_exit_1(tmp_path, capsys):
    # dx = 1 resolves |y| <= 0.45 pi < 3 sigma: the transform would fold
    # aliased copies of the spectrum in as energy
    path = tmp_path / "coarse-x.csv"
    x = np.linspace(-10.0, 10.0, 21)
    write_samples_csv(str(path), SampledFunction(
        grid=Grid(-10.0, 10.0, 21), values=np.exp(-0.5 * x * x) + 0j))
    rc, out = run_cli(["besterr", "--gen", "bspline:m=1", "--f", f"file:{path}",
                       "--sigma", "1"])
    assert rc == 1 and out == ""
    assert "dx=1 " in capsys.readouterr().err


def test_besterr_sigma_sweep_parses_each_file_once(tmp_path, monkeypatch):
    # a file's samples do not depend on sigma: the sweep reads both files
    # at every sigma, and the parsed-file cache parses each of them once,
    # whatever the number of sigmas
    gen_path, f_path = tmp_path / "gen.csv", tmp_path / "f.csv"
    _tabulated_gaussian(gen_path)
    gauss = parse_generator_spec("gauss:width=1")
    write_samples_csv(str(f_path), oracle._time_samples(gauss, gauss, 1.0))
    argv = ["besterr", "--gen", f"file:{gen_path}", "--f", f"file:{f_path}",
            "--dgrid", "65", "--sweep", "sigma=1,1.5,2"]
    _, want = run_cli(argv)
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    monkeypatch.setattr(numerics, "_PATHS", {})
    headers = []
    parse = numerics._parse_samples

    def counting(header, body):
        headers.append(header)
        return parse(header, body)

    monkeypatch.setattr(numerics, "_parse_samples", counting)
    rc, out = run_cli(argv)
    assert rc == 0
    assert sorted(headers) == ["x,re,im", "y,re,im"]
    assert out == want and len(_rows(out)) == 4


def test_besterr_sigma_sweep_hashes_a_settled_file_once(tmp_path, monkeypatch):
    # an unchanged spectrum file, older than the racy window, is read again
    # at every sigma by its fstat signature: its bytes are hashed once, and
    # each row is the row of a run at that sigma alone
    f_spec = _tabulated_gaussian(tmp_path / "f.csv")
    base = ["besterr", "--gen", "bspline:m=2", "--f", f_spec, "--dgrid", "129"]
    sigmas = ("0.5", "0.75", "1", "1.25", "1.5", "2", "2.5", "3")
    singles = []
    for sigma in sigmas:
        rc_one, one = run_cli(base + ["--sigma", sigma])
        assert rc_one == 0
        singles.extend(_rows(one)[1:])
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    monkeypatch.setattr(numerics, "_PATHS", {})
    monkeypatch.setattr(numerics, "_RACY_NS", -3600 * 10 ** 9)
    digests = []

    def counting(raw):
        digests.append(raw)
        return hashlib.sha256(raw)

    monkeypatch.setattr(numerics, "hashlib", SimpleNamespace(sha256=counting))
    rc, out = run_cli(base + ["--sweep", "sigma=" + ",".join(sigmas)])
    assert rc == 0
    assert len(digests) == 1
    assert _rows(out) == ["param,error_sq"] + singles


def test_besterr_swept_rho_out_of_range_exits_2(capsys):
    # one radius past sigma makes the whole sweep a usage error, as --rho 1.5
    rc, out = run_cli(["besterr", "--gen", "sinc", "--f", "gauss:width=1",
                       "--dgrid", "1025", "--sweep", "rho=0.5,1.5"])
    assert "rho=1.5" in capsys.readouterr().err
    assert rc == 2
    assert out == ""


# ------------------------------------------------------------------- compare

def test_compare_table_consistent(capsys):
    rc, out = run_cli(["compare", "--gen", "bspline:m=1",
                       "--f", "gauss:width=1", "--dgrid", "1025",
                       "--sweep", "jrange=2,4"])
    capsys.readouterr()
    assert rc == 0
    lines = _rows(out)
    assert lines[0] == "j_range,oracle_residual,formula_error,gap"
    assert len(lines) == 3
    rows = [tuple(float(v) for v in r.split(",")) for r in lines[1:]]
    assert [int(r[0]) for r in rows] == [2, 4]
    # richer truncations approximate better, and never beat the exact error
    assert rows[0][1] >= rows[1][1] >= rows[1][2] > 0
    assert rows[0][2] == rows[1][2]
    assert rows[0][3] >= 0 and rows[1][3] >= 0


def test_compare_formula_error_is_the_besterr_row(tmp_path):
    # compare's formula side folds on the --dgrid period grid, as besterr
    # does at rho = sigma: time samples, an analytic f and the box spline,
    # whose slow spectrum takes 64 windows, print the same bytes in both
    samples = _fixed_gaussian_file(tmp_path / "f-x.csv")
    for gen, f_spec, sigma in (("bspline:m=3", samples, "1"),
                               ("bspline:m=2", samples, "2"),
                               ("bspline:m=1", "gauss:width=1", "1"),
                               ("bspline:m=1", "bspline:m=0", "1")):
        common = ["--gen", gen, "--f", f_spec, "--sigma", sigma,
                  "--dgrid", "257"]
        rc, out = run_cli(["compare"] + common + ["--sweep", "jrange=16"])
        assert rc == 0
        rc_best, best = run_cli(["besterr"] + common + ["--rho", sigma])
        assert rc_best == 0
        formula_error = _rows(out)[1].split(",")[2]
        assert formula_error == _rows(best)[1].split(",")[1]
        if f_spec == "bspline:m=0":
            # 4.5798698614875066 on the 4097 nodes compare used to fold on
            assert formula_error == "4.5798698614874933"


def test_compare_rejects_spectrum_signal(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    path.write_text("y,re,im\n-1,1,0\n0,1,0\n1,1,0\n", encoding="ascii")
    rc, out = run_cli(["compare", "--gen", "bspline:m=1",
                       "--f", f"file:{path}"])
    capsys.readouterr()
    assert rc == 1
    assert out == ""


def test_compare_samples_f_on_the_knots_of_a_finer_spline(capsys):
    # sigma_B = 2 on sigma = 1 puts B's knots at half steps of pi/sigma; the
    # oracle's samples of f take them as Simpson panel edges, where a grid
    # between them put the oracle 2.5e-5 below the formula (exit 1)
    rc, out = run_cli(["compare", "--gen", "bspline:m=1,sigma=2",
                       "--sigma", "1", "--f", "gauss:width=1"])
    assert capsys.readouterr().err == ""
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [8, 16, 32, 64]
    assert all(abs(float(r[3])) <= 1e-10 for r in rows)


def test_compare_names_the_missing_time_window_of_f(capsys):
    # the sinc declares no time extent: the oracle has no window to sample
    # f on, and the message says so of f rather than of a generator's shifts
    rc, out = run_cli(["compare", "--gen", "bspline:m=1", "--f", "sinc"])
    err = capsys.readouterr().err
    assert rc == 1
    assert out == ""
    assert err == ("error: signal 'sinc:sigma=1' has no time window to sample "
                   "for the oracle: it declares neither compact support nor "
                   "a time tail radius\n")


# ------------------------------------------------------------- reproducibility

def test_repeat_runs_byte_identical():
    argv = ["project", "--gen", "bspline:m=2", "--f", "gauss:width=1",
            "--dgrid", "257", "--jrange", "8"]
    rc_a, out_a = run_cli(argv)
    rc_b, out_b = run_cli(argv)
    assert rc_a == rc_b == 0
    assert out_a == out_b
    assert out_a


# stdout SHA-256 of one small run per command, recorded with the per-row
# str.format writer that `numerics.csv_text` replaced: a change meant to
# leave the output alone must keep these bytes (numpy 2.4, OpenBLAS, x86-64).
# zak_time_sum and validate were recorded again when Phi's time sum on a mesh
# became a matrix product and the cardinal B-spline was read on its near
# half: values moved by at most 1.1e-16.  project, besterr and compare were
# recorded again when an analytic f came to be folded over the windows its
# envelopes and the generator's need (3 here, 4 by the earlier doubling rule)
# and the oracle's Gram solve moved to numpy: error_sq went from
# 0.46723506387619929 to 0.46723506387619351 (dgrid 33), compare's formula
# error from 0.46737514786188794 to 0.46737514786188217 and its J = 8 oracle
# residual from 0.46737753931759718 to 0.46737753931759696.  compare was
# recorded again when the oracle came to factor the Gram in order of |j| by
# elementwise Cholesky updates: its J = 4 residual went from
# 0.46939962255326395 to 0.46939962255326417.  riesz, project and besterr
# were recorded again when D's seam nodes came to hold its limit from inside
# the period and riesz to take its extrema over every node: riesz's A went
# from 0.11759750948855609 (the nodes next to the seam) to 0.11713894561375181
# = D(sigma), and error_sq at rho = sigma from 0.46723506387619351 to
# 0.46723543928393041 (the 16 385-node value is 0.46737514786188239)
# compare was recorded again when a generator-spec f came to be sampled for
# the oracle on a grid through the knots of B's shifts (6145 nodes on
# [-3 pi, 3 pi], 1100 from -8.6 before): its J = 8 residual went from
# 0.46737753931759696 to 0.46737753922801084, 2.4e-6 above the formula.
# project, besterr and compare were recorded again when the fold came to
# extrapolate its seam nodes only under a declared jump and compare to fold
# on --dgrid: error_sq at rho = sigma went from 0.46723543928393041 to
# 0.46737452243418631, norm_sq from 1.3052048413203106 to 1.30507932847133,
# error_sq at rho = sigma/2 from 0.85377913728427124 to 0.8537927075855466,
# and compare's formula error from 0.46737514786188217 (4097 nodes) to the
# same 0.46737452243418631 (33 nodes), so its J = 8 gap went from
# 2.3913661286734111e-06 to 3.0167938245284631e-06.  zak_time_sum was
# recorded again when the bspline family came to read the piece tables of
# the time-sample spline: 65 of its 289 rows moved by at most 2.2e-16, and
# its digest went from b523a5e96d9da40c3278cef0e64ccf3fe1b52172d1daf931c478469ad3d36841
# to 91ea786d10928fe905f375b888e53c7d195c978b34f1382d52aa4f73cddd7c38
_PINNED_OUTPUT = {
    "dfun": (["--gen", "bspline:m=2", "--dgrid", "33"],
             "1166a66dcf740357c02c6177d4615aa554452de3622bfdf21c1c277a78b58f96"),
    "riesz": (["--gen", "gauss:width=1", "--dgrid", "33"],
              "6c83a694e84c46babee9c5f5030781c5169767fb0c7fde601763176a86bb5712"),
    "zak_time_sum": (["--gen", "bspline:m=2", "--dgrid", "17"],
                     "91ea786d10928fe905f375b888e53c7d195c978b34f1382d52aa4f73cddd7c38"),
    "zak_freq_sum": (["--gen", "sinc:sigma=1", "--dgrid", "17"],
                     "feb7033d7bf44b65cfebacd1b8df1b391dfb2d5dfd0fe9545ca2b48c8544097e"),
    "project": (["--gen", "bspline:m=2", "--f", "gauss:width=1", "--dgrid", "33",
                 "--jrange", "4"],
                "02b6cd68e8b8ba7f2d173deec7a5cb936828c3d6e6b28e680cf90e2989f02019"),
    "besterr": (["--gen", "bspline:m=2", "--f", "gauss:width=1", "--dgrid", "33",
                 "--sweep", "rho=0.5,1"],
                "fe49e2838704fea48e2678fe45e20138261f371d94cfb47b6a1cbfdabea5f4e3"),
    "compare": (["--gen", "bspline:m=2", "--f", "gauss:width=1", "--dgrid", "33",
                 "--sweep", "jrange=4,8"],
                "1afced0d916183a28817405e5dc06495ceb26a0b1478ed8062dbc9aca4e70244"),
    "validate": (["--gen", "bspline:m=1", "--dgrid", "33"],
                 "e84fbe1e7ef8a334c8c03e1623138d36f705380d138c97b2d040550390febc55"),
    # two tables long enough for the numpy formatter, recorded with Python's
    # row template: Phi's spectral sum on the dgrid-129 mesh (about 3 400
    # distinct magnitudes per column) and D of a Gaussian on 2 049 nodes
    "zak_long_table": (["--gen", "sinc", "--dgrid", "129"],
                       "88d7196a7bc46be3da5b1641fb68f3f337ee57e61e8638906122245d9ae65980"),
    "dfun_long_table": (["--gen", "gauss:width=1", "--dgrid", "2049"],
                        "2120a2734f3ce7b9ed1fdd74bc90ffb8f32c72a09fd2fd511bcd29a325f44bb0"),
    # two more, recorded with one numpy pass per column before the writer
    # came to format a table in one pass: a 1 025 x 3 zeta block with
    # 129 x 3 coefficients, and Phi's time sum on the dgrid-129 mesh (about
    # 8 100 distinct magnitudes per column)
    "project_long_table": (["--gen", "bspline:m=2", "--f", "gauss:width=1",
                            "--dgrid", "1025"],
                           "2f47f8c38fd753f254e97ed81873acd9c557b67bf7d893b86c2ecabf3150afec"),
    "zak_spline_long_table": (["--gen", "bspline:m=2", "--dgrid", "129"],
                              "7f6c5d6efd9e7745d23b3489a75f84401f64189816cc32a8a9d98b8bd6d416ed"),
    # recorded with one writer call per table, before a command came to
    # format all its tables in one call: the 17 x 3 coefficient block took
    # Python's row template and the 129 x 3 zeta block numpy.  In one call
    # the 438 values take numpy together
    "project_member_shape": (["--gen", "bspline:m=2", "--f", "gauss:width=1",
                              "--dgrid", "129", "--jrange", "8"],
                             "95cbd2327c20ea9a708c954aa54ec0660a845ae9488eafe63a42909ddeadbca2"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_OUTPUT))
def test_output_bytes_are_pinned(case):
    argv, digest = _PINNED_OUTPUT[case]
    rc, out = run_cli([case.partition("_")[0]] + argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
    if case.endswith("_long_table"):
        assert out.count("\n") > NUMPY_TEXT_VALUES + 1


@pytest.mark.parametrize("argv,values", [
    (["dfun", "--gen", "bspline:m=2"], 2 * 4097),
    (["project", "--gen", "bspline:m=2", "--f", "gauss:width=1",
      "--dgrid", "2049"], 3 * 129 + 3 * 2049),
    (["besterr", "--gen", "bspline:m=2", "--f", "gauss:width=1",
      "--dgrid", "257", "--sweep", "sigma=0.5,1,2"], 3 * 2)])
def test_a_command_formats_its_tables_in_one_pass(monkeypatch, argv, values):
    # every table a command prints goes through one writer call: with the
    # grids' node words built by a first run, a second run formats at most
    # one numpy block of _PASS_VALUES per block of its values
    first = run_cli(argv)
    passes = []
    words = numerics._text_words

    def counting(v):
        passes.append(np.size(v))
        return words(v)

    monkeypatch.setattr(numerics, "_text_words", counting)
    assert run_cli(argv) == first and first[0] == 0
    assert len(passes) <= -(-values // numerics._PASS_VALUES)
    assert all(n <= numerics._PASS_VALUES for n in passes)
    assert sum(passes) <= values


def test_a_rejected_argv_leaves_the_parser_as_it_was(capsys):
    # the parser is built once per process and reused by every call
    valid = ["dfun", "--gen", "bspline:m=3", "--dgrid", "33"]
    rejected = ["dfun", "--gen", "bspline:m=3", "--sigma", "0"]
    runs = []
    for argv in (valid, rejected, valid, rejected):
        rc, out = run_cli(argv)
        runs.append((rc, out, capsys.readouterr().err))
    assert runs[0] == runs[2] and runs[1] == runs[3]
    assert runs[0][0] == 0 and runs[0][1] and not runs[0][2]
    assert runs[1][0] == 2 and not runs[1][1] and "--sigma" in runs[1][2]
    assert cli._build_parser() is cli._build_parser()


# ----------------------------------------------------------------- parse paths

def _argparse_only(argv) -> cli.RunConfig:
    """The reference: argparse's namespace through the shared checks."""
    return cli._config(cli._build_parser().parse_args(list(argv)))


def _outcome(parse, argv):
    """A config, or the exit code, with what was printed either way."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _mostly(valid, other):
    """Values from ``valid`` seven times in eight, else from ``other``."""
    return st.integers(0, 7).flatmap(lambda k: valid if k else other)


_NUMBERS = _mostly(
    st.one_of(st.floats(min_value=1e-3, max_value=64.0).map(repr),
              st.sampled_from(["1", "2.0", "0.5", "1e-10"])),
    st.sampled_from(["0", "-1", "-0.5", "inf", "-inf", "nan", "1e400", "abc",
                     "", " 2", "1_0"]))
_INTEGERS = _mostly(
    st.one_of(st.sampled_from(["9", "33", "65", "129", "257"]),
              st.integers(-3, 300).map(str)),
    st.sampled_from(["-9", "4.5", "x", "0x11", "0009", ""]))
_SPECS = _mostly(st.sampled_from(["bspline:m=2", "gauss:width=1", "sinc",
                                  "file:in.csv"]),
                 st.sampled_from(["", "a b", "-x", "--gen", "x=1"]))
_SWEEPS = _mostly(
    st.one_of(st.lists(st.floats(min_value=1e-3, max_value=2.0).map(repr),
                       min_size=1, max_size=3).map(lambda v: "rho=" + ",".join(v)),
              st.sampled_from(["sigma=1,2", "jrange=4,8"])),
    st.sampled_from(["sigma=1,inf", "jrange=4.5", "rho=", "=", "x=1",
                     "-rho=1"]))


def _values(flag):
    if flag.option == "--sweep":
        return _SWEEPS
    if flag.option == "--out":
        return _mostly(st.just("out.csv"), st.sampled_from(["-", "x=y.csv"]))
    return {float: _NUMBERS, int: _INTEGERS, str: _SPECS}[flag.type]


@st.composite
def _argvs(draw):
    """An argv of one command: its flags in any order with drawn values,
    some spelled with ``=`` or abbreviated, plus repeats, unknown flags,
    stray positionals, ``-h`` and ``--``; a required flag may be left out."""
    command = draw(st.sampled_from(cli._COMMANDS))
    groups = []
    for option, flag in cli._TAKES[command].items():
        if not draw(st.integers(0, 19 if flag.required else 2)):
            continue
        value = draw(_values(flag))
        spelling = draw(st.sampled_from(["pair"] * 18 + ["equals", "prefix"]))
        if spelling == "equals":
            groups.append([f"{option}={value}"])
        elif spelling == "prefix" and len(option) > 3:
            groups.append([option[:draw(st.integers(3, len(option) - 1))], value])
        else:
            groups.append([option, value])
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        extra = draw(st.sampled_from(["repeat", "unknown", "positional",
                                      "help", "dashes"]))
        if extra == "repeat" and groups:
            groups.append(list(draw(st.sampled_from(groups))))
        elif extra == "unknown":
            option = draw(st.sampled_from(
                [f.option for f in cli._FLAGS] + ["--bogus"]))
            groups.append([option, draw(_NUMBERS)])
        elif extra == "positional":
            groups.append(["extra"])
        elif extra == "help":
            groups.append([draw(st.sampled_from(["-h", "--help"]))])
        elif extra == "dashes":
            groups.append(["--"])
    order = draw(st.permutations(groups))
    return [command] + [token for group in order for token in group]


@settings(max_examples=400, deadline=None)
@given(argv=_argvs())
def test_both_parse_paths_read_argv_as_argparse_does(argv):
    # a documented-form argv is read from the flag table, any other by
    # argparse: the config, or the exit code and what was printed, is the
    # argparse-only reference's
    assert _outcome(cli.parse_args, argv) == _outcome(_argparse_only, argv)


def test_the_benchmark_argv_never_builds_the_argparse_parser(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    argvs = [request.argv for workload in workloads.WORKLOADS
             for cycle in workloads.build(workload, 61, tmp_path / workload)
             for request in cycle]
    want = [_argparse_only(argv) for argv in argvs]

    def refuse():
        raise AssertionError("a benchmark argv reached argparse")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    assert [cli.parse_args(argv) for argv in argvs] == want
    assert {config.command for config in want} == set(cli._COMMANDS)


def test_out_file_matches_stdout(tmp_path):
    argv = ["dfun", "--gen", "bspline:m=1", "--dgrid", "129"]
    rc, streamed = run_cli(argv)
    assert rc == 0
    path = tmp_path / "d.csv"
    rc, out = run_cli(argv + ["--out", str(path)])
    assert rc == 0
    assert out == ""
    assert path.read_text(encoding="ascii") == streamed
    first = path.read_bytes()
    rc, _ = run_cli(argv + ["--out", str(path)])
    assert rc == 0
    assert path.read_bytes() == first


def test_importing_the_cli_leaves_scipy_special_out():
    # the package runs on numpy alone: with scipy 1.17, importing
    # scipy.special costs 0.18-0.24 s and about 25 MiB, scipy.linalg about
    # 0.17 s.  A spline validate, whose Phi sums take the class tails and
    # so `spectral._hurwitz_zeta`, and a spline zak leave every scipy
    # module out
    src = str(Path(shiftapprox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from shiftapprox import cli\n"
            "codes = [cli.main(['validate', '--gen', 'bspline:m=1', '--dgrid', '33']),\n"
            "         cli.main(['zak', '--gen', 'bspline:m=2', '--dgrid', '33'])]\n"
            "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(codes, scipy, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == "[0, 0] []", proc.stderr


def test_importing_the_cli_leaves_importlib_metadata_out():
    # the version is resolved on first access: importing the package and
    # running a command leave importlib.metadata (about 22 ms of import on
    # a 2-core x86 VM, and a scan of the installed distributions) out, and
    # the attribute still reads the installed version
    src = str(Path(shiftapprox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "before = 'importlib.metadata' in sys.modules\n"
            "import shiftapprox\n"
            "from shiftapprox import cli\n"
            "code = cli.main(['validate', '--gen', 'bspline:m=1', '--dgrid', '33'])\n"
            "loaded = 'importlib.metadata' in sys.modules and not before\n"
            "from importlib import metadata\n"
            "try:\n"
            "    want = metadata.version('shiftapprox')\n"
            "except metadata.PackageNotFoundError:\n"
            "    want = '0.0.0'\n"
            "print(code, loaded, shiftapprox.__version__ == want, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == "0 False True", proc.stderr


def test_module_entry_point_matches_cli_main():
    argv = ["dfun", "--gen", "bspline:m=0", "--dgrid", "9"]
    rc, out = run_cli(argv)
    src = str(Path(shiftapprox.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "shiftapprox", *argv],
                          capture_output=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == rc == 0, proc.stderr
    assert proc.stdout == out.encode("ascii")


# --------------------------------------------------------------------- tooling

def test_cli_imports_no_private_name_of_another_module():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("shiftapprox"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
