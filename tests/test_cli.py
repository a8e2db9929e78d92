"""End-to-end checks of the command-line interface.

Every invocation goes through `cli.main` in-process: stdout is captured,
exit codes are asserted (0 success, 1 numerical failure, 2 usage error),
and repeated identical invocations must produce byte-identical output.
Numerical accuracy has its own test modules; here the closed forms are
only used to confirm the right quantity reached the right column.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

import shiftapprox
from shiftapprox.cli import _load_signal
from shiftapprox.generator import parse_generator_spec
from shiftapprox.numerics import (Grid, SampledFunction, SampledSpectrum,
                                  write_samples_csv)
from shiftapprox.shiftspace import project
from shiftapprox.zak import phi_field

from helpers import run_cli

SQRT_PI = math.sqrt(math.pi)


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
    ["dfun", "--gen", "sinc", "--rho", "1.5"],
    ["dfun", "--gen", "sinc", "--rho=-0.2"],
    ["dfun", "--gen", "sinc", "--tol", "0"],
    ["dfun", "--gen", "sinc", "--dgrid", "7"],
    ["zak", "--gen", "sinc", "--dgrid", "128"],
    ["validate", "--gen", "sinc", "--dgrid", "64"],
    ["dfun", "--gen", "sinc", "--jrange", "0"],
    ["dfun", "--gen", "sinc", "--sweep", "rho=1"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "jrange=8"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "sigma="],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1", "--sweep", "rho=a,b"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=1",
     "--sweep", "sigma=1,2", "--rho", "0.5"],
    ["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1",
     "--sweep", "rho=1"],
])
def test_usage_errors_exit_2(argv, capsys):
    rc, out = run_cli(argv)
    capsys.readouterr()
    assert rc == 2
    assert out == ""


@pytest.mark.parametrize("spec", [
    "bspline",              # missing m
    "mystery:a=1",          # unknown family
    "bspline:m=1,bogus=3",  # stray parameter
    "bspline:m",            # parameter without '='
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


def test_riesz_line_hat():
    rc, out = run_cli(["riesz", "--gen", "bspline:m=1", "--dgrid", "257"])
    assert rc == 0
    m = re.fullmatch(r"A=(\S+) B=(\S+) class=(\S+)\n", out)
    assert m is not None
    lower, upper = float(m.group(1)), float(m.group(2))
    # extrema come from interior nodes, so the lower bound sits a grid
    # step's curvature above the true minimum 1/3 at the period edge;
    # both bounds are widened by the lattice-tail envelope (~1e-6 here)
    assert 1.0 / 3.0 - 1e-5 <= lower <= 1.0 / 3.0 + 1e-3
    assert abs(upper - 1.0) <= 1e-5
    assert m.group(3) == "riesz"


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


def test_besterr_on_time_samples_recovers_no_coefficients():
    # the box spline's slow spectrum makes the CLI sample f in time; the
    # 257-node grid cannot resolve the default --jrange 64, which besterr
    # never needs because it prints no coefficients
    rc, out = run_cli(["besterr", "--gen", "bspline:m=1", "--f", "bspline:m=0",
                       "--dgrid", "257", "--rho", "0.5"])
    assert rc == 0
    signal = _load_signal("bspline:m=0", 1.0, 257)
    assert isinstance(signal, SampledFunction)
    want = project(signal, parse_generator_spec("bspline:m=1"), 1.0, 0.5,
                   grid=Grid(start=-1.0, stop=1.0, count=257), j_range=8)
    assert _rows(out) == ["param,error_sq", f"0.5,{want.error_sq:.17g}"]


def test_besterr_swept_rho_out_of_range_exits_1(capsys):
    rc, out = run_cli(["besterr", "--gen", "sinc", "--f", "gauss:width=1",
                       "--dgrid", "1025", "--sweep", "rho=0.5,1.5"])
    capsys.readouterr()
    assert rc == 1
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


def test_compare_formula_error_is_the_besterr_row():
    # compare folds on the default period grid whatever --dgrid says, so an
    # analytic f-hat must be sampled on that grid's extension: sampled on the
    # --dgrid extension it would be interpolated in the fold
    rc, out = run_cli(["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1",
                       "--dgrid", "257", "--sweep", "jrange=16"])
    assert rc == 0
    rc_best, best = run_cli(["besterr", "--gen", "bspline:m=1",
                             "--f", "gauss:width=1", "--rho", "1"])
    assert rc_best == 0
    formula_error = _rows(out)[1].split(",")[2]
    assert formula_error == _rows(best)[1].split(",")[1]


def test_compare_rejects_spectrum_signal(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    path.write_text("y,re,im\n-1,1,0\n0,1,0\n1,1,0\n", encoding="ascii")
    rc, out = run_cli(["compare", "--gen", "bspline:m=1",
                       "--f", f"file:{path}"])
    capsys.readouterr()
    assert rc == 1
    assert out == ""


# ------------------------------------------------------------- reproducibility

def test_repeat_runs_byte_identical():
    argv = ["project", "--gen", "bspline:m=2", "--f", "gauss:width=1",
            "--dgrid", "257", "--jrange", "8"]
    rc_a, out_a = run_cli(argv)
    rc_b, out_b = run_cli(argv)
    assert rc_a == rc_b == 0
    assert out_a == out_b
    assert out_a


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
