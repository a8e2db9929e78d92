"""Full-pipeline acceptance gate.

One test per contract item, each at its stated tolerance, each ending in a
single printed summary line (run with ``-s`` to see the measured figures).
Oracles are the independent routes from `helpers` (time-domain quadrature,
closed forms, brute lattice sums); nothing here is checked against its own
implementation.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (
    analytic_gaussian_spectrum,
    bump_spectrum_signal,
    expansion_time_products,
    knot_aligned_gaussian,
    oracle_gaps,
    random_expansion,
    run_cli,
    sinc_gen,
    spline,
    spectrum_norm_sq,
    time_norm_sq,
)
from shiftapprox import best_approx_error_sq, gaussian_generator, synthesize
from shiftapprox.numerics import Grid, SampledSpectrum, make_uniform_grid
from shiftapprox.shiftspace import (
    plancherel_inner,
    plancherel_norm_sq,
    project,
    zeta_of_coeffs,
)
from shiftapprox.spectral import periodize
from shiftapprox.zak import verify_phi_properties

SQRT_PI = math.sqrt(math.pi)
PERIOD_GRID = Grid(start=-1.0, stop=1.0, count=4097)

FAMILIES = [spline(0), spline(1), spline(2), spline(3), sinc_gen(1.0)]


def test_expansion_norms_match_time_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for gen in FAMILIES:
        dv = periodize(gen, 1.0, PERIOD_GRID, tol=1e-12)
        for _ in range(20):
            exp = random_expansion(rng, 1.0, 32)
            want = expansion_time_products(gen, 1.0, exp).real
            got = plancherel_norm_sq(zeta_of_coeffs(exp, PERIOD_GRID), dv)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed <= 60.0
    print(f"PASS norms vs time oracle: max rel {worst:.3e}, {elapsed:.1f}s")


def test_expansion_inner_products_match_time_quadrature():
    rng = np.random.default_rng(102)
    worst = 0.0
    for gen in FAMILIES:
        dv = periodize(gen, 1.0, PERIOD_GRID, tol=1e-12)
        for _ in range(20):
            exp_a = random_expansion(rng, 1.0, 32)
            exp_b = random_expansion(rng, 1.0, 32)
            want = expansion_time_products(gen, 1.0, exp_a, exp_b)
            za = zeta_of_coeffs(exp_a, PERIOD_GRID)
            zb = zeta_of_coeffs(exp_b, PERIOD_GRID)
            got = plancherel_inner(za, zb, dv)
            scale = math.sqrt(plancherel_norm_sq(za, dv)
                              * plancherel_norm_sq(zb, dv))
            worst = max(worst, abs(got - want) / scale)
    assert worst <= 1e-6
    print(f"PASS inner products vs time oracle: max rel {worst:.3e}")


def test_phi_system_property_audit():
    rep_sinc = verify_phi_properties(sinc_gen(1.0), 1.0, resolution=129,
                                     tol=1e-8)
    assert rep_sinc.ok
    sinc_res = [c.residual for c in rep_sinc.checks if c.status != "skipped"]
    assert sinc_res and max(sinc_res) <= 1e-8

    rep_spl = verify_phi_properties(spline(2), 1.0, resolution=129, tol=1e-8)
    assert rep_spl.ok
    by_name = {c.name: c for c in rep_spl.checks}
    spl_res = [c.residual for c in rep_spl.checks if c.status != "skipped"]
    assert max(spl_res) <= 1e-6
    rep3 = by_name["phi3_representations"]
    assert rep3.status == "ok" and rep3.residual <= 1e-6
    print(f"PASS phi property audit: sinc max {max(sinc_res):.3e}, "
          f"spline max {max(spl_res):.3e}")


def test_periodized_density_closed_forms():
    d_box = periodize(spline(0), 1.0, PERIOD_GRID, tol=1e-8)
    box_dev = float(np.max(np.abs(d_box.values - 1.0)))
    assert box_dev <= 1e-6

    d_sinc = periodize(sinc_gen(1.0), 1.0, PERIOD_GRID, tol=1e-8)
    assert np.all(d_sinc.values == 1.0)

    # brute lattice oracle at the period edge: sum over 2e4+1 windows
    hat = spline(1)
    nu = np.arange(-10_000, 10_001)
    brute = float(np.sum(np.abs(hat.spectrum(1.0 + 2.0 * nu)) ** 2))
    assert abs(brute - 1.0 / 3.0) <= 1e-12
    d_hat = periodize(hat, 1.0, PERIOD_GRID, tol=1e-8)
    hat_dev = abs(float(d_hat.values[-1]) - brute)
    assert hat_dev <= 1e-6
    print(f"PASS density closed forms: box {box_dev:.3e}, sinc exact, "
          f"edge value {hat_dev:.3e}")


def test_error_formula_agrees_with_least_squares_oracle():
    t0 = time.perf_counter()
    ranges = [8, 16, 32, 64]
    worst_rel = 0.0
    worst_gap = 0.0
    for m in (0, 1, 2):
        for sigma in (1.0, 2.0):
            f, fs = knot_aligned_gaussian(sigma)
            report, formula, gaps, consistent = oracle_gaps(
                f, fs, spline(m, sigma), sigma, ranges)
            assert consistent
            residuals = [r.oracle_residual for r in report.rows]
            assert all(a >= b for a, b in zip(residuals, residuals[1:]))
            for gap in gaps:
                assert gap >= -1e-9
                worst_gap = min(worst_gap, gap)
            assert report.rows[-1].j_range == 64
            rel = abs(gaps[-1]) / formula
            assert rel <= 1e-4
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    print(f"PASS oracle agreement: rel at top range {worst_rel:.3e}, "
          f"min gap {worst_gap:.3e}, {elapsed:.1f}s")


def _bernoulli(n: int) -> Fraction:
    """The Bernoulli number B_n, exactly, from sum_{k<=n} C(n+1, k) B_k = 0."""
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b[n]


def test_spline_error_tends_to_the_blu_unser_asymptote():
    # for degree m at h = pi/sigma and L = m + 1, the error of f tends to
    # C_L^2 h^(2L) ||f^(L)||^2 (Blu & Unser 1999), where C_L^2 =
    # 2 zeta(2L)/(2 pi)^(2L) = |B_2L|/(2L)! and, for f = exp(-x^2/2),
    # ||f^(L)||^2 = Gamma(L + 1/2).  |ratio - 1| falls about 4-fold per
    # doubling of sigma: 0.77, 0.17, 3.8e-2 at m = 3.  An error this small
    # (8e-14 at m = 3, sigma = 32) is far below compare's slack, so the
    # oracle cannot check it.  m = 4 and 5 are left out: near sigma = 32
    # their error reaches the absolute floor of the energy split, total
    # energy minus captured energy, each about ||f||^2, and reads 0
    t0 = time.perf_counter()
    f = gaussian_generator(1.0)
    worst = 0.0
    for m in range(4):
        order = m + 1
        c_sq = float(abs(_bernoulli(2 * order)) / math.factorial(2 * order))
        devs = []
        for sigma in (8.0, 16.0, 32.0):
            err = best_approx_error_sq(f, spline(m, sigma), sigma, sigma,
                                       grid=Grid(-sigma, sigma, 4097))
            asymptote = (c_sq * (math.pi / sigma) ** (2 * order)
                         * math.gamma(order + 0.5))
            devs.append(abs(err / asymptote - 1.0))
        assert all(3.0 * b <= a for a, b in zip(devs, devs[1:])), (m, devs)
        assert devs[-1] < 0.05, (m, devs)
        worst = max(worst, devs[-1])
    print(f"PASS Blu-Unser asymptote: worst |ratio - 1| at sigma 32 "
          f"{worst:.3e}, {time.perf_counter() - t0:.2f}s")


def _cardinal_b(t: np.ndarray, order: int) -> np.ndarray:
    """The cardinal B-spline N_order on the knots 0 .. order, by Cox-de Boor."""
    n = [((t >= i) & (t < i + 1)).astype(float) for i in range(order)]
    for k in range(2, order + 1):
        n = [((t - i) * n[i] + (i + k - t) * n[i + 1]) / (k - 1)
             for i in range(order - k + 1)]
    return n[0]


def _b_spline(m: int, sigma: float):
    """``bspline:m=<m>`` at sigma: 2 sigma N_{m+1} at step pi/sigma from
    -(m + 1) pi/sigma, so its knots lie on the shift lattice."""
    h = math.pi / sigma
    return lambda x: 2.0 * sigma * _cardinal_b(x / h + m + 1, m + 1)


def _lattice_cells(lo: int, hi: int, h: float):
    """40-node Gauss-Legendre nodes and weights on each cell [k h, (k+1) h],
    lo <= k < hi: between knots, where a spline is one polynomial."""
    x, w = np.polynomial.legendre.leggauss(40)
    left = np.arange(lo, hi) * h
    return ((left[:, None] + 0.5 * h * (x + 1.0)).ravel(),
            np.tile(0.5 * h * w, left.size))


def _poisson_error(f, cells, m: int, sigma: float, rho: float) -> float:
    """Best error of f, zero outside the lattice cells ``cells``, from the
    rho-band space of ``bspline:m=<m>``, by the Poisson form: with c_j =
    <f, B(. - j h)> and a_d = <B, B(. - d h)> by Gauss-Legendre between
    knots, bracket = (1/4 pi sigma) sum_j c_j e^{-i j h y}, D = (1/4 pi
    sigma)(a_0 + 2 sum_d a_d cos(d h y)), and the error ||f||^2 - 2 pi
    integral_{-rho}^{rho} |bracket|^2 / D by Gauss-Legendre in 8 pieces of
    60 nodes.  It shares no code with the package."""
    h = math.pi / sigma
    b = _b_spline(m, sigma)
    x, w = _lattice_cells(*cells, h)
    fx = f(x)
    js = np.arange(cells[0] - 1, cells[1] + m + 2)
    c = np.array([np.sum(w * fx * b(x - j * h)) for j in js])
    xb, wb = _lattice_cells(-(m + 1), 0, h)
    a = np.array([np.sum(wb * b(xb) * b(xb - d * h)) for d in range(m + 2)])
    t, v = np.polynomial.legendre.leggauss(60)
    edges = np.linspace(-rho, rho, 9)
    half = 0.5 * np.diff(edges)[:, None]
    y = (0.5 * (edges[:-1, None] + edges[1:, None]) + half * t).ravel()
    wy = (half * v).ravel()
    bracket = np.exp(-1j * h * np.outer(y, js)) @ c / (4.0 * math.pi * sigma)
    d = (a[0] + 2.0 * np.cos(h * np.outer(y, np.arange(1, m + 2))) @ a[1:]) / (
        4.0 * math.pi * sigma)
    captured = np.sum(wy * np.abs(bracket) ** 2 / d)
    return float(np.sum(w * fx ** 2) - 2.0 * math.pi * captured)


_ITEM_2 = ("ROADMAP item 2: a band radius between grid nodes is integrated "
           "to the node below it, an O(step) error")
_REFERENCES = [
    # f spec, f, its lattice cells at sigma 1, rho, the reference
    pytest.param("gauss:width=1", lambda x: np.exp(-0.5 * x * x), (-14, 14),
                 1.0, 0.07565257062743291, id="gauss-rho-1"),
    pytest.param("gauss:width=1", lambda x: np.exp(-0.5 * x * x), (-14, 14),
                 0.55, 0.7517623842352188, id="gauss-rho-0.55",
                 marks=pytest.mark.xfail(strict=True, reason=_ITEM_2)),
    pytest.param("gauss:width=1", lambda x: np.exp(-0.5 * x * x), (-14, 14),
                 0.3141, 1.1610636698684345, id="gauss-rho-0.3141",
                 marks=pytest.mark.xfail(strict=True, reason=_ITEM_2)),
    pytest.param("bspline:m=0", _b_spline(0, 1.0), (-1, 0), 1.0,
                 4.599610878225731, id="box-rho-1",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 3: the box's spectrum decays like 1/|y| "
                     "and its fold stops at the 64-window cap"))),
]


@pytest.mark.parametrize("spec, f, cells, rho, reference", _REFERENCES)
def test_besterr_meets_the_poisson_reference(spec, f, cells, rho, reference):
    # besterr of f from the hat space at sigma 1 and dgrid 257, against
    # the best error by an independent route; the route reproduces the
    # reference table's value first
    t0 = time.perf_counter()
    want = _poisson_error(f, cells, 1, 1.0, rho)
    assert want == pytest.approx(reference, rel=1e-12)
    rc, out = run_cli(["besterr", "--gen", "bspline:m=1", "--f", spec,
                       "--sigma", "1.0", "--rho", repr(rho), "--dgrid", "257"])
    assert rc == 0
    got = float(out.splitlines()[1].split(",")[1])
    assert got == pytest.approx(want, rel=1e-12)
    print(f"PASS besterr of {spec} at rho {rho}: {got!r} against the "
          f"reference {want!r}, {time.perf_counter() - t0:.2f}s")


def test_projection_recovers_space_members():
    gen = spline(2)
    rng = np.random.default_rng(2026)
    exp = random_expansion(rng, 1.0, 8)
    xg = make_uniform_grid(-12.0 * np.pi, 12.0 * np.pi, 24 * 128 + 1)
    f = synthesize(exp, gen, xg)
    res = project(f, gen, 1.0, 1.0, j_range=16)
    by_j = dict(zip(res.coeffs.indices(), res.coeffs.coeffs))
    wanted = dict(zip(exp.indices(), exp.coeffs))
    worst = max(abs(by_j[j] - wanted.get(j, 0.0)) for j in by_j)
    assert worst <= 1e-8
    nf = time_norm_sq(f)
    assert res.error_sq <= 1e-8 * nf
    print(f"PASS member recovery: max coeff err {worst:.3e}, "
          f"error/norm {res.error_sq / nf:.3e}")


def test_orthocomplement_signal_fully_rejected():
    # C-infinity bump spectrum supported in [sigma, 3 sigma]: entirely
    # aliased outside the band, so the projection must vanish and the
    # error must be the whole energy
    fg = analytic_gaussian_spectrum(1.0, windows=4).grid
    y = fg.nodes()
    u = y - 2.0
    inside = np.abs(u) < 1.0
    vals = np.zeros(y.size, dtype=np.complex128)
    vals[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    fs = SampledSpectrum(grid=fg, values=vals)
    mass, quad_err = quad(lambda t: math.exp(-2.0 / (1.0 - t * t)),
                          -1.0, 1.0)
    assert quad_err < 1e-8 * mass
    want = 2.0 * math.pi * mass
    res = project(fs, sinc_gen(1.0), 1.0, 1.0)
    assert res.projection_norm_sq <= 1e-8 * want
    err_rel = abs(res.error_sq - want) / want
    assert err_rel <= 1e-6
    print(f"PASS orthocomplement rejection: proj "
          f"{res.projection_norm_sq / want:.3e}, error rel {err_rel:.3e}")


def test_projection_bounded_and_error_monotone_in_band():
    rng = np.random.default_rng(20260823)
    cases = 0
    for gen_id in range(5):
        for sigma in (1.0, 2.0):
            gen = (sinc_gen(sigma) if gen_id == 4
                   else spline(gen_id, sigma))
            grid = Grid(start=-sigma, stop=sigma, count=1025)
            for _ in range(5):
                fs = bump_spectrum_signal(rng, sigma)
                nf = spectrum_norm_sq(fs)
                errs = []
                for rho in (sigma / 4.0, sigma / 2.0, sigma):
                    res = project(fs, gen, sigma, rho, grid=grid)
                    assert res.projection_norm_sq <= nf * (1.0 + 1e-9)
                    errs.append(res.error_sq)
                assert errs[0] >= errs[1] - 1e-12 * nf
                assert errs[1] >= errs[2] - 1e-12 * nf
                cases += 1
    assert cases == 50
    print(f"PASS bounded projection, monotone error: {cases} cases")


def test_energy_splits_between_projection_and_error():
    gen = spline(2)
    fs = analytic_gaussian_spectrum(1.0)
    res = project(fs, gen, 1.0, 1.0)
    # independent routes: time quadrature for the projection energy,
    # the Gaussian closed form sqrt(pi) for the signal energy
    proj_time = expansion_time_products(gen, 1.0, res.coeffs).real
    split = abs(proj_time + res.error_sq - SQRT_PI) / SQRT_PI
    agree = abs(proj_time - res.projection_norm_sq) / SQRT_PI
    assert split <= 1e-6
    assert agree <= 1e-6
    print(f"PASS energy split: identity rel {split:.3e}, "
          f"route agreement rel {agree:.3e}")


def test_cli_deterministic_and_exit_codes(tmp_path, capsys):
    argv = ["besterr", "--gen", "sinc", "--f", "gauss:width=1",
            "--dgrid", "513", "--sweep", "rho=0.5,1"]
    rc_a, out_a = run_cli(argv)
    rc_b, out_b = run_cli(argv)
    assert rc_a == rc_b == 0
    assert out_a == out_b and out_a

    path = tmp_path / "sweep.csv"
    assert run_cli(argv + ["--out", str(path)])[0] == 0
    first = path.read_bytes()
    assert first.decode("ascii") == out_a
    assert run_cli(argv + ["--out", str(path)])[0] == 0
    assert path.read_bytes() == first

    rc_ok, _ = run_cli(["validate", "--gen", "sinc", "--dgrid", "129"])
    rc_num, _ = run_cli(["project", "--gen", "bspline:m=1",
                         "--f", f"file:{tmp_path / 'absent.csv'}"])
    rc_use, _ = run_cli(["dfun", "--gen", "sinc", "--sigma", "0"])
    capsys.readouterr()
    assert (rc_ok, rc_num, rc_use) == (0, 1, 2)
    print("PASS cli determinism and exit codes: byte-identical, 0/1/2")
