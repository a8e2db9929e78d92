import dataclasses
import math
from collections import OrderedDict

import numpy as np
import pytest

from shiftapprox import numerics, spectral, zak
from shiftapprox.errors import InvalidGridError, TruncationError
from shiftapprox.generator import (Generator, gaussian_generator, sampled_generator,
                                   shift_autocorrelation)
from shiftapprox.numerics import SampledFunction, make_uniform_grid
from shiftapprox.spectral import lattice_order, periodize
from shiftapprox.zak import (_time_window, phi_field, phi_freq, phi_time,
                             verify_phi_properties)

from helpers import cauchy, sampled_gaussian, sampled_spline, sinc_gen, spline


def test_spectral_sum_of_a_slowly_rotating_tail_is_exact():
    # next to a knot the lattice terms of the hat turn by 2 sigma x per
    # step (0.098 rad here), a tail that rotates slowly.  sigma x/pi = 1/64:
    # e^{2 i nu sigma x} repeats with nu mod 64, so |nu| <= 16 and one
    # Hurwitz zeta value per class make the sum exact
    gen = spline(1, 1.0)
    y = -1.0 + (np.arange(64) + 0.5) / 32.0
    freq, order, tail = zak._phi_freq_array(gen, 1.0, math.pi / 64.0, y, 1e-10)
    assert (order, tail) == (spectral.HURWITZ_ORDER, 0.0)
    time = phi_time(gen, 1.0, math.pi / 64.0, y)
    assert np.max(np.abs(freq - time)) <= 1e-15


def test_box_kernel_has_unit_amplitude():
    gen = spline(0, 1.0)
    assert phi_time(gen, 1.0, 0.5, 0.0) == pytest.approx(1.0, rel=1e-14)
    for x in (0.2, 1.1, 2.9, -0.4):
        assert phi_time(gen, 1.0, x, 0.0) == pytest.approx(1.0, rel=1e-14), x


def test_hat_kernel_partition_of_unity_at_zero_frequency():
    gen = spline(1, 1.0)
    x = np.linspace(-3.0, 3.0, 41)
    vals = phi_time(gen, 1.0, x, np.zeros_like(x))
    assert np.max(np.abs(vals - 1.0)) < 1e-13


def test_hat_kernel_single_term_at_origin():
    # at x = 0 only the shift j = 1 contributes, so Phi(0, y) = exp(i pi y / sigma)
    gen = spline(1, 1.0)
    y = np.linspace(-0.99, 0.99, 21)
    vals = phi_time(gen, 1.0, np.zeros_like(y), y)
    ref = np.exp(1j * math.pi * y)
    assert np.max(np.abs(vals - ref)) < 1e-13


def test_bandlimited_kernel_is_a_plane_wave():
    gen = sinc_gen(1.0)
    rng = np.random.default_rng(5)
    x = rng.uniform(-4.0, 4.0, 24)
    y = rng.uniform(-0.999, 0.999, 24)
    vals = phi_freq(gen, 1.0, x, y)
    assert np.max(np.abs(vals - np.exp(1j * x * y))) < 1e-14
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-14


def test_representation_refusals():
    # spectral sum of the box decays like 1/u: not absolutely summable
    with pytest.raises(TruncationError):
        phi_freq(spline(0, 1.0), 1.0, 0.3, 0.2)
    # time sum of the bandlimited kernel decays like 1/x: same refusal
    with pytest.raises(TruncationError):
        phi_time(sinc_gen(1.0), 1.0, 0.3, 0.2)


def test_gaussian_kernel_routes_agree_with_brute_force():
    sigma = 1.0
    gen = gaussian_generator(1.0)
    h = math.pi / sigma
    xs = np.array([0.0, 0.37, 1.9])
    ys = np.array([-0.8, 0.11, 0.93])
    brute_t = np.zeros(3, dtype=np.complex128)
    brute_f = np.zeros(3, dtype=np.complex128)
    for j in range(-40, 41):
        brute_t += gen.time_domain(xs - j * h) * np.exp(1j * j * math.pi * ys / sigma)
    brute_t /= 2.0 * sigma
    for nu in range(-40, 41):
        u = ys + 2.0 * sigma * nu
        brute_f += gen.spectrum(u) * np.exp(1j * u * xs)
    t_vals = phi_time(gen, sigma, xs, ys)
    f_vals = phi_freq(gen, sigma, xs, ys)
    assert np.max(np.abs(t_vals - brute_t)) < 1e-12
    assert np.max(np.abs(f_vals - brute_f)) < 1e-12
    assert np.max(np.abs(t_vals - f_vals)) < 1e-10


def test_phi_field_auto_picks_an_available_representation():
    xg = make_uniform_grid(0.0, math.pi, 9)
    yg = make_uniform_grid(-0.9, 0.9, 9)
    assert phi_field(sinc_gen(1.0), 1.0, xg, yg).representation == "freq_sum"
    assert phi_field(spline(0, 1.0), 1.0, xg, yg).representation == "time_sum"
    field = phi_field(spline(2, 1.0), 1.0, xg, yg)
    assert field.representation == "time_sum"
    assert field.values.shape == (9, 9)
    mesh = np.meshgrid(xg.nodes(), yg.nodes(), indexing="ij")
    assert np.max(np.abs(field.values - phi_freq(spline(2, 1.0), 1.0, *mesh))) < 1e-8


def _counting(gen, counts):
    """``gen`` with its spectrum and time domain counting the points."""
    spectrum, time_domain = gen.spectrum, gen.time_domain

    def counted_spectrum(y):
        counts["spectrum"] += np.size(y)
        return spectrum(y)

    def counted_time(x):
        counts["time"] += np.size(x)
        return time_domain(x)

    return dataclasses.replace(gen, spectrum=counted_spectrum,
                               time_domain=counted_time)


@pytest.mark.parametrize("gen", [spline(2, 1.0), gaussian_generator(1.0)],
                         ids=["bspline_m2", "gauss"])
def test_mesh_sums_evaluate_the_generator_on_one_axis(gen, monkeypatch):
    sigma, tol = 1.0, 1e-8
    x = np.linspace(-0.3, math.pi + 0.2, 7)[:, np.newaxis]
    y = np.linspace(-0.95, 0.9, 5)[np.newaxis, :]
    counts = {"spectrum": 0, "time": 0}
    counted = _counting(gen, counts)
    points = []

    def recorded(gen, sigma, y, block, power, tol, size, **kwargs):
        points.append(size)
        return spectral.lattice_sum(gen, sigma, y, block, power, tol, size, **kwargs)

    monkeypatch.setattr(zak, "lattice_sum", recorded)

    t_mesh = phi_time(counted, sigma, x, y)
    jmin, jmax = _time_window(gen, sigma, float(x.min()), float(x.max()))
    assert counts == {"spectrum": 0, "time": x.size * (jmax - jmin + 1)}

    counts["time"] = 0
    f_mesh = phi_freq(counted, sigma, x, y, tol)
    order, _ = lattice_order(gen, sigma, tol, 1)
    # x off every rational multiple of pi/sigma: the sum truncated at the
    # envelope bound, each shift evaluated once
    assert counts == {"spectrum": y.size * (2 * order + 1), "time": 0}
    # a block of shifts holds an (x, nu) phase array and a (nu, y) spectrum
    assert points == [x.size + y.size]

    # the mesh agrees with pointwise evaluation at the paired nodes
    xs, ys = (a.ravel() for a in np.meshgrid(x[:, 0], y[0], indexing="ij"))
    shape = (x.size, y.size)
    assert np.max(np.abs(t_mesh - phi_time(gen, sigma, xs, ys).reshape(shape))) < 1e-14
    assert np.max(np.abs(f_mesh - phi_freq(gen, sigma, xs, ys, tol).reshape(shape))) < 1e-14
    assert np.max(np.abs(t_mesh - f_mesh)) < 1e-8


@pytest.mark.parametrize("gen, tol", [
    (spline(1, 1.0), 1e-10), (spline(2, 1.0), 1e-8), (spline(3, 1.0), 1e-8),
    (spline(3, 2.0), 1e-8), (spline(1, 0.5), 1e-8), (spline(2, 0.5), 1e-8),
    (spline(3, 0.5), 1e-8), (sampled_spline(3, 16), 1e-8), (gaussian_generator(1.0), 1e-8),
    (sinc_gen(1.0), 1e-8),
], ids=["bspline_m1", "bspline_m2", "bspline_m3", "bspline_m3_sigma2",
        "bspline_m1_sigma_half", "bspline_m2_sigma_half", "bspline_m3_sigma_half",
        "file_cubic_h16", "gauss", "sinc"])
@pytest.mark.parametrize("dx, dy", [(0.0, 0.0), (math.pi, 0.0), (0.0, 2.0)],
                         ids=["cell", "x_shifted", "y_shifted"])
def test_mesh_product_matches_the_broadcast_sum(gen, tol, dx, dy):
    # the mesh contracts phases with spectrum values by a matrix product;
    # the broadcast sum at the paired nodes is the reference it replaces.
    # For a spline, sigma step/pi is 1, 2, 1/2 or 1/16 (the quintic spline
    # through the cubic's samples at h/16) and sigma (x - end)/pi = k/16
    # (+ 1 shifted by a period in x): both sum |nu| <= 16 and add exact
    # tails over lcm(q, 16) classes of nu, and meet the finite time sum
    sigma = 1.0
    x = np.linspace(0.0, math.pi / sigma, 17)[:, np.newaxis] + dx
    y = -sigma + (np.arange(16)[np.newaxis, :] + 0.5) * (sigma / 8.0) + dy
    mesh, order, tail = zak._phi_freq_array(gen, sigma, x, y, tol)
    xs, ys = (a.ravel() for a in np.meshgrid(x[:, 0], y[0], indexing="ij"))
    scale = np.max(np.abs(mesh))
    pairs, order_p, tail_p = zak._phi_freq_array(gen, sigma, xs, ys, tol)
    assert (order, tail) == (order_p, tail_p)
    assert np.max(np.abs(mesh - pairs.reshape(mesh.shape))) <= 1e-13 * scale
    if gen.spline is not None:
        assert (order, tail) == (spectral.HURWITZ_ORDER, 0.0)
        assert np.max(np.abs(mesh - phi_time(gen, sigma, x, y))) <= 1e-14 * scale


def test_cell_mesh_tails_read_one_zeta_value_per_class_and_node(monkeypatch):
    # on the cell mesh of a spline on its own lattice, Phi's tails split
    # into P classes of nu mod P, one zeta value per class and y node; the
    # nu < 0 side reads the same values at the mirrored midpoints, and so
    # does D's single class
    sizes = []
    zeta = spectral._hurwitz_zeta

    def counted(s, a):
        sizes.append(np.size(a))
        return zeta(s, a)

    monkeypatch.setattr(spectral, "_hurwitz_zeta", counted)
    xs, ys, _, _ = zak._cell_mesh(1.0, 33)
    zak._phi_freq_array(spline(2, 1.0), 1.0, xs, ys, 1e-10)
    spectral.lattice_energy(spline(2, 1.0), 1.0, ys[0])
    assert sizes == [32 * ys.size, ys.size]


@pytest.mark.parametrize("resolution, residual", [
    (65, 8.5e-16), (129, 8.9e-16), (257, 9.9e-16)])
def test_hat_phi3_residual_keeps_its_figure(resolution, residual):
    # the figures of the mesh sum with exact Hurwitz tails over the cell
    # mesh: rounding level, where the truncated sum at order 4096 left
    # 2.5e-13 to 3.7e-9
    rep = verify_phi_properties(spline(1, 1.0), 1.0, resolution=resolution)
    check = next(c for c in rep.checks if c.name == "phi3_representations")
    assert check.status == "ok"
    assert abs(check.residual - residual) <= 1e-15


@pytest.mark.parametrize("sigma", [1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_spline_audit_is_at_rounding_level_on_its_own_lattice(m, sigma):
    # exact Hurwitz tails in Phi3's spectral sum and in Phi4's lattice D
    for resolution in (33, 49, 65):
        rep = verify_phi_properties(spline(m, sigma), sigma, resolution=resolution)
        assert rep.ok, _statuses(rep)
        for check in rep.checks:
            if check.name in ("phi3_representations", "phi4_pairing"):
                assert check.residual <= 1e-14, (check.name, resolution)


@pytest.mark.parametrize("m, sigma_b, sigma, resolution, name", [
    (0, 2.0, 1.0, 33, "phi4_pairing"), (0, 3.0, 1.0, 33, "phi4_pairing"),
    (2, 2.0, 1.0, 65, "phi3_representations"),
    (1, 1.0, 2.0, 33, "phi3_representations")])
def test_spline_audit_off_its_own_lattice_is_at_rounding_level(
        m, sigma_b, sigma, resolution, name):
    # sigma/sigma_B = 1/2, 1/3 or 2: the class tails make Phi3's spectral
    # sum and Phi4's lattice D exact, where a truncated sum with a tail
    # estimate left 1.2e-3 and 1.7e-3 (Phi4 of the box), 1.7e-7 and 4.9e-13
    rep = verify_phi_properties(spline(m, sigma_b), sigma, resolution=resolution)
    assert rep.ok, _statuses(rep)
    check = next(c for c in rep.checks if c.name == name)
    assert check.status == "ok" and check.residual <= 1e-14


def test_representations_check_is_skipped_where_the_spectral_sum_is_refused():
    # a hat at an irrational sigma_B: no class split, and the envelope of
    # its 1/u^2 terms needs past 200 000 terms at Phi3's tol, so the
    # spectral sum raises; the audit reports Phi3 skipped with the reason
    gen = spline(1, math.sqrt(2.0))
    with pytest.raises(TruncationError):
        phi_freq(gen, 1.0, 0.3, 0.2, tol=1e-10)
    rep = verify_phi_properties(gen, 1.0, resolution=33)
    assert rep.ok, _statuses(rep)
    check = next(c for c in rep.checks if c.name == "phi3_representations")
    assert check.status == "skipped" and "lattice truncation" in check.detail
    assert _statuses(rep)["phi4_pairing"] == "ok"


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_phi_rejects_a_nonpositive_sigma(sigma):
    for gen in (spline(2, 1.0), gaussian_generator(1.0)):
        with pytest.raises(InvalidGridError):
            phi_time(gen, sigma, 0.3, 0.2)
        with pytest.raises(InvalidGridError):
            phi_freq(gen, sigma, 0.3, 0.2)
    with pytest.raises(InvalidGridError):
        phi_freq(sinc_gen(1.0), sigma, 0.3, 0.2)


def _statuses(report):
    return {c.name: c.status for c in report.checks}


def test_property_suite_bandlimited():
    rep = verify_phi_properties(sinc_gen(1.0), 1.0)
    st = _statuses(rep)
    assert rep.ok
    assert st["phi3_representations"] == "skipped"
    for c in rep.checks:
        if c.status == "ok":
            assert c.residual <= 1e-8, c.name


@pytest.mark.parametrize("m", [0, 1, 2])
def test_property_suite_splines(m):
    rep = verify_phi_properties(spline(m, 1.0), 1.0, resolution=129)
    assert rep.ok, _statuses(rep)
    st = _statuses(rep)
    if m == 0:
        assert st["phi3_representations"] == "skipped"
    else:
        assert st["phi3_representations"] == "ok"


def test_property_suite_gaussian():
    rep = verify_phi_properties(gaussian_generator(1.0), 1.0, resolution=65)
    assert rep.ok, _statuses(rep)
    assert _statuses(rep)["phi3_representations"] == "ok"


@pytest.mark.parametrize("resolution", [8, 7, 128])
def test_property_suite_rejects_bad_resolution(resolution):
    with pytest.raises(ValueError):
        verify_phi_properties(spline(1, 1.0), 1.0, resolution=resolution)


def test_property_suite_catches_inconsistent_generators():
    """A deliberately mismatched time/spectrum pair must fail the audit."""
    w_time, w_spec = 1.0, 2.0

    def spectrum(y):
        y = np.asarray(y, dtype=float)
        return (w_spec / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * (w_spec * y) ** 2) + 0.0j

    def time_domain(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * (x / w_time) ** 2) + 0.0j

    liar = Generator(
        label="mismatched", spectrum=spectrum, decay_exponent=40.0,
        decay_constant=2.0, time_domain=time_domain,
        time_radius=gaussian_generator(w_time).time_radius,
        autocorrelation=lambda tau: (
            w_time * math.sqrt(math.pi) * np.exp(-tau * tau / (4.0 * w_time ** 2))),
    )
    rep = verify_phi_properties(liar, 1.0, resolution=65)
    assert not rep.ok
    assert _statuses(rep)["phi3_representations"] == "fail"


@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_undeclared_autocorrelation_raises(sigma):
    # without its closed form the Cauchy kernel declares no source of its
    # autocorrelation (no support, no spectral support): nothing to
    # integrate over, so shift_autocorrelation raises instead of guessing
    undeclared = dataclasses.replace(cauchy(), autocorrelation=None)
    with pytest.raises(TruncationError, match="closed-form autocorrelation"):
        shift_autocorrelation(undeclared, sigma, 4)
    with pytest.raises(TruncationError):
        verify_phi_properties(undeclared, sigma, resolution=33)


def test_pairing_without_a_lag_bound_is_skipped():
    # a consistent generator that declares no time window: the pairing
    # cannot bound the lags it would cut off, so it is skipped, not failed
    rep = verify_phi_properties(cauchy(), 1.0, resolution=33)
    assert rep.ok, _statuses(rep)
    st = _statuses(rep)
    assert st["phi4_pairing"] == "skipped"
    assert st["phi1_norm"] == "ok"
    detail = next(c.detail for c in rep.checks if c.name == "phi4_pairing")
    assert "lags" in detail


def test_periodization_and_pairing_read_one_lag_count(monkeypatch):
    # periodize's Poisson D and the Phi4 pairing ask the autocorrelation
    # for the same lags: the exact count of a declared support.  The space
    # cache starts empty, so every D here is computed
    asked = []
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())

    def recorded(gen, sigma, max_lag, *args):
        asked.append(max_lag)
        return shift_autocorrelation(gen, sigma, max_lag, *args)

    monkeypatch.setattr(spectral, "shift_autocorrelation", recorded)
    monkeypatch.setattr(zak, "shift_autocorrelation", recorded)
    for m in range(4):
        for sigma in (1.0, 2.0):
            asked.clear()
            periodize(spline(m, 1.0), sigma, make_uniform_grid(-sigma, sigma, 9))
            verify_phi_properties(spline(m, 1.0), sigma, resolution=9, tol=1e-6)
            lags = math.ceil((m + 1) * sigma - 1e-9) - 1
            assert asked == [lags, lags], (m, sigma)
    # the spline through time samples declares its closed form and its
    # support, [-8.25, 8.25] for samples on [-8, 8], so it takes the same
    # route: the largest d with d pi / sigma shorter than that support
    gen = sampled_gaussian()
    assert gen.support == (-8.25, 8.25)
    for sigma in (1.0, 2.0):
        asked.clear()
        periodize(gen, sigma, make_uniform_grid(-sigma, sigma, 9))
        verify_phi_properties(gen, sigma, resolution=9)
        lags = math.ceil(16.5 * sigma / math.pi) - 1
        assert asked == [lags, lags]
        assert spectral.poisson_lags(gen, sigma)[1]


@pytest.mark.parametrize("phase", [0.0, 0.5])
def test_sampled_generator_passes_the_audit(phase):
    # the quintic spline through 513 samples of e^{-x^2/2} e^{i phase x} on
    # +-8.6 is one function in time and frequency: every check is ok near
    # rounding; turned by e^{0.5 i x} it is not real, and conjugation is
    # skipped rather than graded
    grid = make_uniform_grid(-8.6, 8.6, 513)
    x = grid.nodes()
    gen = sampled_generator(SampledFunction(
        grid=grid, values=np.exp(-0.5 * x * x + 1j * phase * x)))
    assert gen.real_valued == (phase == 0.0)
    rep = verify_phi_properties(gen, 1.0, resolution=33)
    for check in rep.checks:
        if check.name == "phi2_conjugation" and phase:
            assert check.status == "skipped"
        else:
            assert check.status == "ok" and check.residual <= 1e-12, check


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: the hat sampled at h/32 as a file: generator reads "
    "Phi1 2.04e-3 against a budget of 8.39e-8 at resolution 33, quadrature "
    "error of the sampled spline, not a defect of the generator"))
def test_a_sampled_hat_passes_phi1_at_resolution_33():
    rep = verify_phi_properties(sampled_spline(1, 32), 1.0, resolution=33)
    assert _statuses(rep)["phi1_norm"] == "ok"
