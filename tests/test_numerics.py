import hashlib
import io
import math
import os
import shutil
import sys
import threading
import time
import warnings
from collections import OrderedDict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from shiftapprox import numerics
from shiftapprox.errors import InvalidGridError
from shiftapprox.numerics import (
    NUMPY_TEXT_VALUES,
    Grid,
    SampledFunction,
    SampledSpectrum,
    csv_mesh,
    csv_tables,
    csv_text,
    fourier_transform_sampled,
    integrate,
    integrate_values,
    l2_norm_sq,
    make_uniform_grid,
    period_extension,
    quadrature_weights,
    read_samples_csv,
    write_samples_csv,
)
from shiftapprox.shiftspace import _spectrum_of

from helpers import direct_fourier_sum, reference_csv, time_sample_shapes


def test_grid_nodes_hit_endpoints_exactly():
    g = make_uniform_grid(-1.5, 2.5, 1001)
    x = g.nodes()
    assert x[0] == -1.5 and x[-1] == 2.5
    assert g.count == 1001
    assert g.step == pytest.approx(4.0 / 1000.0, rel=0, abs=0)
    assert g.span() == 4.0


@pytest.mark.parametrize("bad", [
    dict(start=0.0, stop=0.0, count=5),
    dict(start=1.0, stop=0.0, count=5),
    dict(start=0.0, stop=1.0, count=1),
    dict(start=float("nan"), stop=1.0, count=5),
    dict(start=0.0, stop=float("inf"), count=5),
])
def test_grid_rejects_degenerate_input(bad):
    with pytest.raises(InvalidGridError):
        make_uniform_grid(**bad)


def test_grid_rejects_fractional_count():
    with pytest.raises(InvalidGridError):
        Grid(0.0, 1.0, 4.5)


def test_simpson_weights_integrate_cubics_exactly():
    g = make_uniform_grid(-2.0, 3.0, 11)
    x = g.nodes()
    w = quadrature_weights(g)
    assert w.sum() == pytest.approx(g.span(), rel=1e-15)
    for k in range(4):
        exact = (3.0 ** (k + 1) - (-2.0) ** (k + 1)) / (k + 1)
        assert (w * x ** k).sum() == pytest.approx(exact, rel=1e-14), k


def test_even_count_weights_fall_back_to_trailing_trapezoid():
    g = make_uniform_grid(0.0, 1.0, 10)
    w = quadrature_weights(g)
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    # quadratics are exact on the Simpson block, O(step^3) on the last panel
    x = g.nodes()
    err = abs((w * x ** 2).sum() - 1.0 / 3.0)
    assert err < g.step ** 3


def test_two_node_grid_is_a_single_trapezoid():
    g = make_uniform_grid(0.0, 2.0, 2)
    assert np.allclose(quadrature_weights(g), [1.0, 1.0])


def test_integrate_matches_closed_forms():
    g = make_uniform_grid(0.0, math.pi, 20001)
    x = g.nodes()
    s = SampledFunction(grid=g, values=np.sin(x) + 0.0j)
    assert complex(integrate(s)).real == pytest.approx(2.0, rel=1e-12)
    assert l2_norm_sq(s) == pytest.approx(math.pi / 2.0, rel=1e-12)
    mixed = np.exp(1j * x)
    val = integrate_values(mixed, g)
    assert val.real == pytest.approx(0.0, abs=1e-12)
    assert val.imag == pytest.approx(2.0, rel=1e-12)


def test_sampled_values_must_match_grid_and_be_finite():
    g = make_uniform_grid(0.0, 1.0, 5)
    with pytest.raises(InvalidGridError):
        SampledFunction(grid=g, values=np.zeros(4))
    bad = np.zeros(5, dtype=np.complex128)
    bad[2] = np.nan
    with pytest.raises(InvalidGridError):
        SampledSpectrum(grid=g, values=bad)


def _gauss_samples(width: float = 1.0, radius: float = 12.0, count: int = 8193):
    g = make_uniform_grid(-radius, radius, count)
    x = g.nodes()
    return SampledFunction(grid=g, values=np.exp(-0.5 * (x / width) ** 2) + 0.0j)


def test_fourier_transform_matches_analytic_gaussian():
    f = _gauss_samples()
    freq = make_uniform_grid(-8.0, 8.0, 1601)
    spec = fourier_transform_sampled(f, freq)
    y = freq.nodes()
    ref = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(spec.values - ref)) < 1e-12


def test_fourier_transform_plancherel_and_linearity():
    f = _gauss_samples()
    x = f.grid.nodes()
    g2 = SampledFunction(grid=f.grid,
                         values=np.exp(-0.5 * (x - 1.0) ** 2) * np.exp(2j * x))
    freq = make_uniform_grid(-10.0, 10.0, 4097)
    fa = fourier_transform_sampled(f, freq)
    fb = fourier_transform_sampled(g2, freq)
    combo = SampledFunction(grid=f.grid, values=f.values + (0.5 - 2j) * g2.values)
    fc = fourier_transform_sampled(combo, freq)
    assert np.max(np.abs(fc.values - fa.values - (0.5 - 2j) * fb.values)) < 1e-14
    # norm(f)^2 = 2 pi norm(fhat)^2 under the 1/2pi-forward convention
    assert 2.0 * math.pi * l2_norm_sq(fa) == pytest.approx(
        l2_norm_sq(f), rel=1e-9)


def test_fourier_transform_is_deterministic():
    f = _gauss_samples(count=2049)
    freq = make_uniform_grid(-5.0, 5.0, 513)
    a = fourier_transform_sampled(f, freq).values
    b = fourier_transform_sampled(f, freq).values
    assert np.array_equal(a, b)


# (time grid, frequency grid, frequency rows checked against the direct sum)
_CHIRP_CASES = {
    # compare shape: 513 samples onto more than 1e5 nodes, every node checked
    "compare": ((-8.6, 8.6, 513), (-33.0, 33.0, 135_169), None),
    # two frequency blocks; the direct sum at every node would take a minute
    "long": ((-16.0, 16.0, 32_769), (-9.0, 9.0, 36_865),
             np.r_[0:36_865:61, 32_760:32_780, 36_864]),
    # even count: Simpson plus the trapezoid tail panel
    "even": ((-6.0, 6.0, 1_000), (-12.0, 12.0, 4_001), None),
    "two-node": ((-1.5, 2.0, 2), (-40.0, 40.0, 97), None),
    # x0 != 0 with an asymmetric frequency grid
    "offset": ((2.0, 7.0, 301), (-3.0, 11.0, 5_000), None),
}


@pytest.mark.parametrize("case", sorted(_CHIRP_CASES))
def test_chirp_transform_matches_direct_sum(case):
    (x0, x1, n), (y0, y1, m), rows = _CHIRP_CASES[case]
    g = make_uniform_grid(x0, x1, n)
    x = g.nodes()
    rng = np.random.default_rng(n)
    vals = (np.exp(-0.5 * x * x) * (1.0 + 0.3j * np.sin(3.0 * x))
            + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    f = SampledFunction(grid=g, values=vals)
    freq = make_uniform_grid(y0, y1, m)
    fast = fourier_transform_sampled(f, freq).values
    assert fast.shape == (m,)
    idx = np.arange(m) if rows is None else rows
    ref = direct_fourier_sum(f, freq, idx)
    # the direct sum's own phase rounding: eps * |x y| on every term
    mass = np.sum(np.abs(quadrature_weights(g) * vals)) / (2.0 * math.pi)
    envelope = (np.finfo(float).eps * np.max(np.abs(x))
                * np.max(np.abs(freq.nodes())) * mass)
    assert np.max(np.abs(fast[idx] - ref)) <= envelope


@pytest.mark.parametrize("name", sorted(time_sample_shapes()))
def test_rings_keep_the_inner_transform_and_match_a_one_shot(name, monkeypatch):
    # the spectrum the keeper holds for read-only samples, after its
    # doubling (windows 1 -> 2 -> 4, fewer where the samples do not resolve
    # them), is one transform of the extension it ends on, bit for bit, and
    # matches the direct sum
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    f, sigma, n = time_sample_shapes()[name]
    values = f.values.copy()
    values.flags.writeable = False
    spec = _spectrum_of(SampledFunction(f.grid, values), sigma, Grid(-sigma, sigma, n))
    assert [key[0] for key in numerics._KEPT].count("spectrum") == 1
    windows = (spec.grid.count - 1) // (2 * n - 2)
    assert spec.grid == period_extension(sigma, n, windows)
    whole = fourier_transform_sampled(f, spec.grid).values
    assert np.array_equal(spec.values, whole)
    top = np.max(np.abs(whole))
    rows = np.r_[0:spec.grid.count:max(1, spec.grid.count // 400),
                 spec.grid.count - 1]
    ref = direct_fourier_sum(f, spec.grid, rows)
    assert np.max(np.abs(spec.values[rows] - ref)) <= 1e-14 * top


def test_transforms_sharing_chirp_plans_across_threads():
    # three pairs of grids through a plan cache of one: most calls evict a
    # plan another thread may be using, and every result must stay the
    # serial one
    cases = []
    for count in (241, 257, 273):
        f = _gauss_samples(count=count)
        cases.append((f, period_extension(1.0, 129, 2)))
    want = [fourier_transform_sampled(f, freq).values for f, freq in cases]
    errors = []

    def worker(offset):
        try:
            for k in range(40):
                i = (offset + k) % 3
                got = fourier_transform_sampled(*cases[i]).values
                if not np.array_equal(got, want[i]):
                    errors.append(i)
        except Exception as exc:  # a thread's exception, reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_csv_round_trip_is_exact():
    g = make_uniform_grid(-1.0, 1.0, 257)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(257) + 1j * rng.standard_normal(257)
    for cls in (SampledFunction, SampledSpectrum):
        buf = io.StringIO()
        write_samples_csv(buf, cls(grid=g, values=vals))
        back = read_samples_csv(io.StringIO(buf.getvalue()))
        assert isinstance(back, cls)
        assert np.array_equal(back.values, vals)
        assert back.grid.count == 257


def _around(x: float) -> list:
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


_CSV_CASES = {
    "special": [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                2.225073858507201e-308, -2.2250738585072014e-308, 1e-300, 1e300],
    # where %.17g switches between fixed and exponent notation
    "around_1e-5": _around(1e-5) + [-v for v in _around(1e-5)],
    "around_1e-4": _around(1e-4) + [-v for v in _around(1e-4)],
    "around_1e16": _around(1e16) + [-v for v in _around(1e16)],
    "around_1e17": _around(1e17) + [-v for v in _around(1e17)],
    "powers_of_ten": [v for k in range(-300, 301) for v in _around(float(f"1e{k}"))],
    "random": np.random.default_rng(3).standard_normal(64) * 10.0 ** np.arange(-32, 32),
    # bit patterns over the whole double range, nan and inf included
    "random_bits": np.random.default_rng(5).integers(
        0, 2 ** 64, 4096, dtype=np.uint64).view(np.float64),
    # exact ties at the 17th digit round to even: 1000000000000000.2 and
    # 1000000000000000.8; near-ties a few ulps off
    "ties": [1e15 + 0.25, 1e15 + 0.75, -1e15 - 0.25, 0.5, 2.5, 123456789012345.625,
             np.nextafter(1e15 + 0.25, 0.0), np.nextafter(1e15 + 0.75, np.inf)],
    # Python ints beyond 2**53 (and beyond int64) format as float(v) does
    "big_ints": [2 ** 53 + 1, 2 ** 60 + 3, -(2 ** 62) - 1, 2 ** 64 + 1,
                 10 ** 20 + 7, -(2 ** 70)],
}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_csv_text_matches_per_value_format(case):
    short = np.asarray(_CSV_CASES[case])
    # repeated to NUMPY_TEXT_VALUES rows every table of them takes the numpy
    # formatter
    for col in (short, np.resize(short, max(short.size, NUMPY_TEXT_VALUES))):
        ints = np.arange(-(col.size // 2), col.size - col.size // 2)
        columns = [ints.tolist(), col.tolist(), col[::-1].tolist()]
        assert csv_text(ints, col, col[::-1]) == reference_csv(*columns)
        assert csv_text(*columns) == reference_csv(*columns)
        assert csv_text(col) == reference_csv(col.tolist())
    # single rows take the same template
    assert csv_text(ints[:1], col[:1]) == reference_csv(ints[:1].tolist(), col[:1].tolist())


def _near_ties() -> list:
    """Doubles whose 17-digit rounding is within 1e-9 of a tie without being
    one: d / 2**60 in [1e-7, 1e-6), its digits d * 5**23 / 2**37, with
    d * 5**23 = 2**36 + r (mod 2**37), so the fraction is 1/2 + r / 2**37."""
    modulus = 2 ** 37
    inverse = pow(5 ** 23, -1, modulus)
    low = -(-(2 ** 60) // 10 ** 7)
    out = []
    for r in (-5, -1, 1, 3):
        d = (2 ** 36 + r) * inverse % modulus
        d += -(-(low - d) // modulus) * modulus
        for k in range(0, 6, 2):
            out += [(d + k * modulus) / 2 ** 60, -(d + k * modulus) / 2 ** 60]
    return out


def test_near_ties_are_within_1e_9_of_a_tie():
    for v in _near_ties():
        fraction = abs(Fraction(v)) * 10 ** 23 % 1
        assert 1e-7 <= abs(v) < 1e-6
        assert 0 < abs(fraction - Fraction(1, 2)) < Fraction(1, 10 ** 9)


# signed zeros, nan, infinities, subnormals, +-1e+-300, powers of ten, exact
# ties and near-ties of the 17th digit, and ordinary doubles
_AWKWARD = np.array(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
     2.225073858507201e-308, -2.2250738585072014e-308,
     1e-300, -1e-300, 1e300, -1e300, 1e15 + 0.25, -1e15 - 0.75, 2.5]
    + [float(f"{s}1e{k}") for k in range(-300, 301, 13) for s in "+-"]
    + _near_ties()
    + list(np.random.default_rng(11).standard_normal(40)
           * 10.0 ** np.arange(-20, 20)))


@pytest.mark.parametrize("rows,width", sorted(
    {(NUMPY_TEXT_VALUES // w + d, w) for w in (1, 2, 3, 4) for d in (-1, 0, 1)}
    | {(1025, 2), (1025, 3), (1366, 3), (2049, 3), (4097, 1)}))
def test_csv_text_one_pass_matches_per_value_format(rows, width):
    # either side of the crossover, one pass or row blocks of one pass each
    rng = np.random.default_rng(rows * 7 + width)
    floats = [rng.choice(_AWKWARD, rows) for _ in range(max(1, width - 1))]
    ints = np.arange(rows, dtype=np.int64) - rows // 2
    columns = floats if width == 1 else [ints] + floats
    want = reference_csv(*(c.tolist() for c in columns))
    assert csv_text(*columns) == want
    assert csv_text(*(c.tolist() for c in columns)) == want


@pytest.mark.parametrize("first,second", [(17, 85), (17, 129), (65, 257),
                                          (129, 2049)])
def test_csv_tables_formats_each_table_as_csv_text(first, second):
    # coefficient- and zeta-shaped tables of 51 + 255 values (the template
    # for both), 51 + 387 and 195 + 771 (one under NUMPY_TEXT_VALUES alone,
    # numpy together) and 387 + 6147 (4356 data values, past _PASS_VALUES);
    # the second table holds values left to Python's %
    rng = np.random.default_rng(first + second)
    j = first // 2
    index = make_uniform_grid(-j, j, first)
    y = make_uniform_grid(-1.0, 1.0, second)
    coeff = rng.standard_normal((2, first))
    zeta = rng.choice(_AWKWARD, (2, second))
    zeta[0, :7] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 1e15 + 0.25]
    want = [reference_csv(index.nodes().tolist(), *coeff.tolist()),
            reference_csv(y.nodes().tolist(), *zeta.tolist())]
    assert csv_tables((index, *coeff), (y, *zeta)) == want
    assert csv_tables((index.nodes(), *coeff), (y.nodes(), *zeta)) == want
    assert [csv_text(index, *coeff), csv_text(y, *zeta)] == want
    # a table of no rows prints nothing, and no table gives no text
    assert csv_tables((y, *zeta), (coeff[0, :0], coeff[1, :0])) == [want[1], ""]
    assert csv_tables() == []


def test_csv_tables_formats_a_sweep_of_small_tables_in_one_pass(monkeypatch):
    # 200 two-value tables, as a besterr sigma sweep prints them: 400 values
    # take one numpy pass
    passes = []
    words = numerics._text_words
    monkeypatch.setattr(numerics, "_text_words",
                        lambda v: passes.append(np.size(v)) or words(v))
    rows = [((float(s),), np.array([_AWKWARD[s % _AWKWARD.size]]))
            for s in range(200)]
    assert csv_tables(*rows) == [reference_csv(*(np.asarray(c).tolist() for c in r))
                                 for r in rows]
    assert passes == [400]


@pytest.mark.parametrize("start,stop,count", [
    (-1.0, 1.0, 9), (-1.0, 1.0, NUMPY_TEXT_VALUES // 3 + 1), (-3.0, 3.0, 1025),
    (-np.pi, np.pi, 1366), (-1e-5, 1e-5, 2049), (0.0, np.pi / 1.7, 4097),
    (-4.0, 4.0, 9), (-64.0, 64.0, 129)])
def test_a_grid_column_prints_its_nodes(start, stop, count):
    # a Grid column prints what its nodes print: in the % template below
    # NUMPY_TEXT_VALUES, in one numpy pass, and past _PASS_VALUES in row
    # blocks, beside data columns with nan, signed zeros and values left to
    # Python's %
    grid = make_uniform_grid(start, stop, count)
    nodes = grid.nodes()
    rng = np.random.default_rng(count)
    a, b = rng.choice(_AWKWARD, count), rng.choice(_AWKWARD, count)
    want = reference_csv(nodes.tolist(), a.tolist(), b.tolist())
    assert csv_text(grid, a, b) == want == csv_text(nodes, a, b)
    assert csv_text(a, grid, b) == csv_text(a, nodes, b)
    assert csv_text(grid) == csv_text(nodes) == reference_csv(nodes.tolist())
    assert csv_text(grid, grid) == csv_text(nodes, nodes)
    words = grid.text_words()
    assert grid.text_words() is words and not words.flags.writeable


def test_power_table_holds_every_power_the_formatter_reads():
    offset = numerics._POWER_OFFSET
    assert numerics._POWERS.shape == (4, 2 * offset + 1)
    for x in range(-offset, offset + 1):
        assert tuple(numerics._POWERS[:, x + offset]) == numerics._power_of_ten(16 - x)
    # x is floor(log10 |v|) of a plain |v| in [1e-280, 1e280], as log10
    # rounds it, and moved once by one
    edges = np.array([1e-280, np.nextafter(1e-280, 1.0), 1e280,
                      np.nextafter(1e280, 0.0)])
    x = np.floor(np.log10(edges))
    assert -offset <= x.min() - 1 and x.max() + 1 <= offset


_MESH_MAGNITUDES = np.array([5e-324, 1e-300, 1e300, np.inf, np.nan, 0.0, 0.5,
                             1.0 / 3.0, 1e15 + 0.25])


@pytest.mark.parametrize("xs,ys", [(9, 9), (129, 129), (17, 9)])
def test_csv_mesh_prints_four_formatted_columns(monkeypatch, xs, ys):
    # every magnitude above under both signs (a nan with and without its
    # sign bit) in each column.  At d = 129 a block holds 7 x rows, so the
    # last holds 3, and re has more than _PASS_VALUES distinct magnitudes
    passes = []
    words = numerics._text_words
    monkeypatch.setattr(numerics, "_text_words",
                        lambda v: passes.append(np.size(v)) or words(v))
    rng = np.random.default_rng(xs * ys)
    signed = np.concatenate([_MESH_MAGNITUDES, -_MESH_MAGNITUDES])
    re, im = rng.choice(signed, (2, xs * ys))
    re[:signed.size] = im[-signed.size:] = signed
    if xs * ys > numerics._PASS_VALUES:
        rest = re[signed.size:]
        rest[:] = rng.standard_normal(rest.size) * 10.0 ** rng.integers(-20, 20, rest.size)
        assert np.unique(np.abs(re)).size > numerics._PASS_VALUES
    assert np.any(np.isnan(re) & np.signbit(re)) and np.any(np.isnan(re) & ~np.signbit(re))
    mesh = np.empty((xs, ys), dtype=np.complex128)
    mesh.real, mesh.imag = re.reshape(xs, ys), im.reshape(xs, ys)
    x, y = make_uniform_grid(0.0, np.pi, xs), make_uniform_grid(-1.0, 1.0, ys)
    assert csv_mesh(x, y, mesh) == reference_csv(
        np.repeat(x.nodes(), ys).tolist(), np.tile(y.nodes(), xs).tolist(),
        re.tolist(), im.tolist())
    assert max(passes) <= numerics._PASS_VALUES


def test_csv_header_selects_domain():
    buf = io.StringIO()
    write_samples_csv(buf, SampledSpectrum(
        grid=make_uniform_grid(0.0, 1.0, 3), values=np.ones(3)))
    assert buf.getvalue().splitlines()[0] == "y,re,im"


@pytest.mark.parametrize("text", [
    "a,b\n0,1\n1,2\n",
    "x,re,im\n0,1\n",
    "x,re,im\n0,1,0\nnope,2,0\n",
    "x,re,im\n0,1,0\n0.5,1,0\n0.7,1,0\n",
])
def test_csv_rejects_malformed_input(text):
    with pytest.raises(InvalidGridError):
        read_samples_csv(io.StringIO(text))


@pytest.mark.parametrize("text", [
    "x,re,im\n", "y,re,im\n", "x,re,im\n\n  \n", "y,re,im\n# no rows\n"])
def test_csv_without_rows_raises_without_a_warning(text, tmp_path):
    # numpy.loadtxt warns on input without data; the reader raises its own
    # error before, for a path and for a file object alike
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="ascii")
    for src in (str(path), io.StringIO(text)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidGridError, match="at least two rows"):
                read_samples_csv(src)
        assert caught == []


# ------------------------------------------------------- parsed-file cache

_PARSE = numerics._parse_samples


def _kept_bytes() -> int:
    """The sizes of everything the keeper holds."""
    return sum(size(value) for value, size in numerics._KEPT.values())


@pytest.fixture
def parses(monkeypatch):
    """An empty keeper and path index, and the (header, body) pairs the
    parse function got."""
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    monkeypatch.setattr(numerics, "_PATHS", {})
    seen = []
    parse = numerics._parse_samples

    def counting(header, body):
        seen.append((header, body))
        return parse(header, body)

    monkeypatch.setattr(numerics, "_parse_samples", counting)
    return seen


def _samples_file(path, seed: int, count: int = 65) -> np.ndarray:
    re, im = np.random.default_rng(seed).standard_normal((2, count))
    vals = re + 1j * im
    write_samples_csv(str(path), SampledFunction(
        grid=make_uniform_grid(-2.0, 2.0, count), values=vals))
    return vals


@pytest.fixture
def digests(monkeypatch):
    """The byte strings `read_samples_csv` hashed."""
    seen = []

    def counting(raw):
        seen.append(raw)
        return hashlib.sha256(raw)

    monkeypatch.setattr(numerics, "hashlib", SimpleNamespace(sha256=counting))
    return seen


@pytest.fixture
def settled(monkeypatch):
    """A racy window that takes a file written just now as settled (up to
    an hour in the future)."""
    monkeypatch.setattr(numerics, "_RACY_NS", -3600 * 10 ** 9)


@pytest.fixture
def frozen_clock(monkeypatch):
    """Signatures whose mtime and ctime never tick, as on a file system
    with coarse timestamps: only device, inode and size tell files apart."""
    signature, stamp = numerics._signature, time.time_ns()

    def frozen(fh):
        return signature(fh)._replace(mtime_ns=stamp, ctime_ns=stamp)

    monkeypatch.setattr(numerics, "_signature", frozen)


def _fresh(path) -> SampledFunction | SampledSpectrum:
    """What a first read of the file's bytes as they are now returns."""
    header, *body = path.read_bytes().splitlines()
    return _PARSE(header.decode("ascii"), body)


def _same(loaded, path) -> bool:
    fresh = _fresh(path)
    return (type(loaded) is type(fresh) and loaded.grid == fresh.grid
            and np.array_equal(loaded.values, fresh.values))


def test_csv_file_read_three_times_is_parsed_once(
        tmp_path, parses, digests, settled):
    # and, unchanged since it was settled, read and hashed once
    path = tmp_path / "f.csv"
    vals = _samples_file(path, 11)
    reads = [read_samples_csv(str(path)) for _ in range(3)]
    assert len(parses) == 1 and len(digests) == 1
    assert all(r is reads[0] for r in reads)
    assert np.array_equal(reads[0].values, vals) and _same(reads[0], path)


def test_csv_copy_at_another_path_is_a_cache_hit(tmp_path, parses):
    _samples_file(tmp_path / "f.csv", 14)
    first = read_samples_csv(str(tmp_path / "f.csv"))
    shutil.copyfile(tmp_path / "f.csv", tmp_path / "copy.csv")
    assert read_samples_csv(str(tmp_path / "copy.csv")) is first
    assert len(parses) == 1


def test_csv_rewrite_with_same_size_and_mtime_reads_new_values(tmp_path, parses):
    path = tmp_path / "f.csv"
    path.write_text("x,re,im\n0,1,0\n1,2,0\n", encoding="ascii")
    stamp = os.stat(path).st_mtime_ns
    first = read_samples_csv(str(path))
    path.write_text("x,re,im\n0,3,0\n1,4,0\n", encoding="ascii")
    os.utime(path, ns=(stamp, stamp))
    second = read_samples_csv(str(path))
    assert np.array_equal(first.values, [1, 2])
    assert np.array_equal(second.values, [3, 4])
    assert len(parses) == 2


def test_csv_crlf_file_reads_as_lf(tmp_path, parses):
    # CRLF, CR-only and blank lines read as the LF file does, as a
    # text-mode read sees them
    vals = _samples_file(tmp_path / "lf.csv", 12)
    text = (tmp_path / "lf.csv").read_bytes()
    grid = read_samples_csv(str(tmp_path / "lf.csv")).grid
    for name, newline in (("crlf", b"\r\n"), ("cr", b"\r"), ("blank", b"\n\n")):
        (tmp_path / f"{name}.csv").write_bytes(text.replace(b"\n", newline))
        back = read_samples_csv(str(tmp_path / f"{name}.csv"))
        assert np.array_equal(back.values, vals), name
        assert back.grid == grid, name
    assert len(parses) == 4


def test_cached_csv_values_are_read_only(tmp_path, parses):
    _samples_file(tmp_path / "f.csv", 13)
    loaded = read_samples_csv(str(tmp_path / "f.csv"))
    with pytest.raises(ValueError):
        loaded.values[0] = 0.0
    with pytest.raises(ValueError):
        loaded.values *= 2.0


def test_bad_csv_file_raises_on_every_read(tmp_path, parses, digests, settled):
    # a settled bad file is not recorded by path either
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0,1,0\nnope,2,0\n", encoding="ascii")
    for _ in range(3):
        with pytest.raises(InvalidGridError):
            read_samples_csv(str(path))
    assert len(parses) == 3 and len(digests) == 3
    assert not numerics._KEPT and not numerics._PATHS


def test_a_file_changed_within_the_racy_window_is_hashed_again(
        tmp_path, parses, digests, frozen_clock, monkeypatch):
    # the signature cannot see a same-size rewrite inside one timestamp
    # tick: a file changed that recently is never read by its signature
    monkeypatch.setattr(numerics, "_RACY_NS", 3600 * 10 ** 9)
    path = tmp_path / "f.csv"
    path.write_text("x,re,im\n0,1,0\n1,2,0\n", encoding="ascii")
    first = read_samples_csv(str(path))
    assert _same(first, path) and not numerics._PATHS
    path.write_text("x,re,im\n0,3,0\n1,4,0\n", encoding="ascii")
    second = read_samples_csv(str(path))
    assert _same(second, path) and np.array_equal(second.values, [3, 4])
    assert len(parses) == 2 and len(digests) == 2


def test_a_file_replaced_with_same_size_and_mtime_reads_new_values(
        tmp_path, parses, digests, frozen_clock, settled):
    path, new = tmp_path / "f.csv", tmp_path / "new.csv"
    path.write_text("x,re,im\n0,1,0\n1,2,0\n", encoding="ascii")
    new.write_text("x,re,im\n0,5,0\n1,6,0\n", encoding="ascii")
    stamp = os.stat(path).st_mtime_ns
    os.utime(new, ns=(stamp, stamp))
    first = read_samples_csv(str(path))
    assert read_samples_csv(str(path)) is first and len(digests) == 1
    inode = os.stat(path).st_ino
    os.replace(new, path)
    assert os.stat(path).st_ino != inode
    second = read_samples_csv(str(path))
    assert _same(second, path) and np.array_equal(second.values, [5, 6])
    assert len(parses) == 2 and len(digests) == 2


def test_a_file_changed_during_its_read_is_hashed_again(
        tmp_path, parses, digests, settled, monkeypatch):
    # a writer appends a row while the first read is under way: that read
    # returns the bytes it got and records nothing
    path = tmp_path / "f.csv"
    path.write_text("x,re,im\n0,1,0\n1,2,0\n", encoding="ascii")
    opened = []

    class Appending:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def fileno(self):
            return self.fh.fileno()

        def read(self):
            data = self.fh.read()
            with open(path, "a", encoding="ascii") as out:
                out.write("2,3,0\n")
            return data

    def appending_once(*args):
        opened.append(args)
        fh = open(*args)
        return Appending(fh) if len(opened) == 1 else fh

    monkeypatch.setattr(numerics, "open", appending_once, raising=False)
    first = read_samples_csv(str(path))
    assert np.array_equal(first.values, [1, 2]) and not numerics._PATHS
    second = read_samples_csv(str(path))
    assert _same(second, path) and np.array_equal(second.values, [1, 2, 3])
    assert len(parses) == 2 and len(digests) == 2 and len(opened) == 2

def test_non_ascii_csv_file_names_the_byte(tmp_path, parses):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"x,re,im\n0,1,0\n1,\xc3,0\n")
    with pytest.raises(InvalidGridError, match=r"latin\.csv: byte 0xc3 at offset 16"):
        read_samples_csv(str(path))


def test_csv_cache_drops_least_recently_read_past_its_bound(
        tmp_path, parses, digests, settled, monkeypatch):
    # 65 complex values are 1040 bytes: two fit under the bound, three do
    # not.  A path whose content was dropped leaves the path table with it
    # and is read and hashed anew
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 2500)
    for i in range(3):
        _samples_file(tmp_path / f"{i}.csv", 20 + i)
    read_samples_csv(str(tmp_path / "0.csv"))
    read_samples_csv(str(tmp_path / "1.csv"))
    read_samples_csv(str(tmp_path / "0.csv"))       # 1 is now the oldest
    read_samples_csv(str(tmp_path / "2.csv"))
    assert len(parses) == 3 and len(digests) == 3
    assert _kept_bytes() <= 2500
    assert sorted(numerics._PATHS) == [str(tmp_path / f"{i}.csv") for i in (0, 2)]
    read_samples_csv(str(tmp_path / "0.csv"))
    read_samples_csv(str(tmp_path / "2.csv"))
    assert len(parses) == 3 and len(digests) == 3
    assert _same(read_samples_csv(str(tmp_path / "1.csv")), tmp_path / "1.csv")
    assert len(parses) == 4 and len(digests) == 4
    # an entry larger than the bound is returned but neither kept nor
    # recorded by path
    _samples_file(tmp_path / "big.csv", 23, count=257)
    read_samples_csv(str(tmp_path / "big.csv"))
    read_samples_csv(str(tmp_path / "big.csv"))
    assert len(parses) == 6 and len(digests) == 6
    assert str(tmp_path / "big.csv") not in numerics._PATHS


def test_csv_cache_counts_the_grid_nodes_a_parse_holds(
        tmp_path, parses, settled, monkeypatch):
    # a grid keeps its nodes once read: 65 of them are 520 bytes more on
    # the 1040 of a parse's values, so two parses no longer fit under 2500
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 2500)
    for i in range(2):
        _samples_file(tmp_path / f"{i}.csv", 40 + i)
    first = read_samples_csv(str(tmp_path / "0.csv"))
    assert first.grid.nodes() is first.grid.nodes()
    read_samples_csv(str(tmp_path / "1.csv"))
    assert len(numerics._KEPT) == 1
    assert sorted(numerics._PATHS) == [str(tmp_path / "1.csv")]


def test_csv_cache_under_concurrent_reads(tmp_path, parses, settled, monkeypatch):
    # threads that share the cache and the path table, with a bound that
    # evicts on most reads
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 2500)
    want = [_samples_file(tmp_path / f"{i}.csv", 30 + i) for i in range(4)]
    errors = []

    def reader(offset):
        try:
            for k in range(60):
                i = (offset + k) % 4
                got = read_samples_csv(str(tmp_path / f"{i}.csv")).values
                if not np.array_equal(got, want[i]):
                    errors.append(i)
        except Exception as exc:  # a thread's exception, reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _kept_bytes() <= 2500
    assert all(key in numerics._KEPT for _, key in numerics._PATHS.values())


def test_csv_file_objects_are_not_cached(parses):
    text = "x,re,im\n0,1,0\n1,2,0\n"
    first = read_samples_csv(io.StringIO(text))
    second = read_samples_csv(io.StringIO(text))
    assert len(parses) == 2 and first is not second
    assert not numerics._KEPT and not numerics._PATHS


def test_a_64_window_extension_at_the_default_dgrid_stays_shared(monkeypatch):
    # its nodes alone are 4 227 080 bytes, and the one bound holds them
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    grid = numerics.period_extension(1.0, 4097, 64)
    assert grid.nodes().nbytes == 4_227_080
    assert numerics.period_extension(1.0, 4097, 64) is grid
    assert _kept_bytes() == 4_227_080
