"""The keeper: one generator per family spec and per parsed file, D and
the fold's B-hat kept per generator and grid, the spectrum of time samples
kept per samples object, one shared grid per (start, stop, count), and the
bytes of fresh runs.

`numerics.keep` holds the period grids, their extensions, node text and
Simpson rows (`shared_grid`), parsed CSV content (`read_samples_csv`),
file generators, D (`periodize`), the conjugate spectrum a fold reads
(`lattice_spectrum`) and the transform of read-only time samples
(`shiftspace._spectrum_of`) in one least-recently-used table under one
byte bound.  Every reuse must print what a process that starts empty
prints.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftapprox import (cli, generator, numerics, oracle, shiftspace,
                         spectral, zak)
from shiftapprox.generator import (CardinalSpline, bandlimited_generator,
                                   bspline_generator, gaussian_generator,
                                   parse_generator_spec, spline_generator)
from shiftapprox.numerics import (Grid, SampledFunction, csv_text,
                                  read_samples_csv, shared_grid,
                                  write_samples_csv)
from shiftapprox.shiftspace import project
from shiftapprox.spectral import lattice_spectrum, periodize

from helpers import fixed_gaussian_samples, run_cli


def _empty_caches() -> None:
    """The state of a fresh process: no shared generator, no kept space,
    no shared grid, no parsed file."""
    numerics._KEPT.clear()
    numerics._PATHS.clear()
    for build in (generator._bspline, generator._gaussian, generator._bandlimited):
        build.cache_clear()


@pytest.fixture
def empty(monkeypatch):
    """A keeper and a path index of their own, empty, with the generator
    memos cleared."""
    monkeypatch.setattr(numerics, "_KEPT", OrderedDict())
    monkeypatch.setattr(numerics, "_PATHS", {})
    _empty_caches()


def _kept_bytes() -> int:
    """The sizes of everything the keeper holds, every kind together."""
    return sum(size(value) for value, size in numerics._KEPT.values())


def _kinds() -> list:
    return [key[0] for key in numerics._KEPT]


def _kept_of(kind: str) -> list:
    return [value for key, (value, _) in numerics._KEPT.items() if key[0] == kind]


def _kept_generators() -> list:
    """The owners of the entries `spectral._kept` made."""
    return [key[1]() for key in numerics._KEPT if key[0] in ("D", "fold", "spectrum")]


def test_family_specs_share_one_generator(empty):
    assert bspline_generator(2, 1.0) is bspline_generator(2, 1.0)
    assert bspline_generator(2, 1) is bspline_generator(degree=2, sigma=1.0)
    assert parse_generator_spec("bspline:m=2") is bspline_generator(2, 1.0)
    assert parse_generator_spec("gauss:width=1.1") is gaussian_generator(1.1)
    assert parse_generator_spec("sinc:sigma=2") is bandlimited_generator(2.0)
    # the labels print sigma alike; the spaces are two objects with two D
    a, b = bspline_generator(2, 1.41421356), bspline_generator(2, 1.414214)
    assert a.label == b.label and a is not b
    grid = Grid(start=-1.0, stop=1.0, count=33)
    da, db = periodize(a, 1.0, grid), periodize(b, 1.0, grid)
    assert not np.array_equal(da.values, db.values)
    assert _kinds() == ["D", "D"]


def test_shared_arrays_are_read_only(empty):
    gen = bspline_generator(2, 1.0)
    grid = Grid(start=-1.0, stop=1.0, count=33)
    dv = periodize(gen, 1.0, grid)
    assert periodize(gen, 1.0, grid).values is dv.values
    spec = lattice_spectrum(gen, 1.0, 33, 2)
    assert lattice_spectrum(gen, 1.0, 33, 2) is spec
    for shared in (dv.values, spec, gen.spline.coeffs, grid.nodes()):
        with pytest.raises(ValueError):
            shared[0] = 0.0
    assert np.array_equal(periodize(gen, 1.0, grid).values, dv.values)


def test_space_cache_keeps_its_byte_bound(empty, monkeypatch):
    # a D on 65 nodes is 520 bytes: two fit under 1200, three do not
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 1200)
    grid = Grid(start=-1.0, stop=1.0, count=65)
    a, b, c = (bspline_generator(m, 1.0) for m in (1, 2, 3))
    periodize(a, 1.0, grid)
    periodize(b, 1.0, grid)
    periodize(a, 1.0, grid)                 # b is now the oldest
    assert _kept_generators() == [b, a] and _kept_bytes() <= 1200
    periodize(c, 1.0, grid)
    assert _kept_generators() == [a, c] and _kept_bytes() <= 1200
    # an entry larger than the bound is returned but not kept
    wide = Grid(start=-1.0, stop=1.0, count=257)
    assert periodize(b, 1.0, wide).values.size == 257
    assert _kept_generators() == [a, c] and _kept_bytes() <= 1200


def test_a_dead_generator_leaves_the_cache(empty):
    # an entry does not keep its generator alive, and goes with it
    grid = Grid(start=-1.0, stop=1.0, count=33)
    gen = spline_generator(CardinalSpline(np.array([1.0, 0.5]), 3, np.pi, -3.0),
                           label="user")
    periodize(gen, 1.0, grid)
    assert _kept_generators() == [gen]
    del gen
    gc.collect()
    periodize(bspline_generator(1, 1.0), 1.0, grid)
    assert _kept_generators() == [bspline_generator(1, 1.0)]


def _frozen_samples() -> SampledFunction:
    """`fixed_gaussian_samples` whose values are read-only and own their
    memory, as a file parse's are: their spectrum is kept."""
    f = fixed_gaussian_samples()
    values = f.values.copy()
    values.flags.writeable = False
    return SampledFunction(f.grid, values)


def test_one_bound_covers_every_kind(empty, tmp_path, monkeypatch):
    # two parses of 65 values (1040 bytes each) fit under 2500 bytes; a D
    # on 129 nodes (1032 bytes) pushes out the oldest, and the path that
    # named it goes with it
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 2500)
    monkeypatch.setattr(numerics, "_RACY_NS", -3600 * 10 ** 9)
    paths = [str(tmp_path / f"{i}.csv") for i in range(2)]
    for i, path in enumerate(paths):
        write_samples_csv(path, SampledFunction(
            Grid(-2.0, 2.0, 65), np.full(65, 1.0 + i, dtype=complex)))
        read_samples_csv(path)
    assert _kinds() == ["csv", "csv"] and sorted(numerics._PATHS) == paths
    gen = bspline_generator(1, 1.0)
    d = periodize(gen, 1.0, Grid(-1.0, 1.0, 129))
    assert _kinds() == ["csv", "D"] and list(numerics._PATHS) == paths[1:]
    assert _kept_bytes() == 2072
    # a grid that grows pushes out what was stored before it: its nodes
    # (1032 bytes) the last parse, its Simpson row (1032 more) the D
    grid = shared_grid(-3.0, 3.0, 129)
    grid.nodes()
    assert _kinds() == ["D", "grid"] and not numerics._PATHS
    grid.weights()
    assert _kinds() == ["grid"] and _kept_bytes() == 2064
    again = periodize(gen, 1.0, Grid(-1.0, 1.0, 129))
    assert again.values is not d.values and np.array_equal(again.values, d.values)


def test_dead_owners_leave_the_keeper_at_the_next_store(empty, tmp_path):
    # a generator, a samples object and parsed content are held by weak
    # reference: once dead, their entries go at the next store, and dead
    # content takes its file generator and its spectrum with it
    path = tmp_path / "f-x.csv"
    write_samples_csv(str(path), fixed_gaussian_samples())
    grid = shared_grid(-1.0, 1.0, 129)
    user = spline_generator(CardinalSpline(np.array([1.0, 0.5]), 3, np.pi, -3.0),
                            label="user")
    periodize(user, 1.0, grid)
    samples = _frozen_samples()
    shiftspace._spectrum_of(samples, 1.0, grid)
    loaded = read_samples_csv(str(path))
    gen = parse_generator_spec(f"file:{path}")
    shiftspace._spectrum_of(loaded, 1.0, grid)
    kept = _kinds()
    assert kept.count("spectrum") == 2 and kept.count("D") == 1
    assert "file generator" in kept and "csv" in kept
    for key in [key for key in numerics._KEPT if key[0] == "csv"]:
        del numerics._KEPT[key]
    del user, samples, loaded, gen
    gc.collect()
    assert _kinds().count("spectrum") == 2   # dead, not yet dropped
    shared_grid(-2.0, 2.0, 9)               # the next store
    assert not {"D", "spectrum", "file generator", "csv"} & set(_kinds())


def test_an_entry_over_the_bound_is_handed_out_but_not_kept(empty, tmp_path,
                                                            monkeypatch):
    # under 1100 bytes: a 257-node grid's nodes, a 129-value parse, the
    # coefficients of a 65-sample spline (whose parse, 1040 bytes, fits), a
    # D on 257 nodes, a fold's B-hat and a kept spectrum are each too large
    # to keep; each is handed out, and the next call builds it anew
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 1100)
    grid = shared_grid(-1.0, 1.0, 257)
    assert grid.nodes().size == 257 and "grid" not in _kinds()
    assert shared_grid(-1.0, 1.0, 257) is not grid

    big = str(tmp_path / "big.csv")
    write_samples_csv(big, SampledFunction(Grid(-2.0, 2.0, 129),
                                           np.ones(129, dtype=complex)))
    assert read_samples_csv(big) is not read_samples_csv(big)
    assert "csv" not in _kinds()

    spline_file = str(tmp_path / "gen-x.csv")
    rng = np.random.default_rng(7)
    write_samples_csv(spline_file, SampledFunction(
        Grid(-2.0, 2.0, 65), rng.standard_normal(65) + 0j))
    gen = parse_generator_spec(f"file:{spline_file}")
    assert gen.spline.coeffs.nbytes > 1100
    assert parse_generator_spec(f"file:{spline_file}") is not gen
    assert "csv" in _kinds() and "file generator" not in _kinds()

    space = bspline_generator(2, 1.0)
    wide = Grid(-1.0, 1.0, 257)
    assert periodize(space, 1.0, wide).values is not periodize(space, 1.0, wide).values
    fold = lattice_spectrum(space, 1.0, 257, 1)
    assert lattice_spectrum(space, 1.0, 257, 1) is not fold
    samples = _frozen_samples()
    spec = shiftspace._spectrum_of(samples, 1.0, shared_grid(-1.0, 1.0, 129))
    again = shiftspace._spectrum_of(samples, 1.0, shared_grid(-1.0, 1.0, 129))
    assert again is not spec and again.values.tobytes() == spec.values.tobytes()
    assert not {"D", "fold", "spectrum"} & set(_kinds())
    assert _kept_bytes() <= 1100


def test_a_missed_fold_samples_b_on_the_nodes_of_f(empty, monkeypatch):
    # the first project of an analytic f on a space builds the frequency
    # extension's 7169 nodes once: B-hat's miss reads the fold's copy, and
    # the next project reads the shared extension's
    sizes = []
    linspace = np.linspace

    def counting(start, stop, num, *args, **kwargs):
        sizes.append(num)
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", counting)
    grid = Grid(start=-1.0, stop=1.0, count=1025)
    for built in (1, 0):
        sizes.clear()
        project(gaussian_generator(1.07), bspline_generator(3, 1.0), 1.0, 1.0,
                grid=grid)
        assert sizes.count(7169) == built


_EVERY_COMMAND = (
    ["dfun", "--gen", "bspline:m=2", "--dgrid", "65"],
    ["riesz", "--gen", "gauss:width=1", "--dgrid", "65"],
    ["zak", "--gen", "bspline:m=1", "--dgrid", "65"],
    ["validate", "--gen", "bspline:m=1", "--dgrid", "65"],
    ["project", "--gen", "bspline:m=2", "--f", "gauss:width=1.1",
     "--dgrid", "65", "--jrange", "4"],
    ["besterr", "--gen", "sinc", "--f", "gauss:width=0.9", "--dgrid", "65",
     "--sweep", "rho=0.5,1"],
    ["compare", "--gen", "bspline:m=1", "--f", "gauss:width=1",
     "--dgrid", "65", "--sweep", "jrange=2"],
)


def test_every_command_gets_one_grid_per_start_stop_count(empty, monkeypatch):
    # every grid handed out, the period grids, zak's cell grids, the fold's
    # extensions and project's index column, is one object per key, over
    # two runs of every command; and the grid D is sampled on is that one
    handed, sampled = {}, []
    share = numerics.shared_grid

    def recording(start, stop, count):
        grid = share(start, stop, count)
        handed.setdefault((start, stop, count), set()).add(id(grid))
        return grid

    def periodize_on(gen, sigma, grid, tol=1e-8):
        sampled.append(grid)
        return periodize(gen, sigma, grid, tol=tol)

    for module in (cli, numerics, zak):
        monkeypatch.setattr(module, "shared_grid", recording)
    monkeypatch.setattr(cli, "periodize", periodize_on)
    for _ in range(2):
        for argv in _EVERY_COMMAND:
            assert run_cli(argv)[0] == 0, argv
    sigma = (-1.0, 1.0, 65)
    assert {sigma, (0.0, np.pi, 65), (0.0, np.pi, 33), (-4, 4, 9)} <= set(handed)
    assert any(start < -1.0 and count > 65 for start, _, count in handed)
    assert all(len(ids) == 1 for ids in handed.values()), handed
    assert {id(grid) for grid in sampled} == handed[sigma]


def test_shared_grid_arrays_are_read_only(empty):
    grid = shared_grid(-1.0, 1.0, 33)
    assert shared_grid(-1, 1, 33) is grid
    assert numerics.period_extension(1.0, 33, 0) is grid
    assert shared_grid(0.0, 1.0, 33) is not shared_grid(-0.0, 1.0, 33)
    for held in (grid.nodes(), grid.text_words(), grid.weights(),
                 numerics.quadrature_weights(grid)):
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0] = 0
    assert grid.nodes() is grid.nodes() and grid.weights() is grid.weights()
    assert grid.held_bytes() == 33 * 8 * 2 + 33 * 6 * 8


def test_a_second_dfun_on_one_grid_formats_no_node(empty, monkeypatch):
    # the y column's words are built by the first dfun on the grid; a dfun
    # of another generator formats its D column alone
    formatted = []
    words = numerics._text_words

    def counting(values):
        formatted.append(np.size(values))
        return words(values)

    monkeypatch.setattr(numerics, "_text_words", counting)
    outputs = []
    for gen in ("bspline:m=2", "gauss:width=1.3"):
        formatted.clear()
        outputs.append(run_cli(["dfun", "--gen", gen, "--dgrid", "1025"]))
        assert outputs[-1][0] == 0
        assert formatted == ([1025, 1025] if gen == "bspline:m=2" else [1025])
    # a fresh state prints the same bytes
    for gen, got in zip(("bspline:m=2", "gauss:width=1.3"), outputs):
        _empty_caches()
        assert run_cli(["dfun", "--gen", gen, "--dgrid", "1025"]) == got


def test_the_grid_table_keeps_its_byte_bound(empty, monkeypatch):
    # a 65-node grid's nodes are 520 bytes and its words 3120: two grids'
    # nodes fit under 1200 bytes, three do not, and words do not fit at all
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 1200)
    held = _kept_bytes
    a, b, c = (shared_grid(-s, s, 65) for s in (1.0, 2.0, 3.0))
    for grid in (a, b):                     # a grid that builds is used
        grid.nodes()
    assert _kept_of("grid") == [c, a, b] and held() == 1040
    c.nodes()                               # a, the oldest, goes
    assert _kept_of("grid") == [b, c] and held() == 1040
    shared_grid(-2.0, 2.0, 65)              # b is now the newest
    assert _kept_of("grid") == [c, b]
    # a grid that outgrows the bound leaves the keeper, and still works
    words = b.text_words()
    assert _kept_of("grid") == [c] and held() <= 1200
    assert csv_text(b) == csv_text(b.nodes()) and b.text_words() is words
    assert shared_grid(-2.0, 2.0, 65) is not b


def _transforms(monkeypatch) -> list:
    """The frequency grids `shiftspace` transforms time samples onto, one
    entry per call of `fourier_transform_sampled` from now on."""
    grids = []
    transform = numerics.fourier_transform_sampled

    def counting(f, freq):
        grids.append(freq)
        return transform(f, freq)

    monkeypatch.setattr(shiftspace, "fourier_transform_sampled", counting)
    return grids


def _file_runs(path) -> list:
    f = ["--f", f"file:{path}", "--dgrid", "129"]
    return [["project", "--gen", "bspline:m=1", *f, "--jrange", "8"],
            ["project", "--gen", "bspline:m=2", *f, "--jrange", "8"],
            ["project", "--gen", "sinc", *f, "--rho", "0.6", "--jrange", "8"],
            ["besterr", "--gen", "bspline:m=2", *f, "--sweep", "rho=0.25,0.5,1"],
            ["compare", "--gen", "bspline:m=3", *f, "--sweep", "jrange=4,8"]]


def test_a_time_sample_file_is_transformed_once(empty, tmp_path, monkeypatch):
    # three projects onto three spaces, a besterr sweep and a compare read
    # the file's spectrum at one sigma and dgrid: the first transforms it
    # (three windows, then the doublings), the others transform nothing
    path = tmp_path / "f-x.csv"
    write_samples_csv(str(path), fixed_gaussian_samples())
    grids = _transforms(monkeypatch)
    warm = []
    for i, argv in enumerate(_file_runs(path)):
        grids.clear()
        warm.append(run_cli(argv))
        assert warm[-1][0] == 0, argv
        assert bool(grids) == (i == 0), argv
    # each prints the bytes of a fresh state, which transforms again
    for argv, got in zip(_file_runs(path), warm):
        _empty_caches()
        grids.clear()
        assert run_cli(argv) == got, argv
        assert grids, argv


def test_a_rewritten_time_sample_file_is_transformed_again(empty, tmp_path,
                                                            monkeypatch):
    path = tmp_path / "f-x.csv"
    samples = fixed_gaussian_samples()
    write_samples_csv(str(path), samples)
    grids = _transforms(monkeypatch)
    argv = _file_runs(path)[0]
    first = run_cli(argv)
    assert first[0] == 0 and grids
    grids.clear()
    write_samples_csv(str(path), SampledFunction(samples.grid, 2.0 * samples.values))
    second = run_cli(argv)
    assert second[0] == 0 and grids
    assert second != first
    _empty_caches()
    assert run_cli(argv) == second


def test_kept_spectra_are_read_only_and_keep_the_byte_bound(empty, tmp_path,
                                                          monkeypatch):
    # the 513 samples' spectrum at 129 nodes and sigma 1 folds 9 windows:
    # 1153 nodes, 18448 bytes.  Under a 20000-byte bound one spectrum is
    # kept at a time, with D (1032 bytes) beside it
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 20000)
    paths = [tmp_path / f"f{i}-x.csv" for i in range(3)]
    samples = fixed_gaussian_samples()
    for i, path in enumerate(paths):
        write_samples_csv(str(path), SampledFunction(samples.grid,
                                                     (1.0 + i) * samples.values))
    grid = shared_grid(-1.0, 1.0, 129)
    for path in paths:
        f = read_samples_csv(str(path))
        spec = shiftspace._spectrum_of(f, 1.0, grid)
        assert shiftspace._spectrum_of(f, 1.0, grid) is spec
        assert spec.grid.count == 1153 and not spec.values.flags.writeable
        with pytest.raises(ValueError):
            spec.values[0] = 0
        assert [key[1]() for key in numerics._KEPT
                if key[0] == "spectrum"] == [f]
        assert _kept_bytes() <= 20000
        # B-hat of the fold (18448 bytes) and D join and push out the oldest
        assert run_cli(["besterr", "--gen", "bspline:m=2", "--f", f"file:{path}",
                        "--dgrid", "129"])[0] == 0
        assert _kept_bytes() <= 20000


def test_a_writable_signal_is_transformed_on_every_call(empty, monkeypatch):
    # a caller's writable samples, or a read-only view of them, may change
    # between calls: each call transforms them and sees the change
    grids = _transforms(monkeypatch)
    gen, grid = bspline_generator(2, 1.0), shared_grid(-1.0, 1.0, 129)
    f = fixed_gaussian_samples()
    assert f.values.flags.writeable
    view = f.values.view()
    view.flags.writeable = False
    g = SampledFunction(f.grid, view)
    errors = []
    for signal in (f, f, g, g):
        grids.clear()
        errors.append(shiftspace.best_approx_error_sq(signal, gen, 1.0, 1.0,
                                                      grid=grid))
        assert grids
    assert len(set(errors)) == 1
    f.values[:] *= 2.0
    for signal in (f, g):
        assert shiftspace.best_approx_error_sq(signal, gen, 1.0, 1.0, grid=grid) \
            == pytest.approx(4.0 * errors[0], rel=1e-12)
    assert "spectrum" not in _kinds()


def test_one_file_generator_per_parsed_content(empty, tmp_path):
    # an unchanged file parses to one generator, its space kept once; a
    # rewritten file is new content and a new generator; the generator
    # lives no longer than the parsed content the CSV cache holds
    path = tmp_path / "gen-x.csv"
    samples = fixed_gaussian_samples()
    write_samples_csv(str(path), samples)
    spec = f"file:{path}"
    gen = parse_generator_spec(spec)
    assert parse_generator_spec(spec, default_sigma=2.0) is gen
    assert parse_generator_spec(f"  {spec} ") is gen
    grid = shared_grid(-1.0, 1.0, 33)
    assert periodize(parse_generator_spec(spec), 1.0, grid).values is \
        periodize(gen, 1.0, grid).values
    write_samples_csv(str(path), SampledFunction(samples.grid, 2.0 * samples.values))
    regen = parse_generator_spec(spec)
    assert regen is not gen and parse_generator_spec(spec) is regen
    assert _kinds().count("file generator") == 2
    for key in [key for key in numerics._KEPT if key[0] == "csv"]:
        del numerics._KEPT[key]
    numerics._PATHS.clear()
    gc.collect()
    shared_grid(-2.0, 2.0, 9)               # the next store drops them
    assert "file generator" not in _kinds()
    assert parse_generator_spec(spec) is not regen


def test_the_gram_oracle_reads_nothing_from_the_space_cache(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle read the space cache")

    monkeypatch.setattr(spectral, "_kept", refuse)
    f, gen = fixed_gaussian_samples(), bspline_generator(2, 1.0)
    coeffs, residual = oracle.ls_project(f, gen, 1.0, 8)
    assert coeffs.size == 17 and residual > 0


def _project_argv(width: float, out: str) -> list:
    return ["project", "--gen", "bspline:m=2", "--f", f"gauss:width={width}",
            "--dgrid", "257", "--rho", "0.7", "--jrange", "16", "--out", out]


def test_threads_projecting_onto_one_space_print_serial_bytes(
        empty, tmp_path, monkeypatch):
    # six threads race on the first D and B-hat of one space, and on a bound
    # that keeps about one B-hat: each prints a serial run's bytes
    monkeypatch.setattr(numerics, "_KEPT_BYTES", 48 * 1024)
    widths = (0.8, 0.9, 1.0, 1.1, 1.2, 1.3)
    rcs = {}

    def run(i):
        for _ in range(3):
            rcs[i] = run_cli(_project_argv(widths[i], str(tmp_path / f"t{i}.csv")))[0]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert rcs == {i: 0 for i in range(6)}
    assert _kept_bytes() <= 48 * 1024
    for i, width in enumerate(widths):
        _empty_caches()
        assert run_cli(_project_argv(width, str(tmp_path / f"s{i}.csv")))[0] == 0
        threaded = (tmp_path / f"t{i}.csv").read_bytes()
        assert threaded == (tmp_path / f"s{i}.csv").read_bytes(), width


_families = st.sampled_from(["bspline:m=0", "bspline:m=1", "bspline:m=2",
                             "bspline:m=3", "gauss:width=0.9", "gauss:width=1.2",
                             "sinc"])
_signals = st.sampled_from(["gauss:width=0.8", "gauss:width=1.1", "sinc",
                            "bspline:m=1", "bspline:m=2"])
_calls = st.tuples(
    st.sampled_from(["project", "besterr", "dfun", "riesz", "zak"]), _families,
    st.sampled_from(["1.0", "2.0", "1.41421356", "1.414214"]),
    st.sampled_from(["33", "65", "129"]), st.sampled_from(["1e-8", "1e-10"]),
    _signals, st.booleans(), st.sampled_from(["1", "4", "8", "16"]))


def _argv(call) -> list:
    command, gen, sigma, dgrid, tol, f, whole_band, jrange = call
    argv = [command, "--gen", gen, "--sigma", sigma, "--dgrid", dgrid, "--tol", tol]
    half = repr(float(sigma) / 2)
    if command == "zak":
        argv[-3] = "17"     # a 17 x 17 mesh keeps a draw short
    if command == "project":
        argv += ["--f", f, "--jrange", jrange, "--rho", sigma if whole_band else half]
    elif command == "besterr":
        argv += ["--f", f, "--sweep", f"rho={half},{sigma}"]
    return argv


@settings(max_examples=40, deadline=None)
@given(calls=st.lists(_calls, min_size=2, max_size=8))
def test_interleaved_calls_print_the_bytes_of_fresh_runs(calls):
    # the calls run one after the other on whatever the cache holds, then
    # each again in a fresh state
    warm = [run_cli(_argv(call)) for call in calls]
    for call, got in zip(calls, warm):
        _empty_caches()
        assert got == run_cli(_argv(call)), call
