"""The benchmark's tracer still finds every package function it wraps.

``perfbench/tracing.py`` rebinds package functions by name in the modules
that call them, so a function renamed, moved or no longer imported there
fails the traced benchmark run.  This runs its install and uninstall
without a workload.
"""

from pathlib import Path

import numpy as np

from shiftapprox.generator import gaussian_generator
from shiftapprox.numerics import (Grid, SampledFunction, fourier_transform_sampled,
                                  make_uniform_grid)
from shiftapprox.spectral import lattice_energy, periodize

from helpers import spline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()  # raises RuntimeError naming a binding that is gone
    try:
        wrapped = [getattr(module, attr)
                   for module, attr, _, _ in tracing.BINDINGS]
    finally:
        tracer.uninstall()
    for (module, attr, _, _), traced in zip(tracing.BINDINGS, wrapped):
        assert callable(traced.__wrapped__), f"{module.__name__}.{attr}"
        assert getattr(module, attr) is traced.__wrapped__


def test_every_work_counter_reads_a_real_result(monkeypatch):
    # a counter reads a field of the wrapped function's result, so a renamed
    # field (say truncation_order) fails here, not only in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    grid = Grid(start=-1.0, stop=1.0, count=65)
    gauss = gaussian_generator(1.0)
    poisson = periodize(spline(1), 1.0, grid)
    lattice = periodize(gauss, 1.0, grid)
    energy = lattice_energy(gauss, 1.0, grid.nodes())
    samples = SampledFunction(grid=make_uniform_grid(-2.0, 2.0, 17),
                              values=np.ones(17, dtype=np.complex128))
    freq = make_uniform_grid(-4.0, 4.0, 33)
    spectrum = fourier_transform_sampled(samples, freq)
    cases = {
        tracing._ft_points: [((samples, freq), spectrum, 17 * 33)],
        tracing._order: [((), poisson, 1), ((), lattice, 8)],
        tracing._lattice_order: [((), energy, 8)],
    }
    assert {work for *_, work in tracing.BINDINGS if work is not None} == set(cases)
    for work, calls in cases.items():
        for args, out, expected in calls:
            assert work(args, out) == expected, work.__name__
