"""Tests of the benchmark itself: seeded inputs, gates, tracing, names.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import gates  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ("generator.spectrum_points", "generator.time_points",
          "numerics.ft_points", "spectral.max_order", "shiftspace.folds")


def _inputs(workload: str, seed: int, workdir: Path):
    pool = workloads.build(workload, seed, workdir)
    argv = [[a.replace(str(workdir), "<dir>") for a in r.argv]
            for cycle in pool for r in cycle]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argv, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    again = _inputs(workload, 7, tmp_path / "b")
    other = _inputs(workload, 8, tmp_path / "c")
    assert first == again
    assert first[0] != other[0]


def _cheap(workload: str, seed: int, workdir: Path):
    """A few inexpensive requests of each workload, all layers it uses."""
    pool = workloads.build(workload, seed, workdir, cycles=1)
    reqs = pool[0]
    if workload == "analytic":
        keep = [r for r in reqs if r.command in ("dfun", "riesz")
                and r.gen.family != "bspline"]
        keep += [r for r in reqs if r.beta is not None][:2]
    elif workload == "sampled":
        keep = [r for r in reqs if r.command == "project"
                and r.beta is None][:2]
    else:
        keep = [r for r in reqs if r.dgrid <= 65 and r.gen.family != "bspline"]
    assert keep
    return keep


def _traced(reqs):
    from shiftapprox.cli import main as cli_main
    client = bench.Client(cli_main)
    tracer = Tracer()
    tracer.install()
    try:
        for i, req in enumerate(reqs):
            client.issue(req, "traced", call=lambda argv, i=i:
                         tracer.request(i, cli_main, argv))
    finally:
        tracer.uninstall()
    digests = [r["sha256"] for r in client.records]
    return client, tracer.metrics(), digests


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_and_digests_repeat(workload, tmp_path):
    reqs = _cheap(workload, 3, tmp_path)
    client_a, metrics_a, digests_a = _traced(reqs)
    client_b, metrics_b, digests_b = _traced(reqs)
    assert client_a.incorrect == client_b.incorrect == 0
    assert client_a.failed == 0
    assert digests_a == digests_b
    for name in COUNTS:
        assert metrics_a[name] == metrics_b[name], name
    assert metrics_a["cli.self_s"] > 0.0


def test_tracing_leaves_the_package_as_it_was():
    import shiftapprox.cli as cli
    import shiftapprox.shiftspace as shiftspace
    before = (cli.periodize, cli.parse_generator_spec,
              shiftspace.fourier_transform_sampled)
    tracer = Tracer()
    tracer.install()
    assert cli.periodize is not before[0]
    tracer.uninstall()
    assert (cli.periodize, cli.parse_generator_spec,
            shiftspace.fourier_transform_sampled) == before


def test_a_missing_binding_fails_the_traced_run(monkeypatch):
    import shiftapprox.cli as cli
    import shiftapprox.shiftspace as shiftspace
    before = cli.periodize
    monkeypatch.delattr(shiftspace, "coeffs_from_zeta")
    with pytest.raises(RuntimeError, match="coeffs_from_zeta"):
        Tracer().install()
    assert cli.periodize is before


def test_a_crash_is_incorrect_and_a_reported_failure_is_not(tmp_path):
    pool = workloads.build("sampled", 2, tmp_path, cycles=1)
    known = [r for r in pool[0] if "known-failure" in " ".join(r.argv)]
    assert len(known) == 1

    def crash(argv):
        raise ZeroDivisionError("inside the package")

    from shiftapprox.cli import main as cli_main
    client = bench.Client(cli_main)
    client.issue(known[0], "test")
    client.issue(pool[0][0], "test", call=crash)
    assert [r["rc"] for r in client.records] == [1, None]
    assert client.succeeded == [False, False]
    assert client.failed == 2 and client.incorrect == 1
    # a repeat re-measures a request: it counts once, however often it runs
    client.issue(known[0], "test")
    assert client.succeeded[-1] is False
    assert client.attempted == 2 and client.failed == 2


def test_perturbed_coefficient_trips_the_member_gate(tmp_path):
    from shiftapprox.cli import main as cli_main
    pool = workloads.build("analytic", 5, tmp_path, cycles=1)
    req = next(r for r in pool[0] if r.beta is not None)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(list(req.argv)) == 0
    text = out.getvalue()
    assert req.check(0, text).ok
    lines = text.splitlines()
    j, re_part, im_part = lines[1].split(",")
    lines[1] = f"{j},{float(re_part) + 1e-6:.17g},{im_part}"
    verdict = req.check(0, "\n".join(lines) + "\n")
    assert not verdict.ok and verdict.incorrect
    assert verdict.figures["coeff_err"] == pytest.approx(1e-6, rel=1e-3)


def test_closed_forms():
    assert gates.cardinal_at_integers(4) == (0, Fraction(1, 6), Fraction(2, 3),
                                              Fraction(1, 6), 0)
    hat = gates.GenSpec("bspline", 1.0, m=1)
    # the acceptance test's brute lattice sum at the period edge
    assert gates.density(hat, np.array([1.0]))[0] == pytest.approx(1.0 / 3.0)
    box = gates.GenSpec("bspline", 2.0, m=0)
    assert np.allclose(gates.density(box, np.linspace(-2, 2, 9)), 1.0)
    # Parseval: ||B||^2 = 2 pi int |spectrum|^2 for the cubic spline
    cubic = gates.GenSpec("bspline", 1.0, m=3)
    y = np.linspace(-400.0, 400.0, 800_001)
    energy = 2 * math.pi * np.sum(np.abs(gates.spectrum(cubic, y)) ** 2) * (y[1] - y[0])
    assert energy == pytest.approx(gates.norm_sq(cubic), rel=1e-9)
    x = np.linspace(-4 * math.pi, 0.0, 4001)
    time_energy = gates.simpson_weights(x.size, x[1] - x[0]) @ \
        np.abs(gates.bspline_time(cubic, x)) ** 2
    assert time_energy == pytest.approx(gates.norm_sq(cubic), rel=1e-9)


def test_metric_names_are_well_formed_and_declared(tmp_path):
    from shiftapprox.cli import main as cli_main
    reqs = _cheap("audit", 1, tmp_path)[:1]
    client = bench.Client(cli_main)
    per_layer, _, traced = bench.traced_run(client, [reqs])
    assert traced == len(reqs)
    names = list(per_layer) + list(bench.END_TO_END_UNITS)
    assert all(NAME.fullmatch(n) for n in names)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(per_layer)
    assert [m["name"] for m in declared["end_to_end"]] == \
        list(bench.END_TO_END_UNITS)
    for metric in declared["per_layer"] + declared["end_to_end"]:
        assert metric["unit"] == bench.unit(metric["name"]), metric
