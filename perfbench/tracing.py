"""Spans around the package's public functions, for the traced run.

The package modules import their collaborators by name (``from .spectral
import periodize``), so a function is wrapped once per importing module:
rebinding it where it is defined would miss every caller that already holds
the name.  Each binding below names the module that *calls* through it.
A binding whose attribute no longer exists fails the traced run: a renamed
or moved function would otherwise drop out of the per-layer figures and
read as a gain.

A span is ``[name, start, end, parent, request_id, work]``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``work`` a count taken
from the call (transform points, lattice order).  Spans stay in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from shiftapprox import cli, generator, oracle, shiftspace, zak

Work = Optional[Callable[[tuple, Any], int]]


def _ft_points(args: tuple, out: Any) -> int:
    return int(args[0].grid.count) * int(out.grid.count)


def _order(args: tuple, out: Any) -> int:
    return int(out.truncation_order)


def _lattice_order(args: tuple, out: Any) -> int:
    return int(out[1])


#: (importing module, attribute, span name, work count)
BINDINGS: Tuple[Tuple[Any, str, str, Work], ...] = (
    (cli, "read_samples_csv", "numerics.read_csv", None),
    (shiftspace, "fourier_transform_sampled", "numerics.ft", _ft_points),
    (generator, "fourier_transform_sampled", "numerics.ft", _ft_points),
    (cli, "periodize", "spectral.periodize", _order),
    (shiftspace, "periodize", "spectral.periodize", _order),
    (cli, "riesz_bounds", "spectral.riesz", None),
    (zak, "lattice_energy", "spectral.lattice_energy", _lattice_order),
    (cli, "project", "shiftspace.project", None),
    (oracle, "project", "shiftspace.project", None),
    (cli, "best_approx_error_sq", "shiftspace.besterr", None),
    (oracle, "best_approx_error_sq", "shiftspace.besterr", None),
    (shiftspace, "coeffs_from_zeta", "shiftspace.coeffs", None),
    (zak, "shift_autocorrelation", "generator.autocorr", None),
    (oracle, "shift_autocorrelation", "generator.autocorr", None),
    (generator, "shift_autocorrelation", "generator.autocorr", None),
    (cli, "phi_field", "zak.phi_field", None),
    (cli, "verify_phi_properties", "zak.verify", None),
    (cli, "compare", "oracle.compare", None),
    (oracle, "gram_matrix", "oracle.gram", None),
)

LAYERS = ("cli", "numerics", "generator", "spectral", "shiftspace", "zak",
          "oracle")


class Tracer:
    """Records spans while installed; `metrics` reduces them per layer."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._request: Optional[int] = None
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple = (),
             kwargs: Optional[dict] = None, work: Work = None) -> Any:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, self._request, 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            out = fn(*args, **(kwargs or {}))
            if work is not None:
                record[5] = work(args, out)
            return out
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def request(self, request_id: int, fn: Callable, *args: Any) -> Any:
        """Run one CLI request as a top-level ``cli`` span."""
        self._request = request_id
        try:
            return self.call("cli", fn, args)
        finally:
            self._request = None

    def _wrap(self, name: str, fn: Callable, work: Work) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, work)
        traced.__wrapped__ = fn
        return traced

    def _counting(self, gen: Any) -> Any:
        """The generator with its spectrum and time domain counting points."""
        counts = self.counts
        spectrum, time_domain = gen.spectrum, gen.time_domain

        def counted_spectrum(y: Any) -> Any:
            counts["generator.spectrum_points"] += int(np.size(y))
            return spectrum(y)

        def counted_time(x: Any) -> Any:
            counts["generator.time_points"] += int(np.size(x))
            return time_domain(x)

        return dataclasses.replace(
            gen, spectrum=counted_spectrum,
            time_domain=None if time_domain is None else counted_time)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, work in BINDINGS:
            original = self._bound(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, work))
        parse = self._bound(cli, "parse_generator_spec")
        self._saved.append((cli, "parse_generator_spec", parse))
        cli.parse_generator_spec = lambda *a, **k: self._counting(
            self.call("generator.parse", parse, a, k))

    def _bound(self, module: Any, attr: str) -> Callable:
        if not hasattr(module, attr):
            self.uninstall()
            raise RuntimeError(f"{module.__name__}.{attr} is gone; update "
                               "the bindings in perfbench/tracing.py")
        return getattr(module, attr)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> Dict[str, float]:
        spans = self.spans
        own = self.self_times()
        total: Dict[str, float] = defaultdict(float)
        self_by_name: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        layer_self: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _, _), s in zip(spans, own):
            total[name] += end - start
            self_by_name[name] += s
            calls[name] += 1
            layer_self[name.split(".")[0]] += s

        ft = [i for i, sp in enumerate(spans) if sp[0] == "numerics.ft"]
        ft_points = sum(spans[i][5] for i in ft)
        # the doubling loop keeps only the last transform under each parent
        last: Dict[int, int] = {}
        for i in ft:
            last[spans[i][3]] = i
        useful = sum(spans[i][5] for i in last.values())
        orders = [sp[5] for sp in spans
                  if sp[0] in ("spectral.periodize", "spectral.lattice_energy")]
        folds = sum(1 for sp in spans if sp[0] == "spectral.periodize"
                    and sp[3] >= 0 and spans[sp[3]][0].startswith("shiftspace."))

        out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        out.update({
            "numerics.ft_calls": calls["numerics.ft"],
            "numerics.ft_s": total["numerics.ft"],
            "numerics.ft_points": ft_points,
            "numerics.ft_useful_frac": useful / ft_points if ft_points else 0.0,
            "numerics.read_csv_s": total["numerics.read_csv"],
            "generator.spectrum_points": self.counts["generator.spectrum_points"],
            "generator.time_points": self.counts["generator.time_points"],
            "generator.autocorr_calls": calls["generator.autocorr"],
            "generator.autocorr_s": total["generator.autocorr"],
            "spectral.periodize_calls": calls["spectral.periodize"],
            "spectral.periodize_s": total["spectral.periodize"],
            "spectral.max_order": max(orders, default=0),
            "spectral.lattice_energy_s": total["spectral.lattice_energy"],
            "shiftspace.project_self_s": self_by_name["shiftspace.project"],
            "shiftspace.besterr_self_s": self_by_name["shiftspace.besterr"],
            "shiftspace.coeffs_s": total["shiftspace.coeffs"],
            "shiftspace.folds": folds,
            "zak.verify_self_s": self_by_name["zak.verify"],
            "zak.phi_field_s": total["zak.phi_field"],
            "oracle.compare_self_s": self_by_name["oracle.compare"],
            "oracle.gram_s": total["oracle.gram"],
        })
        return out
