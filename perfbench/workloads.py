"""Seeded request streams for the three benchmark workloads.

A workload is a list of *cycles*; a cycle is a fixed mix of request
templates in a seeded order.  The seed draws the continuous inputs (signal
widths, rho values, member coefficients, time-sample counts and grid
spans) and the order inside each cycle; it never changes which templates a
cycle holds, so every seed loads the layers in the same proportions and
the latency quantiles land inside the same template classes.  The timed
loop runs whole cycles.

The program sees only the generated argv and the CSV files written here.
CSV files are written by the benchmark itself (``%.17g``), the way a user
would hand them over, not through the package's writer.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import gates
from gates import GenSpec, Verdict

WORKLOADS = ("analytic", "sampled", "audit")
COMMANDS = ("dfun", "riesz", "zak", "project", "besterr", "compare", "validate")

#: distinct cycles drawn per run; the timed loop repeats them in turn
POOL_CYCLES = 3

#: time nodes of the sampled workload's fixed compare, a known failure
KNOWN_FAILURE_X = np.linspace(-8.6, 8.6, 513)


@dataclass(frozen=True, eq=False)
class Request:
    """One CLI invocation plus what its gate needs to know."""

    command: str
    argv: Tuple[str, ...]
    gen: GenSpec
    dgrid: int
    tol: float = 1e-8
    f_norm_sq: float = 0.0
    beta: Optional[np.ndarray] = None
    coeff_tol: float = gates.COEFF_TOL
    sweep: Tuple[float, ...] = ()
    slot: int = 0           # position in the cycle's template list

    def check(self, rc: int, text: str) -> Verdict:
        g = self.gen
        if self.command == "dfun":
            return gates.check_dfun(g, rc, text)
        if self.command == "riesz":
            return gates.check_riesz(g, self.dgrid, rc, text)
        if self.command == "zak":
            return gates.check_zak(g, self.dgrid, rc, text)
        if self.command == "project":
            return gates.check_project(g, self.f_norm_sq, self.beta,
                                       self.coeff_tol, rc, text)
        if self.command == "besterr":
            return gates.check_besterr(self.f_norm_sq, self.sweep, rc, text)
        if self.command == "compare":
            return gates.check_compare(self.f_norm_sq,
                                       [int(v) for v in self.sweep], rc, text)
        return gates.check_validate(g, self.tol, rc, text)


def _argv(command: str, gen: GenSpec, dgrid: int, *extra: str,
          tol: Optional[float] = None) -> Tuple[str, ...]:
    out = [command, "--gen", gen.cli(), "--sigma", repr(gen.sigma),
           "--dgrid", str(dgrid)]
    if tol is not None:
        out += ["--tol", repr(tol)]
    return tuple(out) + extra


def _write_csv(path: Path, label: str, nodes: np.ndarray,
               values: np.ndarray) -> str:
    lines = [f"{label},re,im"]
    lines += [f"{t:.17g},{v.real:.17g},{v.imag:.17g}"
              for t, v in zip(nodes, values)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return str(path)


class _Inputs:
    """Draws inputs from one seeded generator and names the files."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> Path:
        self.count += 1
        return self.workdir / f"{self.count:04d}-{stem}.csv"

    def width(self, lo: float = 0.8, hi: float = 1.25) -> float:
        return round(float(self.rng.uniform(lo, hi)), 6)

    def beta(self, j_max: int) -> np.ndarray:
        n = 2 * j_max + 1
        return self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)

    def aligned_spectrum(self, stem: str, sigma: float, dgrid: int,
                         windows: int,
                         fn: Callable[[np.ndarray], np.ndarray]) -> str:
        """``y,re,im`` file on the extension of the period grid."""
        edge = (2 * windows + 1) * sigma
        y = np.linspace(-edge, edge, (dgrid - 1) * (2 * windows + 1) + 1)
        return _write_csv(self.path(stem), "y", y, fn(y))


# ---------------------------------------------------------------------------
# analytic: closed-form spectra; periodization, fold and CLI formatting

def _analytic_cycle(src: _Inputs) -> List[Request]:
    """30 requests in cost tiers sized so that p90 falls inside the heavy
    tier and p50 inside the plateau tier, away from the tier edges."""
    spl = lambda m, s=1.0: GenSpec("bspline", s, m=m)  # noqa: E731
    sinc = lambda s=1.0: GenSpec("sinc", s)  # noqa: E731

    def gauss_gen() -> GenSpec:
        return GenSpec("gauss", 1.0, width=src.width(0.7, 1.3))

    def lattice(command: str, gen: GenSpec, dgrid: int, tol: float) -> Request:
        return Request(command, _argv(command, gen, dgrid, tol=tol), gen,
                       dgrid, tol=tol)

    def member(gen: GenSpec, windows: int) -> Request:
        # the cover holds all but ~1e-10 of the member spectrum's mass and
        # the period grid has 1025 nodes, which 1e-8 recovery needs (257
        # nodes give ~1e-7)
        beta = src.beta(3)
        path = src.aligned_spectrum(
            "member", gen.sigma, 1025, windows,
            lambda y: gates.member_spectrum(gen, beta, y))
        return Request("project", _argv("project", gen, 1025, "--f",
                                        f"file:{path}", "--jrange", "16"),
                       gen, 1025, beta=beta)

    def gaussian(gen: GenSpec, dgrid: int, as_file: bool) -> Request:
        w = src.width()
        if as_file:
            signal = GenSpec("gauss", gen.sigma, width=w)
            f = "file:" + src.aligned_spectrum(
                "gauss", gen.sigma, dgrid, 4,
                lambda y: gates.spectrum(signal, y))
        else:
            f = f"gauss:width={w!r}"
        return Request("project", _argv("project", gen, dgrid, "--f", f),
                       gen, dgrid, f_norm_sq=w * math.sqrt(math.pi))

    def besterr(gen: GenSpec) -> Request:
        # 16 seeded rho values, each folded separately by the CLI
        w = src.width()
        rhos = tuple(sorted(round(float(r), 6) for r in
                            src.rng.uniform(0.05, 1.0, 16) * gen.sigma))
        sweep = "rho=" + ",".join(repr(r) for r in rhos)
        return Request("besterr", _argv("besterr", gen, 257, "--f",
                                        f"gauss:width={w!r}", "--sweep", sweep),
                       gen, 257, f_norm_sq=w * math.sqrt(math.pi), sweep=rhos)

    heavy = [  # m=0 at tight tol: lattice orders in the thousands
        lattice("dfun", spl(0), 257, 1e-10), lattice("riesz", spl(0), 257, 1e-10),
        lattice("dfun", spl(0), 129, 1e-11), lattice("riesz", spl(0), 129, 1e-11),
        lattice("riesz", spl(0, 2.0), 65, 1e-12), besterr(spl(0))]
    upper = [besterr(spl(1)), besterr(gauss_gen()), besterr(spl(3)),
             member(spl(2), 16), member(spl(3, 2.0), 6),
             gaussian(spl(0), 1025, False)]
    plateau = [besterr(spl(2, 2.0)), besterr(sinc()),
               gaussian(spl(1), 1025, False), gaussian(spl(2, 2.0), 1025, True),
               gaussian(spl(3), 1025, False), gaussian(spl(2), 2049, False),
               gaussian(gauss_gen(), 2049, False), gaussian(sinc(), 2049, True),
               member(gauss_gen(), 3), member(sinc(), 0)]
    light = [lattice("dfun", spl(1), 1025, 1e-12),
             lattice("dfun", spl(2, 2.0), 1025, 1e-11),
             lattice("dfun", spl(3), 1025, 1e-10),
             lattice("dfun", gauss_gen(), 1025, 1e-10),
             lattice("dfun", sinc(), 1025, 1e-8),
             lattice("riesz", spl(1, 2.0), 257, 1e-12),
             lattice("riesz", gauss_gen(), 257, 1e-10),
             lattice("riesz", spl(3), 257, 1e-8)]
    return heavy + upper + plateau + light


# ---------------------------------------------------------------------------
# sampled: time samples; the quadrature Fourier transform and the oracle

def _gauss_samples(src: _Inputs, count: int, w: float) -> Tuple[str, float]:
    """Gaussian on a symmetric window of a drawn span, as users sample it:
    the grid is not aligned with the spline knots."""
    half = w * float(src.rng.uniform(8.2, 9.0))
    x = np.linspace(-half, half, count)
    path = _write_csv(src.path("gauss-x"), "x", x,
                      np.exp(-0.5 * (x / w) ** 2) + 0j)
    return path, w * math.sqrt(math.pi)


def _sampled_cycle(src: _Inputs) -> List[Request]:
    """32 requests: the compares sit above p90, five m=2 member projections
    of one cost (step h/32) hold p90, and the Gaussian projections hold
    p50.  Failed requests leave the latency samples: the fixed compare is a
    known failure of the program and a drawn compare fails on some seeds,
    so p90 must stay inside the five members whether zero, one or two
    drawn compares drop out."""
    out: List[Request] = []
    spl = lambda m, s=1.0: GenSpec("bspline", s, m=m)  # noqa: E731

    # project of Gaussians: energy split and coefficient energy
    gens = (spl(1), spl(2), spl(3, 2.0), GenSpec("gauss", 1.0, width=1.3),
            GenSpec("sinc", 1.0), spl(2, 2.0))
    for k in range(22):
        gen = gens[k % len(gens)]
        count = 2 * int(src.rng.integers(120, 137)) + 1     # 241..273
        path, nf = _gauss_samples(src, count, src.width(0.9, 1.1))
        out.append(Request("project", _argv("project", gen, 257, "--f",
                                            f"file:{path}", "--jrange", "32"),
                           gen, 257, f_norm_sq=nf))

    # project of members sampled on knot-aligned grids at step h/q
    for gen, q in ((spl(2), 32),) * 5 + ((spl(3), 16),) * 2:
        beta = src.beta(3)
        h = math.pi / gen.sigma
        lo, hi = -(3 + gen.m + 2) * h, (3 + 1) * h
        x = np.linspace(lo, hi, int(round((hi - lo) / h)) * q + 1)
        path = _write_csv(src.path("member-x"), "x", x,
                          gates.member_time(gen, beta, x))
        out.append(Request("project", _argv("project", gen, 129, "--f",
                                            f"file:{path}", "--jrange", "8"),
                           gen, 129, beta=beta,
                           coeff_tol=gates.COEFF_TOL_SAMPLED))

    # compare: drawn unaligned grids, and the known failure of the program
    # as found, a width-1 Gaussian on +-8.6 in 513 samples, whose oracle
    # residual dips below the exact formula error by more than compare's
    # slack (exit 1).  The formula side runs on the default 4097-node period
    # grid for sampled signals whatever --dgrid says.
    known = _write_csv(src.path("known-failure-x"), "x", KNOWN_FAILURE_X,
                       np.exp(-0.5 * KNOWN_FAILURE_X ** 2) + 0j)
    cases = [(spl(2), *_gauss_samples(src, 513, src.width(0.95, 1.05))),
             (spl(3), *_gauss_samples(src, 257, src.width(0.95, 1.05))),
             (spl(2), known, math.sqrt(math.pi))]
    for gen, path, nf in cases:
        out.append(Request("compare", _argv("compare", gen, 257, "--f",
                                            f"file:{path}", "--sweep",
                                            "jrange=4,8,16"),
                           gen, 257, f_norm_sq=nf, sweep=(4.0, 8.0, 16.0)))
    return out


# ---------------------------------------------------------------------------
# audit: the Phi system, its property checks and the Phi mesh output

def _audit_cycle(src: _Inputs) -> List[Request]:
    """27 requests: validate m=1 at dgrid 33 tops the cycle; five m=2
    validates at dgrid 49 hold p90; the zak meshes at dgrid 129 and the
    gauss validates beside them hold p50.  The m=2 grid is smaller than
    the m=1 one so that enough of them fit in a run for a steady p90."""
    spl = lambda m, s=1.0: GenSpec("bspline", s, m=m)  # noqa: E731
    sinc = lambda s=1.0: GenSpec("sinc", s)  # noqa: E731

    def gauss_gen() -> GenSpec:
        return GenSpec("gauss", 1.0, width=src.width(0.8, 1.25))

    validate = ((spl(1), 33), (spl(2), 49), (spl(2), 49), (spl(2), 49),
                (spl(2), 49), (spl(2), 49), (spl(3), 65), (spl(3, 2.0), 65),
                (gauss_gen(), 129), (gauss_gen(), 129), (sinc(), 129),
                (sinc(2.0), 129), (gauss_gen(), 65), (sinc(), 65))
    zak = ((spl(3), 129), (gauss_gen(), 129), (spl(1, 2.0), 129),
           (spl(2), 129), (spl(2, 2.0), 129), (spl(2), 129), (sinc(), 129),
           (sinc(2.0), 129), (sinc(), 129), (spl(2), 33), (gauss_gen(), 65),
           (spl(1), 65), (sinc(), 65))
    return ([Request("validate", _argv("validate", g, d), g, d)
             for g, d in validate]
            + [Request("zak", _argv("zak", g, d), g, d) for g, d in zak])


_BUILDERS: Dict[str, Callable[[_Inputs], List[Request]]] = {
    "analytic": _analytic_cycle, "sampled": _sampled_cycle,
    "audit": _audit_cycle}


def build(workload: str, seed: int, workdir: Path,
          cycles: int = POOL_CYCLES) -> List[List[Request]]:
    """``cycles`` seeded cycles of ``workload``; files go under ``workdir``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    src = _Inputs(seed, workdir)
    pool = []
    for _ in range(cycles):
        cycle = _BUILDERS[workload](src)
        order = src.rng.permutation(len(cycle))
        pool.append([dataclasses.replace(cycle[i], slot=int(i)) for i in order])
    return pool
