"""Set-up, the timed loop, the traced run and the result record."""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import workloads
from gates import Verdict
from tracing import Tracer
from workloads import COMMANDS, WORKLOADS, Request

SETUP_PROBES = 3            # fresh processes timed for setup_s; median kept
MIN_REQUESTS = 100          # p90 then has at least ten samples beyond it
PROBE_TIMEOUT_S = 150.0

#: worst figure per gate, reported as gate.<name> by the traced run
GATE_FIGURES = ("coeff_err", "oracle_gap_rel", "validate_ratio", "dfun_err",
                "zak_norm_rel", "energy_err", "riesz_err", "besterr_rise")

END_TO_END_UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mib": "MiB"}

Call = Callable[[List[str]], int]


def _clock() -> float:
    """A monotonic clock shared by parent and child processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Calibration:
    """Machine speed, from a fixed kernel timed before each request.

    A shared virtual machine can change speed by tens of percent over
    seconds to minutes, and every layer of the program slows alike: on a
    2-core shared VM, raw wall times of one workload spread 10-20% between
    runs, rescaled ones 3-5%.  The kernel mixes what the program spends
    its time on (complex exponentials over an outer product, row sums,
    ``%.17g`` formatting).
    A wall time multiplied by ``NOMINAL_S`` over the running median of the
    kernel's time is the wall time on a machine where the kernel takes
    ``NOMINAL_S``; raw wall times go into the record beside them.
    """

    NOMINAL_S = 0.005
    WINDOW = 9              # kernel timings in the running median

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(384)
        self._y = rng.standard_normal(384)
        self._v = rng.standard_normal(300)
        self.times: List[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        np.exp(-1j * np.outer(self._y, self._x)).sum(axis=1)
        ",".join(f"{v:.17g}" for v in self._v)
        self.times.append(time.perf_counter() - start)

    def rescale(self, seconds: Sequence[float]) -> np.ndarray:
        """``seconds[i]`` was measured right after tick ``i``."""
        k = np.asarray(self.times[:len(seconds)])
        half = self.WINDOW // 2
        local = np.array([np.median(k[max(0, i - half):i + half + 1])
                          for i in range(k.size)])
        return np.asarray(seconds) * (self.NOMINAL_S / local)

    def speed(self) -> float:
        """``NOMINAL_S`` over the median of ``WINDOW`` fresh kernel times."""
        for _ in range(self.WINDOW + 2):
            self.tick()
        return self.NOMINAL_S / statistics.median(self.times[-self.WINDOW:])


class Client:
    """One closed-loop client: issues a request, waits, gates the output.

    Each request is gated the first time it runs; a repeat must reproduce
    the first output byte for byte (same SHA-256 and exit code).  Before
    each request the calibration kernel runs once, outside the timing.
    ``latencies[i]`` and ``succeeded[i]`` describe the i-th request issued.
    ``attempted`` and ``failed`` count distinct requests, not issues: how
    many times the loop repeats a request depends on the machine's speed,
    which must not change how many operations a seed reports as failed.
    """

    def __init__(self, cli_main: Call):
        self.cli_main = cli_main
        self.calibration = Calibration()
        self.latencies: List[float] = []
        self.succeeded: List[bool] = []
        self.first: Dict[int, Tuple[str, Optional[int], Verdict]] = {}
        self.records: List[dict] = []
        self.failed_ids: set = set()
        self.incorrect = 0
        self.output_bytes = 0
        self.figures: Dict[str, float] = {}

    def issue(self, req: Request, phase: str, call: Optional[Call] = None) -> None:
        out, err = io.StringIO(), io.StringIO()
        error = ""
        self.calibration.tick()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc: Optional[int] = (call or self.cli_main)(list(req.argv))
        except Exception:  # a raise fails this request; the loop goes on
            rc, error = None, traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
        self.latencies.append(latency)
        text = out.getvalue()
        self._settle(req, phase, rc, text, latency, error or err.getvalue())

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)

    def rescaled(self) -> np.ndarray:
        """Every latency so far, at the calibration's nominal speed."""
        return self.calibration.rescale(self.latencies)

    def _settle(self, req: Request, phase: str, rc: Optional[int], text: str,
                latency: float, stderr: str) -> None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        seen = self.first.get(id(req))
        if seen is None:
            verdict = self._gate(req, rc, text, stderr)
            self.first[id(req)] = (digest, rc, verdict)
        elif seen[:2] != (digest, rc):
            verdict = Verdict(ok=False, incorrect=True,
                              reason="output differs from an earlier run")
        else:
            verdict = seen[2]
        self.succeeded.append(verdict.ok)
        if not verdict.ok:
            self.failed_ids.add(id(req))
        self.incorrect += verdict.incorrect
        self.output_bytes += len(text)
        for name, value in verdict.figures.items():
            self.figures[name] = max(self.figures.get(name, 0.0), value)
        self.records.append({
            "phase": phase, "command": req.command,
            "argv": [Path(a[5:]).name if a.startswith("file:") else a
                     for a in req.argv],
            "rc": rc, "ms": latency * 1e3, "sha256": digest,
            "ok": verdict.ok, "reason": verdict.reason,
            "stderr": stderr[-300:]})

    @staticmethod
    def _gate(req: Request, rc: Optional[int], text: str,
              stderr: str) -> Verdict:
        if rc is None:
            # cli.main turns the package's errors into exit codes; an
            # exception that escapes it is a crash, not a reported failure
            return Verdict(ok=False, incorrect=True, reason=stderr[-300:])
        try:
            return req.check(rc, text)
        except (ValueError, IndexError, KeyError) as exc:
            return Verdict(ok=False, incorrect=True,
                           reason=f"unparseable output: {exc}")


def environment(seed: int) -> Dict[str, object]:
    import scipy
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")}}


def set_up(workload: str, seed: int, workdir: Path
           ) -> Tuple[Client, List[List[Request]]]:
    """Import, input generation and one warm-up request of each kind."""
    from shiftapprox.cli import main as cli_main
    pool = workloads.build(workload, seed, workdir)
    client = Client(cli_main)
    kinds: Dict[str, Request] = {}
    for req in sorted(pool[0], key=lambda r: r.slot):
        kinds.setdefault(req.command, req)
    for req in kinds.values():
        client.issue(req, "warm-up")
    return client, pool


def probe_setup(workload: str, seed: int, root: Path) -> Tuple[float, float]:
    """(raw, rescaled) seconds from spawning a fresh process to its first
    possible request; the child times the calibration kernel afterwards."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = _clock()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up probe timed out")
    words = out.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed: {err[-500:]}")
    raw = float(words[1]) - start
    return raw, raw * float(words[2])


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def timed_run(client: Client, pool: List[List[Request]],
              seconds: float) -> slice:
    """Whole cycles until ``seconds`` passed, MIN_REQUESTS succeeded and
    every cycle of the pool ran; returns the timed requests' positions in
    ``client.latencies``."""
    first = len(client.latencies)
    start, cycle = time.perf_counter(), 0
    while True:
        for req in pool[cycle % len(pool)]:
            client.issue(req, f"timed-{cycle}")
        cycle += 1
        if time.perf_counter() - start >= seconds and cycle >= len(pool) \
                and sum(client.succeeded[first:]) >= MIN_REQUESTS:
            return slice(first, len(client.latencies))


def traced_run(client: Client, pool: List[List[Request]]
               ) -> Tuple[Dict[str, float], Tracer, int]:
    """Every cycle of the pool untraced, traced, and untraced again; returns
    the per-layer metrics, the tracer and the number of traced requests.

    The tracing overhead compares the traced pass with the mean of the two
    untraced passes around it, so drift over the run cancels to first order.
    ``fail_frac`` and the ``req.*`` figures cover these three passes only.
    """
    reqs = [r for cycle in pool for r in cycle]
    first = len(client.latencies)
    for req in reqs:
        client.issue(req, "untraced")
    tracer = Tracer()
    bytes_before = client.output_bytes
    tracer.install()
    try:
        for i, req in enumerate(reqs):
            client.issue(req, "traced", call=lambda argv, i=i:
                         tracer.request(i, client.cli_main, argv))
    finally:
        tracer.uninstall()
    traced_bytes = client.output_bytes - bytes_before
    for req in reqs:
        client.issue(req, "untraced")

    n = len(reqs)
    lat = client.rescaled()[first:]
    ok = client.succeeded[first:]
    plain = np.concatenate([lat[:n], lat[2 * n:]])
    metrics: Dict[str, float] = dict(tracer.metrics())
    metrics["cli.output_bytes"] = traced_bytes
    metrics["trace.overhead_frac"] = float(lat[n:2 * n].sum() / (plain.sum() / 2) - 1)
    for command in COMMANDS:
        mine = [v for v, r, good in zip(plain, reqs + reqs, ok[:n] + ok[2 * n:])
                if r.command == command and good]
        metrics[f"req.{command}.p50_ms"] = \
            _percentile(mine, 50) * 1e3 if mine else 0.0
    for name in GATE_FIGURES:
        metrics[f"gate.{name}"] = client.figures.get(name, 0.0)
    metrics["fail_frac"] = ok.count(False) / len(ok)
    return metrics, tracer, n


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.startswith("gate."):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run(args, root: Path) -> int:
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        client, pool = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            ready = _clock()
            print("ready", repr(ready), repr(Calibration().speed()), flush=True)
            return 0
        return _measure(args, root, client, pool)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _measure(args, root: Path, client: Client,
             pool: List[List[Request]]) -> int:
    env = environment(args.seed)
    tracer = None
    raw: Dict[str, float] = {}
    timed_fail = ""
    if args.trace:
        metrics, tracer, traced = traced_run(client, pool)
        samples = {name: traced for name in metrics}
    else:
        setups = [probe_setup(args.workload, args.seed, root)
                  for _ in range(SETUP_PROBES)]
        timed = timed_run(client, pool, args.seconds)
        # failed requests leave the latency samples and the throughput
        # count, but their time stays in the timed phase
        ok = np.asarray(client.succeeded[timed])
        wall_all = np.asarray(client.latencies[timed])
        lat_all = client.rescaled()[timed]
        wall, lat = wall_all[ok], lat_all[ok]
        n = len(lat)
        timed_fail = (f"fail_frac={1.0 - n / ok.size:.4f} "
                      f"(failed={ok.size - n} of {ok.size} timed requests)")
        metrics = {
            "throughput_rps": n / float(lat_all.sum()),
            "latency_p50_ms": _percentile(lat, 50) * 1e3,
            "latency_p90_ms": _percentile(lat, 90) * 1e3,
            "setup_s": statistics.median(s for _, s in setups),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"throughput_rps": n, "latency_p50_ms": n,
                   "latency_p90_ms": n, "setup_s": len(setups),
                   "peak_rss_mib": 1}
        raw = {"throughput_rps": n / float(wall_all.sum()),
               "latency_p50_ms": _percentile(wall, 50) * 1e3,
               "latency_p90_ms": _percentile(wall, 90) * 1e3,
               "setup_s": statistics.median(r for r, _ in setups),
               "kernel_ms": statistics.median(client.calibration.times) * 1e3}

    result = {"correct": client.incorrect == 0, "attempted": client.attempted,
              "failed": client.failed,
              "metrics": {name: {"value": value, "unit": unit(name)}
                          for name, value in metrics.items()}}
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "env": env, "result": result,
              "raw_wall": raw, "requests": client.records}
    if tracer is not None:
        record["span_fields"] = ["name", "start", "end", "parent",
                                 "request_id", "work"]
        record["spans"] = tracer.spans
        record["traced_requests"] = traced
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n", encoding="ascii")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {unit(name):6s} n={samples[name]}")
    if timed_fail:
        print("# timed phase: " + timed_fail)
    if raw:
        print("# raw wall time, not rescaled: " + " ".join(
            f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"# distinct requests: attempted={client.attempted} "
          f"failed={client.failed}; issues with a wrong output: "
          f"{client.incorrect}; record={path.relative_to(root)}")
    print(json.dumps(result))
    return 0
