"""shiftapprox benchmark: closed-loop, in-process CLI workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

One client in one process issues each request only after the previous one
finished, calling ``shiftapprox.cli.main(argv)`` in-process, the way the
package is driven from scripts and notebooks: a subprocess per request
would add ~0.5 s of numpy/scipy import to requests of 10-40 ms.

``--trace 0`` times whole request cycles until ``--seconds`` have passed
and at least 100 requests succeeded, and reports the end-to-end metrics,
with times rescaled to a nominal machine speed (see ``bench.Calibration``).
Latencies are those of the requests that succeeded; throughput counts
them over the whole timed phase, failed requests' time included.
The result's ``attempted`` and ``failed`` count distinct requests of the
seed's pool, so they repeat exactly for a seed; a repeat of a request must
reproduce its first output byte for byte.
``--trace 1`` runs every cycle of the seed's pool untraced, traced and
untraced again, and reports the per-layer metrics, whose counts repeat
exactly for a seed.
Every output is checked by an independent gate (see gates.py); the last
line of stdout is the JSON result, whose ``correct`` is false when an
output is wrong or a request crashed with an uncaught exception.  A record with the environment, each
request's stdout SHA-256 and, when traced, every span, is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print 'ready' and exit (used to time "
                        "set-up in a fresh process)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # single-threaded BLAS before numpy loads: the plain single-threaded
    # baseline, and steadier figures on a small shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "shiftapprox" / "cli.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(one of {', '.join(bench.WORKLOADS)})", file=sys.stderr)
        return 2
    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
