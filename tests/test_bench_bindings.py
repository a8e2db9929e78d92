"""The benchmark's tracer still finds every package function it wraps.

``perfbench/tracing.py`` rebinds package functions by name in the modules
that call them, so a function renamed, moved or no longer imported there
fails the traced benchmark run.  This runs its install and uninstall
without a workload.
"""

from pathlib import Path

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
