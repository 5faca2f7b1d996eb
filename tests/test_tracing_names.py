"""The names the benchmark's tracer wraps stay importable.

`bench/tracing.py` wraps each function of its `TRACED` table by looking
the name up on its home module, so a removed or renamed function breaks
every traced benchmark run.  The tracer is loaded from its file, as the
benchmark loads it.
"""

import importlib.util
import os

import subproducts
import subproducts.cli  # noqa: F401  (the tracer wraps the checks in cli)

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions(tracing):
    for module, funcs in tracing.TRACED.items():
        home = getattr(subproducts, module)
        for func in funcs:
            yield f"{module}.{func}", getattr(home, func)


def test_every_traced_name_resolves_and_is_put_back():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(subproducts)
    try:
        for name, fn in traced_functions(tracing):
            assert hasattr(fn, "__wrapped__"), name
    finally:
        tracer.uninstall()
    for name, fn in traced_functions(tracing):
        assert not hasattr(fn, "__wrapped__"), name
