"""A run under the benchmark's tracer completes and counts its work.

`bench/tracing.py` infers each traced call's work from its arguments, so
a signature that no longer fits its work formula would crash every
traced benchmark run.  The tracer is loaded from its file, as the
benchmark loads it, and wraps two small in-process runs.
"""

import importlib.util
import os

import subproducts
from subproducts import cli
from subproducts.modcore import primes_between

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_and_spectrum_runs(tmp_path):
    tracer = load_tracing().Tracer()
    tracer.install(subproducts)
    try:
        verify = cli.main(["verify", "--pmax", "101", "--seed", "1",
                           "--out", str(tmp_path / "report.json")])
        spectrum = cli.main(["spectrum", "--pmax", "200",
                             "--out", str(tmp_path / "spectrum.csv")])
    finally:
        tracer.uninstall()
    assert (verify, spectrum) == (0, 0)
    # the tracer counts (order - 1) p: p terms for each nonprincipal character
    terms = tracer.summary()["characters.polya_vinogradov_scan.terms"]
    assert terms == sum((p - 2) * p for p in primes_between(3, 101)) == 73_675
