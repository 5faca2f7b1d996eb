"""The benchmark's tracer sees every check that `verify` runs, and the
sweep, rendering, report and write that `cli` calls.

`bench/tracing.py` patches each traced name on `cli`, so a call that
reaches the function by another path, such as through `subproducts.checks`
or `subproducts.sweep` where most of them are defined, would run untraced
and read zero.  The tracer is loaded from its file, as the benchmark loads
it.
"""

import importlib.util
import os
from collections import Counter

import subproducts
from subproducts import cli

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the traced cli names besides the checks; cli imports the first three from
# sweep.py and output.py
CLI_SPANS = ("cli.run_spectrum_sweep", "cli.spectrum_csv", "cli.write_atomic",
             "cli.verification_report_json")


def test_traced_verify_has_a_span_for_every_check(tmp_path):
    # and the traced runs have a span for each of CLI_SPANS
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(subproducts)
    try:
        verify = cli.main(["verify", "--pmax", "101", "--out", str(tmp_path / "report.json")])
        spectrum = cli.main(["spectrum", "--pmax", "200",
                             "--out", str(tmp_path / "spectrum.csv")])
    finally:
        tracer.uninstall()
    assert (verify, spectrum) == (0, 0)
    spans = Counter(span[0] for span in tracer.spans)
    missing = [name for name in tracing.CHECKS if spans[f"cli.check_{name}"] < 1]
    assert len(tracing.CHECKS) == 15 and missing == [], missing
    missing = [name for name in CLI_SPANS if spans[name] < 1]
    assert missing == [], missing
