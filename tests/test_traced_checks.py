"""The benchmark's tracer sees every check that `verify` runs.

`bench/tracing.py` patches each `cli.check_*` name, so a check that the
suite reaches by another path, such as through `subproducts.checks`
where most checks are defined, would run untraced and read zero.  The
tracer is loaded from its file, as the benchmark loads it.
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


def test_traced_verify_has_a_span_for_every_check(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install(subproducts)
    try:
        code = cli.main(["verify", "--pmax", "101", "--out", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = Counter(span[0] for span in tracer.spans)
    missing = [name for name in tracing.CHECKS if spans[f"cli.check_{name}"] < 1]
    assert len(tracing.CHECKS) == 15 and missing == [], missing
