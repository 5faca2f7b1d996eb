"""The benchmark's tracer (`bench/tracing.py`) still fits the program.

The tracer wraps each function of its `TRACED` table by looking the name
up on its home module, infers each call's work from the call's arguments,
and patches each traced check, sweep, rendering, report and write on `cli`.
So a removed or renamed function, a signature that no longer fits its work
formula, or a call that reaches a function by another path (such as
through `subproducts.checks` or `subproducts.sweep`, where most of them
are defined) would break a traced benchmark run or let it read zero.  The
tests read one traced in-process run of `verify` and `spectrum`.
"""

from collections import Counter

import pytest

import subproducts
from subproducts import cli
from subproducts.modcore import primes_between

# the traced cli names besides the checks; cli imports the first three from
# sweep.py and output.py
CLI_SPANS = ("cli.run_spectrum_sweep", "cli.spectrum_csv", "cli.write_atomic",
             "cli.verification_report_json")


def traced_functions(tracing):
    for module, funcs in tracing.TRACED.items():
        home = getattr(subproducts, module)
        for func in funcs:
            yield f"{module}.{func}", getattr(home, func)


@pytest.fixture(scope="module")
def traced(tracing, tmp_path_factory):
    """The tracer after one traced run, the traced names it left unwrapped
    while installed, and the run's two exit codes."""
    out = tmp_path_factory.mktemp("traced")
    tracer = tracing.Tracer()
    tracer.install(subproducts)
    try:
        unwrapped = [name for name, fn in traced_functions(tracing)
                     if not hasattr(fn, "__wrapped__")]
        codes = (cli.main(["verify", "--pmax", "101", "--seed", "1",
                           "--out", str(out / "report.json")]),
                 cli.main(["spectrum", "--pmax", "200", "--out", str(out / "spectrum.csv")]))
    finally:
        tracer.uninstall()
    return tracer, unwrapped, codes


def test_every_traced_name_resolves_and_is_put_back(tracing, traced):
    _, unwrapped, _ = traced
    assert unwrapped == []
    still = [name for name, fn in traced_functions(tracing) if hasattr(fn, "__wrapped__")]
    assert still == []


def test_traced_verify_and_spectrum_runs(traced):
    tracer, _, codes = traced
    assert codes == (0, 0)
    # the tracer counts (order - 1) p: p terms for each nonprincipal character
    terms = tracer.summary()["characters.polya_vinogradov_scan.terms"]
    assert terms == sum((p - 2) * p for p in primes_between(3, 101)) == 73_675
    # primes_between takes its base primes from primes_up_to, so the sieve
    # layer reads the sieves that the checks run.  How many depends on the
    # prime caches the process already holds, so no figure is pinned
    spans = tracer.spans

    def under_a_check(i):
        while i >= 0 and not spans[i][0].startswith("cli.check_"):
            i = spans[i][3]
        return i >= 0

    sieves = [span for i, span in enumerate(spans)
              if span[0] == "modcore.primes_up_to" and under_a_check(i)]
    assert len(sieves) > 0 and sum(span[4] for span in sieves) > 0


def test_traced_verify_has_a_span_for_every_check(tracing, traced):
    # and the traced runs have a span for each of CLI_SPANS
    tracer, _, codes = traced
    assert codes == (0, 0)
    spans = Counter(span[0] for span in tracer.spans)
    missing = [name for name in tracing.CHECKS if spans[f"cli.check_{name}"] < 1]
    assert len(tracing.CHECKS) == 15 and missing == [], missing
    missing = [name for name in CLI_SPANS if spans[name] < 1]
    assert missing == [], missing

