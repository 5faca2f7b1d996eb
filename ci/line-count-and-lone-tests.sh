#!/usr/bin/env bash
# README gives the package's size as "`src/subproducts/` is N lines"; N must
# be the line count of the source.  The window and prime-stream tests read
# per-process caches (the small primes and the least-factor table), so each
# also runs in a fresh interpreter, where no earlier test has built them.
# So do the tracer's tests: in the full suite an earlier test module has
# imported every subproducts module, so a missing package-root hook (which
# their lookups of subproducts.friable and subproducts.characters need)
# shows only when they run alone.  The tests of what a launch loads need no
# lone run, since each runs its assertions in a new interpreter of its own.
set -euo pipefail
cd "$(dirname "$0")/.."

stated=$(sed -n 's/^`src\/subproducts\/` is \([0-9]*\) lines.*/\1/p' README.md)
actual=$(cat src/subproducts/*.py | wc -l)
echo "README states $stated lines; src/subproducts/*.py has $actual"
test -n "$stated"
test "$stated" -eq "$actual"
for t in \
  tests/test_cli.py::test_spectrum_sweep_sieves_only_its_window \
  tests/test_cli.py::test_sweep_sieves_its_range_window_by_window \
  tests/test_subsetprod.py::test_prime_walk_goes_past_the_cached_primes \
  tests/test_modcore.py::test_iter_primes_is_primes_between_across_the_cache \
  tests/test_tracing_names.py \
  tests/test_traced_run.py \
  tests/test_traced_checks.py
do
  PYTHONPATH=src python -m pytest -q -p no:cacheprovider "$t"
done
