#!/usr/bin/env bash
# README gives the package's size as "`src/subproducts/` is N lines"; N must
# be the line count of the source.  The line counts of the tests and the
# benchmark are echoed beside it, unchecked, so every CI log holds all three.
set -euo pipefail
cd "$(dirname "$0")/.."

stated=$(sed -n 's/^`src\/subproducts\/` is \([0-9]*\) lines.*/\1/p' README.md)
actual=$(cat src/subproducts/*.py | wc -l)
echo "README states $stated lines; src/subproducts/*.py has $actual"
echo "tests/*.py has $(cat tests/*.py | wc -l) lines; bench/*.py has $(cat bench/*.py | wc -l)"
test -n "$stated"
test "$stated" -eq "$actual"
