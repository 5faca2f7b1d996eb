#!/usr/bin/env bash
# The tier-1 test suite, as ROADMAP.md gives its command.
set -euo pipefail
cd "$(dirname "$0")/.."

PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
