#!/usr/bin/env bash
# Install the package and its test dependencies into the current Python.
set -euo pipefail
cd "$(dirname "$0")/.."

pip install -e ".[test]"
