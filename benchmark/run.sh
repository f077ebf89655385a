#!/usr/bin/env bash
# Build the benchmark (and cindtool) from source and run it from the
# repository root.  Arguments go to run.exe; see README.md here.
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --display quiet ./benchmark/run.exe -- "$@"
