#!/usr/bin/env bash
# Builds rvibench from source and runs it with the given arguments
# (see README.md), rooted at the repository this script sits in.
set -euo pipefail
cd "$(dirname "$0")/../.."
exec dune exec --root . --cache=disabled --display=quiet \
  ./bench/rvibench/rvibench.exe -- "$@"
