#!/bin/sh
# Prints the stdout and the trace md5 of a seeded fault campaign and of
# one injected run per application, each written with --trace, for the
# golden diff in test/dune. Injection events carry the engine time they
# fire at, so these pin every traced timestamp, not only the reports.
# Usage: traced_pins.sh RVISIM
set -eu
rvisim=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"
echo "== faults --runs 20 --seed 42 --jobs 1"
"$rvisim" faults --runs 20 --seed 42 --jobs 1 --trace faults.trace
md5sum faults.trace
for app in adpcm idea fir vecadd; do
  echo "== run --app $app --inject all:0.001"
  "$rvisim" run --app "$app" --inject all:0.001 --trace "$app.trace"
  md5sum "$app.trace"
done
