#!/bin/sh
# Prints every file `rvisim emit-vhdl` writes for the default device, then
# the TLB size it emits for the EPXA4, for the golden diff in test/dune.
# Usage: emit_vhdl.sh RVISIM
set -eu
rvisim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$rvisim" emit-vhdl --out "$dir/default" >/dev/null
for f in "$dir"/default/*.vhd; do
  echo "== $(basename "$f")"
  cat "$f"
done
"$rvisim" emit-vhdl --device epxa4 --out "$dir/epxa4" >/dev/null
echo "== epxa4"
grep "constant TLB_ENTRIES" "$dir/epxa4/my_coproc_vif_pkg.vhd"
