#!/usr/bin/env bash
# Hot-path guard (run by `make check`, after the build).
#
# Classic ocamlopt compiles a comparison whose operand type it cannot see
# as a call into the runtime's polymorphic compare (caml_compare,
# caml_equal, caml_lessthan, ...), one C call per test. On the per-edge
# path that is the dominant cost of a small function, and it is
# invisible in the source: an unannotated `let clamp lo hi v = ...` is
# enough, and so is a call to Stdlib.min or Stdlib.max, which are
# compiled once for every type. This script reads the relocations of
# every compiled object of the simulator core libraries (`objdump -dr`)
# and fails if any of them references a polymorphic compare. Imu_rtl is excepted: it is the
# register-transfer oracle the fast IMU is checked against, where
# clarity beats speed.
set -euo pipefail
cd "$(dirname "$0")/.."

libs=(sim mem coproc core)
except='rvi_core__Imu_rtl.o'
pattern='R_[A-Z0-9_]+[[:space:]]+(caml_(compare|equal|notequal|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib\.(min|max)_[0-9]+)([^A-Za-z0-9_]|$)'

status=0
n=0
for lib in "${libs[@]}"; do
  dir="_build/default/lib/$lib/.rvi_$lib.objs/native"
  if ! compgen -G "$dir/*.o" >/dev/null; then
    echo "error: no compiled objects under $dir (run 'dune build' first)" >&2
    exit 1
  fi
  for obj in "$dir"/*.o; do
    [[ $(basename "$obj") == "$except" ]] && continue
    n=$((n + 1))
    hits=$(objdump -dr "$obj" | grep -oE "$pattern" | awk '{print $2}' |
      sed -E 's/[^A-Za-z0-9_.]+$//' | sort | uniq -c |
      awk '{printf " %s x%s", $2, $1}') || true
    if [[ -n $hits ]]; then
      echo "error: $obj calls polymorphic compare:$hits" >&2
      status=1
    fi
  done
done
if [[ $status -eq 0 ]]; then
  echo "hot path ok: $n objects of rvi_{sim,mem,coproc,core}, no polymorphic compare"
fi
exit $status
