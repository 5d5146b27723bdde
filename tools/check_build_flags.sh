#!/usr/bin/env bash
# Build-flag guard for the simulator's hot path (run by `make check`).
#
# Cross-module inlining needs two things from the default build: no
# hot-path module is compiled with -opaque (which hides its .cmx from its
# callers), and the release profile selected by dune-workspace still uses
# the warning and strictness set of the dev profile plus the inline
# budget of the root dune file. This script reads the compile command
# dune would run for a few hot-path modules and fails if either property
# is lost. It checks each required flag on its own, so a dune release
# that adds or reorders flags of its own does not trip it.
set -euo pipefail
cd "$(dirname "$0")/.."

# Flags that must each appear in the compile command (a multi-word entry
# must appear as consecutive words).
required=(
  '-w @1..3@5..28@30..39@43@46..47@49..57@61..62-40'
  '-strict-sequence'
  '-strict-formats'
  '-O2'
  '-inline 200'
)
targets=(
  lib/sim/.rvi_sim.objs/native/rvi_sim__Clock.cmx
  lib/core/.rvi_core.objs/native/rvi_core__Imu.cmx
  lib/hw/.rvi_hw.objs/native/rvi_hw__Reg.cmx
)

status=0
for target in "${targets[@]}"; do
  # The rule's (run ...) arguments, one per line, flattened to one line.
  cmd=$(dune rules "./$target" | tr -s ' \n\t' ' ')
  case "$cmd" in
    *"ocamlopt.opt "*) ;;
    *) echo "error: no ocamlopt rule found for $target" >&2; status=1; continue ;;
  esac
  if [[ " $cmd " == *" -opaque "* ]]; then
    echo "error: $target is compiled with -opaque (no cross-module inlining)" >&2
    status=1
  fi
  for flag in "${required[@]}"; do
    if [[ " $cmd " != *" $flag "* ]]; then
      echo "error: $target is compiled without '$flag'" >&2
      status=1
    fi
  done
  # Exactly one warning specification: a second -w would amend the
  # pinned set.
  n_w=$(grep -o ' -w ' <<<" $cmd " | wc -l)
  if [[ $n_w -ne 1 ]]; then
    echo "error: $target has $n_w warning specifications, expected 1" >&2
    status=1
  fi
done
if [[ $status -eq 0 ]]; then
  echo "build flags ok: ${#targets[@]} hot-path modules, no -opaque, pinned warnings"
fi
exit $status
