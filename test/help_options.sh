#!/bin/sh
# Prints the OPTIONS section of every rvisim subcommand's plain help:
# each option's names, its absent= default and its doc. The --jobs
# default is the host's recommended domain count, so it is masked.
# Usage: help_options.sh RVISIM_EXE
rvisim=$1
"$rvisim" --help=plain |
  awk '/^COMMANDS/ { on = 1; next } /^[A-Z]/ { on = 0 } on && /^       [a-z0-9-]+ / { print $1 }' |
  while read -r cmd; do
    echo "== $cmd"
    "$rvisim" "$cmd" --help=plain |
      awk '/^OPTIONS/ { on = 1; next } /^[A-Z]/ { on = 0 } on' |
      sed 's/--jobs=N (absent=[0-9]*)/--jobs=N (absent=JOBS)/'
  done
