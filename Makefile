.PHONY: all build test bench bench-smoke sva-smoke chaos-smoke serve-smoke examples check flags-guard faults-smoke faults-determinism clean

all: build

build:
	dune build @all

test:
	dune runtest

# Everything CI runs: a clean build, the test suite, the hot-path
# build-flag guard, the smokes, every example (those that check their
# output exit non-zero on a mismatch), and a guard against accidentally
# committing the dune build tree.
check:
	dune build @all
	$(MAKE) flags-guard
	dune runtest
	$(MAKE) sva-smoke
	$(MAKE) chaos-smoke
	$(MAKE) serve-smoke
	$(MAKE) examples
	@if git ls-files --error-unmatch _build >/dev/null 2>&1 || \
	   git diff --cached --name-only --diff-filter=AM | grep -q '^_build/'; then \
	  echo "error: _build/ is tracked or staged; it must stay ignored" >&2; \
	  exit 1; \
	fi

# Hot-path modules must compile without -opaque (so calls inline across
# module boundaries) and with the pinned warning/strictness flags.
flags-guard:
	bash tools/check_build_flags.sh

# Seeded mini fault-injection campaign: fails on any uncaught exception or
# on a degraded run whose software fallback produced wrong output. Keeps a
# JSONL trace of every injection/retry/recovery decision for post-mortems.
# Artefacts land under results/ so the repo root stays clean.
faults-smoke:
	mkdir -p results
	dune exec bin/rvisim.exe -- faults --runs 100 --seed 2004 --jobs 1 \
	  --trace results/faults-smoke.trace.jsonl --csv results/faults-smoke.csv

# Determinism gate: the sharded runner must reproduce the serial
# campaign byte for byte.
faults-determinism:
	mkdir -p results
	dune exec bin/rvisim.exe -- faults --runs 100 --seed 2004 --jobs 1 \
	  --csv results/faults-j1.csv
	dune exec bin/rvisim.exe -- faults --runs 100 --seed 2004 --jobs 4 \
	  --csv results/faults-j4.csv
	cmp results/faults-j1.csv results/faults-j4.csv
	@echo "faults --jobs 4 is byte-identical to --jobs 1"

bench:
	dune exec bench/main.exe

# Quick campaign benchmark: appends one trajectory point (commit, host
# cores, runs/s) to BENCH_campaign.json and fails if serial throughput
# regressed more than 20% against the newest committed point. The gate
# compares runs/s, so a smaller --runs smoke still gates correctly.
bench-smoke:
	dune exec bin/rvisim.exe -- bench --runs 100 --jobs 2 --gate 0.2

# Chaos smoke: a bounded generated campaign (any invariant violation
# inside the generated envelope is a real bug and fails the gate) plus a
# replay of every pinned repro under test/corpus/. Violations found by
# the campaign are shrunk to minimal repros under results/corpus/, which
# CI uploads as an artefact.
chaos-smoke:
	mkdir -p results/corpus
	dune exec bin/rvisim.exe -- chaos --seed 2004 --count 50 --jobs 2 \
	  --shrink --corpus results/corpus
	dune exec bin/rvisim.exe -- chaos --replay test/corpus/*.scenario

# Multi-tenant service smoke: every policy in both translation modes
# over a sharded campaign that must reproduce the serial digest, with
# every service invariant enforced (no starvation, clean interfaces,
# sane latency statistics). Appends one trajectory point per cell to
# BENCH_serve.json and gates against the newest committed points.
serve-smoke:
	mkdir -p results
	dune exec bin/rvisim.exe -- serve --tenants 40 --requests 400 \
	  --policy all --translation both --seed 42 --jobs 2 \
	  --verify-determinism --csv results/serve-smoke.csv \
	  --json BENCH_serve.json --gate 0.5

# Translation-mode smoke: runs the adpcm ablation in both translation
# modes and asserts paper mode never touches the page-table walker while
# IOMMU/SVA mode always does — the cheap end-to-end guard that the mode
# switch is actually switching.
sva-smoke:
	dune exec bin/rvisim.exe -- ablate --translation --smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/adpcm_player.exe
	dune exec examples/idea_crypto.exe
	dune exec examples/portability.exe
	dune exec examples/multiprogramming.exe
	dune exec examples/trace_explorer.exe
	dune exec examples/codesign_flow.exe
	dune exec examples/fault_storm.exe

clean:
	dune clean
