#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (its own
# workspace: the root manifest and its target directory stay untouched)
# and runs it from the root of the repository:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh --agree
#
# See benchmark/README.md. The last line of a single run's standard output
# is its result as one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# Cargo's own messages go to standard error; a build failure ends the
# script before anything is printed to standard output.
exec cargo run --quiet --release --offline \
    --manifest-path benchmark/Cargo.toml -- --out-dir benchmark/out "$@"
