#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; every argument goes
# to the `bench` binary (see README.md). Run from the repository root, as
# BENCHMARK.json's command does, or from anywhere.
#
#   benchmark/run.sh                      the whole benchmark
#   benchmark/run.sh agree                twice, and compare
#   benchmark/run.sh --workload paper8_sim --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# From the root, so that the root's .cargo/config.toml (target-cpu=native)
# applies and a relative CARGO_TARGET_DIR means the same directory for
# the build and for the lookup below.
cd "$root"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bench" --out benchmark/out "$@"
