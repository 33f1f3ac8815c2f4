#!/usr/bin/env bash
# Build the benchmark (a package of its own, path-depending on ../crates and
# ../vendor) and run it. See benchmark/README.md.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--repeat <k>]   # every workload
#   benchmark/run.sh --smoke
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Reuse the workspace's target directory unless told otherwise, so the
# crates are not compiled twice. A relative CARGO_TARGET_DIR is relative to
# where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
export CMDL_BENCH_COMMIT="${CMDL_BENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"

cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/cmdl-benchmark" --out "$target/benchmark" "$@"
