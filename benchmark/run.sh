#!/bin/sh
# gmgbench runner: build the harness against the workspace crates, then
# hand every argument to it. With no arguments it runs every workload
# (end-to-end pass, traced pass, probes) and writes
# benchmark/out/<unix-time>.json; see benchmark/README.md for the flags.
set -eu
cd "$(dirname "$0")/.."

# Everything the run writes stays under the checkout: cargo output in
# $CARGO_TARGET_DIR (the benchmark driver sets it), the rest below out/.
OUT=benchmark/out
TARGET="${CARGO_TARGET_DIR:-$OUT/target}"
mkdir -p "$OUT/tmp" "$OUT/flight"

# Cargo's chatter goes to the log so stdout carries only results.
if ! CARGO_TARGET_DIR="$TARGET" cargo build --release --offline \
    --manifest-path benchmark/Cargo.toml >"$OUT/build.log" 2>&1; then
    cat "$OUT/build.log" >&2
    echo "gmgbench: build failed" >&2
    exit 3
fi

# A clean, fixed environment: no GMG_* switch leaks in from the caller,
# one compute thread per rank, flight dumps and process-world socket
# directories inside out/ (TMPDIR is relative on purpose: Unix socket
# paths are limited to ~100 bytes and the checkout may sit deep).
for v in $(env | sed -n 's/^\(GMG_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done
export RAYON_NUM_THREADS=1
export GMG_FLIGHT_DIR="$OUT/flight"
export TMPDIR="$OUT/tmp"
GMGBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
GMGBENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export GMGBENCH_RUSTC GMGBENCH_GIT_SHA

exec "$TARGET/release/gmgbench" "$@"
