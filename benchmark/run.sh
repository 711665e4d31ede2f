#!/usr/bin/env bash
# Builds the benchmark (release) and runs it.
#
#   benchmark/run.sh                         every workload, untraced then traced
#   benchmark/run.sh --smoke                 the same at tiny sizes (< 10 s), for schema checks
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--out FILE]
#   benchmark/run.sh compare A.jsonl B.jsonl
#   benchmark/run.sh manifest                prints BENCHMARK.json
#
# Dependencies: the product crates need rand, rand_distr, serde(+derive),
# serde_json, crossbeam and parking_lot. When the local cargo cache can
# resolve them (or PERQ_BENCH_DEPS=registry allows the network) the build
# uses crates.io; otherwise it uses the stand-ins under benchmark/shims.
# Every result says which (`deps`), and the two are never compared.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$bench_dir/.."

manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
mkdir -p "$target"

mode="${PERQ_BENCH_DEPS:-auto}"
if [ "$mode" = auto ]; then
    if cargo metadata --offline --format-version 1 --manifest-path "$manifest" >/dev/null 2>&1; then
        mode=registry
    else
        mode=shims
    fi
fi
case "$mode" in
registry) cargo_args=() ;;
shims)
    cargo_args=(--config benchmark/shims/config.toml)
    # The stand-ins need nothing from the user's cargo home; keeping
    # cargo's own bookkeeping under the target directory means a shims
    # build reads and writes inside this checkout only.
    export CARGO_HOME="$target/cargo-home"
    ;;
*)
    echo "run.sh: PERQ_BENCH_DEPS must be auto, registry or shims" >&2
    exit 2
    ;;
esac
# A lock file resolved in the other mode names packages this mode cannot
# find.
if [ "$(cat "$target/deps-mode" 2>/dev/null)" != "$mode" ]; then
    rm -f benchmark/Cargo.lock
    echo "$mode" >"$target/deps-mode"
fi

cargo build --release --quiet --manifest-path "$manifest" "${cargo_args[@]}" >&2

# serve_tcp_1024 holds 2048 sockets.
if [ "$(ulimit -Sn)" -lt 4096 ]; then
    ulimit -Sn 4096 2>/dev/null || ulimit -Sn "$(ulimit -Hn)"
fi

export PERQ_BENCH_DEPS="$mode"
PERQ_BENCH_RUSTC="$(rustc --version)"
export PERQ_BENCH_RUSTC
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
    commit="$commit-dirty"
fi
export PERQ_BENCH_COMMIT="$commit"

bin="$target/release/perq-benchmark"
case "${1:-}" in
compare | manifest) exec "$bin" "$@" ;;
*) exec "$bin" run "$@" ;;
esac
