#!/usr/bin/env sh
# Convenience wrapper around bench_perf_throughput: finds the binary
# in the usual build directories (or $SMT_BUILD_DIR), defaults the
# output file to BENCH_perf.json in the current directory, and
# forwards every argument. The cells cover the 1/2/4-thread
# single-core mixes plus two 2-core x 2-thread CMP cells: 2C4T
# (static LLC arbiter) and 2C4T-DCRA (chip-dcra LLC arbitration).
# The "mcycles_per_sec_4t" aggregate tracks the single-core hot
# path only, so it stays comparable across PRs;
# "mcycles_per_sec_2c4t" tracks the chip layer's own cost (static
# arbiter only, comparable since PR 4) and
# "mcycles_per_sec_2c4t_chipdcra" the arbitration hot path. The
# "chip_jobs_scaling" cells run a 4-core x 2-context chip on 1, 2 and
# 4 tick workers (--chip-jobs) and report each speedup over 1 worker;
# the host block records the CPU count they depend on.
# Examples:
#
#   tools/run_perf.sh --quick
#   tools/run_perf.sh --label after --baseline BENCH_before.json
#
# Only Release builds are accepted: the binary's baked-in build type
# (src/common/version.hh, printed by --build-info) is asserted before
# anything runs, because a Debug number silently committed to
# BENCH_perf.json would poison the perf trajectory. Set
# SMT_PERF_ALLOW_ANY_BUILD=1 to bypass the check (local
# experimentation only).
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

bench=""
for dir in "${SMT_BUILD_DIR:-}" "$root/build" "$root/build-release" \
           "$root/build-shim"; do
    [ -n "$dir" ] && [ -x "$dir/bench_perf_throughput" ] || continue
    bench="$dir/bench_perf_throughput"
    break
done

if [ -z "$bench" ]; then
    echo "run_perf.sh: no bench_perf_throughput binary found;" >&2
    echo "build first (Release required):" >&2
    echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release" >&2
    echo "  cmake --build build -j" >&2
    exit 1
fi

build_type=$("$bench" --build-info | sed -n 's/^build_type=//p')
if [ "$build_type" != "Release" ] &&
   [ "${SMT_PERF_ALLOW_ANY_BUILD:-0}" != "1" ]; then
    echo "run_perf.sh: '$bench' is a '${build_type:-unknown}'" \
         "build, not Release; perf numbers from it would be" \
         "meaningless." >&2
    echo "Rebuild with:" >&2
    echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release" >&2
    echo "  cmake --build build -j" >&2
    echo "(or set SMT_PERF_ALLOW_ANY_BUILD=1 to override)" >&2
    exit 1
fi

# Default the output file unless the caller already chose one.
has_output=0
for arg in "$@"; do
    [ "$arg" = "--output" ] && has_output=1
done

if [ "$has_output" = 1 ]; then
    exec "$bench" "$@"
fi
exec "$bench" --output BENCH_perf.json "$@"
