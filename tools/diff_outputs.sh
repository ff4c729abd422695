#!/usr/bin/env sh
# Compare the simulated output of two smtsim binaries byte for byte:
#
#   tools/diff_outputs.sh OLD_SMTSIM NEW_SMTSIM
#
# Runs a fixed list of CLI configurations with each binary and cmp's
# every --json output and every --trace-out sidecar. The JSON's
# "provenance" line names the build (git describe, host), so it is
# dropped before the compare. A change meant to keep simulation
# output (a refactor, a speedup) must leave everything else
# identical; the script prints each config's verdict, runs the whole
# list, and exits 1 if any differed.
#
# The configurations: every policy on one 4-thread core, a 4-core x
# 2-context chip at --chip-jobs 1 and 4, 2-core chips that migrate
# threads (every context occupied, and contexts idle at build), and
# one telemetry run with its time-series and Chrome-trace sidecars.
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_SMTSIM NEW_SMTSIM" >&2
    exit 2
fi

abspath() {
    case $1 in
        /*) printf '%s\n' "$1" ;;
        *) printf '%s/%s\n' "$(pwd)" "$1" ;;
    esac
}
old=$(abspath "$1")
new=$(abspath "$2")
for bin in "$old" "$new"; do
    if [ ! -x "$bin" ]; then
        echo "$0: not an executable: $bin" >&2
        exit 2
    fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
mkdir "$work/old" "$work/new"

status=0
runs=0

# check NAME SMTSIM-ARGS...: run both binaries in their own directory
# (so relative sidecar paths embedded in the JSON match) and compare
# the JSON plus every file the run wrote next to it.
check() {
    name=$1
    shift
    for side in old new; do
        if [ "$side" = old ]; then bin=$old; else bin=$new; fi
        mkdir "$work/$side/$name"
        if ! (cd "$work/$side/$name" && "$bin" "$@" --json > out.json); then
            echo "FAIL $name: $side smtsim exited non-zero" >&2
            status=1
            return
        fi
    done
    runs=$((runs + 1))
    for side in old new; do
        grep -v '"provenance":' "$work/$side/$name/out.json" \
            > "$work/$side/$name/out.json.sim" || true
        rm "$work/$side/$name/out.json"
    done
    for f in $(cd "$work/old/$name" && ls); do
        if ! cmp -s "$work/old/$name/$f" "$work/new/$name/$f"; then
            echo "DIFF $name: $f" >&2
            status=1
            return
        fi
    done
    if [ "$(cd "$work/old/$name" && ls)" != "$(cd "$work/new/$name" && ls)" ]; then
        echo "DIFF $name: different file sets" >&2
        status=1
        return
    fi
    echo "same $name"
}

mix4=gzip,mcf,art,crafty
mem8=mcf,art,swim,equake,lucas,twolf,vpr,parser

for p in ROUND-ROBIN ICOUNT STALL FLUSH FLUSH++ DG PDG SRA DCRA DCRA-DEG; do
    check "core4t-$p" --workload "$mix4" --policy "$p" \
        --commits 20000 --warmup 2000
done

for j in 1 4; do
    check "chip4c8t-cj$j" --workload "$mem8" --cores 4 --contexts 2 \
        --allocator synpa --epoch 2000 --llc-arbiter chip-dcra \
        --commits 20000 --warmup 2000 --chip-jobs "$j"
done

check chip2c2t-migrating --workload mcf,gzip,art,crafty --cores 2 \
    --contexts 2 --allocator symbiosis --epoch 700 --commits 10000 \
    --warmup 1000
check chip2c4t-idle-contexts --workload gzip,mcf,crafty,art,swim \
    --cores 2 --contexts 4 --allocator symbiosis --epoch 500 \
    --commits 10000 --warmup 1000

check chip2c4t-telemetry --workload gzip,mcf,crafty,art,swim \
    --cores 2 --contexts 4 --allocator symbiosis --epoch 500 \
    --commits 10000 --warmup 1000 --stats-interval 97 --trace-out tel

if [ "$status" -ne 0 ]; then
    echo "diff_outputs: output differs" >&2
    exit 1
fi
echo "diff_outputs: $runs configurations identical"
