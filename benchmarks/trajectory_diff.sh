#!/usr/bin/env bash
# Trajectory diff: check that a change leaves seeded CLI runs unchanged.
#
#   benchmarks/trajectory_diff.sh BASE_REF
#
# Runs a fixed matrix of `repro.cli run` commands twice: once in a
# temporary git worktree of BASE_REF and once in this checkout (HEAD
# plus any uncommitted edits).  Each pair must match byte for byte on
# stdout; sync runs must also save the same full-precision history
# (`--output`), since the printed table rounds to three digits.
#
# The matrix:
#   * the 7 sync algorithms x {float32, float64}, 9 workers (odd, so
#     one worker goes unmatched in the pairwise families);
#   * --engine event for saps-psgd, d-psgd and fedavg (the three
#     asynchronous families);
#   * the three asynchronous families under --fault-plan mttf=20,mttr=5;
#   * one event run on --arena sharded;
#   * one event fedavg run with K-seat sampled participation over a
#     renewal population (the worker-backed seat pool).
#
# Exits 1 if any run differs or fails on either side.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
head_tree=$(pwd)
work=$(mktemp -d)
base_tree="$work/base-tree"
cleanup() {
    git worktree remove --force "$base_tree" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$base_tree" "$1"

SYNC="--workers 9 --rounds 20 --eval-every 5 --seed 1"
EVENT="--engine event --workers 9 --sim-time 10 --seed 1"

runs=()
for algorithm in saps-psgd psgd topk-psgd d-psgd dcd-psgd fedavg s-fedavg; do
    for dtype in float32 float64; do
        runs+=("sync-$algorithm-$dtype|--algorithm $algorithm --dtype $dtype $SYNC")
    done
done
for algorithm in saps-psgd d-psgd fedavg; do
    runs+=("event-$algorithm|--algorithm $algorithm $EVENT")
done
for algorithm in saps-psgd d-psgd fedavg; do
    runs+=("event-$algorithm-faults|--algorithm $algorithm $EVENT --fault-plan mttf=20,mttr=5")
done
runs+=("event-d-psgd-sharded|--algorithm d-psgd $EVENT --arena sharded")
runs+=("event-fedavg-sampled|--algorithm fedavg $EVENT --participation sampled --sample-size 4 --population-model renewal:up=6,down=3")

# run SIDE TREE NAME ARGS...: one CLI run from its own directory, so the
# relative --output path (and the line that echoes it) is the same on
# both sides.
run() {
    local side=$1 tree=$2 name=$3
    shift 3
    local dir="$work/$side/$name"
    mkdir -p "$dir"
    (cd "$dir" && PYTHONPATH="$tree/src" python -m repro.cli run "$@" \
        > stdout.txt 2> stderr.txt)
}

failed=0
for entry in "${runs[@]}"; do
    name=${entry%%|*}
    # shellcheck disable=SC2206  # word splitting of the flag string
    args=(${entry#*|})
    case $name in sync-*) args+=(--output history.json) ;; esac
    status=identical
    for side in base head; do
        tree=$base_tree
        [ "$side" = head ] && tree=$head_tree
        if ! run "$side" "$tree" "$name" "${args[@]}"; then
            status="FAILED on $side: $(tail -n 1 "$work/$side/$name/stderr.txt")"
        fi
    done
    if [ "$status" = identical ]; then
        if ! cmp -s "$work/base/$name/stdout.txt" "$work/head/$name/stdout.txt"; then
            status="DIFFERS (stdout)"
        elif [ -f "$work/head/$name/history.json" ] && ! python - \
            "$work/base/$name/history.json" "$work/head/$name/history.json" <<'PY'
import json
import sys

base, head = (json.dumps(json.load(open(p))["history"]) for p in sys.argv[1:])
sys.exit(base != head)
PY
        then
            status="DIFFERS (history)"
        fi
    fi
    [ "$status" = identical ] || failed=$((failed + 1))
    printf '%-28s %s\n' "$name" "$status"
done

echo "$(( ${#runs[@]} - failed ))/${#runs[@]} runs identical to $1"
[ "$failed" -eq 0 ]
