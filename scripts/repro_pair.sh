#!/bin/sh
# Paired `repro <experiment> --quick` runs, parent commit against the
# working tree: wall-clock time per side, and whether both sides print
# the same thing.
#
# Exports <parent> with `git archive` into target/repro_pair/parent-src
# (as scripts/bench_pair.sh does), builds `repro` there and in the
# working tree (one CARGO_TARGET_DIR each, --offline), then runs
# <pairs> pairs of `repro <experiment> --quick`, alternating which side
# goes first. Prints each side's wall-clock quartiles and median, the
# ratio of medians, and in how many pairs the change was faster. A
# quick run writes no file; each run's stdout stays in
# target/repro_pair/<side>.<pair>.out. Exits 1 if any run's stdout
# differs from the parent's first, or a run fails. Run it on an
# otherwise idle box.
#
# usage: scripts/repro_pair.sh <experiment> [pairs=5] [parent=HEAD~1]
set -eu
cd "$(dirname "$0")/.."
usage="usage: scripts/repro_pair.sh <experiment> [pairs=5] [parent=HEAD~1]"
experiment=${1:?$usage}
pairs=${2:-5}
parent=${3:-HEAD~1}

root=$PWD/target/repro_pair
commit=$(git rev-parse "$parent^{commit}")
# A fresh export would touch every file and rebuild the parent for nothing.
if [ "$(cat "$root/parent-src/.exported" 2>/dev/null)" != "$commit" ]; then
    rm -rf "$root/parent-src"
    mkdir -p "$root/parent-src"
    # -m: files get the time of extraction, not of the commit, so that
    # cargo rebuilds the parent when an older commit is exported over a
    # build of a newer one.
    git archive "$commit" | tar -x -m -C "$root/parent-src"
    echo "$commit" >"$root/parent-src/.exported"
fi
CARGO_TARGET_DIR=$root/parent cargo build --release --offline --quiet \
    --manifest-path "$root/parent-src/Cargo.toml" -p saba-bench --bin repro
CARGO_TARGET_DIR=$root/change cargo build --release --offline --quiet \
    -p saba-bench --bin repro

# One run of <side> <pair>, from that side's own checkout; appends its
# wall-clock seconds to <side>.wall.
run() {
    src=$PWD
    [ "$1" = parent ] && src=$root/parent-src
    start=$(date +%s.%N)
    (cd "$src" && "$root/$1/release/repro" "$experiment" --quick) \
        >"$root/$1.$2.out" 2>"$root/$1.$2.err"
    end=$(date +%s.%N)
    echo "$start $end" | awk '{ printf "%.3f\n", $2 - $1 }' >>"$root/$1.wall"
}

: >"$root/parent.wall"
: >"$root/change.wall"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
    echo "$experiment: pair $i/$pairs done" >&2
    i=$((i + 1))
done

status=0
i=1
while [ "$i" -le "$pairs" ]; do
    for side in parent change; do
        if ! cmp -s "$root/parent.1.out" "$root/$side.$i.out"; then
            echo "stdout differs: $side.$i.out vs parent.1.out (in $root)"
            status=1
        fi
    done
    i=$((i + 1))
done

echo "repro $experiment --quick: $pairs pairs, parent $(git rev-parse --short "$commit") vs working tree"
awk -v parent="$root/parent.wall" -v change="$root/change.wall" '
    # Quantile p of v[1..n] (sorted in place), linear interpolation.
    function quantile(v, n, p,    i, j, t, at, lo) {
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        at = 1 + (n - 1) * p
        lo = int(at)
        return lo >= n ? v[n] : v[lo] + (at - lo) * (v[lo + 1] - v[lo])
    }
    BEGIN {
        while ((getline x < parent) > 0) P[++n] = x
        while ((getline x < change) > 0) C[++m] = x
        for (i = 1; i <= n; i++) wins += (C[i] < P[i])
        printf "%-7s %10s %10s %10s\n", "side", "q1 s", "median s", "q3 s"
        pmed = quantile(P, n, 0.5)
        printf "%-7s %10.3f %10.3f %10.3f\n", "parent", quantile(P, n, 0.25), pmed, quantile(P, n, 0.75)
        cmed = quantile(C, m, 0.5)
        printf "%-7s %10.3f %10.3f %10.3f\n", "change", quantile(C, m, 0.25), cmed, quantile(C, m, 0.75)
        printf "change/parent %.3f; change faster in %d/%d pairs\n", cmed / pmed, wins, n
    }'
[ "$status" -eq 0 ] && echo "stdout identical in every run"
exit $status
