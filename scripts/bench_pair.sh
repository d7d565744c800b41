#!/bin/sh
# Paired ledger runs, parent commit against the working tree: the
# procedure a performance claim is shown with (choosing-metrics §8).
#
# Exports <parent> with `git archive` into target/bench_pair/parent-src,
# builds the ledger there and in the working tree (one CARGO_TARGET_DIR
# each, --offline), then, for each workload named (a comma-separated
# list, or `all` for every workload of BENCHMARK.json — one invocation,
# one pair of builds), runs <pairs> pairs at BENCHMARK.json's
# run_seconds, alternating which side goes first. Prints, per workload,
# end-to-end metric and side, the quartiles and median, the ratio of
# medians, in how many pairs the change read better, whether the
# medians are further apart than the parent's own inter-quartile
# spread, and whether the change's median is worse than the parent's by
# more than the metric's `bound` in BENCHMARK.json (`within bound` /
# `REGRESSION`); then each side's median `attempted` (a fixed-time
# workload that got faster completes more operations, and the ledger's
# own per-operation samples then read as peak_rss_mb) and failed-op
# share. Exits 1 if any row regressed. Run it on an otherwise idle box;
# raw result lines stay in target/bench_pair/<side>.<workload>.jsonl.
#
# usage: scripts/bench_pair.sh <workload>[,<workload>...]|all [pairs=10] [parent=HEAD~1] [seed=23226]
set -eu
cd "$(dirname "$0")/.."
workloads=${1:?usage: scripts/bench_pair.sh <workload>[,<workload>...]|all [pairs=10] [parent=HEAD~1] [seed=23226]}
if [ "$workloads" = all ]; then
    workloads=$(awk '/"workloads"/ { inside = 1 } inside && /\]/ { exit }
        inside && /"name"/ { split($0, q, "\""); printf "%s%s", sep, q[4]; sep = "," }' BENCHMARK.json)
fi
pairs=${2:-10}
parent=${3:-HEAD~1}
seed=${4:-23226}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)

root=$PWD/target/bench_pair
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

# Building the ledger rewrites its tracked lock file; put it back.
cp ledger/Cargo.lock "$root/Cargo.lock.orig"
trap 'cp "$root/Cargo.lock.orig" ledger/Cargo.lock' EXIT
CARGO_TARGET_DIR=$root/parent cargo build --release --offline --quiet \
    --manifest-path "$root/parent-src/ledger/Cargo.toml"
CARGO_TARGET_DIR=$root/change cargo build --release --offline --quiet \
    --manifest-path ledger/Cargo.toml

# One run of <side>, from that side's own checkout; keeps the result line.
run() {
    src=$PWD
    [ "$1" = parent ] && src=$root/parent-src
    (cd "$src" && CARGO_TARGET_DIR=$root/$1 "$root/$1/release/ledger" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>/dev/null | tail -n 1) >>"$root/$1.$workload.jsonl"
}

status=0
for workload in $(echo "$workloads" | tr ',' ' '); do
    : >"$root/parent.$workload.jsonl"
    : >"$root/change.$workload.jsonl"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then run parent; run change; else run change; run parent; fi
        echo "$workload: pair $i/$pairs done" >&2
        i=$((i + 1))
    done

    echo "$workload, seed $seed: $pairs pairs x $seconds s, parent $(git rev-parse --short "$commit") vs working tree"
    awk -v parent="$root/parent.$workload.jsonl" -v change="$root/change.$workload.jsonl" '
        # The number behind "<key>": or "<key>":{"value": in a result line.
        function field(line, key,    at, rest) {
            at = index(line, "\"" key "\":")
            if (at == 0) return "nan"
            rest = substr(line, at + length(key) + 3)
            sub(/^\{"value":/, "", rest)
            return rest + 0
        }
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
        /"end_to_end"/ { inside = 1 }
        inside && /\]/ { inside = 0 }
        inside && /"name"/ { split($0, q, "\""); name[++metrics] = q[4] }
        inside && /"better"/ { split($0, q, "\""); better[metrics] = q[4] }
        inside && /"bound"/ { bound[metrics] = $0; gsub(/[^0-9.]/, "", bound[metrics]) }
        END {
            while ((getline line < parent) > 0) P[++n] = line
            while ((getline line < change) > 0) C[++m] = line
            if (n != m || n == 0) { print "runs missing: parent " n ", change " m; exit 1 }
            printf "%-12s %-7s %12s %12s %12s\n", "metric", "side", "q1", "median", "q3"
            for (k = 1; k <= metrics; k++) {
                wins = ties = 0
                for (i = 1; i <= n; i++) {
                    a[i] = p = field(P[i], name[k])
                    b[i] = c = field(C[i], name[k])
                    if (p == c) ties++
                    else if ((better[k] == "lower") == (c < p)) wins++
                }
                pq1 = quantile(a, n, 0.25); pmed = quantile(a, n, 0.5); pq3 = quantile(a, n, 0.75)
                cq1 = quantile(b, n, 0.25); cmed = quantile(b, n, 0.5); cq3 = quantile(b, n, 0.75)
                printf "%-12s %-7s %12.4f %12.4f %12.4f\n", name[k], "parent", pq1, pmed, pq3
                printf "%-12s %-7s %12.4f %12.4f %12.4f\n", name[k], "change", cq1, cmed, cq3
                gap = (cmed > pmed) ? cmed - pmed : pmed - cmed
                verdict = (gap > pq3 - pq1) ? "resolved" : "inside the parent spread"
                printf "  change/parent %.3f (base %.4f); change better in %d/%d pairs, %d ties; medians %.4f apart, parent IQR %.4f: %s\n", \
                    (pmed ? cmed / pmed : 0), pmed, wins, n, ties, gap, pq3 - pq1, verdict
                # By how much of the parent median the change median is worse.
                worse = (better[k] == "lower" ? cmed - pmed : pmed - cmed) / (pmed ? pmed : 1)
                if (worse > bound[k]) {
                    printf "  REGRESSION (worse by %.3f, bound %.2f)\n", worse, bound[k]
                    regressed = 1
                } else {
                    printf "  within bound (%.2f)\n", bound[k]
                }
            }
            for (i = 1; i <= n; i++) {
                a[i] = field(P[i], "attempted"); pa += a[i]; pf += field(P[i], "failed"); pc += (P[i] ~ /"correct":true/)
                b[i] = field(C[i], "attempted"); ca += b[i]; cf += field(C[i], "failed"); cc += (C[i] ~ /"correct":true/)
            }
            printf "attempted    median per run: parent %d   change %d\n", quantile(a, n, 0.5), quantile(b, n, 0.5)
            printf "failed ops   parent %d/%d (%d/%d runs correct)   change %d/%d (%d/%d runs correct)\n", \
                pf, pa, pc, n, cf, ca, cc, n
            exit regressed
        }' BENCHMARK.json || status=1
done
exit $status
