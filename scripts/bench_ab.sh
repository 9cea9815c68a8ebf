#!/usr/bin/env bash
# bench_ab.sh — A/B the benchmark (perfbench/, judged by BENCHMARK.json)
# of the working tree against a git revision, on this host.
#
#   usage: scripts/bench_ab.sh [REV]        (REV defaults to HEAD)
#
# The base is REV, checked out as a detached worktree under
# target/bench_ab/ and removed on exit; the change is the working tree.
# Each side builds its own perfbench (offline, release) into its own
# target dir. Then PAIRS pairs of runs alternate the two sides, and the
# side that runs first alternates too, so drift in the host lands on
# both. Pair i runs `--workload all --seed i --trace 0` for BENCHMARK.json's
# `run_seconds`.
#
# For every workload and every `end_to_end` metric of BENCHMARK.json it
# prints the two medians, and fails when the change is worse than the
# base by more than the metric's `bound` in its `better` direction. It
# also fails when any run fails its checks, or when the change fails a
# larger share of operations than the base. Run logs stay in
# target/bench_ab/runs/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Three pairs: parent-vs-parent passes at least 9 gates in 10 on a
# 2-vCPU VM (CHANGES.md), and the whole A/B takes about 11 minutes.
PAIRS=3

[ $# -le 1 ] || { echo "usage: $0 [REV]" >&2; exit 2; }
base_rev=$(git rev-parse --verify "${1:-HEAD}^{commit}")
work=target/bench_ab
base=$work/base
runs=$work/runs

drop_base() {
    git worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
    git worktree prune
}
mkdir -p "$work"
drop_base
trap drop_base EXIT
git worktree add --quiet --detach "$base" "$base_rev"
rm -rf "$runs"
mkdir -p "$runs"

echo "==> build perfbench: base (${base_rev:0:12})"
cargo build --offline --release --quiet \
    --manifest-path "$base/perfbench/Cargo.toml" --target-dir "$work/target-base"
echo "==> build perfbench: change (working tree)"
cargo build --offline --release --quiet \
    --manifest-path perfbench/Cargo.toml --target-dir "$work/target-change"

seconds=$(awk -F: '/^  "run_seconds":/ { gsub(/[^0-9.]/, "", $2); print $2 }' BENCHMARK.json)
[ -n "$seconds" ] || { echo "BENCHMARK.json: no run_seconds" >&2; exit 2; }

for i in $(seq 1 "$PAIRS"); do
    order="base change"
    [ $((i % 2)) -eq 0 ] && order="change base"
    for side in $order; do
        echo "==> pair $i/$PAIRS: $side, seed $i, ${seconds}s a workload"
        "$work/target-$side/release/pba-perfbench" --workload all --seed "$i" \
            --seconds "$seconds" --trace 0 >"$runs/$side-$i.txt" 2>&1 \
            || echo "exit $?" >>"$runs/$side-$i.txt"
    done
done

# BENCHMARK.json first (its keys sit one to a line), then the run logs,
# named SIDE-PAIR.txt. Each workload's report ends in one JSON line.
awk -v pairs="$PAIRS" -v runs="$runs" '
    function median(key, count,   i, j, t, a) {
        for (i = 1; i <= count; i++) a[i] = vals[key, i]
        for (i = 2; i <= count; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        return count % 2 ? a[(count + 1) / 2] : (a[count / 2] + a[count / 2 + 1]) / 2
    }
    FILENAME == "BENCHMARK.json" {
        if (/^  "[a-z_]+":/) { split($0, k, "\""); section = k[2] }
        if (/"name":/) { split($0, k, "\""); name = k[4] }
        if (section == "workloads" && /"name":/) workloads[++nw] = name
        if (section == "end_to_end" && /"better":/) { split($0, k, "\""); better[name] = k[4] }
        if (section == "end_to_end" && /"bound":/) {
            v = $0; gsub(/[^0-9.]/, "", v); metrics[++nm] = name; bound[name] = v + 0
        }
        next
    }
    FNR == 1 { side = FILENAME; sub(/.*\//, "", side); sub(/-.*/, "", side) }
    /^exit [0-9]+$/ { print "FAIL: perfbench exited nonzero in " FILENAME; bad = 1 }
    /^[a-z0-9-]+ seed=[0-9]+ trace=[01]: / { workload = $1 }
    /^\{"correct": / {
        s = $0
        seen[side, workload]++
        if (s !~ /^\{"correct": true/) { print "FAIL: " workload " failed its checks in " FILENAME; bad = 1 }
        match(s, /"attempted": [0-9]+/); attempted[side, workload] += substr(s, RSTART + 13, RLENGTH - 13)
        match(s, /"failed": [0-9]+/); failed[side, workload] += substr(s, RSTART + 10, RLENGTH - 10)
        while (match(s, /"[a-z0-9_]+": \{"value": [-+0-9.eE]+/)) {
            m = substr(s, RSTART, RLENGTH)
            s = substr(s, RSTART + RLENGTH)
            split(m, k, "\"")
            sub(/.*"value": /, "", m)
            vals[side, workload, k[2], ++count[side, workload, k[2]]] = m + 0
        }
    }
    END {
        printf "%-13s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "change", "delta", "bound", "verdict"
        for (w = 1; w <= nw; w++) {
            wl = workloads[w]
            for (s = 0; s < 2; s++) {
                side = s ? "change" : "base"
                if (seen[side, wl] != pairs) {
                    printf "FAIL: %s has %d of %d %s runs (see %s)\n", wl, seen[side, wl], pairs, side, runs
                    bad = 1
                }
            }
            bshare = attempted["base", wl] ? failed["base", wl] / attempted["base", wl] : 0
            cshare = attempted["change", wl] ? failed["change", wl] / attempted["change", wl] : 0
            if (cshare > bshare) {
                printf "FAIL: %s: the change fails %.4f of its operations, the base %.4f\n", wl, cshare, bshare
                bad = 1
            }
            for (i = 1; i <= nm; i++) {
                mt = metrics[i]
                nb = count["base", wl, mt]; nc = count["change", wl, mt]
                if (nb == 0 || nc == 0) {
                    printf "%-13s %-20s  MISSING from the %s runs\n", wl, mt, nb ? "change" : "base"
                    bad = 1
                    continue
                }
                b = median("base" SUBSEP wl SUBSEP mt, nb)
                c = median("change" SUBSEP wl SUBSEP mt, nc)
                delta = b != 0 ? (c - b) / b : (c == b ? 0 : 1)
                worse = better[mt] == "higher" ? -delta : delta
                verdict = "ok"
                if (worse > bound[mt]) { verdict = "WORSE"; bad = 1 }
                printf "%-13s %-20s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", wl, mt, b, c, 100 * delta, 100 * bound[mt], verdict
            }
        }
        if (bad) { print "bench_ab: FAILED"; exit 1 }
        print "bench_ab: no end-to-end metric worse than its bound"
    }' BENCHMARK.json "$runs"/*.txt
