#!/usr/bin/env bash
# bench_ab.sh — A/B the benchmark (perfbench/, judged by BENCHMARK.json)
# of the working tree against a git revision, on this host.
#
#   usage: scripts/bench_ab.sh [--workload W] [--pairs N] [--first-seed S] [REV]
#
# REV defaults to HEAD. The base is REV's committed tree, exported with
# `git archive` under target/bench_ab/ and removed on exit; the change
# is the working tree. Each side builds its own perfbench (offline,
# release) into its own target dir. Then N pairs of runs (default 3)
# alternate the two sides, and the side that runs first alternates too,
# so drift in the host lands on both. Pair i runs `--workload W --seed
# S+i-1 --trace 0` for BENCHMARK.json's `run_seconds`; W defaults to
# `all` (every workload) and S to 1.
#
# For every workload run and every `end_to_end` metric of BENCHMARK.json
# it prints each side's quartiles, the change of the median, and in how
# many pairs the change beat the base, and it fails when the change's
# median is worse than the base's by more than the metric's `bound` in
# its `better` direction. It also fails when any run fails its checks,
# or when the change fails a larger share of operations than the base.
# A claimed gain on one workload reads off the same table: run it with
# `--workload W --pairs 10 --first-seed 101` and compare the win count
# and the medians with the base's quartiles. Run logs stay in
# target/bench_ab/runs/.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 [--workload W] [--pairs N] [--first-seed S] [REV]" >&2
    exit 2
}

# Three pairs: parent-vs-parent passes at least 9 gates in 10 on a
# 2-vCPU VM (CHANGES.md), and the whole A/B takes about 11 minutes.
pairs=3
workload=all
first_seed=1
rev=HEAD
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) [ $# -ge 2 ] || usage; workload=$2; shift 2 ;;
        --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
        --first-seed) [ $# -ge 2 ] || usage; first_seed=$2; shift 2 ;;
        -*) usage ;;
        *) [ "$rev" = HEAD ] || usage; rev=$1; shift ;;
    esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "bad --pairs $pairs" >&2; exit 2; }
[[ "$first_seed" =~ ^[0-9]+$ ]] || { echo "bad --first-seed $first_seed" >&2; exit 2; }
if [ "$workload" != all ] && ! grep -q "\"name\": \"$workload\"" BENCHMARK.json; then
    echo "unknown workload '$workload' (not in BENCHMARK.json)" >&2
    exit 2
fi

base_rev=$(git rev-parse --verify "$rev^{commit}")
work=target/bench_ab
base=$work/base
runs=$work/runs

mkdir -p "$work"
rm -rf "$base"
trap 'rm -rf "$base"' EXIT
mkdir -p "$base"
git archive "$base_rev" | tar -x -C "$base"
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

for i in $(seq 1 "$pairs"); do
    seed=$((first_seed + i - 1))
    order="base change"
    [ $((i % 2)) -eq 0 ] && order="change base"
    for side in $order; do
        echo "==> pair $i/$pairs: $side, $workload, seed $seed, ${seconds}s a workload"
        "$work/target-$side/release/pba-perfbench" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$runs/$side-$i.txt" 2>&1 \
            || echo "exit $?" >>"$runs/$side-$i.txt"
    done
done

# BENCHMARK.json first (its keys sit one to a line), then the run logs,
# named SIDE-PAIR.txt. Each workload's report ends in one JSON line.
awk -v pairs="$pairs" -v runs="$runs" -v only="$workload" '
    function sorted(key, count, a,   i, j, t) {
        for (i = 1; i <= count; i++) a[i] = vals[key, i]
        for (i = 2; i <= count; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    }
    # Quantile p of a sorted array of count values, interpolated between
    # the two nearest ranks (p = 0.5 is the median).
    function quantile(a, count, p,   h, lo) {
        h = 1 + (count - 1) * p
        lo = int(h)
        return lo >= count ? a[count] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    FILENAME == "BENCHMARK.json" {
        if (/^  "[a-z_]+":/) { split($0, k, "\""); section = k[2] }
        if (/"name":/) { split($0, k, "\""); name = k[4] }
        if (section == "workloads" && /"name":/ && (only == "all" || only == name)) workloads[++nw] = name
        if (section == "end_to_end" && /"better":/) { split($0, k, "\""); better[name] = k[4] }
        if (section == "end_to_end" && /"bound":/) {
            v = $0; gsub(/[^0-9.]/, "", v); metrics[++nm] = name; bound[name] = v + 0
        }
        next
    }
    FNR == 1 {
        side = FILENAME; sub(/.*\//, "", side); pair = side
        sub(/-.*/, "", side); sub(/^[a-z]+-/, "", pair); sub(/\.txt$/, "", pair)
    }
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
            bypair[side, workload, k[2], pair] = m + 0
            has[side, workload, k[2], pair] = 1
        }
    }
    END {
        printf "%-13s %-20s %-32s %-32s %8s %6s %7s  %s\n", "workload", "metric", \
            "base q1 / median / q3", "change q1 / median / q3", "delta", "bound", "wins", "verdict"
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
                split("", sb); split("", sc)
                sorted("base" SUBSEP wl SUBSEP mt, nb, sb)
                sorted("change" SUBSEP wl SUBSEP mt, nc, sc)
                b = quantile(sb, nb, 0.5)
                c = quantile(sc, nc, 0.5)
                delta = b != 0 ? (c - b) / b : (c == b ? 0 : 1)
                worse = better[mt] == "higher" ? -delta : delta
                # A pair counts as a win when the change beats the base
                # strictly in the better direction of the metric.
                wins = 0; both = 0
                for (p = 1; p <= pairs; p++) {
                    if (!has["base", wl, mt, p] || !has["change", wl, mt, p]) continue
                    both++
                    d = bypair["change", wl, mt, p] - bypair["base", wl, mt, p]
                    if (better[mt] == "higher" ? d > 0 : d < 0) wins++
                }
                verdict = "ok"
                if (worse > bound[mt]) { verdict = "WORSE"; bad = 1 }
                printf "%-13s %-20s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%% %5.0f%% %3d/%-3d  %s\n", \
                    wl, mt, quantile(sb, nb, 0.25), b, quantile(sb, nb, 0.75), \
                    quantile(sc, nc, 0.25), c, quantile(sc, nc, 0.75), \
                    100 * delta, 100 * bound[mt], wins, both, verdict
            }
        }
        if (bad) { print "bench_ab: FAILED"; exit 1 }
        print "bench_ab: no end-to-end metric worse than its bound"
    }' BENCHMARK.json "$runs"/*.txt
