#!/usr/bin/env bash
# Full local gate: every build surface the workspace supports must stay
# green — formatting, clippy lints (as errors), rustdoc links (as
# errors), the zero-dependency build, the test suite, the
# no-default-features build, and the benchmark package's own tests
# (perfbench/ builds against the public API, so deleting an item it
# uses must fail here, not in the bench), and the benchmark's A/B gate.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
# The two unsafe-hygiene lints are also workspace-level denials (see the
# root Cargo.toml [workspace.lints]); repeating them here keeps the gate
# explicit even if a crate opts out of the shared lint table.
run cargo clippy --workspace --all-targets -- -D warnings \
    -D unsafe_op_in_unsafe_fn -D clippy::undocumented-unsafe-blocks
# Doc links are checked like code: a link to a deleted, renamed or
# private item fails here instead of going stale in the rendered docs.
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
run cargo build --release
run cargo test -q --workspace
run cargo test --offline -q --manifest-path perfbench/Cargo.toml
run cargo test -q --test chaos --test golden_loads
# Differential fuzzer: fixed-seed corpus + explorer, serial vs pool
# bit-identity with the in-engine invariant checker armed. The corpus
# replay covers the (k,d)-grid and retry-cap axes of the protocol
# families alongside the legacy registry axis.
run cargo test -q --test fuzz_differential
# Statistical conformance oracles at CI scale: exits nonzero if any
# paper claim flips to REFUTED (see EXPERIMENTS.md "Oracle" column).
run cargo run --release -q -p pba-runner --bin pba-run -- verify --scale ci
# The two protocol-family oracles once more through the claim-subset
# path (distinct argument-parsing surface from the run-everything call
# above; their negative controls live in verify_cli.rs).
run cargo run --release -q -p pba-runner --bin pba-run -- \
    verify e24-kd-load e25-retries --scale ci
# Cluster smoke gate: 2- and 4-shard runs over worker processes on
# pipes, worker threads on local socket pairs and pre-started listening
# workers must be bit-identical to the single-process engine on a pinned seed,
# and a kill-a-shard chaos run must survive with the dead shard
# reported. The test suite asserts the same thing from inside cargo;
# this exercises the shipping binary spawning itself as `shard-worker`.
PBA=target/release/pba-run
# `max bin rx` is the message ledger's maximum: the matrix and the parity
# step below compare it across the serial, owner-split and delegated
# (cluster) grant paths.
outcome() { "$@" | grep -E '^(rounds|placed|max load|messages|max bin rx):'; }
echo "==> cluster smoke: transport bit-identity matrix (seed 11)"
want=$(outcome "$PBA" protocol collision --m 65536 --n 4096 --seed 11)
# The --connect cell drives one pre-started `shard-worker --listen` per
# shard over a unix socket; each must serve the run and exit 0.
workers=$(mktemp -d /tmp/pba_workers.XXXXXX)
for shards in 2 4; do
    for cell in "" "--local" "--connect"; do
        flags=$cell
        pids=()
        if [ "$cell" = "--connect" ]; then
            socks=()
            for s in $(seq 0 $((shards - 1))); do
                socks+=("$workers/$s.sock")
                "$PBA" shard-worker --listen "${socks[s]}" &
                pids+=($!)
            done
            for sock in "${socks[@]}"; do
                for _ in $(seq 1 250); do
                    [ -S "$sock" ] && break
                    sleep 0.02
                done
            done
            flags="--connect $(IFS=,; echo "${socks[*]}")"
        fi
        # shellcheck disable=SC2086  # $flags is a flag list, splitting wanted
        got=$(outcome "$PBA" cluster protocol collision \
            --m 65536 --n 4096 --seed 11 --shards "$shards" $flags) || true
        if [ "$got" != "$want" ]; then
            kill "${pids[@]}" 2>/dev/null || true
            echo "cluster --shards $shards ${cell:-(pipe)} diverged from the single-process run:" >&2
            diff <(echo "$want") <(echo "$got") >&2 || true
            exit 1
        fi
        for pid in "${pids[@]}"; do
            wait "$pid" || {
                echo "a listening shard-worker of cluster --shards $shards exited nonzero" >&2
                exit 1
            }
        done
    done
done
rmdir "$workers"
# Split-scan parity: at m = n = 2^18 the --parallel run's dense round 0
# scans and grants over several owner ranges of bitmap words and its
# sparse round 1 must clear what round 0 left; the cluster run sends
# each shard its arrivals as an ascending list. All three must agree.
echo "==> split-scan parity: sequential, --parallel and 2 shards (seed 11)"
want=$(outcome "$PBA" protocol collision --m 262144 --n 262144 --seed 11)
for cell in "protocol collision --parallel" "cluster protocol collision --shards 2"; do
    # shellcheck disable=SC2086  # $cell is a command line, splitting wanted
    got=$(outcome "$PBA" $cell --m 262144 --n 262144 --seed 11)
    if [ "$got" != "$want" ]; then
        echo "$cell diverged from the sequential run:" >&2
        diff <(echo "$want") <(echo "$got") >&2 || true
        exit 1
    fi
done
# The same parity through the k-slot commit path: kd-choice's round 0
# records its replicas in resolve, the owner ranges apply them, and the
# balls read the round-start loads of bins in every range.
echo "==> k-slot parity: kd-choice sequential and --parallel (seed 11)"
want=$(outcome "$PBA" protocol kd-choice --m 262144 --n 262144 --seed 11)
got=$(outcome "$PBA" protocol kd-choice --m 262144 --n 262144 --seed 11 --parallel)
if [ "$got" != "$want" ]; then
    echo "kd-choice --parallel diverged from the sequential run:" >&2
    diff <(echo "$want") <(echo "$got") >&2 || true
    exit 1
fi
# Parallel ingestion parity for the stream allocator: 16,384 arrivals a
# batch is above the 8,192 ingest cutoff, so --parallel decides and
# applies each batch on the pool. Its table rows and resident line must
# match the sequential run's.
echo "==> stream parity: zipf stream sequential and --parallel (seed 5)"
rows() { "$@" | grep -E '^(\||resident:)'; }
want=$(rows "$PBA" stream --n 4096 --batch 4n --batches 12 --churn 0.5 --workload zipf --seed 5)
got=$(rows "$PBA" stream --n 4096 --batch 4n --batches 12 --churn 0.5 --workload zipf --seed 5 \
    --parallel)
if [ "$got" != "$want" ]; then
    echo "stream --parallel diverged from the sequential run:" >&2
    diff <(echo "$want") <(echo "$got") >&2 || true
    exit 1
fi
# The same parity under faults: round 0 reads ball ids from the implicit
# range 0..m, and its stragglers, deferred with zero requests, cross it
# on 4 chunks as zero degree bytes; round 1 reads the survivor list.
FAULTS=drop=0.2,crash=0.02,straggle=8x0.25,seed=7
echo "==> faulted parity: collision sequential and --parallel (seed 3)"
want=$(outcome "$PBA" protocol collision --m 262144 --n 65536 --seed 3 --faults "$FAULTS")
got=$(outcome "$PBA" protocol collision --m 262144 --n 65536 --seed 3 --faults "$FAULTS" \
    --parallel)
if [ "$got" != "$want" ]; then
    echo "faulted collision --parallel diverged from the sequential run:" >&2
    diff <(echo "$want") <(echo "$got") >&2 || true
    exit 1
fi
# A load-capped protocol whose live bins cannot hold every ball must stop
# before round 0, not spend its round budget (up to tens of seconds). Each
# pair is a protocol and a crash plan that leaves too few live bins.
echo "==> infeasible runs fail fast: every load-capped protocol"
for pair in "estimated-average $FAULTS" "trivial-round-robin $FAULTS" \
    "collision crash=0.7,seed=7" "stemann-heavy crash=0.7,seed=7" \
    "threshold-heavy crash=0.4,seed=7" "a-light crash=0.4,seed=7" \
    "fixed-threshold crash=0.4,seed=7" \
    "parallel-two-choice crash=0.4,seed=7" "kd-choice crash=0.5,seed=7"; do
    name=${pair%% *}
    plan=${pair#* }
    code=0
    timeout 10 "$PBA" protocol "$name" --m 262144 --n 65536 --seed 3 \
        --faults "$plan" >/dev/null 2>&1 || code=$?
    if [ "$code" -ne 2 ]; then
        echo "$name under --faults $plan exited $code, not 2 within 10 s" >&2
        exit 1
    fi
done
echo "==> cluster smoke: kill-a-shard chaos"
# Capture to a file instead of piping into grep -q: quitting grep closes
# the pipe while pba-run is still printing, and the EPIPE panic (exit
# 101) made this gate fail at random under pipefail.
kill_smoke=$(mktemp /tmp/pba_kill_smoke.XXXXXX)
"$PBA" cluster stream --n 256 --batch n --batches 6 --shards 4 \
    --faults domains=4x0.0,kill=1x2 --seed 11 >"$kill_smoke"
grep -q 'shard 1 killed before batch 2' "$kill_smoke"
grep -q '8 barriers, killed' "$kill_smoke"
rm -f "$kill_smoke"
# Service smoke gate: a replay interrupted by a snapshot and finished
# from the restored state must land on exactly the final allocator
# state of the uninterrupted replay (the pinned guarantee of
# tests/service.rs, exercised here through the shipping binary and the
# on-disk snapshot file), and the JSONL trace must carry one "service"
# event per checkpoint window.
echo "==> serve smoke: snapshot/restore bit-identity (seed 11)"
snap=$(mktemp /tmp/pba_serve_snap.XXXXXX)
serve_trace=$(mktemp /tmp/pba_serve_trace.XXXXXX)
want=$("$PBA" serve --replay --n 256 --batch 2n --batches 8 --workload zipf \
    --churn 0.4 --checkpoint-every 2 --seed 11 | grep '^resident:')
"$PBA" serve --replay --n 256 --batch 2n --batches 8 --workload zipf \
    --churn 0.4 --checkpoint-every 2 --seed 11 \
    --snapshot-at 4 --snapshot "$snap" --trace "$serve_trace" >/dev/null
got=$("$PBA" serve --replay --restore "$snap" --batch 2n --batches 4 \
    --workload zipf --churn 0.4 --checkpoint-every 2 | grep '^resident:')
if [ "$got" != "$want" ]; then
    echo "restored serve replay diverged from the uninterrupted run:" >&2
    diff <(echo "$want") <(echo "$got") >&2 || true
    exit 1
fi
services=$(grep -c '"event":"service"' "$serve_trace")
if [ "$services" -ne 4 ]; then
    echo "expected 4 service trace events (8 batches / checkpoint 2), got $services" >&2
    exit 1
fi
rm -f "$snap" "$serve_trace"
# Socket ingestion smoke: real traffic through `serve --listen` over a
# unix socket must land on exactly the local replay's resident line.
echo "==> serve smoke: socket listen/send bit-identity (seed 11)"
sock=$(mktemp -u /tmp/pba_serve_sock.XXXXXX)
want=$("$PBA" serve --replay --n 256 --batch n --batches 5 --seed 11 \
    | grep '^resident:')
"$PBA" serve --listen "$sock" --n 256 --seed 11 >/tmp/pba_serve_listen.$$ &
listen_pid=$!
for _ in $(seq 1 250); do
    [ -S "$sock" ] && break
    sleep 0.02
done
"$PBA" serve --send "$sock" --n 256 --batch n --batches 5 --seed 11 >/dev/null
wait "$listen_pid"
got=$(grep '^resident:' /tmp/pba_serve_listen.$$)
rm -f /tmp/pba_serve_listen.$$
if [ "$got" != "$want" ]; then
    echo "socket ingestion diverged from the local replay:" >&2
    diff <(echo "$want") <(echo "$got") >&2 || true
    exit 1
fi
run cargo build --no-default-features
# Performance gate, last because it is the slow one (~11 minutes of
# runs): perfbench on the working tree against HEAD, alternating on this
# host, judged by the end_to_end bounds in BENCHMARK.json.
run scripts/bench_ab.sh

echo "==> all checks passed"
