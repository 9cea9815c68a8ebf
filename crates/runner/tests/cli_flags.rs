//! Characterization of `pba-run`'s flag handling: for every subcommand,
//! an unknown flag, a missing value, an unparsable value and each range
//! check must fail with exit code 1, print nothing on stdout, and lead
//! stderr with exactly the message below. A run that fails on a command
//! line it understood is no usage error: it prints its one error line
//! and exits 2.

use std::process::Command;

/// `(argv, first line of stderr)`. Arguments are split on spaces.
const CASES: &[(&str, &str)] = &[
    // Experiment runners (`all`, `<id>`).
    ("all --bogus", "error: unknown flag '--bogus'"),
    ("e01 --bogus", "error: unknown flag '--bogus'"),
    ("all --scale", "error: --scale needs a value"),
    ("all --out", "error: --out needs a value"),
    ("all --trace", "error: --trace needs a value"),
    ("all --scale huge", "error: bad scale 'huge'"),
    ("e01 --scale huge", "error: bad scale 'huge'"),
    // `protocol`.
    ("protocol", "error: protocol: missing name"),
    ("protocol collision --bogus", "error: unknown flag '--bogus'"),
    ("protocol collision stray", "error: unknown flag 'stray'"),
    ("protocol collision --m", "error: --m needs a value"),
    ("protocol collision --n", "error: --n needs a value"),
    ("protocol collision --seed", "error: --seed needs a value"),
    ("protocol collision --trace", "error: --trace needs a value"),
    ("protocol collision --faults", "error: --faults needs a value"),
    ("protocol collision --m x", "error: bad --m"),
    ("protocol collision --n x", "error: bad --n"),
    ("protocol collision --n 5000000000", "error: bad --n"),
    ("protocol collision --seed -1", "error: bad --seed"),
    ("protocol collision --faults drop=x", "error: --faults drop=x: bad probability"),
    ("protocol collision --faults bogus=1", "error: --faults: unknown key 'bogus' (valid: drop, crash, straggle, domains, kill, seed, backoff, redraw)"),
    ("protocol collision --faults domains=4x0.5,kill=1x0", "error: protocol does not take the --faults clause domains= (see the fault spec below)"),
    ("protocol collision --m 0", "error: invalid problem spec: m must be positive"),
    ("protocol collision --n 0", "error: invalid problem spec: n must be positive"),
    ("protocol nope --m 16 --n 4", "error: unknown protocol 'nope' (try `pba-run protocols`)"),
    // `stream`: the stream-workload flags and their range checks.
    ("stream --bogus", "error: unknown flag '--bogus'"),
    ("stream stray", "error: unknown flag 'stray'"),
    ("stream --policy", "error: --policy needs a value"),
    ("stream --n", "error: --n needs a value"),
    ("stream --batch", "error: --batch needs a value"),
    ("stream --batches", "error: --batches needs a value"),
    ("stream --workload", "error: --workload needs a value"),
    ("stream --churn", "error: --churn needs a value"),
    ("stream --shards", "error: unknown flag '--shards'"),
    ("stream --seed", "error: --seed needs a value"),
    ("stream --trace", "error: --trace needs a value"),
    ("stream --faults", "error: --faults needs a value"),
    ("stream --policy bogus", "error: unknown policy 'bogus' (choose from: one-choice, two-choice, batched-two-choice, threshold)"),
    ("stream --n x", "error: bad --n"),
    ("stream --n -1", "error: bad --n"),
    ("stream --batches x", "error: bad --batches"),
    ("stream --churn x", "error: bad --churn"),
    ("stream --shards x", "error: unknown flag '--shards'"),
    ("stream --seed x", "error: bad --seed"),
    ("stream --batch x", "error: bad --batch 'x' (absolute count or multiple like '8n')"),
    ("stream --batch 2x", "error: bad --batch '2x' (absolute count or multiple like '8n')"),
    ("stream --workload zipff", "error: unknown workload 'zipff' (did you mean 'zipf'? choose from: uniform, zipf, burst)"),
    ("stream --workload nope", "error: unknown workload 'nope' (choose from: uniform, zipf, burst)"),
    ("stream --n 0", "error: --n must be at least 1"),
    ("stream --batches 0", "error: --batches must be at least 1"),
    ("stream --churn 2", "error: --churn must be in [0, 1]"),
    ("stream --churn -0.5", "error: --churn must be in [0, 1]"),
    ("stream --batch 0", "error: --batch must be at least 1"),
    ("stream --batch 0n", "error: --batch must be at least 1"),
    ("stream --n 0 --batches 0", "error: --n must be at least 1"),
    ("stream --faults drop=2", "error: --faults drop=2: must be in [0, 1)"),
    ("stream --faults drop=0.5,crash=0.3,straggle=8x0.5", "error: stream does not take the --faults clause drop= (see the fault spec below)"),
    // `serve --replay` (the default serve mode).
    ("serve --bogus", "error: unknown flag '--bogus'"),
    ("serve stray", "error: unknown flag 'stray'"),
    ("serve --replay --policy", "error: --policy needs a value"),
    ("serve --replay --n", "error: --n needs a value"),
    ("serve --replay --rate", "error: --rate needs a value"),
    ("serve --replay --queue", "error: --queue needs a value"),
    ("serve --replay --checkpoint-every", "error: --checkpoint-every needs a value"),
    ("serve --replay --snapshot-at", "error: --snapshot-at needs a value"),
    ("serve --replay --snapshot", "error: --snapshot needs a value"),
    ("serve --replay --restore", "error: --restore needs a value"),
    ("serve --replay --trace", "error: --trace needs a value"),
    ("serve --replay --faults", "error: --faults needs a value"),
    ("serve --replay --policy bogus", "error: unknown policy 'bogus' (choose from: one-choice, two-choice, batched-two-choice, threshold)"),
    ("serve --replay --n x", "error: bad --n"),
    ("serve --replay --rate x", "error: bad --rate"),
    ("serve --replay --queue x", "error: bad --queue"),
    ("serve --replay --checkpoint-every x", "error: bad --checkpoint-every"),
    ("serve --replay --snapshot-at x", "error: bad --snapshot-at"),
    ("serve --replay --n 0", "error: --n must be at least 1"),
    ("serve --replay --batches 0", "error: --batches must be at least 1"),
    ("serve --replay --churn 2", "error: --churn must be in [0, 1]"),
    ("serve --replay --rate -1", "error: --rate must be a finite rate >= 0 (0 = unthrottled)"),
    ("serve --replay --rate inf", "error: --rate must be a finite rate >= 0 (0 = unthrottled)"),
    ("serve --replay --queue 0", "error: --queue must be at least 1"),
    ("serve --replay --checkpoint-every 0", "error: --checkpoint-every must be at least 1"),
    ("serve --replay --snapshot-at 0", "error: --snapshot-at must be in 1..=32 (--batches)"),
    ("serve --replay --batches 4 --snapshot-at 5", "error: --snapshot-at must be in 1..=4 (--batches)"),
    ("serve --replay --batch 0", "error: --batch must be at least 1"),
    ("serve --replay --workload nope", "error: unknown workload 'nope' (choose from: uniform, zipf, burst)"),
    ("serve --replay --faults straggle=8x0.5,domains=4x0.2", "error: serve --replay does not take the --faults clause straggle= (see the fault spec below)"),
    // `serve --listen`: a narrower table with its own unknown-flag text.
    ("serve --listen", "error: --listen needs an address"),
    ("serve --listen /nonexistent/pba.sock --bogus", "error: unknown flag '--bogus' for serve --listen"),
    ("serve --listen /nonexistent/pba.sock --batch 4", "error: unknown flag '--batch' for serve --listen"),
    ("serve --listen /nonexistent/pba.sock --policy", "error: --policy needs a value"),
    ("serve --listen /nonexistent/pba.sock --policy bogus", "error: unknown policy 'bogus'"),
    ("serve --listen /nonexistent/pba.sock --n x", "error: bad --n"),
    ("serve --listen /nonexistent/pba.sock --shards x", "error: unknown flag '--shards' for serve --listen"),
    ("serve --listen /nonexistent/pba.sock --seed x", "error: bad --seed"),
    ("serve --listen /nonexistent/pba.sock --n 0", "error: --n must be at least 1"),
    // `serve --send`: no `--shards` or `--parallel`.
    ("serve --send", "error: --send needs an address"),
    ("serve --send /nonexistent/pba.sock --bogus", "error: unknown flag '--bogus' for serve --send"),
    ("serve --send /nonexistent/pba.sock --shards 2", "error: unknown flag '--shards' for serve --send"),
    ("serve --send /nonexistent/pba.sock --parallel", "error: unknown flag '--parallel' for serve --send"),
    ("serve --send /nonexistent/pba.sock --policy", "error: --policy needs a value"),
    ("serve --send /nonexistent/pba.sock --policy bogus", "error: unknown policy 'bogus'"),
    ("serve --send /nonexistent/pba.sock --n x", "error: bad --n"),
    ("serve --send /nonexistent/pba.sock --batches x", "error: bad --batches"),
    ("serve --send /nonexistent/pba.sock --churn x", "error: bad --churn"),
    ("serve --send /nonexistent/pba.sock --seed x", "error: bad --seed"),
    ("serve --send /nonexistent/pba.sock --n 0", "error: --n must be at least 1"),
    ("serve --send /nonexistent/pba.sock --churn 2", "error: --churn must be in [0, 1]"),
    ("serve --send /nonexistent/pba.sock --batch 0", "error: --batch must be at least 1"),
    ("serve --send /nonexistent/pba.sock --workload nope", "error: unknown workload 'nope' (choose from: uniform, zipf, burst)"),
    // `cluster protocol`.
    ("cluster", "error: cluster: missing mode ('protocol' or 'stream')"),
    ("cluster bogus", "error: cluster: unknown mode 'bogus' (protocol or stream)"),
    ("cluster protocol", "error: cluster protocol: missing name"),
    ("cluster protocol collision --bogus", "error: unknown flag '--bogus'"),
    ("cluster protocol collision --m", "error: --m needs a value"),
    ("cluster protocol collision --shards", "error: --shards needs a value"),
    ("cluster protocol collision --connect", "error: --connect needs addresses"),
    ("cluster protocol collision --trace", "error: --trace needs a value"),
    ("cluster protocol collision --faults", "error: --faults needs a value"),
    ("cluster protocol collision --m x", "error: bad --m"),
    ("cluster protocol collision --shards x", "error: bad --shards"),
    ("cluster protocol collision --shards -1", "error: bad --shards"),
    ("cluster protocol collision --shards 0", "error: --shards must be in 1..=1024 (the bin count)"),
    ("cluster protocol collision --n 4 --shards 5", "error: --shards must be in 1..=4 (the bin count)"),
    ("cluster protocol collision --m 0", "error: invalid problem spec: m must be positive"),
    ("cluster protocol colision --shards 2", "error: unknown protocol 'colision' (try `pba-run protocols`)"),
    ("cluster protocol collision --socket", "error: unknown flag '--socket'"),
    ("cluster protocol collision --faults drop=0.1,domains=4x0.0", "error: cluster protocol does not take the --faults clause domains= (see the fault spec below)"),
    // `cluster stream`.
    ("cluster stream --bogus", "error: unknown flag '--bogus'"),
    ("cluster stream --policy", "error: --policy needs a value"),
    ("cluster stream --kill 1@2", "error: unknown flag '--kill'"),
    ("cluster stream --connect", "error: --connect needs addresses"),
    ("cluster stream --policy bogus", "error: unknown policy 'bogus' (choose from: one-choice, two-choice, batched-two-choice, threshold)"),
    ("cluster stream --shards x", "error: bad --shards"),
    ("cluster stream --shards 5000000000", "error: bad --shards"),
    ("cluster stream --n 0", "error: --n must be at least 1"),
    ("cluster stream --batches 0", "error: --batches must be at least 1"),
    ("cluster stream --churn 2", "error: --churn must be in [0, 1]"),
    ("cluster stream --shards 0", "error: --shards must be in 1..=1024 (the bin count)"),
    ("cluster stream --n 8 --shards 9", "error: --shards must be in 1..=8 (the bin count)"),
    ("cluster stream --batch 0", "error: --batch must be at least 1"),
    ("cluster stream --workload nope", "error: unknown workload 'nope' (choose from: uniform, zipf, burst)"),
    ("cluster stream --faults straggle=8x0.5,crash=0.1", "error: cluster stream does not take the --faults clause crash= (see the fault spec below)"),
    // One codec, one send path: the options that chose others are gone.
    ("cluster protocol collision --wire json", "error: unknown flag '--wire'"),
    ("cluster stream --no-overlap", "error: unknown flag '--no-overlap'"),
    // `shard-worker` reports on stderr without the usage banner.
    ("shard-worker --bogus", "shard-worker: unknown flag '--bogus' (--listen ADDR)"),
    ("shard-worker --listen", "shard-worker: --listen needs an address"),
    // `bench` and `tune` are not commands: perfbench is the benchmark.
    ("bench --tier small", "error: unknown experiment or command 'bench': valid experiment ids are e01..e25 (see `pba-run list`)"),
    ("tune", "error: unknown experiment or command 'tune': valid experiment ids are e01..e25 (see `pba-run list`)"),
    // `verify`: bare words are claim ids, so only dashed words are flags.
    ("verify --bogus", "error: unknown flag '--bogus'"),
    ("verify --scale", "error: --scale needs a value"),
    ("verify --faults", "error: --faults needs a value"),
    ("verify --scale huge", "error: bad verify scale 'huge' (ci or full)"),
    ("verify --faults drop=x", "error: --faults drop=x: bad probability"),
    // Errors surface in argv order: a value fails when its flag is read,
    // range checks run after every flag, `--batch` and `--workload` last.
    ("stream --n x --bogus", "error: bad --n"),
    ("stream --bogus --n x", "error: unknown flag '--bogus'"),
    ("stream --batch 0 --bogus", "error: unknown flag '--bogus'"),
    ("stream --n 0 --churn 2", "error: --n must be at least 1"),
    ("stream --churn 2 --batch 0", "error: --churn must be in [0, 1]"),
    ("stream --seed 1 --seed x", "error: bad --seed"),
    ("cluster stream --shards 0 --batch 0", "error: --shards must be in 1..=1024 (the bin count)"),
    ("serve --replay --queue 0 --batch 0", "error: --queue must be at least 1"),
    ("serve --replay --batches 2 --snapshot-at 3 --workload nope", "error: --snapshot-at must be in 1..=2 (--batches)"),
    ("cluster protocol collision --shards 0 --m 0", "error: --shards must be in 1..=1024 (the bin count)"),
    ("protocol collision --parallel --parallel --m x", "error: bad --m"),
    ("verify e01-ks --bogus", "error: unknown flag '--bogus'"),
    ("verify --json --scale full --bogus", "error: unknown flag '--bogus'"),
];

#[test]
fn every_flag_error_keeps_its_exit_code_and_message() {
    let mut mismatches = Vec::new();
    for &(argv, want) in CASES {
        let out = Command::new(env!("CARGO_BIN_EXE_pba-run"))
            .args(argv.split(' '))
            .output()
            .expect("spawn pba-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let got = stderr.lines().next().unwrap_or("");
        if out.status.code() != Some(1) || got != want || !out.stdout.is_empty() {
            mismatches.push(format!(
                "pba-run {argv}\n  want: exit 1, {want}\n  got:  exit {:?}, {got}{}",
                out.status.code(),
                if out.stdout.is_empty() {
                    ""
                } else {
                    " (and stdout output)"
                }
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn run_failures_print_one_line_and_usage_errors_the_banner() {
    let run = |argv: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_pba-run"))
            .args(argv.split(' '))
            .output()
            .expect("spawn pba-run");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr, out.stdout.is_empty())
    };
    // Under this fault plan single-choice runs out of its round budget.
    let (code, stderr, quiet) = run("protocol single-choice --m 262144 --n 65536 --seed 3 \
         --faults drop=0.2,crash=0.02,straggle=8x0.25,seed=7");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(code, Some(2), "a run failure exits 2:\n{stderr}");
    assert_eq!(lines.len(), 1, "a run failure prints one line:\n{stderr}");
    assert!(
        lines[0].starts_with("error: round budget exhausted after 2 rounds with "),
        "{stderr}"
    );
    assert!(quiet, "a failed run prints nothing on stdout");

    // A load-capped protocol whose live bins cannot hold every ball stops
    // before round 0.
    for name in ["estimated-average", "trivial-round-robin"] {
        let (code, stderr, quiet) = run(&format!(
            "protocol {name} --m 262144 --n 65536 --seed 3 \
             --faults drop=0.2,crash=0.02,straggle=8x0.25,seed=7"
        ));
        assert_eq!(
            code,
            Some(2),
            "{name}: an infeasible run exits 2:\n{stderr}"
        );
        assert_eq!(
            stderr,
            "error: infeasible run: 64216 live bins × load cap 4 = 256864 load units, \
             fewer than the 262144 to place\n",
            "{name}"
        );
        assert!(quiet);
    }
    // Every other protocol that caps its bins' load for the whole run
    // stops there too, once enough bins crash.
    for (name, crash, want) in [
        (
            "collision",
            "0.7",
            "19555 live bins × load cap 12 = 234660 load units, fewer than the 262144",
        ),
        (
            "stemann-heavy",
            "0.7",
            "19555 live bins × load cap 10 = 195550 load units, fewer than the 262144",
        ),
        (
            "threshold-heavy",
            "0.4",
            "39210 live bins × load cap 6 = 235260 load units, fewer than the 262144",
        ),
        (
            "a-light",
            "0.4",
            "39210 live bins × load cap 6 = 235260 load units, fewer than the 262144",
        ),
        (
            "fixed-threshold",
            "0.4",
            "39210 live bins × load cap 6 = 235260 load units, fewer than the 262144",
        ),
        (
            "parallel-two-choice",
            "0.4",
            "39210 live bins × load cap 6 = 235260 load units, fewer than the 262144",
        ),
        (
            "kd-choice",
            "0.5",
            "32767 live bins × load cap 14 = 458738 load units, fewer than the 524288",
        ),
    ] {
        let (code, stderr, quiet) = run(&format!(
            "protocol {name} --m 262144 --n 65536 --seed 3 --faults crash={crash},seed=7"
        ));
        assert_eq!(
            code,
            Some(2),
            "{name}: an infeasible run exits 2:\n{stderr}"
        );
        assert_eq!(
            stderr,
            format!("error: infeasible run: {want} to place\n"),
            "{name}"
        );
        assert!(quiet, "{name}");
    }

    // A checksum-valid snapshot claiming 2^32 - 1 bins and holding no
    // loads: the restore refuses it by the bytes left, before reserving
    // anything for the claimed bins.
    let huge = format!("{}/huge-bins.snap", env!("CARGO_TARGET_TMPDIR"));
    let mut w = pba_core::wire::WireWriter::framed(*b"PBAS", 2);
    w.u32(u32::MAX); // bins
    w.u64(0); // seed
    w.str("one-choice");
    w.u64(0); // batch_seq
    std::fs::write(&huge, w.finish()).expect("write the snapshot");
    let huge_want =
        format!("error: --restore {huge}: frame truncated: needed 34359738360 bytes, 0 left\n");
    // The right total in the wrong bin: ball 7 filed under bin 0 while
    // bin 1 holds its load.
    let misfiled = format!("{}/misfiled.snap", env!("CARGO_TARGET_TMPDIR"));
    let mut w = pba_core::wire::WireWriter::framed(*b"PBAS", 2);
    w.u32(2); // bins
    w.u64(0); // seed
    w.str("one-choice");
    w.u64(1); // batch_seq
    for word in [0, 1, 1, 7] {
        w.u64(word); // loads of bins 0 and 1, resident count, ball id
    }
    w.u32(0); // the ball's bin
    w.u64(1); // its weight
    w.bytes(&[]); // policy state
    std::fs::write(&misfiled, w.finish()).expect("write the snapshot");
    let misfiled_want = format!(
        "error: --restore {misfiled}: malformed frame: conservation violated in bin 0: \
         resident weight 1 != load 0\n"
    );

    // Replay and stream runs fail the same way once their command line is
    // accepted.
    for (argv, want) in [
        (
            "serve --replay --restore /nonexistent/snap.bin".to_owned(),
            "error: --restore /nonexistent/snap.bin: No such file or directory (os error 2)\n",
        ),
        (
            format!("serve --replay --restore {huge}"),
            huge_want.as_str(),
        ),
        (
            format!("serve --replay --restore {misfiled}"),
            misfiled_want.as_str(),
        ),
        (
            "stream --batches 1 --trace /nonexistent/dir/t.jsonl".to_owned(),
            "error: --trace /nonexistent/dir/t.jsonl: No such file or directory (os error 2)\n",
        ),
    ] {
        let (code, stderr, quiet) = run(&argv);
        assert_eq!(code, Some(2), "{argv}: a run failure exits 2:\n{stderr}");
        assert_eq!(stderr, want, "{argv}");
        assert!(quiet, "{argv}");
    }

    let (code, stderr, quiet) = run("protocol single-choice --m 0");
    assert_eq!(code, Some(1), "a usage error exits 1:\n{stderr}");
    assert!(
        stderr.starts_with("error: invalid problem spec: m must be positive\n\nusage:\n"),
        "a usage error prints the banner:\n{stderr}"
    );
    assert!(quiet);
}
