//! End-to-end tests for `pba-run cluster` and its `shard-worker` child
//! mode: real processes, real pipes. The orchestrator here spawns the
//! same binary under test as its workers, so these exercise the full
//! production transport.

use std::io::Write;
use std::process::{Command, Stdio};

use pba_cluster::wire::{read_frame, Frame};

fn pba_run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pba-run"))
        .args(args)
        .output()
        .expect("spawn pba-run")
}

/// The outcome-defining summary lines (loads, rounds, message counts, the
/// busiest bin's received messages) — everything that must be
/// bit-identical across process counts.
fn outcome_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| {
            [
                "rounds:",
                "placed:",
                "max load:",
                "messages:",
                "max bin rx:",
            ]
            .iter()
            .any(|p| l.starts_with(p))
        })
        .map(str::to_owned)
        .collect()
}

#[test]
fn cluster_processes_match_single_process_run_at_every_shard_count() {
    let args = |rest: &[&str]| {
        let mut v = vec![
            "cluster",
            "protocol",
            "collision",
            "--m",
            "2048",
            "--n",
            "128",
            "--seed",
            "7",
        ];
        v.extend_from_slice(rest);
        v.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };
    // The single-process baseline comes from the ordinary `protocol`
    // command: same engine, no cluster machinery at all.
    let single = pba_run(&[
        "protocol",
        "collision",
        "--m",
        "2048",
        "--n",
        "128",
        "--seed",
        "7",
    ]);
    assert!(single.status.success());
    let want = outcome_lines(&String::from_utf8_lossy(&single.stdout));
    assert_eq!(want.len(), 5, "baseline must print all five outcome lines");

    for shards in ["1", "2", "4"] {
        let argv = args(&["--shards", shards]);
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let out = pba_run(&argv);
        assert!(
            out.status.success(),
            "cluster --shards {shards} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            outcome_lines(&stdout),
            want,
            "--shards {shards} diverged from the single-process run:\n{stdout}"
        );
        assert!(
            stdout.contains("wire:"),
            "cluster runs must report wire accounting:\n{stdout}"
        );
    }
}

#[test]
fn transport_and_codec_matrix_is_bit_identical() {
    // {pipe, unix socket, local threads}: every cell must print the same
    // outcome lines. The pipe cell is the baseline (the default).
    let base = [
        "cluster",
        "protocol",
        "collision",
        "--m",
        "2048",
        "--n",
        "128",
        "--seed",
        "7",
        "--shards",
        "2",
    ];
    let baseline = pba_run(&base);
    assert!(
        baseline.status.success(),
        "baseline cluster run failed:\n{}",
        String::from_utf8_lossy(&baseline.stderr)
    );
    let want = outcome_lines(&String::from_utf8_lossy(&baseline.stdout));
    assert_eq!(want.len(), 5, "baseline must print all five outcome lines");

    let cells: [&[&str]; 2] = [&["--socket"], &["--local"]];
    for cell in cells {
        let mut argv: Vec<&str> = base.to_vec();
        argv.extend_from_slice(cell);
        let out = pba_run(&argv);
        assert!(
            out.status.success(),
            "cluster {cell:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            outcome_lines(&stdout),
            want,
            "{cell:?} diverged from the pipe baseline:\n{stdout}"
        );
    }
}

#[test]
fn serve_listen_and_send_reproduce_the_local_replay() {
    // Real traffic over a real unix socket: a listening allocator fed by
    // `serve --send` must land on exactly the loads of the in-process
    // `serve --replay` with the same seed and workload.
    let sock = std::env::temp_dir().join(format!("pba-serve-cli-{}.sock", std::process::id()));
    let sock = sock.to_str().expect("utf-8 temp path").to_owned();
    let replay = pba_run(&[
        "serve",
        "--replay",
        "--policy",
        "batched-two-choice",
        "--n",
        "256",
        "--batch",
        "n",
        "--batches",
        "5",
        "--seed",
        "21",
    ]);
    assert!(
        replay.status.success(),
        "local replay failed:\n{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let replay_out = String::from_utf8_lossy(&replay.stdout).to_string();
    let resident_line = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("resident:"))
            .map(str::to_owned)
            .unwrap_or_default()
    };
    let want = resident_line(&replay_out);
    assert!(
        !want.is_empty(),
        "replay must report residency:\n{replay_out}"
    );

    let server = Command::new(env!("CARGO_BIN_EXE_pba-run"))
        .args([
            "serve",
            "--listen",
            &sock,
            "--policy",
            "batched-two-choice",
            "--n",
            "256",
            "--seed",
            "21",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn listener");
    // Wait for the socket file to exist before dialing.
    for _ in 0..250 {
        if std::path::Path::new(&sock).exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(4));
    }
    let client = pba_run(&[
        "serve",
        "--send",
        &sock,
        "--policy",
        "batched-two-choice",
        "--n",
        "256",
        "--batch",
        "n",
        "--batches",
        "5",
        "--seed",
        "21",
    ]);
    let server_out = server.wait_with_output().expect("reap listener");
    assert!(
        client.status.success(),
        "serve --send failed:\n{}",
        String::from_utf8_lossy(&client.stderr)
    );
    assert!(
        server_out.status.success(),
        "serve --listen failed:\n{}",
        String::from_utf8_lossy(&server_out.stderr)
    );
    let server_stdout = String::from_utf8_lossy(&server_out.stdout).to_string();
    assert_eq!(
        resident_line(&server_stdout),
        want,
        "socket ingestion diverged from local replay:\nserver:\n{server_stdout}\nreplay:\n{replay_out}"
    );
}

#[test]
fn cluster_stream_kill_chaos_reports_the_dead_shard() {
    let out = pba_run(&[
        "cluster",
        "stream",
        "--n",
        "64",
        "--batch",
        "n",
        "--batches",
        "6",
        "--shards",
        "4",
        "--kill",
        "1@2",
        "--seed",
        "5",
    ]);
    assert!(
        out.status.success(),
        "kill-chaos run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("chaos:") && stdout.contains("shard 1 killed before batch 2"),
        "chaos line missing:\n{stdout}"
    );
    assert!(
        stdout.contains(", killed"),
        "the dead shard's wire record must be flagged:\n{stdout}"
    );
}

#[test]
fn shard_worker_rejects_garbage_with_nonzero_exit() {
    // A JSON hello line (the retired text dialect) and plain line garbage
    // are both refused by their lead byte.
    let json_hello = b"{\"t\":\"hello\",\"mode\":\"engine\",\"shard\":0,\"shards\":1}\n";
    for (input, lead) in [
        (&json_hello[..], "lead byte 0x7b"),
        (b"this is not a wire frame\n", "lead byte 0x74"),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pba-run"))
            .arg("shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn shard-worker");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input)
            .expect("write garbage");
        let out = child.wait_with_output().expect("reap shard-worker");
        assert!(
            !out.status.success(),
            "shard-worker must exit nonzero on a malformed frame"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("shard-worker:") && stderr.contains(lead),
            "stderr must name the bad lead byte:\n{stderr}"
        );
        // The diagnosis goes out on the wire as a binary error frame.
        let mut buf = Vec::new();
        match read_frame(&mut &out.stdout[..], &mut buf) {
            Ok(Some((Frame::Error { detail }, _))) => assert!(detail.contains(lead), "{detail}"),
            other => panic!("expected a binary error frame, got {other:?}"),
        }
    }
}

#[test]
fn cluster_rejects_unknown_protocol_and_bad_kill_spec() {
    let out = pba_run(&["cluster", "protocol", "colision", "--shards", "2"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown protocol 'colision'"),
        "unknown protocol must fail before any worker spawns"
    );

    let out = pba_run(&["cluster", "stream", "--kill", "3-4"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("SHARD@BATCH"),
        "bad --kill must name the expected shape"
    );
}
