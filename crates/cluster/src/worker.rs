//! The shard worker: one process (or thread) owning a contiguous bin
//! range, answering the orchestrator's waves.
//!
//! The worker is the *bin side* of the papers' model: it sees only its
//! own bins' arrival counts, decides grants with the protocol's
//! `bin_grant` (via [`pba_core::exec::grant_slice`], the same kernel the
//! in-process engine runs), and follows committed state the orchestrator
//! sends back. It holds a full protocol replica and applies
//! `begin_round`/`after_round` in simulator order, so threshold schedules
//! and phase machines evolve bit-identically to the orchestrator's copy.
//!
//! Errors are fail-fast: any malformed or out-of-order frame gets an
//! `error` frame in reply and the worker exits nonzero (its caller maps
//! `Err` to a nonzero process exit). A peer that is not speaking the
//! binary frame format at all is named by its lead byte in that error.

use std::io::{BufReader, Read, Write};
#[cfg(unix)]
use std::os::unix::net::UnixListener;

use pba_core::exec::grant_slice;
use pba_core::protocol::RoundContext;
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};
use pba_protocols::{visit_protocol, ProtocolVisitor};

use crate::transport::is_unix_addr;
use crate::wire::{self, Frame, Hello};

/// Serve one orchestrator connection until `shutdown` (or an error).
///
/// On error the detail has already been written to `writer` as an
/// `error` frame (best effort); the caller should exit nonzero.
pub fn serve(mut reader: impl Read, mut writer: impl Write) -> Result<(), String> {
    let hello = match read_frame(&mut reader) {
        Ok(Frame::Hello(h)) => h,
        Ok(other) => return fail(&mut writer, format!("expected hello, got {}", other.tag())),
        Err(e) => return fail(&mut writer, e),
    };
    if hello.lo > hello.hi || hello.hi > hello.n {
        return fail(
            &mut writer,
            format!(
                "bad shard range [{}, {}) of {}",
                hello.lo, hello.hi, hello.n
            ),
        );
    }
    let outcome = match hello.mode.as_str() {
        "engine" => {
            let spec = match ProblemSpec::new(hello.m, hello.n) {
                Ok(s) => s,
                Err(e) => return fail(&mut writer, format!("bad spec: {e}")),
            };
            let v = EngineWorker {
                reader: &mut reader,
                writer: &mut writer,
                hello: &hello,
                spec,
            };
            match visit_protocol(&hello.workload, spec, v) {
                Some(r) => r,
                None => Err(format!("unknown protocol '{}'", hello.workload)),
            }
        }
        "stream" => serve_stream(&mut reader, &mut writer, &hello),
        other => Err(format!("unknown mode '{other}'")),
    };
    match outcome {
        Ok(()) => Ok(()),
        Err(e) => fail(&mut writer, e),
    }
}

/// Serve stdin/stdout — the body of `pba-run shard-worker`.
pub fn serve_stdio() -> Result<(), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(stdin.lock(), stdout.lock())
}

/// Bind `addr` (a Unix-domain socket path, or `host:port` TCP), accept
/// one orchestrator connection, and serve it — the body of `pba-run
/// shard-worker --listen ADDR`.
pub fn serve_listen(addr: &str) -> Result<(), String> {
    if is_unix_addr(addr) {
        #[cfg(unix)]
        {
            let listener = UnixListener::bind(addr)
                .map_err(|e| format!("bind unix socket {addr} failed: {e}"))?;
            let (stream, _) = listener
                .accept()
                .map_err(|e| format!("accept on {addr} failed: {e}"))?;
            // The connection outlives the name; unlink now so a crashed
            // worker can't leave a stale socket behind.
            let _ = std::fs::remove_file(addr);
            let reader = BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| format!("socket clone failed: {e}"))?,
            );
            serve(reader, stream)
        }
        #[cfg(not(unix))]
        {
            Err(format!(
                "cannot listen on {addr}: unix-domain sockets are not available on this platform"
            ))
        }
    } else {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("bind tcp {addr} failed: {e}"))?;
        let (stream, _) = listener
            .accept()
            .map_err(|e| format!("accept on {addr} failed: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("socket clone failed: {e}"))?,
        );
        serve(reader, stream)
    }
}

fn fail(writer: &mut impl Write, detail: String) -> Result<(), String> {
    let frame = Frame::Error {
        detail: detail.clone(),
    };
    let _ = writer.write_all(&frame.encode());
    let _ = writer.flush();
    Err(detail)
}

fn read_frame(reader: &mut impl Read) -> Result<Frame, String> {
    match wire::read_frame(reader)? {
        Some((frame, _)) => Ok(frame),
        None => Err("orchestrator closed the pipe (EOF)".into()),
    }
}

fn send_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), String> {
    writer
        .write_all(&frame.encode())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("write failed: {e}"))
}

/// Delay-only chaos: straggle this barrier with the hello's probability,
/// drawn from a counter stream in `(fault_seed, shard, barrier)` so the
/// schedule replays. Sleeping changes nothing but wall time — replies
/// arrive late, never different.
fn maybe_straggle(hello: &Hello, barrier: u64) {
    if hello.straggle_prob <= 0.0 || hello.straggle_us == 0 {
        return;
    }
    let key = hello
        .fault_seed
        .wrapping_add(u64::from(hello.shard) << 32)
        .wrapping_add(barrier.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    let mut rng = SplitMix64::new(SplitMix64::mix(key));
    if rng.bernoulli(hello.straggle_prob) {
        std::thread::sleep(std::time::Duration::from_micros(hello.straggle_us));
    }
}

/// Engine-mode worker loop, generic over the concrete protocol the
/// registry constructs ([`visit_protocol`]'s visitor).
struct EngineWorker<'a, R, W> {
    reader: &'a mut R,
    writer: &'a mut W,
    hello: &'a Hello,
    spec: ProblemSpec,
}

impl<R: Read, W: Write> ProtocolVisitor for EngineWorker<'_, R, W> {
    type Output = Result<(), String>;

    fn visit<P: RoundProtocol + 'static>(self, mut protocol: P) -> Self::Output {
        let EngineWorker {
            reader,
            writer,
            hello,
            spec,
        } = self;
        let len = (hello.hi - hello.lo) as usize;
        let lo = hello.lo;
        let mut loads = vec![0u32; len];
        let mut counts = vec![0u32; len];
        let mut accept = vec![0u32; len];
        // Context of the round whose grants we answered last; `commit`
        // replays `after_round` against it.
        let mut open_round: Option<RoundContext> = None;
        send_frame(writer, &Frame::Ready { shard: hello.shard })?;
        loop {
            match read_frame(reader)? {
                Frame::Grants {
                    round,
                    active,
                    placed,
                    counts: pairs,
                    crashed,
                } => {
                    let ctx = RoundContext {
                        spec,
                        round,
                        active,
                        placed,
                        seed: hello.seed,
                    };
                    protocol.begin_round(&ctx);
                    counts.fill(0);
                    for &(bin, c) in &pairs {
                        let Some(i) = in_range(bin, lo, len) else {
                            return Err(format!("arrival bin {bin} outside shard range"));
                        };
                        counts[i] = u32::try_from(c)
                            .map_err(|_| format!("arrival count for bin {bin} exceeds u32"))?;
                    }
                    maybe_straggle(hello, u64::from(round));
                    let (underloaded, unfilled) =
                        grant_slice(&protocol, &ctx, lo, &counts, &loads, &crashed, &mut accept);
                    let accept_pairs: Vec<(u32, u64)> = accept
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a > 0)
                        .map(|(i, &a)| (lo + i as u32, u64::from(a)))
                        .collect();
                    open_round = Some(ctx);
                    send_frame(
                        writer,
                        &Frame::GrantsOk {
                            round,
                            accept: accept_pairs,
                            underloaded,
                            unfilled,
                        },
                    )?;
                }
                Frame::Commit {
                    round,
                    loads: pairs,
                    record,
                } => {
                    let ctx = open_round
                        .take()
                        .ok_or_else(|| format!("commit for round {round} with no open round"))?;
                    if ctx.round != round {
                        return Err(format!(
                            "commit round {round} does not match open round {}",
                            ctx.round
                        ));
                    }
                    for &(bin, load) in &pairs {
                        let Some(i) = in_range(bin, lo, len) else {
                            return Err(format!("committed bin {bin} outside shard range"));
                        };
                        loads[i] = u32::try_from(load)
                            .map_err(|_| format!("load for bin {bin} exceeds u32"))?;
                    }
                    // The replica evolves exactly when the simulator's
                    // copy does; the returned Flow is the orchestrator's
                    // decision to make.
                    let _ = protocol.after_round(&ctx, &record);
                    let sum: u64 = loads.iter().map(|&l| u64::from(l)).sum();
                    send_frame(writer, &Frame::CommitOk { round, sum })?;
                }
                Frame::Drain => {
                    let dense: Vec<u64> = loads.iter().map(|&l| u64::from(l)).collect();
                    send_frame(writer, &Frame::Loads { loads: dense })?;
                }
                Frame::Shutdown => {
                    send_frame(writer, &Frame::Bye { shard: hello.shard })?;
                    return Ok(());
                }
                other => {
                    return Err(format!("unexpected {} frame in engine mode", other.tag()));
                }
            }
        }
    }
}

/// Stream-mode loop: the worker is pure bin state — it applies absolute
/// load updates for its range and answers with verification totals.
fn serve_stream(
    reader: &mut impl Read,
    writer: &mut impl Write,
    hello: &Hello,
) -> Result<(), String> {
    let len = (hello.hi - hello.lo) as usize;
    let lo = hello.lo;
    let mut loads = vec![0u64; len];
    send_frame(writer, &Frame::Ready { shard: hello.shard })?;
    loop {
        match read_frame(reader)? {
            Frame::Delta {
                batch,
                loads: pairs,
            } => {
                for &(bin, load) in &pairs {
                    let Some(i) = in_range(bin, lo, len) else {
                        return Err(format!("delta bin {bin} outside shard range"));
                    };
                    loads[i] = load;
                }
                maybe_straggle(hello, batch);
                let total: u64 = loads.iter().sum();
                let max: u64 = loads.iter().copied().max().unwrap_or(0);
                send_frame(writer, &Frame::DeltaOk { batch, total, max })?;
            }
            Frame::Drain => {
                send_frame(
                    writer,
                    &Frame::Loads {
                        loads: loads.clone(),
                    },
                )?;
            }
            Frame::Shutdown => {
                send_frame(writer, &Frame::Bye { shard: hello.shard })?;
                return Ok(());
            }
            other => {
                return Err(format!("unexpected {} frame in stream mode", other.tag()));
            }
        }
    }
}

/// Shard-relative index of `bin`, or `None` when outside `[lo, lo+len)`.
fn in_range(bin: u32, lo: u32, len: usize) -> Option<usize> {
    bin.checked_sub(lo).map(|d| d as usize).filter(|&i| i < len)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serve `input` and decode every frame the worker wrote back.
    fn run_bytes(input: &[u8]) -> (Result<(), String>, Vec<Frame>) {
        let mut out: Vec<u8> = Vec::new();
        let r = serve(input, &mut out);
        let mut reader = &out[..];
        let mut frames = Vec::new();
        while let Some((frame, _)) = wire::read_frame(&mut reader).unwrap() {
            frames.push(frame);
        }
        (r, frames)
    }

    fn run_frames(frames: &[Frame]) -> (Result<(), String>, Vec<Frame>) {
        let input: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        run_bytes(&input)
    }

    fn hello(mode: &str) -> Hello {
        Hello {
            mode: mode.into(),
            shard: 0,
            shards: 1,
            lo: 0,
            hi: 8,
            n: 8,
            m: 64,
            seed: 5,
            workload: if mode == "engine" {
                "single-choice".into()
            } else {
                "one-choice".into()
            },
            straggle_prob: 0.0,
            straggle_us: 0,
            fault_seed: 0,
        }
    }

    #[test]
    fn garbage_first_frame_yields_error_and_err() {
        // A line-delimited JSON hello (the retired text dialect) and plain
        // line garbage are both refused by their lead byte, with the
        // diagnosis in a binary error frame.
        let json_hello = b"{\"t\":\"hello\",\"mode\":\"engine\",\"shard\":0}\n";
        for (input, lead) in [
            (&json_hello[..], "0x7b"),
            (b"this is not a frame\n", "0x74"),
        ] {
            let (r, frames) = run_bytes(input);
            assert!(r.unwrap_err().contains(lead));
            assert!(matches!(&frames[..], [Frame::Error { detail }]
                if detail.contains(&format!("lead byte {lead}"))));
        }
    }

    #[test]
    fn stream_worker_applies_deltas_and_drains() {
        let (r, frames) = run_frames(&[
            Frame::Hello(hello("stream")),
            Frame::Delta {
                batch: 0,
                loads: vec![(1, 5), (7, 2)],
            },
            Frame::Drain,
            Frame::Shutdown,
        ]);
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(frames[0], Frame::Ready { shard: 0 });
        assert_eq!(
            frames[1],
            Frame::DeltaOk {
                batch: 0,
                total: 7,
                max: 5
            }
        );
        assert_eq!(
            frames[2],
            Frame::Loads {
                loads: vec![0, 5, 0, 0, 0, 0, 0, 2]
            }
        );
        assert_eq!(frames[3], Frame::Bye { shard: 0 });
    }

    #[test]
    fn engine_worker_rejects_out_of_range_bins() {
        let mut h = hello("engine");
        h.hi = 4; // shard owns [0, 4) of 8 bins
        let (r, frames) = run_frames(&[
            Frame::Hello(h),
            Frame::Grants {
                round: 0,
                active: 64,
                placed: 0,
                counts: vec![(6, 3)],
                crashed: vec![],
            },
        ]);
        assert!(r.unwrap_err().contains("outside shard range"));
        assert!(matches!(frames.last(), Some(Frame::Error { .. })));
    }

    #[test]
    fn unknown_protocol_is_an_error_frame() {
        let mut h = hello("engine");
        h.workload = "nope".into();
        let (r, frames) = run_frames(&[Frame::Hello(h)]);
        assert!(r.unwrap_err().contains("unknown protocol"));
        assert!(matches!(&frames[..], [Frame::Error { .. }]));
    }
}
