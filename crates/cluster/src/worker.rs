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
//! Every frame is read into one buffer the worker reuses, and its lists
//! are walked straight into the worker's dense arrays; replies are
//! written straight from those arrays (see [`crate::wire`]). The
//! `commit_ok` checksum is a running sum of the range's loads, moved by
//! each commit's changed loads rather than summed over the range.
//!
//! Errors are fail-fast: any malformed or out-of-order frame gets an
//! `error` frame in reply and the worker exits nonzero (its caller maps
//! `Err` to a nonzero process exit). A peer that is not speaking the
//! binary frame format at all is named by its lead byte in that error.

use std::io::{Read, Write};

use pba_core::exec::grant_slice;
use pba_core::protocol::RoundContext;
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};
use pba_protocols::{visit_protocol, ProtocolVisitor};

use crate::transport::{Listener, SocketStream};
use crate::wire::{self, Frame, Hello, LoadList, PairList};

/// Serve one orchestrator connection until `shutdown` (or an error).
///
/// On error the detail has already been written to `writer` as an
/// `error` frame (best effort); the caller should exit nonzero.
pub fn serve(mut reader: impl Read, mut writer: impl Write) -> Result<(), String> {
    // Every frame of the session is read into this one buffer.
    let mut buf = Vec::new();
    let hello = match read_frame(&mut reader, &mut buf) {
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
                buf: &mut buf,
                writer: &mut writer,
                hello: &hello,
                spec,
            };
            match visit_protocol(&hello.workload, spec, v) {
                Some(r) => r,
                None => Err(format!("unknown protocol '{}'", hello.workload)),
            }
        }
        "stream" => serve_stream(&mut reader, &mut buf, &mut writer, &hello),
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
    let listener = Listener::bind(addr).map_err(|e| format!("bind {addr} failed: {e}"))?;
    let (stream, _) = listener
        .accept_one()
        .map_err(|e| format!("accept on {addr} failed: {e}"))?;
    serve_socket(stream)
}

/// Serve one orchestrator connection on a connected socket — the body of
/// a `--listen` worker, and of a `--local` run's worker threads.
pub(crate) fn serve_socket(stream: SocketStream) -> Result<(), String> {
    let (writer, reader) = stream
        .split()
        .map_err(|e| format!("socket clone failed: {e}"))?;
    serve(reader, writer)
}

fn fail(writer: &mut impl Write, detail: String) -> Result<(), String> {
    let frame = Frame::Error {
        detail: detail.clone(),
    };
    let _ = writer.write_all(&frame.encode());
    let _ = writer.flush();
    Err(detail)
}

fn read_frame<'b>(reader: &mut impl Read, buf: &'b mut Vec<u8>) -> Result<Frame<'b>, String> {
    match wire::read_frame(reader, buf)? {
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
    buf: &'a mut Vec<u8>,
    writer: &'a mut W,
    hello: &'a Hello,
    spec: ProblemSpec,
}

impl<R: Read, W: Write> ProtocolVisitor for EngineWorker<'_, R, W> {
    type Output = Result<(), String>;

    fn visit<P: RoundProtocol + 'static>(self, mut protocol: P) -> Self::Output {
        let EngineWorker {
            reader,
            buf,
            writer,
            hello,
            spec,
        } = self;
        let len = (hello.hi - hello.lo) as usize;
        let lo = hello.lo;
        let mut loads = vec![0u32; len];
        // Σ loads, kept by each commit's changed loads.
        let mut sum = 0u64;
        let mut counts = vec![0u32; len];
        let mut accept = vec![0u32; len];
        // Context of the round whose grants we answered last; `commit`
        // replays `after_round` against it.
        let mut open_round: Option<RoundContext> = None;
        send_frame(writer, &Frame::Ready { shard: hello.shard })?;
        loop {
            match read_frame(reader, buf)? {
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
                    for (bin, c) in pairs.iter() {
                        let Some(i) = in_range(bin, lo, len) else {
                            return Err(format!("arrival bin {bin} outside shard range"));
                        };
                        counts[i] = u32::try_from(c)
                            .map_err(|_| format!("arrival count for bin {bin} exceeds u32"))?;
                    }
                    maybe_straggle(hello, u64::from(round));
                    let (underloaded, unfilled) =
                        grant_slice(&protocol, &ctx, lo, &counts, &loads, &crashed, &mut accept);
                    open_round = Some(ctx);
                    send_frame(
                        writer,
                        &Frame::GrantsOk {
                            round,
                            accept: PairList::nonzero(lo, &accept),
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
                    for (bin, load) in pairs.iter() {
                        let Some(i) = in_range(bin, lo, len) else {
                            return Err(format!("committed bin {bin} outside shard range"));
                        };
                        let load = u32::try_from(load)
                            .map_err(|_| format!("load for bin {bin} exceeds u32"))?;
                        sum = sum - u64::from(loads[i]) + u64::from(load);
                        loads[i] = load;
                    }
                    // The replica evolves exactly when the simulator's
                    // copy does; the returned Flow is the orchestrator's
                    // decision to make.
                    let _ = protocol.after_round(&ctx, &record);
                    send_frame(writer, &Frame::CommitOk { round, sum })?;
                }
                Frame::Drain => {
                    send_frame(
                        writer,
                        &Frame::Loads {
                            loads: LoadList::u32s(&loads),
                        },
                    )?;
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
    buf: &mut Vec<u8>,
    writer: &mut impl Write,
    hello: &Hello,
) -> Result<(), String> {
    let len = (hello.hi - hello.lo) as usize;
    let lo = hello.lo;
    let mut loads = vec![0u64; len];
    send_frame(writer, &Frame::Ready { shard: hello.shard })?;
    loop {
        match read_frame(reader, buf)? {
            Frame::Delta {
                batch,
                loads: pairs,
            } => {
                for (bin, load) in pairs.iter() {
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
                        loads: LoadList::u64s(&loads),
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
    use pba_core::wire::WireWriter;

    /// Serve `input` and return every frame the worker wrote back, each as
    /// its encoded bytes.
    fn run_bytes(input: &[u8]) -> (Result<(), String>, Vec<Vec<u8>>) {
        let mut out: Vec<u8> = Vec::new();
        let r = serve(input, &mut out);
        let mut reader = &out[..];
        let mut frames = Vec::new();
        let mut buf = Vec::new();
        while let Some((frame, _)) = wire::read_frame(&mut reader, &mut buf).unwrap() {
            frames.push(frame.encode());
        }
        (r, frames)
    }

    fn run_frames(frames: &[Frame]) -> (Result<(), String>, Vec<Vec<u8>>) {
        let input: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        run_bytes(&input)
    }

    /// The detail of the error frame `bytes` holds.
    fn error_detail(bytes: &[u8]) -> String {
        match Frame::decode(bytes) {
            Ok(Frame::Error { detail }) => detail,
            other => panic!("expected an error frame, got {other:?}"),
        }
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
            assert_eq!(frames.len(), 1);
            assert!(error_detail(&frames[0]).contains(&format!("lead byte {lead}")));
        }
    }

    #[test]
    fn stream_worker_applies_deltas_and_drains() {
        let delta: wire::PairBuf = [(1, 5), (7, 2)].into_iter().collect();
        let (r, frames) = run_frames(&[
            Frame::Hello(hello("stream")),
            Frame::Delta {
                batch: 0,
                loads: delta.list(),
            },
            Frame::Drain,
            Frame::Shutdown,
        ]);
        assert!(r.is_ok(), "{r:?}");
        let want = [
            Frame::Ready { shard: 0 },
            Frame::DeltaOk {
                batch: 0,
                total: 7,
                max: 5,
            },
            Frame::Loads {
                loads: LoadList::u64s(&[0, 5, 0, 0, 0, 0, 0, 2]),
            },
            Frame::Bye { shard: 0 },
        ];
        assert_eq!(frames, want.iter().map(Frame::encode).collect::<Vec<_>>());
    }

    #[test]
    fn engine_worker_keeps_a_running_sum_and_drains_its_loads() {
        let mut h = hello("engine");
        h.hi = 4; // shard owns [0, 4) of 8 bins
        let record = pba_core::RoundRecord {
            round: 0,
            active_before: 64,
            requests: 64,
            granted: 0,
            committed: 0,
            wasted_grants: 0,
            underloaded_bins: 0,
            unfilled_want: 0,
            max_load: 9,
            messages: pba_core::MessageStats::default(),
        };
        let counts = [0u32, 3, 0, 1];
        let first: wire::PairBuf = [(1, 9), (3, 4)].into_iter().collect();
        let second: wire::PairBuf = [(3, 1), (0, 2)].into_iter().collect();
        let grants = |round| Frame::Grants {
            round,
            active: 64,
            placed: 0,
            counts: PairList::nonzero(0, &counts),
            crashed: vec![],
        };
        let (r, frames) = run_frames(&[
            Frame::Hello(h),
            grants(0),
            Frame::Commit {
                round: 0,
                loads: first.list(),
                record,
            },
            grants(1),
            Frame::Commit {
                round: 1,
                loads: second.list(),
                record: pba_core::RoundRecord { round: 1, ..record },
            },
            Frame::Drain,
            Frame::Shutdown,
        ]);
        assert!(r.is_ok(), "{r:?}");
        let sums: Vec<u64> = frames
            .iter()
            .filter_map(|f| match Frame::decode(f) {
                Ok(Frame::CommitOk { sum, .. }) => Some(sum),
                _ => None,
            })
            .collect();
        assert_eq!(
            sums,
            [13, 12],
            "running sums of [0, 9, 0, 4] and [2, 9, 0, 1]"
        );
        let loads = Frame::Loads {
            loads: LoadList::u32s(&[2, 9, 0, 1]),
        };
        assert_eq!(frames[frames.len() - 2], loads.encode());
    }

    #[test]
    fn engine_worker_rejects_out_of_range_bins() {
        let mut h = hello("engine");
        h.hi = 4; // shard owns [0, 4) of 8 bins
        let counts: wire::PairBuf = [(6, 3)].into_iter().collect();
        let (r, frames) = run_frames(&[
            Frame::Hello(h),
            Frame::Grants {
                round: 0,
                active: 64,
                placed: 0,
                counts: counts.list(),
                crashed: vec![],
            },
        ]);
        assert!(r.unwrap_err().contains("outside shard range"));
        error_detail(frames.last().expect("an error frame"));
    }

    #[test]
    fn hostile_counts_get_an_error_frame() {
        // Checksum-valid frames whose element counts claim far more than
        // their payload holds: each is refused by the bytes left, before
        // anything is reserved or applied.
        let msg = |tag: u8, fields: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::message(tag);
            fields(&mut w);
            w.finish()
        };
        let round = |w: &mut WireWriter| {
            w.varint(0); // round
            w.varint(64); // active
            w.varint(0); // placed
        };
        let engine = Frame::Hello(hello("engine")).encode();
        let stream = Frame::Hello(hello("stream")).encode();
        let cases: [(&[u8], Vec<u8>, &str); 6] = [
            (
                &engine,
                msg(3, &|w| {
                    round(w);
                    w.varint(1 << 30);
                }),
                "pair count 1073741824 exceeds the 0 payload bytes left",
            ),
            (
                &engine,
                msg(3, &|w| {
                    round(w);
                    w.varint(0);
                    w.varint(u64::MAX);
                }),
                "id count 18446744073709551615 exceeds the 0 payload bytes left",
            ),
            (
                &engine,
                msg(3, &|w| {
                    round(w);
                    w.varint(1);
                    w.varint_signed(-1);
                    w.varint(1);
                    w.varint(0);
                }),
                "pair bin id out of u32 range",
            ),
            (
                &engine,
                msg(5, &|w| {
                    w.varint(0);
                    w.varint(1 << 40);
                    w.raw(&[0; 12]);
                }),
                "pair count 1099511627776 exceeds the 12 payload bytes left",
            ),
            (
                &stream,
                msg(7, &|w| {
                    w.varint(0);
                    w.varint(3);
                    w.raw(&[1, 1]);
                }),
                "pair count 3 exceeds the 2 payload bytes left",
            ),
            (
                &stream,
                msg(10, &|w| w.varint(1 << 24)),
                "load count 16777216 exceeds the 0 payload bytes left",
            ),
        ];
        for (hello, hostile, want) in cases {
            let input = [hello, &hostile[..]].concat();
            let (r, frames) = run_bytes(&input);
            let err = r.unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
            assert_eq!(frames.len(), 2, "{want}: ready, then the error");
            assert_eq!(error_detail(&frames[1]), err, "{want}");
        }
    }

    #[test]
    fn unknown_protocol_is_an_error_frame() {
        let mut h = hello("engine");
        h.workload = "nope".into();
        let (r, frames) = run_frames(&[Frame::Hello(h)]);
        assert!(r.unwrap_err().contains("unknown protocol"));
        assert_eq!(frames.len(), 1);
        error_detail(&frames[0]);
    }
}
