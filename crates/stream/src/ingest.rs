//! Socket ingestion: real traffic for the replay service.
//!
//! `pba-run serve --listen ADDR` accepts one client connection and feeds
//! its framed batches into a live [`StreamAllocator`]; `pba-run serve
//! --send ADDR` is the matching driver, shipping a deterministic
//! [`Workload`] over the socket instead of ingesting it in-process. The
//! frames ride the same binary codec the cluster wire uses
//! ([`pba_core::wire`]): `0xB5`-tagged, length-prefixed,
//! FNV-1a-checksummed messages, with ball ids zigzag-delta coded so a
//! mostly-ascending id sequence costs ~1 byte per ball.
//!
//! The protocol is a strict half-duplex conversation:
//!
//! ```text
//! client                          server
//!   hello {n, seed, policy} ──▶
//!                           ◀──  hello_ok (or error: config mismatch)
//!   batch {t, arrivals, departures} ──▶
//!                           ◀──  ack {t, resident, max_load}
//!   …                            …
//!   done ──▶
//!                           ◀──  summary {batches, balls, resident, max_load, gap}
//! ```
//!
//! The server's allocator is authoritative; the client hello only lets
//! the server reject a mismatched pairing (wrong bin count, policy, or
//! seed) with a diagnostic instead of silently diverging. A server fed
//! the same batches as an in-process replay ends in the bit-identical
//! allocator state — the socket adds transport, not semantics.

use std::io::{Read, Write};

use pba_core::wire::{self, WireReader, WireWriter};

use crate::allocator::StreamAllocator;
use crate::batch::{Ball, Batch};
use crate::workload::Workload;

/// Ingest message tags (disjoint from the cluster wire's 1..=13 range).
const TAG_HELLO: u8 = 0x20;
const TAG_HELLO_OK: u8 = 0x21;
const TAG_BATCH: u8 = 0x22;
const TAG_ACK: u8 = 0x23;
const TAG_DONE: u8 = 0x24;
const TAG_SUMMARY: u8 = 0x25;
const TAG_ERROR: u8 = 0x2F;

/// One message of the ingest conversation.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestFrame {
    /// Client announces what it is about to stream.
    Hello { n: u32, seed: u64, policy: String },
    /// Server accepts the pairing.
    HelloOk,
    /// One batch of traffic.
    Batch { batch: u64, payload: Batch },
    /// Server applied batch `batch`; state checksums for the client.
    Ack {
        batch: u64,
        resident: u64,
        max_load: u64,
    },
    /// Client is finished sending.
    Done,
    /// Server's final state after the drain.
    Summary {
        batches: u64,
        balls: u64,
        resident: u64,
        max_load: u64,
        gap: u64,
    },
    /// Either side bails with a diagnostic.
    Error { detail: String },
}

/// Final state of an ingest session, as reported by the server's
/// `summary` frame (and computed server-side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSummary {
    /// Batches ingested.
    pub batches: u64,
    /// Total arrivals across all batches.
    pub balls: u64,
    /// Balls resident at the end (arrivals minus departures).
    pub resident: u64,
    /// Maximum bin load at the end.
    pub max_load: u64,
    /// Load gap (max load minus mean) at the end.
    pub gap: u64,
}

fn write_balls(w: &mut WireWriter, balls: &[Ball]) {
    w.varint(balls.len() as u64);
    let mut prev = 0i64;
    for ball in balls {
        let id = ball.id as i64;
        w.varint_signed(id.wrapping_sub(prev));
        w.varint(ball.weight);
        prev = id;
    }
}

fn read_balls(r: &mut WireReader) -> Result<Vec<Ball>, wire::WireError> {
    // A ball is at least two one-byte varints: its id delta and weight.
    let count = r.count("ball", 2)?;
    let mut balls = Vec::with_capacity(count);
    let mut prev = 0i64;
    for _ in 0..count {
        let id = prev.wrapping_add(r.varint_signed()?);
        let weight = r.varint()?;
        if weight == 0 {
            return Err(wire::WireError::Malformed(format!(
                "ball {} has weight 0 (weights are at least 1)",
                id as u64
            )));
        }
        balls.push(Ball {
            id: id as u64,
            weight,
        });
        prev = id;
    }
    Ok(balls)
}

fn write_ids(w: &mut WireWriter, ids: &[u64]) {
    w.varint(ids.len() as u64);
    let mut prev = 0i64;
    for &id in ids {
        let id = id as i64;
        w.varint_signed(id.wrapping_sub(prev));
        prev = id;
    }
}

fn read_ids(r: &mut WireReader) -> Result<Vec<u64>, wire::WireError> {
    let count = r.count("id", 1)?;
    let mut ids = Vec::with_capacity(count);
    let mut prev = 0i64;
    for _ in 0..count {
        let id = prev.wrapping_add(r.varint_signed()?);
        ids.push(id as u64);
        prev = id;
    }
    Ok(ids)
}

impl IngestFrame {
    /// Encode to one checksummed binary message.
    pub fn encode(&self) -> Vec<u8> {
        let tag = match self {
            IngestFrame::Hello { .. } => TAG_HELLO,
            IngestFrame::HelloOk => TAG_HELLO_OK,
            IngestFrame::Batch { .. } => TAG_BATCH,
            IngestFrame::Ack { .. } => TAG_ACK,
            IngestFrame::Done => TAG_DONE,
            IngestFrame::Summary { .. } => TAG_SUMMARY,
            IngestFrame::Error { .. } => TAG_ERROR,
        };
        let mut w = WireWriter::message(tag);
        match self {
            IngestFrame::Hello { n, seed, policy } => {
                w.varint(u64::from(*n));
                w.u64(*seed);
                w.str(policy);
            }
            IngestFrame::HelloOk | IngestFrame::Done => {}
            IngestFrame::Batch { batch, payload } => {
                w.varint(*batch);
                write_balls(&mut w, &payload.arrivals);
                write_ids(&mut w, &payload.departures);
            }
            IngestFrame::Ack {
                batch,
                resident,
                max_load,
            } => {
                w.varint(*batch);
                w.varint(*resident);
                w.varint(*max_load);
            }
            IngestFrame::Summary {
                batches,
                balls,
                resident,
                max_load,
                gap,
            } => {
                w.varint(*batches);
                w.varint(*balls);
                w.varint(*resident);
                w.varint(*max_load);
                w.varint(*gap);
            }
            IngestFrame::Error { detail } => w.str(detail),
        }
        w.finish()
    }

    fn from_payload(tag: u8, payload: &[u8]) -> Result<IngestFrame, wire::WireError> {
        let mut r = WireReader::unframed(payload);
        let frame = match tag {
            TAG_HELLO => IngestFrame::Hello {
                n: u32::try_from(r.varint()?).map_err(|_| {
                    wire::WireError::Malformed("hello bin count exceeds u32".into())
                })?,
                seed: r.u64()?,
                policy: r.str()?.to_owned(),
            },
            TAG_HELLO_OK => IngestFrame::HelloOk,
            TAG_BATCH => IngestFrame::Batch {
                batch: r.varint()?,
                payload: Batch {
                    arrivals: read_balls(&mut r)?,
                    departures: read_ids(&mut r)?,
                },
            },
            TAG_ACK => IngestFrame::Ack {
                batch: r.varint()?,
                resident: r.varint()?,
                max_load: r.varint()?,
            },
            TAG_DONE => IngestFrame::Done,
            TAG_SUMMARY => IngestFrame::Summary {
                batches: r.varint()?,
                balls: r.varint()?,
                resident: r.varint()?,
                max_load: r.varint()?,
                gap: r.varint()?,
            },
            TAG_ERROR => IngestFrame::Error {
                detail: r.str()?.to_owned(),
            },
            other => {
                return Err(wire::WireError::Malformed(format!(
                    "unknown ingest tag {other:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(frame)
    }

    /// Decode one message (as produced by [`IngestFrame::encode`]).
    pub fn decode(bytes: &[u8]) -> Result<IngestFrame, wire::WireError> {
        let (tag, payload) = wire::decode_msg(bytes)?;
        Self::from_payload(tag, payload)
    }
}

/// Write one frame and flush it onto the wire.
pub fn send_frame(w: &mut impl Write, frame: &IngestFrame) -> Result<(), String> {
    w.write_all(&frame.encode())
        .and_then(|()| w.flush())
        .map_err(|e| format!("ingest send failed: {e}"))
}

/// Read one frame; `Ok(None)` on a clean EOF between frames.
pub fn recv_frame(r: &mut impl Read) -> Result<Option<IngestFrame>, String> {
    let mut payload = Vec::new();
    match wire::read_msg(r, &mut payload) {
        Ok(None) => Ok(None),
        Ok(Some(tag)) => IngestFrame::from_payload(tag, &payload)
            .map(Some)
            .map_err(|e| format!("unreadable ingest frame: {e}")),
        Err(e) => Err(format!("unreadable ingest frame: {e}")),
    }
}

fn expect_frame(r: &mut impl Read) -> Result<IngestFrame, String> {
    match recv_frame(r)? {
        Some(IngestFrame::Error { detail }) => Err(format!("peer error: {detail}")),
        Some(frame) => Ok(frame),
        None => Err("peer closed the connection mid-conversation (EOF)".into()),
    }
}

/// Server side: answer one client conversation, ingesting every batch
/// into `alloc`. Protocol violations and corrupt frames surface as an
/// `error` frame to the client *and* an `Err` here — a mangled batch is
/// never applied.
pub fn serve_ingest(
    reader: &mut impl Read,
    writer: &mut impl Write,
    alloc: &mut StreamAllocator,
) -> Result<IngestSummary, String> {
    let fail = |writer: &mut dyn Write, detail: String| -> String {
        let _ = writer.write_all(
            &IngestFrame::Error {
                detail: detail.clone(),
            }
            .encode(),
        );
        let _ = writer.flush();
        detail
    };
    match expect_frame(reader)? {
        IngestFrame::Hello { n, seed, policy } => {
            let meta = alloc.meta();
            if n != meta.bins || seed != meta.seed || policy != meta.policy {
                return Err(fail(
                    writer,
                    format!(
                        "ingest pairing mismatch: client offers n={n} seed={seed} \
                         policy={policy}, server runs n={} seed={} policy={}",
                        meta.bins, meta.seed, meta.policy
                    ),
                ));
            }
        }
        other => return Err(fail(writer, format!("expected hello, got {other:?}"))),
    }
    send_frame(writer, &IngestFrame::HelloOk)?;
    let mut batches = 0u64;
    let mut balls = 0u64;
    loop {
        match expect_frame(reader) {
            Ok(IngestFrame::Batch { batch, payload }) => {
                if batch != batches {
                    return Err(fail(
                        writer,
                        format!("out-of-order batch {batch} (expected {batches})"),
                    ));
                }
                let load = alloc.bin_state().total_load();
                let mut weights = payload.arrivals.iter().map(|b| b.weight);
                if weights.try_fold(load, u64::checked_add).is_none() {
                    return Err(fail(
                        writer,
                        format!(
                            "batch {batch}: arrival weights overflow u64 on top of \
                             the total load {load}"
                        ),
                    ));
                }
                balls += payload.arrivals.len() as u64;
                alloc.ingest(&payload);
                batches += 1;
                send_frame(
                    writer,
                    &IngestFrame::Ack {
                        batch,
                        resident: alloc.resident(),
                        max_load: alloc.bin_state().max_load(),
                    },
                )?;
            }
            Ok(IngestFrame::Done) => break,
            Ok(other) => {
                return Err(fail(
                    writer,
                    format!("expected batch or done, got {other:?}"),
                ))
            }
            Err(e) => return Err(fail(writer, e)),
        }
    }
    let summary = IngestSummary {
        batches,
        balls,
        resident: alloc.resident(),
        max_load: alloc.bin_state().max_load(),
        gap: alloc.bin_state().gap(),
    };
    send_frame(
        writer,
        &IngestFrame::Summary {
            batches: summary.batches,
            balls: summary.balls,
            resident: summary.resident,
            max_load: summary.max_load,
            gap: summary.gap,
        },
    )?;
    Ok(summary)
}

/// Client side: ship `batches` batches of `traffic` to a listening
/// server, verifying every ack arrives in order, and return the server's
/// final summary.
pub fn drive_ingest(
    reader: &mut impl Read,
    writer: &mut impl Write,
    hello: &IngestFrame,
    traffic: &mut Workload,
    batches: u64,
) -> Result<IngestSummary, String> {
    send_frame(writer, hello)?;
    match expect_frame(reader)? {
        IngestFrame::HelloOk => {}
        other => return Err(format!("expected hello_ok, got {other:?}")),
    }
    for t in 0..batches {
        let payload = traffic.next_batch();
        send_frame(writer, &IngestFrame::Batch { batch: t, payload })?;
        match expect_frame(reader)? {
            IngestFrame::Ack { batch, .. } if batch == t => {}
            other => return Err(format!("expected ack for batch {t}, got {other:?}")),
        }
    }
    send_frame(writer, &IngestFrame::Done)?;
    match expect_frame(reader)? {
        IngestFrame::Summary {
            batches,
            balls,
            resident,
            max_load,
            gap,
        } => Ok(IngestSummary {
            batches,
            balls,
            resident,
            max_load,
            gap,
        }),
        other => Err(format!("expected summary, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use crate::workload::WorkloadCfg;

    #[test]
    fn every_ingest_frame_roundtrips() {
        let frames = [
            IngestFrame::Hello {
                n: 128,
                seed: (1 << 60) + 7,
                policy: "batched-two-choice".into(),
            },
            IngestFrame::HelloOk,
            IngestFrame::Batch {
                batch: 3,
                payload: Batch {
                    arrivals: vec![Ball::unit(100), Ball::weighted(101, 4), Ball::unit(90)],
                    departures: vec![5, 17, 2],
                },
            },
            IngestFrame::Ack {
                batch: 3,
                resident: 40,
                max_load: 6,
            },
            IngestFrame::Done,
            IngestFrame::Summary {
                batches: 8,
                balls: 1024,
                resident: 900,
                max_load: 9,
                gap: 2,
            },
            IngestFrame::Error {
                detail: "no".into(),
            },
        ];
        for f in &frames {
            let bytes = f.encode();
            assert_eq!(&IngestFrame::decode(&bytes).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn delta_coding_keeps_ascending_ids_compact() {
        let payload = Batch {
            arrivals: (0..1000).map(|i| Ball::unit(500_000 + i)).collect(),
            departures: (0..100).map(|i| 400_000 + 3 * i).collect(),
        };
        let bytes = IngestFrame::Batch { batch: 1, payload }.encode();
        // ~2 bytes per arrival (delta 1 + weight 1) plus departures and
        // framing; far below the 8+ bytes per id of fixed-width coding.
        assert!(bytes.len() < 3000, "batch frame is {} bytes", bytes.len());
    }

    #[test]
    fn corrupt_ingest_frames_are_rejected() {
        let good = IngestFrame::Batch {
            batch: 2,
            payload: Batch {
                arrivals: vec![Ball::unit(7), Ball::unit(8)],
                departures: vec![1],
            },
        }
        .encode();
        for byte in 0..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x10;
            assert!(
                IngestFrame::decode(&bad).is_err(),
                "flip in byte {byte} went undetected"
            );
        }
        for len in 0..good.len() {
            assert!(IngestFrame::decode(&good[..len]).is_err());
        }
    }

    #[test]
    fn socket_free_conversation_matches_local_replay() {
        // Pipe the client's bytes through in-memory buffers: the server's
        // allocator must land exactly where a local ingest run lands.
        let (n, seed, batches) = (64u32, 11u64, 5u64);
        let cfg = WorkloadCfg::uniform(256).with_churn(0.3);

        let mut reference = StreamAllocator::new(n, seed, PolicyKind::BatchedTwoChoice);
        let mut traffic = Workload::new(cfg, seed);
        for _ in 0..batches {
            reference.ingest(&traffic.next_batch());
        }

        let mut server = StreamAllocator::new(n, seed, PolicyKind::BatchedTwoChoice);
        let hello = IngestFrame::Hello {
            n,
            seed,
            policy: "batched-two-choice".into(),
        };
        // Half-duplex means one pass per direction suffices: record the
        // client's sends, serve them, then let the client check replies.
        let mut client_out: Vec<u8> = Vec::new();
        let mut traffic = Workload::new(cfg, seed);
        send_frame(&mut client_out, &hello).unwrap();
        for t in 0..batches {
            let payload = traffic.next_batch();
            send_frame(&mut client_out, &IngestFrame::Batch { batch: t, payload }).unwrap();
        }
        send_frame(&mut client_out, &IngestFrame::Done).unwrap();

        let mut server_out: Vec<u8> = Vec::new();
        let summary =
            serve_ingest(&mut client_out.as_slice(), &mut server_out, &mut server).unwrap();
        assert_eq!(summary.batches, batches);
        assert_eq!(summary.resident, reference.resident());
        assert_eq!(summary.max_load, reference.bin_state().max_load());
        assert_eq!(
            server.bin_state().load_vector(),
            reference.bin_state().load_vector(),
            "socket ingestion must be bit-identical to local ingestion"
        );
    }

    /// Serve `hello`, one well-formed unit batch, then the checksum-valid
    /// `hostile` message, to an allocator over 64 bins; return the
    /// server's error and the detail of the error frame the client got.
    fn serve_hostile(hostile: Vec<u8>) -> (String, String) {
        let mut server = StreamAllocator::new(64, 1, PolicyKind::OneChoice);
        let mut client_out: Vec<u8> = Vec::new();
        let hello = IngestFrame::Hello {
            n: 64,
            seed: 1,
            policy: "one-choice".into(),
        };
        send_frame(&mut client_out, &hello).unwrap();
        let unit = Batch {
            arrivals: vec![Ball::unit(1)],
            departures: vec![],
        };
        let first = IngestFrame::Batch {
            batch: 0,
            payload: unit,
        };
        send_frame(&mut client_out, &first).unwrap();
        client_out.extend(hostile);
        let mut server_out: Vec<u8> = Vec::new();
        let err =
            serve_ingest(&mut client_out.as_slice(), &mut server_out, &mut server).unwrap_err();
        // The hostile batch left the allocator as the first batch did.
        assert_eq!((server.resident(), server.bin_state().total_load()), (1, 1));
        let mut replies = server_out.as_slice();
        let mut last = None;
        while let Some(frame) = recv_frame(&mut replies).unwrap() {
            last = Some(frame);
        }
        match last {
            Some(IngestFrame::Error { detail }) => (err, detail),
            other => panic!("expected an error frame last, got {other:?}"),
        }
    }

    /// A batch message with this payload, behind a valid checksum.
    fn batch_msg(payload: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::message(TAG_BATCH);
        w.varint(1);
        payload(&mut w);
        w.finish()
    }

    #[test]
    fn hostile_batch_frames_get_an_error_frame() {
        let weighted = |weights: &[u64]| {
            let arrivals = (0..weights.len() as u64)
                .zip(weights)
                .map(|(id, &weight)| Ball {
                    id: 10 + id,
                    weight,
                })
                .collect();
            IngestFrame::Batch {
                batch: 1,
                payload: Batch {
                    arrivals,
                    departures: vec![],
                },
            }
            .encode()
        };
        let cases = [
            (
                "ball count",
                batch_msg(|w| w.varint(1 << 26)),
                "ball count 67108864 exceeds the 0 payload bytes left",
            ),
            (
                "id count",
                batch_msg(|w| {
                    w.varint(0);
                    w.varint(u64::MAX);
                    w.varint(0);
                }),
                "id count 18446744073709551615 exceeds the 1 payload bytes left",
            ),
            (
                "zero weight",
                weighted(&[1, 0]),
                "ball 11 has weight 0 (weights are at least 1)",
            ),
            (
                "overflowing weights",
                weighted(&[u64::MAX]),
                "batch 1: arrival weights overflow u64 on top of the total load 1",
            ),
        ];
        for (case, hostile, want) in cases {
            let (err, detail) = serve_hostile(hostile);
            assert!(err.contains(want), "{case}: {err}");
            assert_eq!(detail, err, "{case}: the client sees the server's error");
        }
    }

    #[test]
    fn mismatched_pairing_is_rejected_with_a_diagnostic() {
        let mut server = StreamAllocator::new(64, 1, PolicyKind::OneChoice);
        let mut client_out: Vec<u8> = Vec::new();
        send_frame(
            &mut client_out,
            &IngestFrame::Hello {
                n: 128,
                seed: 1,
                policy: "one-choice".into(),
            },
        )
        .unwrap();
        let mut server_out: Vec<u8> = Vec::new();
        let err =
            serve_ingest(&mut client_out.as_slice(), &mut server_out, &mut server).unwrap_err();
        assert!(err.contains("pairing mismatch"), "{err}");
        // The client sees the same diagnostic as an error frame.
        match recv_frame(&mut server_out.as_slice()).unwrap() {
            Some(IngestFrame::Error { detail }) => assert!(detail.contains("128")),
            other => panic!("expected error frame, got {other:?}"),
        }
    }
}
