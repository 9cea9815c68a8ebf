//! The cluster wire protocol: one frame vocabulary, one binary codec.
//!
//! ## Conversation (engine mode)
//!
//! ```text
//! orchestrator → worker   hello      mode, shard, range, spec, seed, …
//! worker → orchestrator   ready
//! per round:
//!   o → w   grants        round, active, placed, sparse arrival counts,
//!                         crashed bins in range
//!   w → o   grants_ok     sparse accepts, (underloaded, unfilled) totals
//!   o → w   commit        changed loads, the finished round record
//!   w → o   commit_ok     checksum (sum of the shard's loads)
//! teardown:
//!   o → w   drain         → loads (dense shard range, verification)
//!   o → w   shutdown      → bye
//! ```
//!
//! Stream mode replaces the grants/commit waves with one `delta` /
//! `delta_ok` exchange per batch (absolute loads for changed bins; the
//! reply carries the shard's total and max for verification).
//!
//! ## Frame format
//!
//! Each frame is a [`pba_core::wire`] message: one `0xB5` magic byte, a
//! type tag, a `u32` payload length, the payload, and a trailing FNV-1a
//! 64 checksum. Payload integers are LEB128 varints; sparse `(bin,
//! value)` lists delta-encode the bin ids (zigzag, since routing order is
//! not guaranteed ascending); seeds are fixed-width `u64`, so all 64 bits
//! survive the wire.
//!
//! A peer that does not speak this format is refused at its first byte:
//! [`read_frame`] reports the lead byte it found (`0x7b` for a `{`-led
//! JSON line) instead of guessing at a dialect.
//!
//! A malformed, truncated, or bit-flipped frame is a protocol error
//! with a diagnostic message — never a silently wrong decode: the
//! worker answers with an `error` frame and exits nonzero; the
//! orchestrator surfaces
//! [`CoreError::ClusterTransport`](pba_core::CoreError).

use std::io::Read;

use pba_core::wire::{self, WireError, WireReader, WireWriter};
use pba_core::{MessageStats, RoundRecord};

/// Everything the worker needs to set up its shard, sent first.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// `"engine"` or `"stream"`.
    pub mode: String,
    /// This worker's shard index.
    pub shard: u32,
    /// Total shard count.
    pub shards: u32,
    /// First owned bin (inclusive).
    pub lo: u32,
    /// One past the last owned bin.
    pub hi: u32,
    /// Total bins in the run.
    pub n: u32,
    /// Total balls (engine mode; 0 for stream).
    pub m: u64,
    /// Run seed (full-width u64).
    pub seed: u64,
    /// Protocol name (engine) or policy name (stream).
    pub workload: String,
    /// Per-barrier straggle probability (0 disables; delay-only chaos).
    pub straggle_prob: f64,
    /// Sleep in microseconds when a barrier straggles.
    pub straggle_us: u64,
    /// Seed of the straggle stream (full-width u64, exact).
    pub fault_seed: u64,
}

/// One wire frame. See the module docs for the conversation shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Orchestrator → worker: session setup.
    Hello(Hello),
    /// Worker → orchestrator: setup done.
    Ready {
        /// Echoed shard index.
        shard: u32,
    },
    /// Orchestrator → worker: one round's request wave.
    Grants {
        /// Round index.
        round: u32,
        /// Active balls at round start.
        active: u64,
        /// Balls placed before this round.
        placed: u64,
        /// Sparse `(global bin, arrivals)` pairs within the shard range.
        counts: Vec<(u32, u64)>,
        /// Run-level crashed bins within the shard range.
        crashed: Vec<u32>,
    },
    /// Worker → orchestrator: the shard's grant decisions.
    GrantsOk {
        /// Echoed round index.
        round: u32,
        /// Sparse `(global bin, accept)` pairs (only nonzero accepts).
        accept: Vec<(u32, u64)>,
        /// Underloaded-bin count for this shard (crash-adjusted).
        underloaded: u32,
        /// Unfilled want for this shard (crash-adjusted).
        unfilled: u64,
    },
    /// Orchestrator → worker: the resolved round.
    Commit {
        /// Round index.
        round: u32,
        /// Absolute `(global bin, load)` pairs for bins that changed.
        loads: Vec<(u32, u64)>,
        /// The finished round record (drives `after_round` replicas).
        record: RoundRecord,
    },
    /// Worker → orchestrator: commit applied.
    CommitOk {
        /// Echoed round index.
        round: u32,
        /// Sum of the shard's post-commit loads (verification).
        sum: u64,
    },
    /// Orchestrator → worker: one stream batch's load changes.
    Delta {
        /// Batch sequence number.
        batch: u64,
        /// Absolute `(global bin, load)` pairs for bins that changed.
        loads: Vec<(u32, u64)>,
    },
    /// Worker → orchestrator: batch applied.
    DeltaOk {
        /// Echoed batch sequence number.
        batch: u64,
        /// Sum of the shard's loads (verification).
        total: u64,
        /// Max of the shard's loads (verification).
        max: u64,
    },
    /// Orchestrator → worker: report your full load range.
    Drain,
    /// Worker → orchestrator: dense loads for `[lo, hi)`.
    Loads {
        /// The shard's dense load vector.
        loads: Vec<u64>,
    },
    /// Orchestrator → worker: clean exit.
    Shutdown,
    /// Worker → orchestrator: exiting.
    Bye {
        /// Echoed shard index.
        shard: u32,
    },
    /// Worker → orchestrator: protocol failure (worker exits after).
    Error {
        /// What went wrong.
        detail: String,
    },
}

// Binary frame type tags. Tag 0 is reserved so an all-zero header never
// looks like a valid frame.
const TAG_HELLO: u8 = 1;
const TAG_READY: u8 = 2;
const TAG_GRANTS: u8 = 3;
const TAG_GRANTS_OK: u8 = 4;
const TAG_COMMIT: u8 = 5;
const TAG_COMMIT_OK: u8 = 6;
const TAG_DELTA: u8 = 7;
const TAG_DELTA_OK: u8 = 8;
const TAG_DRAIN: u8 = 9;
const TAG_LOADS: u8 = 10;
const TAG_SHUTDOWN: u8 = 11;
const TAG_BYE: u8 = 12;
const TAG_ERROR: u8 = 13;

/// Sparse `(bin, value)` pairs: varint count, then per
/// pair a zigzag-varint bin delta from the previous bin (routing order
/// is usually ascending, so deltas stay small, but it is not a format
/// requirement) and a varint value.
fn write_pairs(w: &mut WireWriter, pairs: &[(u32, u64)]) {
    w.varint(pairs.len() as u64);
    let mut prev: i64 = 0;
    for &(bin, v) in pairs {
        w.varint_signed(i64::from(bin) - prev);
        w.varint(v);
        prev = i64::from(bin);
    }
}

fn read_pairs(r: &mut WireReader<'_>) -> Result<Vec<(u32, u64)>, WireError> {
    let count = r.varint()?;
    let mut out = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut prev: i64 = 0;
    for _ in 0..count {
        let bin = prev + r.varint_signed()?;
        let bin = u32::try_from(bin)
            .map_err(|_| WireError::Malformed(format!("pair bin id out of u32 range: {bin}")))?;
        out.push((bin, r.varint()?));
        prev = i64::from(bin);
    }
    Ok(out)
}

/// A `u32` id list: varint count + zigzag bin deltas.
fn write_u32s(w: &mut WireWriter, values: &[u32]) {
    w.varint(values.len() as u64);
    let mut prev: i64 = 0;
    for &v in values {
        w.varint_signed(i64::from(v) - prev);
        prev = i64::from(v);
    }
}

fn read_u32s(r: &mut WireReader<'_>) -> Result<Vec<u32>, WireError> {
    let count = r.varint()?;
    let mut out = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut prev: i64 = 0;
    for _ in 0..count {
        let v = prev + r.varint_signed()?;
        let v = u32::try_from(v)
            .map_err(|_| WireError::Malformed(format!("id out of u32 range: {v}")))?;
        out.push(v);
        prev = i64::from(v);
    }
    Ok(out)
}

impl Frame {
    /// Encode as one self-delimiting checksummed message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::unframed();
        let tag = match self {
            Frame::Hello(h) => {
                w.str(&h.mode);
                w.varint(u64::from(h.shard));
                w.varint(u64::from(h.shards));
                w.varint(u64::from(h.lo));
                w.varint(u64::from(h.hi));
                w.varint(u64::from(h.n));
                w.varint(h.m);
                w.u64(h.seed);
                w.str(&h.workload);
                w.f64(h.straggle_prob);
                w.varint(h.straggle_us);
                w.u64(h.fault_seed);
                TAG_HELLO
            }
            Frame::Ready { shard } => {
                w.varint(u64::from(*shard));
                TAG_READY
            }
            Frame::Grants {
                round,
                active,
                placed,
                counts,
                crashed,
            } => {
                w.varint(u64::from(*round));
                w.varint(*active);
                w.varint(*placed);
                write_pairs(&mut w, counts);
                write_u32s(&mut w, crashed);
                TAG_GRANTS
            }
            Frame::GrantsOk {
                round,
                accept,
                underloaded,
                unfilled,
            } => {
                w.varint(u64::from(*round));
                write_pairs(&mut w, accept);
                w.varint(u64::from(*underloaded));
                w.varint(*unfilled);
                TAG_GRANTS_OK
            }
            Frame::Commit {
                round,
                loads,
                record,
            } => {
                w.varint(u64::from(*round));
                write_pairs(&mut w, loads);
                write_record(&mut w, record);
                TAG_COMMIT
            }
            Frame::CommitOk { round, sum } => {
                w.varint(u64::from(*round));
                w.varint(*sum);
                TAG_COMMIT_OK
            }
            Frame::Delta { batch, loads } => {
                w.varint(*batch);
                write_pairs(&mut w, loads);
                TAG_DELTA
            }
            Frame::DeltaOk { batch, total, max } => {
                w.varint(*batch);
                w.varint(*total);
                w.varint(*max);
                TAG_DELTA_OK
            }
            Frame::Drain => TAG_DRAIN,
            Frame::Loads { loads } => {
                w.varint(loads.len() as u64);
                for &v in loads {
                    w.varint(v);
                }
                TAG_LOADS
            }
            Frame::Shutdown => TAG_SHUTDOWN,
            Frame::Bye { shard } => {
                w.varint(u64::from(*shard));
                TAG_BYE
            }
            Frame::Error { detail } => {
                w.str(detail);
                TAG_ERROR
            }
        };
        wire::encode_msg(tag, &w.finish())
    }

    /// Decode one complete message (envelope included).
    pub fn decode(bytes: &[u8]) -> Result<Frame, String> {
        let (tag, payload) = wire::decode_msg(bytes).map_err(|e| e.to_string())?;
        Self::from_payload(tag, payload)
    }

    fn from_payload(tag: u8, payload: &[u8]) -> Result<Frame, String> {
        let mut r = WireReader::unframed(payload);
        let frame = Self::read_fields(tag, &mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| format!("frame tag {tag}: {e}"))?;
        Ok(frame)
    }

    fn read_fields(tag: u8, r: &mut WireReader<'_>) -> Result<Frame, WireError> {
        Ok(match tag {
            TAG_HELLO => Frame::Hello(Hello {
                mode: r.str()?.to_owned(),
                shard: varint_u32(r)?,
                shards: varint_u32(r)?,
                lo: varint_u32(r)?,
                hi: varint_u32(r)?,
                n: varint_u32(r)?,
                m: r.varint()?,
                seed: r.u64()?,
                workload: r.str()?.to_owned(),
                straggle_prob: r.f64()?,
                straggle_us: r.varint()?,
                fault_seed: r.u64()?,
            }),
            TAG_READY => Frame::Ready {
                shard: varint_u32(r)?,
            },
            TAG_GRANTS => Frame::Grants {
                round: varint_u32(r)?,
                active: r.varint()?,
                placed: r.varint()?,
                counts: read_pairs(r)?,
                crashed: read_u32s(r)?,
            },
            TAG_GRANTS_OK => Frame::GrantsOk {
                round: varint_u32(r)?,
                accept: read_pairs(r)?,
                underloaded: varint_u32(r)?,
                unfilled: r.varint()?,
            },
            TAG_COMMIT => Frame::Commit {
                round: varint_u32(r)?,
                loads: read_pairs(r)?,
                record: read_record(r)?,
            },
            TAG_COMMIT_OK => Frame::CommitOk {
                round: varint_u32(r)?,
                sum: r.varint()?,
            },
            TAG_DELTA => Frame::Delta {
                batch: r.varint()?,
                loads: read_pairs(r)?,
            },
            TAG_DELTA_OK => Frame::DeltaOk {
                batch: r.varint()?,
                total: r.varint()?,
                max: r.varint()?,
            },
            TAG_DRAIN => Frame::Drain,
            TAG_LOADS => {
                let count = r.varint()?;
                let mut loads = Vec::with_capacity(count.min(1 << 24) as usize);
                for _ in 0..count {
                    loads.push(r.varint()?);
                }
                Frame::Loads { loads }
            }
            TAG_SHUTDOWN => Frame::Shutdown,
            TAG_BYE => Frame::Bye {
                shard: varint_u32(r)?,
            },
            TAG_ERROR => Frame::Error {
                detail: r.str()?.to_owned(),
            },
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown binary frame tag {other}"
                )))
            }
        })
    }

    /// The frame-type tag, for error messages.
    pub fn tag(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "hello",
            Frame::Ready { .. } => "ready",
            Frame::Grants { .. } => "grants",
            Frame::GrantsOk { .. } => "grants_ok",
            Frame::Commit { .. } => "commit",
            Frame::CommitOk { .. } => "commit_ok",
            Frame::Delta { .. } => "delta",
            Frame::DeltaOk { .. } => "delta_ok",
            Frame::Drain => "drain",
            Frame::Loads { .. } => "loads",
            Frame::Shutdown => "shutdown",
            Frame::Bye { .. } => "bye",
            Frame::Error { .. } => "error",
        }
    }
}

/// Read one frame from a byte stream. Returns the frame and the bytes
/// consumed (wire accounting); `Ok(None)` on clean EOF at a frame
/// boundary.
pub fn read_frame(reader: &mut (impl Read + ?Sized)) -> Result<Option<(Frame, usize)>, String> {
    let Some((tag, payload)) = wire::read_msg(reader).map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    let frame = Frame::from_payload(tag, &payload)?;
    Ok(Some((frame, wire::MSG_OVERHEAD + payload.len())))
}

fn varint_u32(r: &mut WireReader<'_>) -> Result<u32, WireError> {
    let raw = r.varint()?;
    u32::try_from(raw).map_err(|_| WireError::Malformed(format!("value out of u32 range: {raw}")))
}

/// The round record: its 12 fields as varints in declaration order
/// (drives the worker's `after_round` replica).
fn write_record(w: &mut WireWriter, r: &RoundRecord) {
    w.varint(u64::from(r.round));
    w.varint(r.active_before);
    w.varint(r.requests);
    w.varint(r.granted);
    w.varint(r.committed);
    w.varint(r.wasted_grants);
    w.varint(u64::from(r.underloaded_bins));
    w.varint(r.unfilled_want);
    w.varint(u64::from(r.max_load));
    w.varint(r.messages.requests);
    w.varint(r.messages.responses);
    w.varint(r.messages.commits);
}

fn read_record(r: &mut WireReader<'_>) -> Result<RoundRecord, WireError> {
    Ok(RoundRecord {
        round: varint_u32(r)?,
        active_before: r.varint()?,
        requests: r.varint()?,
        granted: r.varint()?,
        committed: r.varint()?,
        wasted_grants: r.varint()?,
        underloaded_bins: varint_u32(r)?,
        unfilled_want: r.varint()?,
        max_load: varint_u32(r)?,
        messages: MessageStats {
            requests: r.varint()?,
            responses: r.varint()?,
            commits: r.varint()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                mode: "engine".into(),
                shard: 1,
                shards: 4,
                lo: 16,
                hi: 32,
                n: 64,
                m: 4096,
                seed: u64::MAX,
                workload: "collision".into(),
                straggle_prob: 0.25,
                straggle_us: 500,
                fault_seed: 0x9E37_79B9_7F4A_7C15,
            }),
            Frame::Ready { shard: 3 },
            Frame::Grants {
                round: 2,
                active: 100,
                placed: 900,
                counts: vec![(17, 3), (30, 1), (19, 2)],
                crashed: vec![18, 25],
            },
            Frame::GrantsOk {
                round: 2,
                accept: vec![(17, 2)],
                underloaded: 5,
                unfilled: 12,
            },
            Frame::Commit {
                round: 2,
                loads: vec![(17, 7), (30, 2)],
                record: RoundRecord {
                    round: 2,
                    active_before: 100,
                    requests: 100,
                    granted: 80,
                    committed: 80,
                    wasted_grants: 3,
                    underloaded_bins: 5,
                    unfilled_want: 12,
                    max_load: 9,
                    messages: MessageStats {
                        requests: 100,
                        responses: 80,
                        commits: 80,
                    },
                },
            },
            Frame::CommitOk { round: 2, sum: 980 },
            Frame::Delta {
                batch: 9,
                loads: vec![(0, 5)],
            },
            Frame::DeltaOk {
                batch: 9,
                total: 55,
                max: 8,
            },
            Frame::Drain,
            Frame::Loads {
                loads: vec![1, 2, 3],
            },
            Frame::Shutdown,
            Frame::Bye { shard: 0 },
            Frame::Error {
                detail: "bad \"frame\"".into(),
            },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for f in sample_frames() {
            let back =
                Frame::decode(&f.encode()).unwrap_or_else(|e| panic!("{e} decoding {}", f.tag()));
            assert_eq!(f, back, "codec mangled {}", f.tag());
        }
    }

    #[test]
    fn read_frame_accounts_every_byte_of_a_stream() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut reader = std::io::BufReader::new(&stream[..]);
        let mut total = 0usize;
        for (i, want) in frames.iter().enumerate() {
            let (got, bytes) = read_frame(&mut reader)
                .unwrap_or_else(|e| panic!("frame {i}: {e}"))
                .expect("frame present");
            assert_eq!(&got, want);
            total += bytes;
        }
        assert_eq!(total, stream.len(), "byte accounting must be exact");
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn full_width_seeds_survive_the_wire() {
        let f = Frame::Hello(Hello {
            mode: "stream".into(),
            shard: 0,
            shards: 2,
            lo: 0,
            hi: 32,
            n: 64,
            m: 0,
            seed: 0xFFFF_FFFF_FFFF_FFFE,
            workload: "batched-two-choice".into(),
            straggle_prob: 0.0,
            straggle_us: 0,
            fault_seed: (1 << 60) + 7,
        });
        let bytes = f.encode();
        let (got, _) = read_frame(&mut &bytes[..]).unwrap().expect("frame");
        let Frame::Hello(h) = got else {
            panic!("wrong frame");
        };
        assert_eq!(h.seed, 0xFFFF_FFFF_FFFF_FFFE);
        assert_eq!(h.fault_seed, (1 << 60) + 7);
    }

    #[test]
    fn frame_corruption_is_always_rejected() {
        let good = Frame::Grants {
            round: 3,
            active: 64,
            placed: 1000,
            counts: vec![(5, 2), (9, 1)],
            crashed: vec![],
        }
        .encode();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Frame::decode(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
        for len in 0..good.len() {
            assert!(
                Frame::decode(&good[..len]).is_err(),
                "truncation to {len} went undetected"
            );
        }
    }
}
