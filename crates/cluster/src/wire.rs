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
//! ## Lists stay encoded
//!
//! A `(bin, value)` list ([`PairList`]) and the drain's dense loads
//! ([`LoadList`]) travel from one array to another without being turned
//! into a vector of pairs on either end. The sender writes a list
//! straight from where it lives into the message buffer, header and
//! checksum included ([`WireWriter::message`]): the nonzero entries of
//! a dense slice (arrival counts, accepts), a [`PairBuf`] filled by the
//! pass that finds the changed loads, or the worker's load array. The
//! receiver reads the frame into a buffer it reuses, and [`read_frame`]
//! returns a [`Frame`] that borrows it: decoding checks every list
//! (checksum first, then each varint, bin id and count against the
//! bytes left) and keeps it as those bytes, and the receiver then walks
//! it straight into its dense arrays. A frame is 2–3 bytes per pair on
//! both ends, as on the wire, where a `Vec<(u32, u64)>` took 16. On a
//! 2-vCPU VM this took a two-worker run of collision at m = n = 2^20
//! (perfbench's cluster-2, seed 21) from 27.1k to 15.8k minor faults in
//! the orchestrator and from about 17.2k to 5.9k in its workers, for the
//! same 6,000,228 bytes in 28 frames.
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

use std::fmt;
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

/// A sparse `(bin, value)` list as a frame carries it.
///
/// On the wire: a varint count, then per pair a zigzag-varint bin delta
/// from the previous bin (from 0 for the first) and a varint value.
/// Routing order is usually ascending, so deltas stay small, but it is
/// not a format requirement.
///
/// A sent list is written from where it lives (`PairList::nonzero`,
/// [`PairBuf::list`]); a received one is the checked bytes of its frame.
/// Either way `PairList::iter` walks the pairs without collecting
/// them, and two lists are equal when they hold the same pairs.
#[derive(Clone, Copy)]
pub struct PairList<'a>(Pairs<'a>);

#[derive(Clone, Copy)]
enum Pairs<'a> {
    /// The nonzero entries of a dense slice whose entry 0 is bin `lo`.
    Nonzero { lo: u32, values: &'a [u32] },
    /// `count` pairs in wire form (after the count): a checked frame's
    /// bytes, or a [`PairBuf`]'s.
    Encoded { count: usize, bytes: &'a [u8] },
}

impl<'a> PairList<'a> {
    /// The nonzero entries of `values`, whose entry `i` is bin `lo + i`,
    /// as pairs in ascending bin order.
    pub(crate) fn nonzero(lo: u32, values: &'a [u32]) -> Self {
        assert!(
            values.len() as u64 <= u64::from(u32::MAX - lo) + 1,
            "bins past u32::MAX"
        );
        PairList(Pairs::Nonzero { lo, values })
    }

    /// Number of pairs.
    fn len(&self) -> usize {
        match self.0 {
            Pairs::Nonzero { values, .. } => values.iter().filter(|&&v| v != 0).count(),
            Pairs::Encoded { count, .. } => count,
        }
    }

    /// The pairs, in list order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u64)> + 'a {
        match self.0 {
            Pairs::Nonzero { lo, values } => PairIter::Nonzero {
                lo,
                values: values.iter().enumerate(),
            },
            Pairs::Encoded { count, bytes } => PairIter::Encoded {
                left: count,
                prev: 0,
                r: WireReader::unframed(bytes),
            },
        }
    }

    fn write(&self, w: &mut WireWriter) {
        let count = self.len();
        w.varint(count as u64);
        match self.0 {
            Pairs::Nonzero { lo, values } => {
                // Two bytes a pair when bins are dense and values small.
                w.reserve(2 * count);
                let mut prev = 0;
                for (i, &v) in values.iter().enumerate() {
                    if v != 0 {
                        write_pair(w, &mut prev, lo + i as u32, u64::from(v));
                    }
                }
            }
            Pairs::Encoded { bytes, .. } => w.raw(bytes),
        }
    }

    /// Read a list off a frame. Every pair is checked here — its varints,
    /// a bin id inside `u32` — so walking it later cannot fail, and the
    /// count is refused first when its pairs would need more bytes than
    /// are left.
    fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        // A pair takes at least two bytes: its bin delta and its value.
        let count = r.count("pair", 2)?;
        let bytes = r.rest();
        let mut prev = 0;
        for _ in 0..count {
            read_pair(r, &mut prev)?;
        }
        let bytes = &bytes[..bytes.len() - r.remaining()];
        Ok(PairList(Pairs::Encoded { count, bytes }))
    }
}

impl PartialEq for PairList<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for PairList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

enum PairIter<'a> {
    Nonzero {
        lo: u32,
        values: std::iter::Enumerate<std::slice::Iter<'a, u32>>,
    },
    Encoded {
        left: usize,
        prev: u32,
        r: WireReader<'a>,
    },
}

impl Iterator for PairIter<'_> {
    type Item = (u32, u64);

    fn next(&mut self) -> Option<(u32, u64)> {
        match self {
            PairIter::Nonzero { lo, values } => {
                let lo = *lo;
                values.find_map(|(i, &v)| (v != 0).then(|| (lo + i as u32, u64::from(v))))
            }
            PairIter::Encoded { left, prev, r } => {
                *left = left.checked_sub(1)?;
                // Checked when the list was read or written.
                read_pair(r, prev).ok()
            }
        }
    }
}

/// A [`PairList`] written pair by pair, for a sender whose list is not
/// the nonzero entries of one slice: the loads that differ from a shadow
/// copy, pushed by the pass that updates the copy. It keeps its capacity
/// across `clear`, so a sender reuses one every round.
#[derive(Debug)]
pub struct PairBuf {
    count: usize,
    prev: u32,
    w: WireWriter,
}

impl PairBuf {
    /// An empty list.
    pub(crate) fn new() -> Self {
        PairBuf {
            count: 0,
            prev: 0,
            w: WireWriter::unframed(),
        }
    }

    /// Empty the list, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.count = 0;
        self.prev = 0;
        self.w.clear();
    }

    /// Append one pair.
    pub(crate) fn push(&mut self, bin: u32, value: u64) {
        write_pair(&mut self.w, &mut self.prev, bin, value);
        self.count += 1;
    }

    /// The list so far.
    pub fn list(&self) -> PairList<'_> {
        PairList(Pairs::Encoded {
            count: self.count,
            bytes: self.w.written(),
        })
    }
}

impl Default for PairBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<(u32, u64)> for PairBuf {
    fn from_iter<I: IntoIterator<Item = (u32, u64)>>(pairs: I) -> Self {
        let mut buf = PairBuf::new();
        for (bin, value) in pairs {
            buf.push(bin, value);
        }
        buf
    }
}

/// The one pair writer: a zigzag bin delta from `prev`, then the value.
fn write_pair(w: &mut WireWriter, prev: &mut u32, bin: u32, value: u64) {
    w.varint_signed(i64::from(bin) - i64::from(*prev));
    w.varint(value);
    *prev = bin;
}

/// The one pair reader, inverse of [`write_pair`].
fn read_pair(r: &mut WireReader<'_>, prev: &mut u32) -> Result<(u32, u64), WireError> {
    let delta = r.varint_signed()?;
    let bin = i64::from(*prev)
        .checked_add(delta)
        .and_then(|b| u32::try_from(b).ok())
        .ok_or_else(|| {
            WireError::Malformed(format!(
                "pair bin id out of u32 range: {prev} {delta:+}",
                prev = *prev
            ))
        })?;
    *prev = bin;
    Ok((bin, r.varint()?))
}

/// A shard's dense loads as the drain reply carries them: a varint
/// count, then one varint per bin, written straight from the worker's
/// `u32` (engine) or `u64` (stream) load array. A received list is the
/// checked bytes of its frame, which the orchestrator compares with its
/// own loads by walking `LoadList::iter`.
#[derive(Clone, Copy)]
pub struct LoadList<'a>(Loads<'a>);

#[derive(Clone, Copy)]
enum Loads<'a> {
    U32(&'a [u32]),
    U64(&'a [u64]),
    /// `count` varints (after the count): a checked frame's bytes.
    Encoded {
        count: usize,
        bytes: &'a [u8],
    },
}

impl<'a> LoadList<'a> {
    /// An engine worker's loads.
    pub(crate) fn u32s(loads: &'a [u32]) -> Self {
        LoadList(Loads::U32(loads))
    }

    /// A stream worker's loads.
    pub fn u64s(loads: &'a [u64]) -> Self {
        LoadList(Loads::U64(loads))
    }

    /// Number of loads.
    fn len(&self) -> usize {
        match self.0 {
            Loads::U32(v) => v.len(),
            Loads::U64(v) => v.len(),
            Loads::Encoded { count, .. } => count,
        }
    }

    /// The loads, in bin order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        match self.0 {
            Loads::U32(v) => LoadIter::U32(v.iter()),
            Loads::U64(v) => LoadIter::U64(v.iter()),
            Loads::Encoded { count, bytes } => LoadIter::Encoded {
                left: count,
                r: WireReader::unframed(bytes),
            },
        }
    }

    fn write(&self, w: &mut WireWriter) {
        w.varint(self.len() as u64);
        // At least a byte a load.
        w.reserve(self.len());
        match self.0 {
            Loads::U32(v) => v.iter().for_each(|&l| w.varint(u64::from(l))),
            Loads::U64(v) => v.iter().for_each(|&l| w.varint(l)),
            Loads::Encoded { bytes, .. } => w.raw(bytes),
        }
    }

    /// Read a list off a frame, checking every varint.
    fn read(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        let count = r.count("load", 1)?;
        let bytes = r.rest();
        for _ in 0..count {
            r.varint()?;
        }
        let bytes = &bytes[..bytes.len() - r.remaining()];
        Ok(LoadList(Loads::Encoded { count, bytes }))
    }
}

impl PartialEq for LoadList<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for LoadList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

enum LoadIter<'a> {
    U32(std::slice::Iter<'a, u32>),
    U64(std::slice::Iter<'a, u64>),
    Encoded { left: usize, r: WireReader<'a> },
}

impl Iterator for LoadIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match self {
            LoadIter::U32(v) => v.next().map(|&l| u64::from(l)),
            LoadIter::U64(v) => v.next().copied(),
            LoadIter::Encoded { left, r } => {
                *left = left.checked_sub(1)?;
                // Checked when the list was read.
                r.varint().ok()
            }
        }
    }
}

/// One wire frame. See the module docs for the conversation shape. Its
/// lists borrow the arrays they were written from, or the buffer the
/// frame was read into.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<'a> {
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
        counts: PairList<'a>,
        /// Run-level crashed bins within the shard range.
        crashed: Vec<u32>,
    },
    /// Worker → orchestrator: the shard's grant decisions.
    GrantsOk {
        /// Echoed round index.
        round: u32,
        /// Sparse `(global bin, accept)` pairs (only nonzero accepts).
        accept: PairList<'a>,
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
        loads: PairList<'a>,
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
        loads: PairList<'a>,
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
        loads: LoadList<'a>,
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

/// Frame names, indexed by tag.
const TAG_NAMES: [&str; 14] = [
    "",
    "hello",
    "ready",
    "grants",
    "grants_ok",
    "commit",
    "commit_ok",
    "delta",
    "delta_ok",
    "drain",
    "loads",
    "shutdown",
    "bye",
    "error",
];

/// A `u32` id list: varint count + zigzag deltas.
fn write_u32s(w: &mut WireWriter, values: &[u32]) {
    w.varint(values.len() as u64);
    let mut prev: i64 = 0;
    for &v in values {
        w.varint_signed(i64::from(v) - prev);
        prev = i64::from(v);
    }
}

fn read_u32s(r: &mut WireReader<'_>) -> Result<Vec<u32>, WireError> {
    let count = r.count("id", 1)?;
    let mut out = Vec::with_capacity(count);
    let mut prev: i64 = 0;
    for _ in 0..count {
        let delta = r.varint_signed()?;
        let v = prev
            .checked_add(delta)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| {
                WireError::Malformed(format!("id out of u32 range: {prev} {delta:+}"))
            })?;
        out.push(v);
        prev = i64::from(v);
    }
    Ok(out)
}

impl<'a> Frame<'a> {
    /// Encode as one self-delimiting checksummed message, written in one
    /// buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::message(self.tag_byte());
        match self {
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
            }
            Frame::Ready { shard } | Frame::Bye { shard } => w.varint(u64::from(*shard)),
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
                counts.write(&mut w);
                write_u32s(&mut w, crashed);
            }
            Frame::GrantsOk {
                round,
                accept,
                underloaded,
                unfilled,
            } => {
                w.varint(u64::from(*round));
                accept.write(&mut w);
                w.varint(u64::from(*underloaded));
                w.varint(*unfilled);
            }
            Frame::Commit {
                round,
                loads,
                record,
            } => {
                w.varint(u64::from(*round));
                loads.write(&mut w);
                write_record(&mut w, record);
            }
            Frame::CommitOk { round, sum } => {
                w.varint(u64::from(*round));
                w.varint(*sum);
            }
            Frame::Delta { batch, loads } => {
                w.varint(*batch);
                loads.write(&mut w);
            }
            Frame::DeltaOk { batch, total, max } => {
                w.varint(*batch);
                w.varint(*total);
                w.varint(*max);
            }
            Frame::Drain | Frame::Shutdown => {}
            Frame::Loads { loads } => loads.write(&mut w),
            Frame::Error { detail } => w.str(detail),
        }
        w.finish()
    }

    /// Decode one complete message (envelope included); the frame's
    /// lists borrow `bytes`.
    pub fn decode(bytes: &'a [u8]) -> Result<Frame<'a>, String> {
        let (tag, payload) = wire::decode_msg(bytes).map_err(|e| e.to_string())?;
        Self::from_payload(tag, payload)
    }

    fn from_payload(tag: u8, payload: &'a [u8]) -> Result<Frame<'a>, String> {
        let mut r = WireReader::unframed(payload);
        let frame = Self::read_fields(tag, &mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| format!("frame tag {tag}: {e}"))?;
        Ok(frame)
    }

    fn read_fields(tag: u8, r: &mut WireReader<'a>) -> Result<Frame<'a>, WireError> {
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
                counts: PairList::read(r)?,
                crashed: read_u32s(r)?,
            },
            TAG_GRANTS_OK => Frame::GrantsOk {
                round: varint_u32(r)?,
                accept: PairList::read(r)?,
                underloaded: varint_u32(r)?,
                unfilled: r.varint()?,
            },
            TAG_COMMIT => Frame::Commit {
                round: varint_u32(r)?,
                loads: PairList::read(r)?,
                record: read_record(r)?,
            },
            TAG_COMMIT_OK => Frame::CommitOk {
                round: varint_u32(r)?,
                sum: r.varint()?,
            },
            TAG_DELTA => Frame::Delta {
                batch: r.varint()?,
                loads: PairList::read(r)?,
            },
            TAG_DELTA_OK => Frame::DeltaOk {
                batch: r.varint()?,
                total: r.varint()?,
                max: r.varint()?,
            },
            TAG_DRAIN => Frame::Drain,
            TAG_LOADS => Frame::Loads {
                loads: LoadList::read(r)?,
            },
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

    fn tag_byte(&self) -> u8 {
        match self {
            Frame::Hello(_) => TAG_HELLO,
            Frame::Ready { .. } => TAG_READY,
            Frame::Grants { .. } => TAG_GRANTS,
            Frame::GrantsOk { .. } => TAG_GRANTS_OK,
            Frame::Commit { .. } => TAG_COMMIT,
            Frame::CommitOk { .. } => TAG_COMMIT_OK,
            Frame::Delta { .. } => TAG_DELTA,
            Frame::DeltaOk { .. } => TAG_DELTA_OK,
            Frame::Drain => TAG_DRAIN,
            Frame::Loads { .. } => TAG_LOADS,
            Frame::Shutdown => TAG_SHUTDOWN,
            Frame::Bye { .. } => TAG_BYE,
            Frame::Error { .. } => TAG_ERROR,
        }
    }

    /// The frame-type tag, for error messages.
    pub(crate) fn tag(&self) -> &'static str {
        TAG_NAMES[usize::from(self.tag_byte())]
    }
}

/// Read one frame from a byte stream into `buf`, which the caller reuses
/// from frame to frame; the frame's lists borrow it. Returns the frame
/// and the bytes consumed (wire accounting); `Ok(None)` on clean EOF at
/// a frame boundary.
pub fn read_frame<'b>(
    reader: &mut (impl Read + ?Sized),
    buf: &'b mut Vec<u8>,
) -> Result<Option<(Frame<'b>, usize)>, String> {
    let Some(tag) = wire::read_msg(reader, buf).map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    let payload: &'b [u8] = buf;
    let frame = Frame::from_payload(tag, payload)?;
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

    /// An explicit pair list that lives as long as the test.
    fn pairs(list: &[(u32, u64)]) -> PairList<'static> {
        Box::leak(Box::new(list.iter().copied().collect::<PairBuf>())).list()
    }

    fn sample_frames() -> Vec<Frame<'static>> {
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
                counts: pairs(&[(17, 3), (30, 1), (19, 2)]),
                crashed: vec![18, 25],
            },
            Frame::GrantsOk {
                round: 2,
                accept: pairs(&[(17, 2)]),
                underloaded: 5,
                unfilled: 12,
            },
            Frame::Commit {
                round: 2,
                loads: pairs(&[(17, 7), (30, 2)]),
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
                loads: pairs(&[(0, 5)]),
            },
            Frame::DeltaOk {
                batch: 9,
                total: 55,
                max: 8,
            },
            Frame::Drain,
            Frame::Loads {
                loads: LoadList::u64s(&[1, 2, 3]),
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
            let bytes = f.encode();
            let back = Frame::decode(&bytes).unwrap_or_else(|e| panic!("{e} decoding {}", f.tag()));
            assert_eq!(f, back, "codec mangled {}", f.tag());
        }
    }

    #[test]
    fn read_frame_accounts_every_byte_of_a_stream() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut reader = std::io::BufReader::new(&stream[..]);
        let mut total = 0usize;
        // One buffer for the whole stream, as a link reads.
        let mut buf = Vec::new();
        for (i, want) in frames.iter().enumerate() {
            let (got, bytes) = read_frame(&mut reader, &mut buf)
                .unwrap_or_else(|e| panic!("frame {i}: {e}"))
                .expect("frame present");
            assert_eq!(&got, want);
            total += bytes;
        }
        assert_eq!(total, stream.len(), "byte accounting must be exact");
        assert!(
            read_frame(&mut reader, &mut buf).unwrap().is_none(),
            "clean EOF"
        );
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
        let mut buf = Vec::new();
        let (got, _) = read_frame(&mut &bytes[..], &mut buf)
            .unwrap()
            .expect("frame");
        let Frame::Hello(h) = got else {
            panic!("wrong frame");
        };
        assert_eq!(h.seed, 0xFFFF_FFFF_FFFF_FFFE);
        assert_eq!(h.fault_seed, (1 << 60) + 7);
    }

    /// One frame per tag, at the edges of the format: bins 0 and
    /// `u32::MAX`, descending bins, empty lists and `u64::MAX` values.
    fn edge_frames() -> Vec<Frame<'static>> {
        let record = RoundRecord {
            round: u32::MAX,
            active_before: u64::MAX,
            requests: 1 << 40,
            granted: 0,
            committed: 127,
            wasted_grants: 128,
            underloaded_bins: u32::MAX,
            unfilled_want: u64::MAX,
            max_load: 0,
            messages: MessageStats {
                requests: u64::MAX,
                responses: 1,
                commits: 16_384,
            },
        };
        vec![
            Frame::Hello(Hello {
                mode: "engine".into(),
                shard: u32::MAX,
                shards: 4,
                lo: 0,
                hi: u32::MAX,
                n: u32::MAX,
                m: u64::MAX,
                seed: u64::MAX,
                workload: "collision".into(),
                straggle_prob: 0.25,
                straggle_us: u64::MAX,
                fault_seed: 0x9E37_79B9_7F4A_7C15,
            }),
            Frame::Ready { shard: u32::MAX },
            Frame::Grants {
                round: 7,
                active: u64::MAX,
                placed: 0,
                counts: pairs(&[(u32::MAX, 1), (0, u64::MAX), (5, 3), (4, 128)]),
                crashed: vec![u32::MAX, 0, 9],
            },
            Frame::GrantsOk {
                round: 7,
                accept: pairs(&[]),
                underloaded: u32::MAX,
                unfilled: u64::MAX,
            },
            Frame::Commit {
                round: 0,
                loads: pairs(&[(3, 1), (2, u64::MAX), (u32::MAX, 0)]),
                record,
            },
            Frame::CommitOk {
                round: u32::MAX,
                sum: u64::MAX,
            },
            Frame::Delta {
                batch: u64::MAX,
                loads: pairs(&[(0, u64::MAX), (u32::MAX, 2), (1, 0)]),
            },
            Frame::DeltaOk {
                batch: 0,
                total: u64::MAX,
                max: u64::MAX,
            },
            Frame::Drain,
            Frame::Loads {
                loads: LoadList::u64s(&[u64::MAX, 0, 1, 127, 128, 0xFFFF_FFFF]),
            },
            Frame::Shutdown,
            Frame::Bye { shard: 0 },
            Frame::Error {
                detail: "bad \"frame\" \u{fc}".into(),
            },
        ]
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // FNV-1a 64 of each frame's encoded bytes, one frame per tag: the
        // format is fixed, so a codec rewrite must leave every byte put.
        let pinned: [u64; 13] = [
            0x3415_ca30_2115_acc6, // hello
            0xdfd0_1fed_6398_7362, // ready
            0xea76_40d6_bf8a_34f7, // grants
            0x54a7_1256_6378_136e, // grants_ok
            0x0c97_3265_fc49_c1ef, // commit
            0x7b93_8d5e_541a_10fa, // commit_ok
            0xd1ad_cb81_3509_6c69, // delta
            0xdc1e_ba34_3137_c508, // delta_ok
            0xa981_ff57_c26a_900f, // drain
            0xdda9_f169_6829_8132, // loads
            0x4cb2_9175_f8e9_d105, // shutdown
            0x46d0_ace4_6d6f_8e5c, // bye
            0x1f9e_6efb_88b4_6558, // error
        ];
        let frames = edge_frames();
        assert_eq!(frames.len(), 13, "one frame per tag");
        let got: Vec<u64> = frames.iter().map(|f| wire::fnv1a(&f.encode())).collect();
        for f in &frames {
            let bytes = f.encode();
            let back = Frame::decode(&bytes).unwrap_or_else(|e| panic!("{}: {e}", f.tag()));
            assert_eq!(&back, f, "{} round-trips", f.tag());
            assert_eq!(back.encode(), bytes, "{} re-encodes to its bytes", f.tag());
        }
        assert_eq!(got, pinned, "{got:#018x?}");
    }

    #[test]
    fn dense_and_explicit_lists_encode_alike() {
        // A list written from a dense slice (nonzero entries, as arrival
        // counts and accepts are sent; loads from a u32 or u64 array, as
        // the drain reply is) is the same bytes as the explicit list.
        let lo = u32::MAX - 9;
        let dense = [0, 3, 0, 0, 1, 200, 0, 0, u32::MAX, 7];
        let explicit: Vec<(u32, u64)> = (lo..=u32::MAX)
            .zip(dense)
            .filter(|&(_, v)| v != 0)
            .map(|(b, v)| (b, u64::from(v)))
            .collect();
        let grants_ok = |accept| Frame::GrantsOk {
            round: 4,
            accept,
            underloaded: 2,
            unfilled: 9,
        };
        let from_dense = grants_ok(PairList::nonzero(lo, &dense));
        let from_pairs = grants_ok(pairs(&explicit));
        assert_eq!(from_dense.encode(), from_pairs.encode());
        assert_eq!(from_dense, from_pairs);
        assert_eq!(PairList::nonzero(lo, &dense).len(), explicit.len());
        assert_eq!(
            PairList::nonzero(lo, &dense).iter().collect::<Vec<_>>(),
            explicit
        );
        assert_eq!(PairList::nonzero(7, &[0, 0]).len(), 0);
        assert_eq!(
            grants_ok(PairList::nonzero(7, &[0, 0])).encode(),
            grants_ok(pairs(&[])).encode()
        );

        let wide: Vec<u64> = dense.iter().map(|&v| u64::from(v)).collect();
        let loads = |loads| Frame::Loads { loads }.encode();
        assert_eq!(loads(LoadList::u32s(&dense)), loads(LoadList::u64s(&wide)));
        let bytes = loads(LoadList::u32s(&dense));
        let Ok(Frame::Loads { loads: back }) = Frame::decode(&bytes) else {
            panic!("loads frame");
        };
        assert_eq!(back.iter().collect::<Vec<_>>(), wide);
    }

    #[test]
    fn hostile_counts_are_refused_by_the_bytes_left() {
        // Checksum-valid payloads whose counts claim far more elements
        // than they hold fail at the count, before any reservation.
        let msg = |tag: u8, fields: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::message(tag);
            fields(&mut w);
            w.finish()
        };
        let cases = [
            (
                msg(TAG_LOADS, &|w| w.varint(1 << 24)),
                "load count 16777216 exceeds the 0 payload bytes left",
            ),
            (
                msg(TAG_GRANTS_OK, &|w| {
                    w.varint(1);
                    w.varint(u64::MAX);
                    w.raw(&[0; 3]);
                }),
                "pair count 18446744073709551615 exceeds the 3 payload bytes left",
            ),
            (
                msg(TAG_GRANTS, &|w| {
                    w.raw(&[0, 0, 0, 0]);
                    w.varint(1 << 33);
                }),
                "id count 8589934592 exceeds the 0 payload bytes left",
            ),
            (
                msg(TAG_DELTA, &|w| {
                    w.varint(0);
                    w.varint(1);
                    w.varint_signed(i64::MAX);
                    w.varint(1);
                }),
                "pair bin id out of u32 range",
            ),
        ];
        for (bytes, want) in cases {
            let err = Frame::decode(&bytes).unwrap_err();
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn frame_corruption_is_always_rejected() {
        let good = Frame::Grants {
            round: 3,
            active: 64,
            placed: 1000,
            counts: pairs(&[(5, 2), (9, 1)]),
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
