//! The shared binary wire toolkit: [`WireWriter`] / [`WireReader`]
//! primitives, LEB128 varints, and the checksummed message envelope.
//!
//! Three subsystems encode bytes by hand because the workspace builds
//! with **zero** external dependencies by default: allocator snapshots
//! (`pba_stream::snapshot`), the cluster shard protocol
//! (`pba_cluster::wire`), and the streaming socket ingest
//! (`pba_stream::ingest`). They all share the same foundation:
//!
//! * little-endian fixed-width integers (`u8`/`u32`/`u64`) and `f64` as
//!   its IEEE-754 bit pattern — bit-exact round-trips, which every
//!   determinism argument in this workspace depends on;
//! * LEB128 [varints](WireWriter::varint) and zigzag-signed
//!   [deltas](WireWriter::varint_signed) for sparse id/load lists;
//! * length-prefixed byte strings (UTF-8 validated on read for
//!   [`str`](WireReader::str));
//! * two envelope flavors: the snapshot file frame (4-byte magic +
//!   `u32` version up front, trailing FNV-1a 64 checksum) and the
//!   per-message stream frame written by [`WireWriter::message`] (one
//!   [`MSG_MAGIC`] byte, a `u8` type tag, a `u32` payload length, the
//!   payload, and a trailing FNV-1a 64 checksum over everything before
//!   it). A message is written into one buffer, header and checksum
//!   included, and [`read_msg`] reads one into a buffer the caller may
//!   reuse. Either way a truncated or corrupted frame fails loudly with
//!   a [`WireError`] instead of decoding into a silently wrong value.
//!
//! The message-frame magic `0xB5` is deliberately not valid ASCII, so a
//! text peer (a JSON line, a stray shell `echo`) is refused at its first
//! byte with [`WireError::BadFrameMagic`] naming the byte it sent.

use std::fmt;
use std::io::Read;

/// Errors surfaced while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        wanted: usize,
        /// Bytes left in the buffer.
        left: usize,
    },
    /// The 4-byte magic did not match the expected format tag.
    BadMagic {
        /// Magic found in the buffer.
        found: [u8; 4],
        /// Magic the reader expected.
        expected: [u8; 4],
    },
    /// The format version is not the one this build understands.
    BadVersion {
        /// Version found in the buffer.
        found: u32,
        /// Version the reader expected.
        expected: u32,
    },
    /// The trailing FNV-1a checksum did not match the payload.
    BadChecksum,
    /// Bytes remained after [`WireReader::finish`].
    TrailingBytes(usize),
    /// Structurally valid bytes with semantically invalid content.
    Malformed(String),
    /// A message frame led with a byte other than [`MSG_MAGIC`].
    BadFrameMagic {
        /// The byte found where the frame magic belonged.
        found: u8,
    },
    /// A message frame declared a payload length beyond the sanity cap
    /// — a length-lie (or garbage parsed as a header), refused before
    /// any allocation.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The cap ([`MAX_MSG_LEN`]).
        cap: u32,
    },
    /// The underlying transport failed mid-frame.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { wanted, left } => {
                write!(f, "frame truncated: needed {wanted} bytes, {left} left")
            }
            WireError::BadMagic { found, expected } => write!(
                f,
                "bad frame magic {found:?} (expected {expected:?}) — not a frame of this kind"
            ),
            WireError::BadVersion { found, expected } => write!(
                f,
                "unsupported frame version {found} (this build reads version {expected})"
            ),
            WireError::BadChecksum => write!(f, "frame checksum mismatch: bytes corrupted"),
            WireError::TrailingBytes(n) => {
                write!(f, "frame has {n} unread trailing byte(s)")
            }
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
            WireError::BadFrameMagic { found } => write!(
                f,
                "bad frame lead byte 0x{found:02x} (expected 0x{MSG_MAGIC:02x})"
            ),
            WireError::Oversize { len, cap } => write!(
                f,
                "frame length {len} exceeds the {cap}-byte cap — corrupt length prefix?"
            ),
            WireError::Io(why) => write!(f, "transport failed mid-frame: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a 64-bit over `bytes` — the frame checksum. Not cryptographic;
/// it guards against truncation and bit rot, not adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Map a signed value onto the unsigned varint space so that small
/// magnitudes of either sign stay short (zigzag encoding).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Lead byte of every binary message frame. Chosen outside ASCII so a
/// text peer is refused at its first byte.
pub const MSG_MAGIC: u8 = 0xB5;

/// Sanity cap on a message frame's payload length (64 MiB). A corrupt
/// or lying length prefix is rejected before any buffer is allocated.
pub const MAX_MSG_LEN: u32 = 64 << 20;

/// Bytes of envelope around a message payload: magic + tag + `u32`
/// length up front, `u64` checksum behind.
pub const MSG_OVERHEAD: usize = 1 + 1 + 4 + 8;

/// Decode one complete in-memory message frame back into `(tag,
/// payload)`. Verifies the magic, the length (against both the cap and
/// the buffer), the checksum, and that no bytes trail the frame.
pub fn decode_msg(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    const HEADER: usize = 6;
    if bytes.len() < MSG_OVERHEAD {
        return Err(WireError::Truncated {
            wanted: MSG_OVERHEAD,
            left: bytes.len(),
        });
    }
    if bytes[0] != MSG_MAGIC {
        return Err(WireError::BadFrameMagic { found: bytes[0] });
    }
    let tag = bytes[1];
    let len = u32::from_le_bytes(bytes[2..6].try_into().expect("4 bytes"));
    if len > MAX_MSG_LEN {
        return Err(WireError::Oversize {
            len,
            cap: MAX_MSG_LEN,
        });
    }
    let want = HEADER + len as usize + 8;
    if bytes.len() < want {
        return Err(WireError::Truncated {
            wanted: want,
            left: bytes.len(),
        });
    }
    if bytes.len() > want {
        return Err(WireError::TrailingBytes(bytes.len() - want));
    }
    let (body, sum_bytes) = bytes.split_at(want - 8);
    let sum = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
    if fnv1a(body) != sum {
        return Err(WireError::BadChecksum);
    }
    Ok((tag, &body[HEADER..]))
}

/// Read one message frame from a byte stream into `payload` and return
/// its tag; `payload` then holds exactly the verified payload bytes, and
/// its capacity carries over to the next call. Returns `Ok(None)` on a
/// clean EOF *before* the first byte. A first byte other than
/// [`MSG_MAGIC`] is [`WireError::BadFrameMagic`]; EOF anywhere inside a
/// frame is [`WireError::Truncated`], counting the bytes that did arrive.
pub fn read_msg<R: Read + ?Sized>(
    r: &mut R,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, WireError> {
    let mut header = [0u8; 6];
    let got = read_up_to(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if header[0] != MSG_MAGIC {
        return Err(WireError::BadFrameMagic { found: header[0] });
    }
    if got < header.len() {
        return Err(WireError::Truncated {
            wanted: header.len(),
            left: got,
        });
    }
    let tag = header[1];
    let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
    if len > MAX_MSG_LEN {
        return Err(WireError::Oversize {
            len,
            cap: MAX_MSG_LEN,
        });
    }
    let len = len as usize;
    // Every byte below `len + 8` is read over, so only growth is zeroed.
    payload.resize(len + 8, 0);
    let got = read_up_to(r, payload)?;
    if got < payload.len() {
        return Err(WireError::Truncated {
            wanted: payload.len(),
            left: got,
        });
    }
    let sum = u64::from_le_bytes(payload[len..].try_into().expect("8 bytes"));
    payload.truncate(len);
    let mut h = fnv1a(&header);
    for &b in payload.iter() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if h != sum {
        return Err(WireError::BadChecksum);
    }
    Ok(Some(tag))
}

/// Fill `buf` from `r` until it is full or the stream ends; returns the
/// bytes read.
fn read_up_to<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(got)
}

/// Push-style binary encoder.
///
/// # Examples
///
/// ```
/// use pba_core::wire::{WireReader, WireWriter};
///
/// let mut w = WireWriter::framed(*b"DEMO", 1);
/// w.u64(42);
/// w.varint(1 << 60);
/// w.str("hello");
/// let bytes = w.finish();
///
/// let mut r = WireReader::framed(&bytes, *b"DEMO", 1).unwrap();
/// assert_eq!(r.u64().unwrap(), 42);
/// assert_eq!(r.varint().unwrap(), 1 << 60);
/// assert_eq!(r.str().unwrap(), "hello");
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct WireWriter {
    buf: Vec<u8>,
    envelope: Envelope,
}

/// What [`WireWriter::finish`] wraps around the bytes written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Envelope {
    /// Nothing: a bare byte string.
    Bare,
    /// A snapshot file: magic and version up front, checksum behind.
    File,
    /// A message: magic, tag and payload length up front, checksum
    /// behind.
    Message,
}

impl Envelope {
    /// Bytes of header in front of the body.
    fn header(self) -> usize {
        match self {
            Envelope::Bare => 0,
            Envelope::File => 8,
            Envelope::Message => 6,
        }
    }
}

impl WireWriter {
    /// A framed snapshot-style buffer: magic + version header now,
    /// checksum appended by [`finish`](Self::finish).
    pub fn framed(magic: [u8; 4], version: u32) -> Self {
        let mut w = Self {
            buf: Vec::with_capacity(64),
            envelope: Envelope::File,
        };
        w.buf.extend_from_slice(&magic);
        w.u32(version);
        w
    }

    /// A message frame with type `tag`: everything written after this is
    /// its payload, and [`finish`](Self::finish) fills in the payload
    /// length and appends the checksum, so the message is built in one
    /// buffer: `MSG_MAGIC, tag, payload_len as u32 LE, payload,
    /// fnv1a(all prior) as u64 LE`.
    pub fn message(tag: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&[MSG_MAGIC, tag, 0, 0, 0, 0]);
        Self {
            buf,
            envelope: Envelope::Message,
        }
    }

    /// A bare byte string: no header, no checksum. For nested state
    /// embedded in an outer frame via [`bytes`](Self::bytes), and for
    /// parts of a message written ahead of it (see [`raw`](Self::raw)).
    pub fn unframed() -> Self {
        Self {
            buf: Vec::new(),
            envelope: Envelope::Bare,
        }
    }

    /// The bytes written since the header (everything, for a bare
    /// writer).
    pub fn written(&self) -> &[u8] {
        &self.buf[self.envelope.header()..]
    }

    /// Forget the bytes written since the header, keeping the capacity.
    pub fn clear(&mut self) {
        self.buf.truncate(self.envelope.header());
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`. Seeds always use this fixed-width
    /// form: all 64 bits survive the wire, no decimal-string detours.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact
    /// round-trip, NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append an unsigned LEB128 varint: 7 value bits per byte, high
    /// bit flags continuation. Values below 128 cost one byte.
    #[inline]
    pub fn varint(&mut self, v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
        } else {
            self.long_varint(v);
        }
    }

    /// [`varint`](Self::varint) past its one-byte case.
    fn long_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Append a signed value as a zigzag varint — the delta encoding
    /// for id lists whose gaps can run in either direction.
    #[inline]
    pub fn varint_signed(&mut self, v: i64) {
        self.varint(zigzag(v));
    }

    /// Append a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Make room for at least `additional` more bytes, for a caller that
    /// knows roughly how much it is about to write.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Append bytes that are already in wire form, as they are (no
    /// length prefix).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Seal the buffer: a message writer fills in its payload length;
    /// framed and message writers append the FNV-1a checksum of
    /// everything written so far (header included).
    pub fn finish(mut self) -> Vec<u8> {
        if self.envelope == Envelope::Message {
            let len = (self.buf.len() - Envelope::Message.header()) as u32;
            self.buf[2..6].copy_from_slice(&len.to_le_bytes());
        }
        if self.envelope != Envelope::Bare {
            let sum = fnv1a(&self.buf);
            self.buf.extend_from_slice(&sum.to_le_bytes());
        }
        self.buf
    }
}

/// Pull-style binary decoder over a borrowed buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Open a framed snapshot-style buffer: verifies magic, version,
    /// and the trailing checksum before any field is read.
    pub fn framed(bytes: &'a [u8], magic: [u8; 4], version: u32) -> Result<Self, WireError> {
        const HEADER: usize = 8; // magic + version
        const FOOTER: usize = 8; // checksum
        if bytes.len() < HEADER + FOOTER {
            return Err(WireError::Truncated {
                wanted: HEADER + FOOTER,
                left: bytes.len(),
            });
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - FOOTER);
        let sum = u64::from_le_bytes(sum_bytes.try_into().expect("footer is 8 bytes"));
        if fnv1a(body) != sum {
            return Err(WireError::BadChecksum);
        }
        let found: [u8; 4] = body[..4].try_into().expect("magic is 4 bytes");
        if found != magic {
            return Err(WireError::BadMagic {
                found,
                expected: magic,
            });
        }
        let mut r = Self { buf: body, pos: 4 };
        let got = r.u32()?;
        if got != version {
            return Err(WireError::BadVersion {
                found: got,
                expected: version,
            });
        }
        Ok(r)
    }

    /// Open a bare byte string written by [`WireWriter::unframed`] —
    /// message payloads and nested state.
    pub fn unframed(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Bytes not read yet. A decoder bounds an element count by it
    /// before reserving room for the elements (see
    /// [`count`](Self::count)).
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not read yet, borrowed from the buffer: a decoder that
    /// keeps a list in wire form takes it from here and then reads over
    /// it.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Read an element count, refused before anything is reserved for
    /// its elements when they, at `min_bytes` each, would need more bytes
    /// than the payload has left.
    pub fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, WireError> {
        let count = self.varint()?;
        let left = self.remaining();
        if count > (left / min_bytes) as u64 {
            return Err(WireError::Malformed(format!(
                "{what} count {count} exceeds the {left} payload bytes left"
            )));
        }
        Ok(count as usize)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let left = self.remaining();
        if left < n {
            return Err(WireError::Truncated { wanted: n, left });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read an unsigned LEB128 varint. A continuation running past 10
    /// bytes (more than 64 value bits) is malformed, not an overflow.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        // The common case on every wire here: a value below 128, one byte.
        if let Some(&byte) = self.buf.get(self.pos) {
            if byte < 0x80 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        self.long_varint()
    }

    /// [`varint`](Self::varint) past its one-byte case.
    #[cold]
    fn long_varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if i == 9 && bits > 1 {
                return Err(WireError::Malformed(
                    "varint continuation overflows 64 bits".into(),
                ));
            }
            v |= bits << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Malformed(
            "varint continuation overflows 64 bits".into(),
        ))
    }

    /// Read a zigzag varint back into a signed value.
    #[inline]
    pub fn varint_signed(&mut self) -> Result<i64, WireError> {
        Ok(unzigzag(self.varint()?))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u64()?;
        let left = self.remaining();
        if len > left as u64 {
            return Err(WireError::Truncated {
                wanted: len as usize,
                left,
            });
        }
        self.take(len as usize)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| WireError::Malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// Assert every byte was consumed — catches schema drift where a
    /// writer appended fields an older reader silently ignores.
    pub fn finish(self) -> Result<(), WireError> {
        let left = self.remaining();
        if left != 0 {
            return Err(WireError::TrailingBytes(left));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    fn sample() -> Vec<u8> {
        let mut w = WireWriter::framed(MAGIC, 3);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(2.0 / 3.0);
        w.bytes(&[1, 2, 3]);
        w.str("déjà vu");
        w.finish()
    }

    #[test]
    fn framed_roundtrip_is_exact() {
        let bytes = sample();
        let mut r = WireReader::framed(&bytes, MAGIC, 3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (2.0f64 / 3.0).to_bits());
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.str().unwrap(), "déjà vu");
        r.finish().unwrap();
    }

    #[test]
    fn f64_roundtrip_preserves_every_bit_pattern() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-308,
        ] {
            let mut w = WireWriter::unframed();
            w.f64(v);
            let bytes = w.finish();
            let got = WireReader::unframed(&bytes).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = sample();
        assert!(matches!(
            WireReader::framed(&bytes, *b"NOPE", 3),
            Err(WireError::BadMagic { .. })
        ));
        assert_eq!(
            WireReader::framed(&bytes, MAGIC, 4).err(),
            Some(WireError::BadVersion {
                found: 3,
                expected: 4
            })
        );
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let good = sample();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                let result = WireReader::framed(&bad, MAGIC, 3);
                assert!(
                    result.is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let good = sample();
        for len in 0..good.len() {
            assert!(
                WireReader::framed(&good[..len], MAGIC, 3).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn over_reads_and_trailing_bytes_error() {
        let mut w = WireWriter::unframed();
        w.u32(5);
        let bytes = w.finish();
        let mut r = WireReader::unframed(&bytes);
        assert_eq!(r.u32().unwrap(), 5);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));

        let mut r = WireReader::unframed(&bytes);
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(3)));
    }

    #[test]
    fn absurd_byte_string_length_is_truncation_not_allocation() {
        let mut w = WireWriter::unframed();
        w.u64(u64::MAX); // length prefix far beyond the buffer
        let bytes = w.finish();
        let mut r = WireReader::unframed(&bytes);
        assert!(matches!(r.bytes(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            (1 << 35) - 7,
            u64::from(u32::MAX),
            1 << 60,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut w = WireWriter::unframed();
            w.varint(v);
            let bytes = w.finish();
            let mut r = WireReader::unframed(&bytes);
            assert_eq!(r.varint().unwrap(), v, "varint {v} mangled");
            r.finish().unwrap();
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut w = WireWriter::unframed();
        w.varint(127);
        assert_eq!(w.finish().len(), 1);
        let mut w = WireWriter::unframed();
        w.varint(u64::MAX);
        assert_eq!(w.finish().len(), 10);
    }

    #[test]
    fn zigzag_roundtrips_and_keeps_small_magnitudes_short() {
        for v in [0i64, -1, 1, -2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut w = WireWriter::unframed();
        w.varint_signed(-3);
        assert_eq!(w.finish().len(), 1);
    }

    #[test]
    fn overlong_varint_is_malformed() {
        let bytes = [0xFFu8; 11];
        let mut r = WireReader::unframed(&bytes);
        assert!(matches!(r.varint(), Err(WireError::Malformed(_))));
    }

    /// A message of type `tag` around `payload`.
    fn msg(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::message(tag);
        w.raw(payload);
        w.finish()
    }

    /// `read_msg` into a fresh buffer: the tag and the payload.
    fn read_one(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        let mut payload = Vec::new();
        Ok(read_msg(r, &mut payload)?.map(|tag| (tag, payload)))
    }

    #[test]
    fn msg_frame_roundtrips() {
        let frame = msg(7, b"payload bytes");
        assert_eq!(frame.len(), b"payload bytes".len() + MSG_OVERHEAD);
        let (tag, payload) = decode_msg(&frame).unwrap();
        assert_eq!(tag, 7);
        assert_eq!(payload, b"payload bytes");

        // Two messages through one reused buffer, the longer one first.
        let mut stream = frame.clone();
        stream.extend(msg(9, b"tail"));
        let mut cursor = std::io::Cursor::new(stream);
        let mut buf = Vec::new();
        assert_eq!(read_msg(&mut cursor, &mut buf).unwrap(), Some(7));
        assert_eq!(buf, b"payload bytes");
        assert_eq!(read_msg(&mut cursor, &mut buf).unwrap(), Some(9));
        assert_eq!(buf, b"tail");
        assert_eq!(read_msg(&mut cursor, &mut buf).unwrap(), None);
    }

    #[test]
    fn message_writer_fills_in_the_header_and_checksum() {
        let mut w = WireWriter::message(5);
        w.varint(300);
        w.str("ok");
        assert_eq!(w.written().len(), 2 + 8 + 2);
        let bytes = w.finish();
        let (tag, payload) = decode_msg(&bytes).unwrap();
        assert_eq!(tag, 5);
        let mut r = WireReader::unframed(payload);
        assert_eq!(r.varint().unwrap(), 300);
        assert_eq!(r.str().unwrap(), "ok");
        r.finish().unwrap();

        let mut w = WireWriter::message(5);
        w.varint(1);
        w.clear();
        assert_eq!(w.finish(), msg(5, b""), "clear keeps the header");
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut w = WireWriter::unframed();
        w.varint(3);
        w.raw(&[1, 2, 3, 4, 5, 6]);
        let bytes = w.finish();
        assert_eq!(WireReader::unframed(&bytes).count("pair", 2), Ok(3));
        let err = WireReader::unframed(&bytes).count("quad", 4).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed frame: quad count 3 exceeds the 6 payload bytes left"
        );
        let mut r = WireReader::unframed(&bytes);
        r.u8().unwrap();
        assert_eq!(r.rest(), &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn msg_every_single_bit_flip_is_detected() {
        let good = msg(3, b"the quick brown fox");
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_msg(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn msg_truncation_and_length_lies_are_rejected() {
        let good = msg(3, b"the quick brown fox");
        for len in 0..good.len() {
            assert!(
                decode_msg(&good[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
            let mut cursor = std::io::Cursor::new(good[..len].to_vec());
            if len == 0 {
                assert_eq!(read_one(&mut cursor).unwrap(), None);
            } else {
                assert!(
                    read_one(&mut cursor).is_err(),
                    "stream truncation to {len} bytes went undetected"
                );
            }
        }
        // Length-lie: claim more payload than the cap allows. Must be
        // refused before any allocation happens.
        let mut lie = good.clone();
        lie[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_msg(&lie), Err(WireError::Oversize { .. })));
        let mut cursor = std::io::Cursor::new(lie);
        assert!(matches!(
            read_one(&mut cursor),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn msg_truncated_body_reports_the_bytes_that_arrived() {
        let good = msg(3, b"the quick brown fox");
        let body = good.len() - 6;
        for arrived in [1, 5, body - 1] {
            let mut cursor = std::io::Cursor::new(good[..6 + arrived].to_vec());
            assert_eq!(
                read_one(&mut cursor),
                Err(WireError::Truncated {
                    wanted: body,
                    left: arrived
                })
            );
        }
    }

    #[test]
    fn msg_wrong_lead_byte_is_diagnosed() {
        let mut bad = msg(1, b"x");
        bad[0] = b'{';
        assert_eq!(
            decode_msg(&bad),
            Err(WireError::BadFrameMagic { found: b'{' })
        );
        // A stream names the byte even when the garbage is shorter than
        // a frame header.
        for garbage in [&bad[..], b"{}\n", b"x"] {
            let mut cursor = std::io::Cursor::new(garbage.to_vec());
            assert_eq!(
                read_one(&mut cursor),
                Err(WireError::BadFrameMagic { found: garbage[0] })
            );
        }
    }
}
