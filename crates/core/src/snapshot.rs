//! Binary snapshot codec: [`SnapshotWriter`] / [`SnapshotReader`].
//!
//! The service facade (`pba-run serve`) checkpoints a live
//! `StreamAllocator` to bytes and restores it later — possibly in a
//! different process. The workspace builds with **zero** external
//! dependencies, so the snapshot format is encoded by hand on the shared
//! [`wire`](crate::wire) toolkit:
//!
//! * little-endian fixed-width integers (`u8`/`u32`/`u64`) and `f64` as
//!   its IEEE-754 bit pattern — bit-exact round-trips, which the
//!   determinism argument depends on (a restored threshold schedule must
//!   continue the *same* f64 recurrence);
//! * length-prefixed byte strings (UTF-8 validated on read for
//!   [`str`](SnapshotReader::str));
//! * a framed envelope: 4-byte magic + `u32` format version up front, and
//!   an FNV-1a 64 checksum of everything before it at the end, so a
//!   truncated or corrupted snapshot fails loudly instead of restoring a
//!   silently wrong allocator.
//!
//! Nested state (say, a placement policy's private state embedded inside
//! an allocator snapshot) uses the *unframed* constructors: same
//! primitives, no envelope, carried as one length-prefixed byte string of
//! the outer frame.
//!
//! The codec itself lives in [`crate::wire`] — the cluster shard
//! protocol and the streaming socket ingest frame their messages with
//! the same primitives and checksum. These names are aliases kept for
//! the snapshot call sites (and because a *snapshot* error is what a
//! failed restore should talk about); the byte format is unchanged
//! from when the codec lived here.

pub use crate::wire::{
    WireError as SnapshotError, WireReader as SnapshotReader, WireWriter as SnapshotWriter,
};

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::framed(MAGIC, 3);
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
        let mut r = SnapshotReader::framed(&bytes, MAGIC, 3).unwrap();
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
            let mut w = SnapshotWriter::unframed();
            w.f64(v);
            let bytes = w.finish();
            let got = SnapshotReader::unframed(&bytes).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = sample();
        assert!(matches!(
            SnapshotReader::framed(&bytes, *b"NOPE", 3),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert_eq!(
            SnapshotReader::framed(&bytes, MAGIC, 4).err(),
            Some(SnapshotError::BadVersion {
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
                let result = SnapshotReader::framed(&bad, MAGIC, 3);
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
                SnapshotReader::framed(&good[..len], MAGIC, 3).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn over_reads_and_trailing_bytes_error() {
        let mut w = SnapshotWriter::unframed();
        w.u32(5);
        let bytes = w.finish();
        let mut r = SnapshotReader::unframed(&bytes);
        assert_eq!(r.u32().unwrap(), 5);
        assert!(matches!(r.u64(), Err(SnapshotError::Truncated { .. })));

        let mut r = SnapshotReader::unframed(&bytes);
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.finish(), Err(SnapshotError::TrailingBytes(3)));
    }

    #[test]
    fn absurd_byte_string_length_is_truncation_not_allocation() {
        let mut w = SnapshotWriter::unframed();
        w.u64(u64::MAX); // length prefix far beyond the buffer
        let bytes = w.finish();
        let mut r = SnapshotReader::unframed(&bytes);
        assert!(matches!(r.bytes(), Err(SnapshotError::Truncated { .. })));
    }
}
