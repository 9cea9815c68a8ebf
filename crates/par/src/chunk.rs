//! Chunk geometry: deterministic partitioning of an index range.
//!
//! [`Chunking`] is the one way the workspace splits `0..len` for a
//! parallel pass: its boundaries depend only on `len`, the minimum chunk
//! size, and the chunk cap — never on runtime timing. This is what makes
//! chunk-local outputs deterministic.

use std::ops::Range;

/// A deterministic partition of `0..len` into near-equal chunks.
///
/// Chunks differ in size by at most one element, and every index belongs to
/// exactly one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunking {
    len: usize,
    chunks: usize,
}

impl Chunking {
    /// Partition `len` items into at most `max_chunks` chunks of at least
    /// `min_chunk` items each (the final partition may use fewer chunks if
    /// `len` is small).
    pub fn new(len: usize, min_chunk: usize, max_chunks: usize) -> Self {
        let chunks = chunk_count(len, min_chunk, max_chunks);
        Self { len, chunks }
    }

    /// Total number of items being partitioned.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks in the partition.
    #[inline]
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Index range of chunk `i` (`i < self.chunks()`).
    #[inline]
    pub fn range(&self, i: usize) -> Range<usize> {
        chunk_range(self.len, self.chunks, i)
    }

    /// Iterate over all chunk ranges in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.chunks).map(move |i| self.range(i))
    }
}

/// Number of chunks used to split `len` items with a minimum chunk size and
/// a maximum chunk count. Returns at least 1 for nonempty inputs and 0 for
/// empty ones.
#[inline]
fn chunk_count(len: usize, min_chunk: usize, max_chunks: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let min_chunk = min_chunk.max(1);
    let by_size = len.div_ceil(min_chunk);
    by_size.min(max_chunks.max(1))
}

/// The `i`-th of `chunks` near-equal ranges covering `0..len`.
///
/// The first `len % chunks` ranges get one extra element, so sizes differ by
/// at most one.
#[inline]
fn chunk_range(len: usize, chunks: usize, i: usize) -> Range<usize> {
    debug_assert!(i < chunks, "chunk index {i} out of {chunks}");
    let base = len / chunks;
    let extra = len % chunks;
    let start = i * base + i.min(extra);
    let size = base + usize::from(i < extra);
    start..start + size
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_zero_chunks() {
        assert_eq!(chunk_count(0, 100, 8), 0);
        let c = Chunking::new(0, 100, 8);
        assert!(c.is_empty());
        assert_eq!(c.chunks(), 0);
    }

    #[test]
    fn small_input_uses_one_chunk() {
        assert_eq!(chunk_count(50, 100, 8), 1);
        assert_eq!(chunk_range(50, 1, 0), 0..50);
    }

    #[test]
    fn ranges_tile_exactly() {
        for len in [1usize, 2, 7, 100, 101, 1023, 4096] {
            for chunks in 1..=16usize.min(len) {
                let mut next = 0;
                for i in 0..chunks {
                    let r = chunk_range(len, chunks, i);
                    assert_eq!(r.start, next, "len={len} chunks={chunks} i={i}");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        let len = 1003;
        let chunks = 7;
        let sizes: Vec<usize> = (0..chunks)
            .map(|i| chunk_range(len, chunks, i).len())
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(sizes.iter().sum::<usize>(), len);
    }

    #[test]
    fn chunking_respects_min_chunk() {
        let c = Chunking::new(10_000, 4096, 64);
        assert_eq!(c.chunks(), 3); // ceil(10000 / 4096)
        let total: usize = c.ranges().map(|r| r.len()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn chunking_respects_max_chunks() {
        let c = Chunking::new(1_000_000, 1, 8);
        assert_eq!(c.chunks(), 8);
    }
}
