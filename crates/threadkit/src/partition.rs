//! Static work partitioning, the way hand-written Pthreads codes split loops.

use std::ops::Range;

/// The contiguous block of `0..total` assigned to `thread_id` out of
/// `num_threads` under block (a.k.a. static) partitioning. Remainder items go
/// to the first `total % num_threads` threads, so block sizes differ by at
/// most one.
///
/// # Panics
/// Panics if `num_threads == 0` or `thread_id >= num_threads`.
pub fn block_range(total: usize, num_threads: usize, thread_id: usize) -> Range<usize> {
    assert!(num_threads > 0, "num_threads must be positive");
    assert!(thread_id < num_threads, "thread_id out of range");
    let base = total / num_threads;
    let extra = total % num_threads;
    let start = thread_id * base + thread_id.min(extra);
    let len = base + usize::from(thread_id < extra);
    start..(start + len)
}

/// Split `0..total` into chunks of at most `chunk` items (the work units a
/// dynamic scheduler or a task-based runtime would hand out).
///
/// # Panics
/// Panics if `chunk == 0`.
pub fn chunk_ranges(total: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk > 0, "chunk must be positive");
    let mut out = Vec::with_capacity(total.div_ceil(chunk));
    let mut start = 0;
    while start < total {
        let end = (start + chunk).min(total);
        out.push(start..end);
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_even_split() {
        assert_eq!(block_range(12, 4, 0), 0..3);
        assert_eq!(block_range(12, 4, 3), 9..12);
    }

    #[test]
    fn block_remainder_goes_to_first_threads() {
        // 10 items over 4 threads: sizes 3,3,2,2.
        assert_eq!(block_range(10, 4, 0), 0..3);
        assert_eq!(block_range(10, 4, 1), 3..6);
        assert_eq!(block_range(10, 4, 2), 6..8);
        assert_eq!(block_range(10, 4, 3), 8..10);
    }

    #[test]
    fn block_more_threads_than_items() {
        assert_eq!(block_range(2, 4, 0), 0..1);
        assert_eq!(block_range(2, 4, 1), 1..2);
        assert_eq!(block_range(2, 4, 2), 2..2);
        assert_eq!(block_range(2, 4, 3), 2..2);
    }

    #[test]
    #[should_panic(expected = "thread_id out of range")]
    fn block_thread_out_of_range_panics() {
        let _ = block_range(10, 2, 2);
    }

    #[test]
    fn chunk_ranges_cover_total() {
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert!(chunk_ranges(0, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn chunk_zero_panics() {
        let _ = chunk_ranges(5, 0);
    }

    proptest! {
        /// Block partitioning tiles 0..total exactly: disjoint, contiguous,
        /// covering, with sizes differing by at most one.
        #[test]
        fn prop_block_partition_tiles(total in 0usize..10_000, threads in 1usize..64) {
            let mut covered = 0usize;
            let mut sizes = Vec::new();
            for t in 0..threads {
                let r = block_range(total, threads, t);
                prop_assert_eq!(r.start, covered);
                covered = r.end;
                sizes.push(r.len());
            }
            prop_assert_eq!(covered, total);
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }

        /// Chunking covers the range in order without gaps or overlaps.
        #[test]
        fn prop_chunks_tile(total in 0usize..5_000, chunk in 1usize..128) {
            let ranges = chunk_ranges(total, chunk);
            let mut covered = 0usize;
            for r in &ranges {
                prop_assert_eq!(r.start, covered);
                prop_assert!(r.len() <= chunk);
                prop_assert!(!r.is_empty());
                covered = r.end;
            }
            prop_assert_eq!(covered, total);
        }
    }
}
