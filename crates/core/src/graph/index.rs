//! The per-allocation overlap index: which recorded regions of an allocation
//! overlap a byte range, in time proportional to the overlaps (see the
//! [module docs](super), "The overlap index").

use crate::region::{AllocId, Region, RegionId};

// lint: hot-path-begin — overlap index: every access of every registration
// runs a query here; no panicking calls allowed (see `cargo xtask lint`).

/// One recorded region of an allocation, as the overlap index sees it: its
/// byte range, the chunk half of its [`RegionId`] (the allocation half is the
/// `by_alloc` key) and its size class.
#[derive(Clone, Copy)]
pub(super) struct Span {
    /// Bit length of the byte length: `0` for an empty region, `c` for a
    /// length in `[2^(c-1), 2^c)`.
    class: u32,
    start: usize,
    end: usize,
    pub(super) chunk: u32,
}

impl Span {
    pub(super) fn of(region: &Region) -> Span {
        let len = region.len();
        Span {
            class: usize::BITS - len.leading_zeros(),
            start: region.bytes.start,
            end: region.bytes.start + len,
            chunk: region.id.chunk,
        }
    }

    /// The index order: size class, then start offset, then chunk id (the
    /// last only separates regions with identical ranges).
    pub(super) fn key(&self) -> (u32, usize, u32) {
        (self.class, self.start, self.chunk)
    }

    /// This span's bit in [`AllocIndex::classes`] (none for an empty one).
    fn class_bit(&self) -> u64 {
        match self.class {
            0 => 0,
            c => 1 << (c - 1),
        }
    }
}

/// The per-allocation overlap index: every region id with a live
/// [`RegionEntry`], ordered by **(size class, start, chunk)**.
///
/// Within one size class every region is shorter than `2^class` bytes, so
/// the members overlapping a query `[s, e)` all start inside the window
/// `(s - 2^class, e)` — one binary search plus a forward walk per occupied
/// class. The walk also touches *near misses* (same class, starting inside
/// the window but ending at or before `s`); regions of one class that do not
/// nest contribute at most two of those, so a query costs
/// `O(classes · log n + overlaps)` for partitions, whole-allocation regions
/// over partitions, nested sub-ranges and any mix of them, and degrades only
/// when many same-sized regions pile up just before the query. Nothing here
/// looks at how a handle minted its region ids: only byte ranges decide.
///
/// Empty regions (class 0) are indexed — garbage collection finds entries
/// through the index — but never returned: they overlap nothing.
#[derive(Default)]
pub(super) struct AllocIndex {
    pub(super) spans: Vec<Span>,
    /// Bit `c - 1` is set iff some span of size class `c ≥ 1` is present.
    classes: u64,
}

impl AllocIndex {
    /// Index `region`. Called exactly once per region id, when its
    /// [`RegionEntry`] is created.
    pub(super) fn insert(&mut self, region: &Region) {
        let span = Span::of(region);
        let at = self.spans.partition_point(|s| s.key() < span.key());
        self.spans.insert(at, span);
        self.classes |= span.class_bit();
    }

    /// Call `hit(chunk)` for every indexed region overlapping `bytes`, in
    /// index order, and return how many spans were examined.
    pub(super) fn for_each_overlap(
        &self,
        bytes: &std::ops::Range<usize>,
        mut hit: impl FnMut(u32),
    ) -> u64 {
        let (s, e) = (bytes.start, bytes.end);
        if e <= s {
            return 0;
        }
        // One region — every plain `Data` handle — needs no search.
        if let [only] = self.spans[..] {
            if only.start < e && only.end > s && only.class != 0 {
                hit(only.chunk);
            }
            return 1;
        }
        let mut scanned = 0u64;
        let mut classes = self.classes;
        while classes != 0 {
            let class = classes.trailing_zeros() + 1;
            classes &= classes - 1;
            // Longest member of the class: 2^class - 1 bytes. A span reaches
            // past `s` only if `start + longest > s`.
            let longest = 1usize.checked_shl(class).map_or(usize::MAX, |w| w - 1);
            let first = s.saturating_sub(longest - 1);
            let from = self
                .spans
                .partition_point(|sp| (sp.class, sp.start) < (class, first));
            for sp in &self.spans[from..] {
                if sp.class != class || sp.start >= e {
                    break;
                }
                scanned += 1;
                if sp.end > s {
                    hit(sp.chunk);
                }
            }
        }
        scanned
    }

    /// The ids of every indexed region, in index order.
    pub(super) fn region_ids(&self, alloc: AllocId) -> impl Iterator<Item = RegionId> + '_ {
        self.spans.iter().map(move |sp| RegionId {
            alloc,
            chunk: sp.chunk,
        })
    }

    /// Keep only the spans `keep(chunk)` accepts (garbage collection).
    pub(super) fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let mut classes = 0u64;
        self.spans.retain(|sp| {
            let kept = keep(sp.chunk);
            if kept {
                classes |= sp.class_bit();
            }
            kept
        });
        self.classes = classes;
    }
}
// lint: hot-path-end
