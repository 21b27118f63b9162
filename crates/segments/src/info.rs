//! The segment information table entries: one [`SegInfo`] per segment,
//! recording the *space* and *generation* the segment belongs to, exactly
//! as the paper describes for Chez Scheme's heap. The `dirty` flag
//! summarises the run's rows of the table's card table (some card of a
//! dirty old run may point into a younger generation).

use crate::addr::SegIndex;

/// The space a segment belongs to.
///
/// The paper's implementation section keys behaviour off the space: weak
/// pairs "are always placed in a distinct weak-pair space" so the collector
/// can give their car fields weak treatment without per-object tags.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Ordinary pairs: two words, both traced.
    Pair,
    /// Weak pairs: two words; car weak, cdr traced.
    WeakPair,
    /// Header-prefixed objects with traced fields (vectors, symbols,
    /// boxes, records).
    Typed,
    /// Header-prefixed objects with **no pointers at all** (strings,
    /// bytevectors, flonums). Segregating them lets the collector copy
    /// without scanning — the benefit the paper cites from Chez Scheme's
    /// segmented heap ("the ability to segregate objects based on their
    /// characteristics, such as ... whether they contain pointers").
    Pure,
}

impl Space {
    /// All spaces, for iteration in tests and in the collector.
    pub const ALL: [Space; 4] = [Space::Pair, Space::WeakPair, Space::Typed, Space::Pure];

    /// Dense index of this space in [`Space::ALL`], for flat
    /// space-by-generation tables (e.g. the heap's allocation cursors).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Space::Pair => 0,
            Space::WeakPair => 1,
            Space::Typed => 2,
            Space::Pure => 3,
        }
    }
}

/// Whether a segment starts objects or continues a large object.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SegKind {
    /// First (or only) segment of an allocation area; objects are packed
    /// from offset 0 up to `SegInfo::used`.
    Head,
    /// Continuation of a multi-segment object; `head` is the run's first
    /// segment.
    Tail {
        /// The run's head segment.
        head: SegIndex,
    },
}

/// Per-segment metadata held in the segment information table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SegInfo {
    /// The space this segment belongs to.
    pub space: Space,
    /// The generation this segment belongs to.
    pub generation: u8,
    /// Head/tail discriminator for multi-segment runs.
    pub kind: SegKind,
    /// Number of words in use (meaningful on head segments; for a
    /// multi-segment run this counts the whole run's words and may exceed
    /// one segment).
    pub used: u32,
    /// Remembered-set summary, meaningful on head segments: some card of
    /// this run may not be clean. Maintain it through
    /// [`SegmentTable::mark_card`](crate::SegmentTable::mark_card) /
    /// [`SegmentTable::flag_dirty`](crate::SegmentTable::flag_dirty) /
    /// [`SegmentTable::clear_dirty`](crate::SegmentTable::clear_dirty) so
    /// the table's dirty-run index stays coherent.
    pub dirty: bool,
    /// Number of segments in the run this head starts (1 for a standalone
    /// segment), making `run_len` O(1). Zero on tail segments.
    pub run: u32,
}

impl SegInfo {
    /// Fresh metadata for a newly allocated head segment.
    pub fn head(space: Space, generation: u8) -> Self {
        SegInfo {
            space,
            generation,
            kind: SegKind::Head,
            used: 0,
            dirty: false,
            run: 1,
        }
    }

    /// Fresh metadata for a tail segment of a run starting at `head`.
    pub fn tail(space: Space, generation: u8, head: SegIndex) -> Self {
        SegInfo {
            space,
            generation,
            kind: SegKind::Tail { head },
            used: 0,
            dirty: false,
            run: 0,
        }
    }

    /// Whether this segment is the head of its run (or a standalone head).
    pub fn is_head(&self) -> bool {
        matches!(self.kind, SegKind::Head)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_starts_empty_and_clean() {
        let info = SegInfo::head(Space::Pair, 2);
        assert!(info.is_head());
        assert_eq!(info.used, 0);
        assert!(!info.dirty);
        assert_eq!(info.generation, 2);
    }

    #[test]
    fn tail_points_back_to_head() {
        let info = SegInfo::tail(Space::Typed, 0, SegIndex(9));
        assert!(!info.is_head());
        assert_eq!(info.kind, SegKind::Tail { head: SegIndex(9) });
    }
}
