//! Raw segment storage: a heap-allocated word array behind a stable
//! raw pointer.

use crate::addr::SEGMENT_WORDS;
use std::ptr::NonNull;

/// Poison pattern written into freed segments in debug builds so dangling
/// pointers are caught loudly rather than silently reading stale data.
pub(crate) const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// A single heap segment: [`SEGMENT_WORDS`] 64-bit words.
///
/// Storage sits behind a raw pointer rather than an inline `Box` field so
/// the word array's address is independent of where the `Segment` value
/// itself lives: moving a `Segment` (for example when the segment table's
/// `Vec<Segment>` grows) never changes the address of its words. The
/// collector relies on this to hold a run's chunk bases across a walk that
/// allocates to-space segments.
pub struct Segment {
    words: NonNull<u64>,
}

// SAFETY: a `Segment` exclusively owns its word allocation and contains no
// interior mutability or thread-affine state; it is a plain word array.
// `Send` is needed because the `SegmentPool` moves idle segments between
// the router threads that own the zones' heaps. Nothing shares one
// between threads, so there is no `Sync`.
unsafe impl Send for Segment {}

impl Segment {
    /// A zero-filled segment.
    pub fn new() -> Self {
        let boxed: Box<[u64; SEGMENT_WORDS]> = Box::new([0; SEGMENT_WORDS]);
        Segment {
            // SAFETY: `Box::into_raw` never returns null.
            words: unsafe { NonNull::new_unchecked(Box::into_raw(boxed).cast::<u64>()) },
        }
    }

    /// Reads the word at `offset`.
    #[inline]
    pub fn word(&self, offset: usize) -> u64 {
        assert!(offset < SEGMENT_WORDS, "word offset out of range");
        // SAFETY: the allocation holds SEGMENT_WORDS words and `offset` was
        // just bounds-checked.
        unsafe { self.words.as_ptr().add(offset).read() }
    }

    /// Writes the word at `offset`.
    #[inline]
    pub fn set_word(&mut self, offset: usize, value: u64) {
        assert!(offset < SEGMENT_WORDS, "word offset out of range");
        // SAFETY: in bounds (checked above), and `&mut self` rules out
        // concurrent access through safe APIs.
        unsafe { self.words.as_ptr().add(offset).write(value) }
    }

    /// The whole segment as a word slice, for bulk scanning.
    #[inline]
    pub fn words(&self) -> &[u64; SEGMENT_WORDS] {
        // SAFETY: the allocation is exactly one [u64; SEGMENT_WORDS] and
        // lives as long as `self`.
        unsafe { &*self.words.as_ptr().cast::<[u64; SEGMENT_WORDS]>() }
    }

    /// The whole segment as a mutable word slice, for bulk copying.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64; SEGMENT_WORDS] {
        // SAFETY: as above, with `&mut self` guaranteeing uniqueness.
        unsafe { &mut *self.words.as_ptr().cast::<[u64; SEGMENT_WORDS]>() }
    }

    /// The raw base address of this segment's word array.
    ///
    /// The pointer stays valid (and stable) until the `Segment` is dropped,
    /// even if the `Segment` value itself is moved.
    ///
    /// # Contract for unsafe callers
    ///
    /// Dereferencing the returned pointer is `unsafe`; callers must ensure
    /// that no `&`/`&mut` reference overlapping the accessed words is live
    /// across the raw access. The collector's in-place scans uphold this by
    /// the contract stated at `collect::remset::walk_run` in `guardians-gc`:
    /// a walk holds a run's bases and watermark, and the forwarding it calls
    /// touches only from-space objects and to-space words beyond that
    /// watermark, through raw pointers.
    #[inline]
    pub fn base_ptr(&self) -> *mut u64 {
        self.words.as_ptr()
    }

    /// Fills the whole segment with `value`.
    pub fn fill(&mut self, value: u64) {
        self.words_mut().fill(value);
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        // SAFETY: `words` came from `Box::into_raw` of exactly this type in
        // `Segment::new` and is dropped exactly once.
        unsafe {
            drop(Box::from_raw(
                self.words.as_ptr().cast::<[u64; SEGMENT_WORDS]>(),
            ))
        }
    }
}

impl Default for Segment {
    fn default() -> Self {
        Segment::new()
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Segment[{} words]", SEGMENT_WORDS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed_and_is_writable() {
        let mut s = Segment::new();
        assert_eq!(s.word(0), 0);
        assert_eq!(s.word(SEGMENT_WORDS - 1), 0);
        s.set_word(100, 7);
        assert_eq!(s.word(100), 7);
    }

    #[test]
    fn fill_overwrites_everything() {
        let mut s = Segment::new();
        s.fill(POISON);
        assert_eq!(s.word(0), POISON);
        assert_eq!(s.word(SEGMENT_WORDS / 2), POISON);
    }

    #[test]
    fn base_ptr_is_stable_across_moves() {
        let s = Segment::new();
        let before = s.base_ptr();
        let mut held = vec![s];
        held[0].set_word(3, 42);
        // Move the segment (e.g. the Vec growing/relocating it).
        let moved = held.pop().unwrap();
        assert_eq!(moved.base_ptr(), before, "word storage must not move");
        assert_eq!(moved.word(3), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let s = Segment::new();
        let _ = s.word(SEGMENT_WORDS);
    }
}
