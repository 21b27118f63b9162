//! Whole-heap invariant checking, used throughout the test suite (and
//! after every collection in the property tests) to catch collector bugs
//! at the moment they corrupt the heap rather than when the corruption is
//! finally observed.

use crate::collect::Scratch;
use crate::header::Header;
use crate::heap::Heap;
use crate::value::{fwd, Value, TAG_MASK};
use guardians_segments::{SegIndex, SegKind, Space, WordAddr, CARD_CLEAN, CARD_WORDS};
use std::fmt;

/// A heap invariant violation found by [`Heap::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    message: String,
}

impl VerifyError {
    fn new(message: impl Into<String>) -> VerifyError {
        VerifyError {
            message: message.into(),
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap verification failed: {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

impl Heap {
    /// Walks the entire heap checking structural invariants:
    ///
    /// * every object in every segment parses (headers decode, objects
    ///   fall inside the used region);
    /// * every traced field holds a valid value — no forwarding marks, no
    ///   headers, and pointers land on live objects in segments of the
    ///   matching space;
    /// * the remembered set is complete: every pointer from a generation-`h`
    ///   segment into a younger generation `y` lies in a card whose byte
    ///   is `<= y`, every card that is not clean belongs to a run flagged
    ///   dirty, every flagged run is on the dirty index, and generation-0
    ///   segments (which includes every fresh or recycled one) are
    ///   all-clean;
    /// * every root is valid, strong and weak, and the root table is
    ///   coherent: every slot's generation stamp is a lower bound on its
    ///   referent's generation (mid-cycle, a slot holding a from-space
    ///   pointer is stamped at most the collected generation), free slots
    ///   of both slabs are non-pointers on the free list exactly once with
    ///   no sharers, live slots have one, no vector's stamped prefix is
    ///   longer than the vector, and every weak slot is `#f`, an immediate
    ///   or a pointer into an allocated segment — outside a collection,
    ///   never the from-space;
    /// * the segment table's free store is coherent with its allocation
    ///   state, and every allocated segment holds storage
    ///   ([`SegmentTable::check_free_store`]), and so is its
    ///   whereabouts table ([`SegmentTable::check_whereabouts`]): a byte is
    ///   its segment's generation, "not allocated" exactly on the free
    ///   indices, and "from-space" exactly on the segments a suspended
    ///   collection will reclaim — on none between collections;
    /// * a suspended collection holds no to-space window (its windows
    ///   live inside one advance, so `SegInfo::used` is every watermark);
    /// * protected-list entries satisfy the generation invariants
    ///   (an entry on `protected[i]` watches an object in generation ≥ i
    ///   via a tconc, and with an agent, in generation ≥ i), which is
    ///   what makes the paper's
    ///   per-generation lists sound.
    ///
    /// It is one walk whether or not a collection is suspended between
    /// increments. While one is, the stop-the-world invariants do not all
    /// hold, and each of these is relaxed where the walk says so:
    ///
    /// * from-space segments are not walked (copied objects carry broken
    ///   hearts in word 0 and are reclaimed wholesale at the end), their
    ///   dirty flags and card marks die with them, and a pointer into
    ///   them may find its referent already copied — a forwarding mark
    ///   where the header was;
    /// * **barrier coverage**: a from-space pointer in a *strong* field
    ///   of a walked segment is sound only if the collector's remaining
    ///   work (`Scratch::covered`) will re-visit it — its segment is
    ///   queued, parked or in the remembered-set snapshot, or the slot is
    ///   in the store log — otherwise terminal reclaim would leave
    ///   it dangling. Weak cars are exempt (the terminal weak pass settles
    ///   them);
    /// * remembered-set completeness is owed for pointers that do not
    ///   lead into the from-space (those are the coverage check's) out
    ///   of strong segments (a drained weak-pair segment is all-clean
    ///   until the terminal weak pass re-marks it), and a dirty flag may
    ///   be backed by the collection's remembered-set snapshot instead of
    ///   the table's dirty index;
    /// * roots and protected entries may hold from-space pointers (roots
    ///   are re-forwarded at every increment; weak slots and guardian
    ///   entries are settled by the terminal increment), and the protected
    ///   generation bounds —
    ///   re-established by the terminal guardian pass — are skipped.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    ///
    /// [`SegmentTable::check_free_store`]: guardians_segments::SegmentTable::check_free_store
    /// [`SegmentTable::check_whereabouts`]: guardians_segments::SegmentTable::check_whereabouts
    pub fn verify(&self) -> Result<(), VerifyError> {
        self.segs
            .check_free_store()
            .map_err(|e| VerifyError::new(format!("segment free store: {e}")))?;
        // The collection suspended between increments, if there is one. Its
        // to-space windows live inside one advance: every watermark read
        // below is `SegInfo::used`.
        let cycle = self.incremental.as_deref();
        if cycle.is_some_and(|st| !st.holds_no_window()) {
            return Err(VerifyError::new(
                "the suspended collection holds a to-space window between increments",
            ));
        }
        // First, because every check below tests from-space membership
        // with it.
        self.segs
            .check_whereabouts(cycle.map_or(&[], |st| &st.from_heads))
            .map_err(|e| VerifyError::new(format!("whereabouts table: {e}")))?;
        self.roots
            .check(&self.segs, cycle.map(|s| s.g))
            .map_err(|e| VerifyError::new(format!("root table: {e}")))?;

        // 1. Per-segment object walks (mid-cycle: not of the from-space).
        for (seg, info) in self.segs.iter() {
            if !info.is_head() || self.segs.in_from_space(seg) {
                continue;
            }
            // Mid-cycle: a drained weak-pair segment owes no card marks.
            let remset_owed = cycle.is_none() || info.space != Space::WeakPair;
            let base = self.segs.base_addr(seg);
            let used = info.used as usize;
            let mut off = 0;
            while off < used {
                match info.space {
                    Space::Pair | Space::WeakPair => {
                        // Weak cars are values too (forwarded or #f).
                        for (i, what) in ["car", "cdr"].into_iter().enumerate() {
                            let slot = base.add(off + i);
                            let v = Value(self.segs.word(slot));
                            let weak_car = i == 0 && info.space == Space::WeakPair;
                            self.check_field(cycle, v, slot, weak_car, what)?;
                            if remset_owed {
                                self.check_remembered(seg, off + i, v)?;
                            }
                        }
                        off += 2;
                    }
                    Space::Typed | Space::Pure => {
                        let word = self.segs.word(base.add(off));
                        let header = Header::decode(word).ok_or_else(|| {
                            VerifyError::new(format!(
                                "bad header {word:#x} at {seg:?}+{off} (space {:?})",
                                info.space
                            ))
                        })?;
                        for i in 0..header.traced_words() {
                            let slot = base.add(off + 1 + i);
                            let v = Value(self.segs.word(slot));
                            self.check_field(cycle, v, slot, false, "object field")?;
                            self.check_remembered(seg, off + 1 + i, v)?;
                        }
                        off += header.total_words();
                    }
                }
            }
            if off != used {
                return Err(VerifyError::new(format!(
                    "object walk of {seg:?} overshot: used={used}, walked to {off}"
                )));
            }
        }

        // 2. Dirty-index coherence: every allocated segment whose dirty
        // flag is set must be present in the table's dirty index, or the
        // remembered-set scan would miss it. (The index may also hold
        // stale or duplicate entries; those are harmless by design.)
        // Mid-cycle the flip's dirty snapshot (the unscanned tail of
        // `remset_pending`) stands in for index membership — those
        // segments keep their flags until scanned — and from-space flags
        // are left to die with the segment at the terminal reclaim.
        for (seg, info) in self.segs.iter() {
            if info.dirty
                && !self.segs.in_from_space(seg)
                && !self.segs.dirty_index().contains(&seg)
                && !cycle.is_some_and(|st| st.remset_pending.as_slice().contains(&seg))
            {
                return Err(VerifyError::new(format!(
                    "{seg:?} is dirty but missing from the dirty index (and, mid-cycle, \
                     from the suspended collection's remembered-set snapshot)"
                )));
            }
        }
        self.check_card_summary()?;

        // 3. Roots, strong and weak. The roots phase never visits a weak
        // slot, so this is what catches one left dangling; outside a
        // collection no segment is from-space (the whereabouts check).
        for v in self.roots.values() {
            self.check_value(v, "root")?;
        }
        for v in self.roots.weak_values() {
            self.check_value(v, "weak root")?;
        }

        // 4. Protected lists. The generation bounds are the terminal
        // guardian pass's to re-establish, so they are checked only
        // between collections.
        for (i, list) in self.protected.iter().enumerate() {
            for e in list {
                self.check_value(e.obj, "guarded object")?;
                self.check_value(e.rep, "guardian representative")?;
                self.check_value(e.tconc, "guardian tconc")?;
                if !e.tconc.is_pair_ptr() {
                    return Err(VerifyError::new(format!(
                        "tconc is not a pair: {:?}",
                        e.tconc
                    )));
                }
                if cycle.is_some() {
                    continue;
                }
                for (what, v) in [("object", e.obj), ("agent", e.rep), ("tconc", e.tconc)] {
                    if let Some(gen) = self.generation_of(v) {
                        if (gen as usize) < i {
                            return Err(VerifyError::new(format!(
                                "protected[{i}] {what} lives in younger generation {gen}"
                            )));
                        }
                    }
                }
            }
        }

        Ok(())
    }

    /// One traced field of a walked segment, at `slot`: a valid value, and
    /// mid-cycle barrier coverage — a from-space pointer in a strong field
    /// must be covered by the suspended collection's outstanding work.
    fn check_field(
        &self,
        cycle: Option<&Scratch>,
        v: Value,
        slot: WordAddr,
        weak_car: bool,
        what: &str,
    ) -> Result<(), VerifyError> {
        if let Some(st) = cycle {
            if !weak_car
                && v.is_ptr()
                && self.segs.in_from_space(v.addr().seg())
                && !st.covered(self, slot)
            {
                return Err(VerifyError::new(format!(
                    "{what} at {slot:?} holds a from-space pointer {v:?} but neither \
                     its segment nor the slot is in the suspended collection's work \
                     lists (write-barrier coverage violation)"
                )));
            }
        }
        self.check_value(v, what)
    }

    /// Remembered-set completeness for one (already value-checked) field:
    /// `v` sits at word `word` of the run headed by `holder`. If it points
    /// into a generation younger than the holder's, its card must carry a
    /// lower bound on that generation and the run must be flagged dirty.
    /// Pointers into the from-space of a suspended collection are the
    /// coverage check's business and are skipped.
    fn check_remembered(&self, holder: SegIndex, word: usize, v: Value) -> Result<(), VerifyError> {
        if !v.is_ptr() || self.segs.in_from_space(v.addr().seg()) {
            return Ok(());
        }
        let info = self.segs.info(holder);
        let young = self.segs.info(v.addr().seg()).generation;
        if young >= info.generation {
            return Ok(());
        }
        let card = self.segs.run_cards(holder)[word / CARD_WORDS];
        if card > young || !info.dirty {
            return Err(VerifyError::new(format!(
                "{holder:?}+{word} (generation {}) points into generation {young} but its \
                 card reads {card} and its run's dirty flag is {} (remembered-set hole)",
                info.generation, info.dirty
            )));
        }
        Ok(())
    }

    /// The card table's summary invariants: a card that is not clean
    /// belongs to a run whose head is flagged dirty, and generation-0
    /// segments — every fresh or recycled segment starts as one or as
    /// to-space — never have one. The from-space of a suspended collection
    /// is exempt: its marks die with it.
    fn check_card_summary(&self) -> Result<(), VerifyError> {
        for (seg, info) in self.segs.iter() {
            if !info.is_head() || self.segs.in_from_space(seg) {
                continue;
            }
            let marked = self.segs.run_cards(seg).iter().any(|&c| c != CARD_CLEAN);
            if marked && (!info.dirty || info.generation == 0) {
                return Err(VerifyError::new(format!(
                    "{seg:?} (generation {}) has a card that is not clean but its dirty \
                     flag is {}",
                    info.generation, info.dirty
                )));
            }
        }
        Ok(())
    }

    /// A well-formed value whose referent, if it has one, is a live
    /// object of the matching space. Mid-cycle a from-space referent may
    /// already have been copied: its first word is then a forwarding mark
    /// (readers chase the broken heart). From-space `used` watermarks are
    /// frozen at the flip, so the range checks stay exact.
    fn check_value(&self, v: Value, what: &str) -> Result<(), VerifyError> {
        if fwd::decode(v.raw()).is_some() {
            return Err(VerifyError::new(format!(
                "{what} holds a forwarding mark: {:#x}",
                v.raw()
            )));
        }
        if Header::decode(v.raw()).is_some() {
            return Err(VerifyError::new(format!(
                "{what} holds a header word: {:#x}",
                v.raw()
            )));
        }
        if v.raw() & TAG_MASK == 0b101 || v.raw() & TAG_MASK == 0b110 {
            return Err(VerifyError::new(format!(
                "{what} holds an undefined tag: {:#x}",
                v.raw()
            )));
        }
        if !v.is_ptr() {
            return Ok(());
        }
        let addr = v.addr();
        let Some(info) = self.segs.try_info(addr.seg()) else {
            return Err(VerifyError::new(format!(
                "{what} points into a freed segment: {v:?}"
            )));
        };
        match info.kind {
            SegKind::Head => {
                if addr.offset() >= info.used as usize {
                    return Err(VerifyError::new(format!(
                        "{what} points past the used region: {v:?} (used {})",
                        info.used
                    )));
                }
            }
            SegKind::Tail { .. } => {
                return Err(VerifyError::new(format!(
                    "{what} points into the middle of a large object run: {v:?}"
                )));
            }
        }
        match info.space {
            Space::Pair | Space::WeakPair => {
                if !v.is_pair_ptr() {
                    return Err(VerifyError::new(format!(
                        "{what}: non-pair pointer into a pair space: {v:?}"
                    )));
                }
                if !addr.offset().is_multiple_of(2) {
                    return Err(VerifyError::new(format!("{what}: misaligned pair: {v:?}")));
                }
            }
            Space::Typed | Space::Pure => {
                if !v.is_obj_ptr() {
                    return Err(VerifyError::new(format!(
                        "{what}: pair pointer into an object space: {v:?}"
                    )));
                }
                let w = self.segs.word(addr);
                let copied = fwd::decode(w).is_some() && self.segs.in_from_space(addr.seg());
                if Header::decode(w).is_none() && !copied {
                    return Err(VerifyError::new(format!(
                        "{what}: typed pointer does not target a header: {v:?}"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_heap_verifies() {
        let h = Heap::default();
        h.verify().expect("empty heap is valid");
    }

    #[test]
    fn populated_heap_verifies() {
        let mut h = Heap::default();
        let s = h.make_string("hello");
        let v = h.make_vector(3, s);
        let p = h.cons(v, Value::NIL);
        let _root = h.root(p);
        let w = h.weak_cons(p, Value::NIL);
        let _root2 = h.root(w);
        let g = h.make_guardian();
        g.register(&mut h, p);
        h.verify().expect("well-formed heap");
    }

    #[test]
    fn corruption_is_detected() {
        let mut h = Heap::default();
        let p = h.cons(Value::NIL, Value::NIL);
        let _root = h.root(p);
        // Smash the car with a raw forwarding-tagged word.
        h.segs.set_word(p.addr(), 0b111);
        let err = h.verify().expect_err("must detect the forwarding mark");
        assert!(err.to_string().contains("forwarding mark"), "got: {err}");
    }

    #[test]
    fn whereabouts_incoherence_is_detected() {
        let expect = |h: &Heap, needle: &str| {
            let err = h.verify().expect_err("must detect the whereabouts byte");
            assert!(err.to_string().contains(needle), "got: {err}");
        };
        let mut h = Heap::new(crate::GcConfig {
            pause_budget: Some(std::time::Duration::ZERO),
            ..crate::GcConfig::new()
        });
        let old = h.cons(Value::NIL, Value::NIL);
        let root = h.root(old);
        h.collect(0);
        let old_seg = root.get().addr().seg();
        let young = h.cons(Value::NIL, Value::NIL);
        let _young_root = h.root(young);
        h.verify().expect("coherent between collections");
        // Between collections: a byte that is not the generation, and a
        // from-space byte with no collection suspended.
        h.segs.info_mut(old_seg).generation = 2;
        expect(&h, "has whereabouts byte 1 where 2 is due");
        h.segs.info_mut(old_seg).generation = 1;
        h.segs.enter_from_space(old_seg);
        expect(&h, "has whereabouts byte 254 where 1 is due");
        // Mid-cycle the same byte is wrong on a segment the suspended
        // collection will not reclaim, and right on the ones it will.
        let mut h = Heap::new(h.config().clone());
        let old = h.cons(Value::NIL, Value::NIL);
        let root = h.root(old);
        h.collect(0);
        let young = h.cons(Value::NIL, Value::NIL);
        let _young_root = h.root(young);
        h.begin_incremental(0);
        h.verify().expect("coherent mid-cycle");
        assert!(h.segs.in_from_space(young.addr().seg()));
        h.segs.enter_from_space(root.get().addr().seg());
        expect(&h, "has whereabouts byte 254 where 1 is due");
    }

    #[test]
    fn dangling_pointer_is_detected() {
        let mut h = Heap::default();
        let p = h.cons(Value::NIL, Value::NIL);
        // A pointer far outside any allocated segment.
        let bogus = Value::pair_at(guardians_segments::WordAddr::new(
            guardians_segments::SegIndex(900),
            0,
        ));
        h.set_car(p, bogus);
        let _root = h.root(p);
        let err = h.verify().expect_err("must detect the dangling pointer");
        assert!(err.to_string().contains("freed segment"), "got: {err}");
    }
}
