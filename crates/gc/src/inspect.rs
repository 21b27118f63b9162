//! Heap introspection: human-readable summaries and test hooks, for
//! diagnostics, tests, and the experiment harness. Per-generation
//! occupancy is the [census](crate::HeapCensus).

use crate::heap::Heap;
use crate::stats::CollectionReport;
use crate::value::Value;
use guardians_segments::CARD_WORDS;
use std::fmt;

impl Heap {
    /// Test support: re-does the write barrier for a store into
    /// `container` the card-oblivious way — every card of the run it
    /// lives in is marked — which is the reference the card-precise
    /// barrier is property-tested against.
    #[doc(hidden)]
    pub fn remember_whole_run(&mut self, container: Value) {
        let seg = self.resolve_read(container).addr().seg();
        if self.segs.info(seg).generation > 0 {
            self.segs.mark_dirty(seg);
        }
    }

    /// Test support: the card byte covering word `word` of `v` (a pair's
    /// car is word 0), for an object that starts in a run's head segment —
    /// `u8::MAX` is clean, anything else a lower bound on the youngest
    /// generation the card points to.
    #[doc(hidden)]
    pub fn card_byte(&self, v: Value, word: usize) -> u8 {
        let addr = self.resolve_read(v).addr();
        self.segs.run_cards(addr.seg())[(addr.offset() + word) / CARD_WORDS]
    }

    /// Test support: resets every root slot's generation stamp to 0, weak
    /// slots included, so the next collection visits every root — the
    /// unfiltered reference the stamp filter is property-tested against.
    #[doc(hidden)]
    pub fn zero_root_stamps(&mut self) {
        self.roots.zero_stamps();
    }

    /// A multi-line textual summary of the heap's current shape: a
    /// header line, then one [census](Heap::census) line per generation.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "heap: {} segments ({} KB), {} collections",
            self.segs.segments_allocated(),
            self.capacity_bytes() / 1024,
            self.collections
        );
        for census in self.census().generations {
            let _ = writeln!(
                s,
                "  gen {}: {:>5} segs, {:>9} words live ({} pairs / {} weak / {} objects), {} guarded entries",
                census.generation,
                census.segments,
                census.words(),
                census.pairs,
                census.weak_pairs,
                census.objects(),
                census.protected_entries
            );
        }
        s
    }
}

impl fmt::Display for CollectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gc#{}: gen {}→{}, copied {} words ({} pairs, {} objects), \
             roots {}+{} (traced/retraced), dirty segs {} ({} cards), guardians {}/{}/{} (visited/finalized/held), \
             weak {}+{} (fwd/broken), {}us",
            self.collection_index,
            self.collected_generation,
            self.target_generation,
            self.words_copied,
            self.pairs_copied,
            self.objects_copied,
            self.roots_traced,
            self.roots_retraced,
            self.dirty_segments_scanned,
            self.dirty_cards_scanned,
            self.guardian_entries_visited,
            self.guardian_entries_finalized,
            self.guardian_entries_held,
            self.weak_cars_forwarded,
            self.weak_cars_broken,
            self.duration.as_micros()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_tracks_aging() {
        let mut h = Heap::default();
        let mut list = Value::NIL;
        for i in 0..1000 {
            list = h.cons(Value::fixnum(i), list);
        }
        let r = h.root(list);
        let g = h.make_guardian();
        g.register(&mut h, r.get());

        let census = h.census().generations;
        assert!(census[0].words() >= 2000, "young data present");
        assert_eq!(census[1].words(), 0);
        assert_eq!(census[0].protected_entries, 1);

        h.collect(0);
        let census = h.census().generations;
        assert_eq!(census[0].words(), 0, "young space emptied");
        assert!(census[1].words() >= 2000, "data promoted to gen 1");
        assert_eq!(
            census[1].protected_entries, 1,
            "entry parked with its object"
        );
        assert_eq!(census[0].protected_entries, 0);
    }

    #[test]
    fn weak_words_are_counted_separately() {
        let mut h = Heap::default();
        let w = h.weak_cons(Value::NIL, Value::NIL);
        let _r = h.root(w);
        let census = h.census().generations;
        assert_eq!((census[0].pairs, census[0].weak_pairs), (0, 1));
    }

    #[test]
    fn dump_and_report_display_are_informative() {
        let mut h = Heap::default();
        let x = h.cons(Value::NIL, Value::NIL);
        let _r = h.root(x);
        h.collect(0);
        let dump = h.dump();
        assert!(dump.contains("gen 0:"), "{dump}");
        assert!(dump.contains("gen 3:"), "{dump}");
        let line = h.last_report().unwrap().to_string();
        assert!(line.contains("gen 0→1"), "{line}");
        assert!(line.contains("copied"), "{line}");
    }
}
