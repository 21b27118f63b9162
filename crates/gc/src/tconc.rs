//! The tconc queue (paper Figures 2–4).
//!
//! "Although guardians are procedures at the user level, internally they
//! are represented as a form of queue called a *tconc* … a tconc consists
//! of a list and a header; the header is an ordinary pair whose car field
//! points to the first cell in the list and whose cdr field points to the
//! last cell in the list."
//!
//! The collector appends to the rear (Figure 3) and the mutator removes
//! from the front (Figure 4). The write protocols are ordered so that
//! neither side needs a critical section: the collector publishes a new
//! element by updating the header's cdr *last*, and the mutator only ever
//! writes the header's car. The interleaving tests in this module (and the
//! E2 experiment) check every cut point of the append against a concurrent
//! pop.
//!
//! This module is the mutator's side: [`Heap::tconc_append`] is the same
//! protocol through the barriered accessors. The collector's append, one
//! chain per tconc per round with its own exact card stamps, is
//! `collect::guardian_pass::append_all`.

use crate::heap::Heap;
use crate::value::Value;

impl Heap {
    /// Creates an empty tconc: `(let ([z (cons #f '())]) (cons z z))`.
    ///
    /// "An empty tconc is one in which both fields of the header point to
    /// the same pair; what the fields of this pair contain is unimportant."
    pub fn make_tconc(&mut self) -> Value {
        let z = self.cons(Value::FALSE, Value::NIL);
        self.cons(z, z)
    }

    /// Whether the tconc holds no elements (`eq?` of header car and cdr).
    pub fn tconc_is_empty(&self, tc: Value) -> bool {
        self.car(tc) == self.cdr(tc)
    }

    /// Removes and returns the front element (Figure 4), or `None` if the
    /// tconc is empty. Matches the paper's `make-guardian` retrieval code,
    /// including nulling the popped pair's fields: "since the pair is
    /// sometimes in an older generation than the objects to which it
    /// points, maintaining these pointers after they are no longer needed
    /// may result in unnecessary storage retention."
    pub fn tconc_pop(&mut self, tc: Value) -> Option<Value> {
        if self.tconc_is_empty(tc) {
            return None;
        }
        let x = self.car(tc);
        let y = self.car(x);
        let rest = self.cdr(x);
        self.set_car(tc, rest);
        self.set_car(x, Value::FALSE);
        self.set_cdr(x, Value::FALSE);
        self.stats.guardian_polls += 1;
        Some(y)
    }

    /// Appends `obj` to the rear of the tconc (Figure 3) from the mutator:
    /// the new last pair is consed normally and every store passes the
    /// write barrier, in Figure 3's order (header cdr last). The collector
    /// appends through its own store path (`collect::guardian_pass`).
    pub fn tconc_append(&mut self, tc: Value, obj: Value) {
        let p = self.cons(Value::FALSE, Value::FALSE);
        let old_last = self.cdr(tc);
        self.set_car(old_last, obj);
        self.set_cdr(old_last, p);
        // Final, publishing update: only now can the mutator see the
        // element (its test is `car(tc) != cdr(tc)`).
        self.set_cdr(tc, p);
        self.trace_emit(|| crate::trace::GcEvent::TconcAppend {
            during_collection: false,
        });
    }

    /// Number of elements currently in the tconc (walks the list).
    pub fn tconc_len(&self, tc: Value) -> usize {
        let mut n = 0;
        let mut cur = self.car(tc);
        let last = self.cdr(tc);
        while cur != last {
            n += 1;
            cur = self.cdr(cur);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tconc_is_empty() {
        let mut h = Heap::default();
        let tc = h.make_tconc();
        assert!(h.tconc_is_empty(tc));
        assert_eq!(h.tconc_len(tc), 0);
        assert_eq!(h.tconc_pop(tc), None);
    }

    #[test]
    fn fifo_order() {
        let mut h = Heap::default();
        let tc = h.make_tconc();
        for i in 0..5 {
            h.tconc_append(tc, Value::fixnum(i));
        }
        assert_eq!(h.tconc_len(tc), 5);
        for i in 0..5 {
            assert_eq!(h.tconc_pop(tc), Some(Value::fixnum(i)));
        }
        assert!(h.tconc_is_empty(tc));
    }

    #[test]
    fn interleaved_append_and_pop() {
        let mut h = Heap::default();
        let tc = h.make_tconc();
        h.tconc_append(tc, Value::fixnum(1));
        assert_eq!(h.tconc_pop(tc), Some(Value::fixnum(1)));
        h.tconc_append(tc, Value::fixnum(2));
        h.tconc_append(tc, Value::fixnum(3));
        assert_eq!(h.tconc_pop(tc), Some(Value::fixnum(2)));
        h.tconc_append(tc, Value::fixnum(4));
        assert_eq!(h.tconc_pop(tc), Some(Value::fixnum(3)));
        assert_eq!(h.tconc_pop(tc), Some(Value::fixnum(4)));
        assert_eq!(h.tconc_pop(tc), None);
    }

    #[test]
    fn polls_are_counted_in_heap_stats() {
        let mut h = Heap::default();
        let tc = h.make_tconc();
        h.tconc_append(tc, Value::fixnum(1));
        assert_eq!(h.stats().guardian_polls, 0);
        h.tconc_pop(tc);
        assert_eq!(h.stats().guardian_polls, 1);
        h.tconc_pop(tc); // empty: not counted
        assert_eq!(h.stats().guardian_polls, 1);
    }

    #[test]
    fn popped_pair_fields_are_cleared() {
        // The don't-care fields must be nulled to avoid retaining dead
        // objects through old-generation pairs (paper, Figure 4 text).
        let mut h = Heap::default();
        let tc = h.make_tconc();
        let first_cell = h.car(tc);
        h.tconc_append(tc, Value::fixnum(42));
        assert_eq!(h.car(first_cell), Value::fixnum(42));
        h.tconc_pop(tc);
        assert_eq!(h.car(first_cell), Value::FALSE);
        assert_eq!(h.cdr(first_cell), Value::FALSE);
    }

    /// The "no critical section" property, single-threaded analogue: cut
    /// the append protocol after each atomic write and check a concurrent
    /// pop never observes a torn queue.
    #[test]
    fn append_cut_at_every_step_is_safe() {
        for cut in 0..=3 {
            let mut h = Heap::default();
            let tc = h.make_tconc();
            h.tconc_append(tc, Value::fixnum(7)); // one existing element
            let p = h.cons(Value::FALSE, Value::FALSE);
            let old_last = h.cdr(tc);
            // The three writes of Figure 3, applied one at a time.
            if cut >= 1 {
                h.set_car(old_last, Value::fixnum(8));
            }
            if cut >= 2 {
                h.set_cdr(old_last, p);
            }
            if cut >= 3 {
                h.set_cdr(tc, p);
            }
            // Mutator runs at the cut point: it must see element 7, and
            // element 8 exactly when the publishing write has happened.
            assert_eq!(h.tconc_pop(tc), Some(Value::fixnum(7)), "cut={cut}");
            let second = h.tconc_pop(tc);
            if cut >= 3 {
                assert_eq!(second, Some(Value::fixnum(8)), "cut={cut}");
            } else {
                assert_eq!(
                    second, None,
                    "cut={cut}: unpublished element must be invisible"
                );
            }
        }
    }
}
