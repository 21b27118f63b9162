//! Typed accessors and the mutator write barrier.
//!
//! All dereferencing goes through the [`Heap`]. Accessors validate their
//! argument's type dynamically and panic with a descriptive message on
//! misuse (the Scheme layer checks predicates first and reports proper
//! Scheme errors).
//!
//! Every store of a value into a heap object passes the **write barrier**:
//! if the slot's segment belongs to an older generation, the slot's card
//! is marked (and its run flagged dirty) so the next collection's
//! remembered-set scan finds potential old→young pointers. With the
//! paper's promotion policy (collecting a generation collects all younger
//! ones too), mutation is the *only* source of old→young pointers, so the
//! marked cards are a complete remembered set.

use crate::header::{Header, ObjKind};
use crate::heap::{read_bytes, Heap};
use crate::value::{fwd, Value};
use guardians_segments::{Space, WordAddr};

impl Heap {
    // ------------------------------------------------------------------
    // Predicates
    // ------------------------------------------------------------------

    /// Whether `v` is a pair — ordinary *or* weak, matching the paper:
    /// "weak pairs are like normal pairs" and are manipulated with the
    /// normal list operations.
    #[inline]
    pub fn is_pair(&self, v: Value) -> bool {
        v.is_pair_ptr()
    }

    /// Whether `v` is a weak pair (determined by its segment's space, as
    /// in the paper's implementation — there is no per-object tag).
    pub fn is_weak_pair(&self, v: Value) -> bool {
        let v = self.resolve_read(v);
        v.is_pair_ptr() && self.segs.info(v.addr().seg()).space == Space::WeakPair
    }

    /// The kind of a typed heap object, or `None` for pairs, fixnums and
    /// immediates.
    pub fn kind_of(&self, v: Value) -> Option<ObjKind> {
        let v = self.resolve_read(v);
        if !v.is_obj_ptr() {
            return None;
        }
        Some(self.header_of(v).kind)
    }

    /// Whether `v` is a vector.
    pub fn is_vector(&self, v: Value) -> bool {
        self.kind_of(v) == Some(ObjKind::Vector)
    }

    /// Whether `v` is a string.
    pub fn is_string(&self, v: Value) -> bool {
        self.kind_of(v) == Some(ObjKind::String)
    }

    /// Whether `v` is a symbol.
    pub fn is_symbol(&self, v: Value) -> bool {
        self.kind_of(v) == Some(ObjKind::Symbol)
    }

    /// Whether `v` is a bytevector.
    pub fn is_bytevector(&self, v: Value) -> bool {
        self.kind_of(v) == Some(ObjKind::Bytevector)
    }

    /// Whether `v` is a box.
    pub fn is_box(&self, v: Value) -> bool {
        self.kind_of(v) == Some(ObjKind::Box)
    }

    /// Whether `v` is a flonum.
    pub fn is_flonum(&self, v: Value) -> bool {
        self.kind_of(v) == Some(ObjKind::Flonum)
    }

    /// Whether `v` is a record.
    #[inline]
    pub fn is_record(&self, v: Value) -> bool {
        self.kind_of(v) == Some(ObjKind::Record)
    }

    pub(crate) fn header_of(&self, v: Value) -> Header {
        debug_assert!(v.is_obj_ptr(), "not a typed object: {v:?}");
        Header::decode(self.segs.word(v.addr()))
            .unwrap_or_else(|| panic!("corrupt or stale object header at {:?}", v.addr()))
    }

    fn expect_kind(&self, v: Value, kind: ObjKind, op: &str) -> Header {
        assert!(v.is_obj_ptr(), "{op}: not a {kind:?}: {v:?}");
        let h = self.header_of(v);
        assert!(
            h.kind == kind,
            "{op}: expected {kind:?}, found {:?}",
            h.kind
        );
        h
    }

    // ------------------------------------------------------------------
    // Forwarded-on-read resolution (incremental collections)
    // ------------------------------------------------------------------

    /// Resolves a possibly-stale pointer while an incremental collection
    /// is suspended between increments. The mutator may legally hold
    /// from-space pointers then; every accessor funnels its pointer
    /// arguments through here, chasing the broken heart if the object has
    /// already been copied. Outside an incremental cycle (the common
    /// case) this is a single branch on `None`.
    ///
    /// Public for readers of slots the collector settles only at the end
    /// of a collection: a [`WeakRooted`](crate::WeakRooted) read between
    /// increments goes through here, as a car read does.
    #[inline]
    pub fn resolve_read(&self, v: Value) -> Value {
        if self.incremental.is_none() || !v.is_ptr() || !self.segs.in_from_space(v.addr().seg()) {
            return v;
        }
        match fwd::decode(self.segs.word(v.addr())) {
            Some(new) => v.retag_at(new),
            None => v,
        }
    }

    // ------------------------------------------------------------------
    // Write barrier
    // ------------------------------------------------------------------

    /// Marks the card of `slot` — a field of `container` that `stored`
    /// was just written to — if it lives in an older generation and
    /// `stored` is a heap pointer. Only the card's byte is set (to 0); the
    /// referent's generation is not looked up.
    ///
    /// While an incremental collection is suspended this is also the
    /// *collector's* write barrier, [`Heap::log_store`].
    #[inline]
    pub(crate) fn barrier(&mut self, container: Value, slot: WordAddr, stored: Value) {
        if !stored.is_ptr() {
            return;
        }
        self.segs.mark_card(slot);
        if self.incremental.is_some() {
            self.log_store(container, slot, stored);
        }
    }

    /// The mid-cycle arm of [`Heap::barrier`]: logs the store in the
    /// suspended collection's store log when `container` (resolved by the
    /// caller, so an unforwarded object) or `stored` is in the from-space.
    /// A from-space pointer may land in a slot an earlier increment already
    /// scanned, and a store into a from-space object travels with its copy
    /// while its card mark dies with the from-space; the next advance
    /// settles both (`collect::settle_stores`).
    #[cold]
    #[inline(never)]
    fn log_store(&mut self, container: Value, slot: WordAddr, stored: Value) {
        let Some(st) = self.incremental.as_mut() else {
            return;
        };
        if self.segs.in_from_space(container.addr().seg())
            || self.segs.in_from_space(stored.addr().seg())
        {
            st.stores
                .push((container, (slot.raw() - container.addr().raw()) as usize));
        }
    }

    // ------------------------------------------------------------------
    // Pairs
    // ------------------------------------------------------------------

    fn expect_pair(&self, v: Value, op: &str) {
        assert!(v.is_pair_ptr(), "{op}: not a pair: {v:?}");
    }

    /// The car of a pair. For a weak pair whose referent was reclaimed,
    /// this is `#f` (the paper's broken-pointer value).
    #[inline]
    pub fn car(&self, v: Value) -> Value {
        let v = self.resolve_read(v);
        self.expect_pair(v, "car");
        Value(self.segs.word(v.addr()))
    }

    /// The cdr of a pair.
    #[inline]
    pub fn cdr(&self, v: Value) -> Value {
        let v = self.resolve_read(v);
        self.expect_pair(v, "cdr");
        Value(self.segs.word(v.addr().add(1)))
    }

    /// Sets the car of a pair (barriered).
    pub fn set_car(&mut self, v: Value, x: Value) {
        let v = self.resolve_read(v);
        let x = self.resolve_read(x);
        self.expect_pair(v, "set-car!");
        self.segs.set_word(v.addr(), x.raw());
        self.barrier(v, v.addr(), x);
    }

    /// Sets the cdr of a pair (barriered).
    pub fn set_cdr(&mut self, v: Value, x: Value) {
        let v = self.resolve_read(v);
        let x = self.resolve_read(x);
        self.expect_pair(v, "set-cdr!");
        self.segs.set_word(v.addr().add(1), x.raw());
        self.barrier(v, v.addr().add(1), x);
    }

    // ------------------------------------------------------------------
    // Vectors
    // ------------------------------------------------------------------

    /// A vector's length.
    pub fn vector_len(&self, v: Value) -> usize {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Vector, "vector-length").len
    }

    /// Reads vector element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn vector_ref(&self, v: Value, i: usize) -> Value {
        let v = self.resolve_read(v);
        let h = self.expect_kind(v, ObjKind::Vector, "vector-ref");
        assert!(
            i < h.len,
            "vector-ref: index {i} out of range (len {})",
            h.len
        );
        Value(self.segs.word(v.addr().add(1 + i)))
    }

    /// Writes vector element `i` (barriered).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn vector_set(&mut self, v: Value, i: usize, x: Value) {
        let v = self.resolve_read(v);
        let x = self.resolve_read(x);
        let h = self.expect_kind(v, ObjKind::Vector, "vector-set!");
        assert!(
            i < h.len,
            "vector-set!: index {i} out of range (len {})",
            h.len
        );
        self.segs.set_word(v.addr().add(1 + i), x.raw());
        self.barrier(v, v.addr().add(1 + i), x);
    }

    // ------------------------------------------------------------------
    // Strings
    // ------------------------------------------------------------------

    /// A string's length in bytes.
    pub fn string_len(&self, v: Value) -> usize {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::String, "string-length").len
    }

    /// Copies a string's contents out as an owned `String`. Constructors
    /// and FFI-ish paths need the copy; length/comparison paths should
    /// use the borrowing [`Heap::string_bytes`] instead.
    pub fn string_value(&self, v: Value) -> String {
        let v = self.resolve_read(v);
        let h = self.expect_kind(v, ObjKind::String, "string-value");
        let bytes = read_bytes(&self.segs, v.addr().add(1), h.len);
        String::from_utf8(bytes).expect("heap strings are always valid UTF-8")
    }

    /// Iterates over a string's UTF-8 bytes straight out of segment
    /// storage — the borrowing accessor for length/comparison paths,
    /// allocating nothing. Byte-wise lexicographic comparison of UTF-8
    /// coincides with code-point order, so `string=?`/`string<?` can
    /// compare these iterators directly.
    pub fn string_bytes(&self, v: Value) -> impl Iterator<Item = u8> + '_ {
        let v = self.resolve_read(v);
        let h = self.expect_kind(v, ObjKind::String, "string-bytes");
        let payload = v.addr().add(1);
        let len = h.len;
        (0..len.div_ceil(8)).flat_map(move |i| {
            let word = self.segs.word(payload.add(i)).to_le_bytes();
            let take = (len - i * 8).min(8);
            word.into_iter().take(take)
        })
    }

    /// A string's length in characters (code points), counted in place
    /// with no copy: one count of non-continuation bytes.
    pub fn string_char_count(&self, v: Value) -> usize {
        self.string_bytes(v).filter(|b| b & 0xC0 != 0x80).count()
    }

    // ------------------------------------------------------------------
    // Symbols
    // ------------------------------------------------------------------

    /// A symbol's print name.
    pub fn symbol_name(&self, v: Value) -> String {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Symbol, "symbol-name");
        let name = Value(self.segs.word(v.addr().add(1)));
        self.string_value(name)
    }

    /// A symbol's extra slot (used by the runtime for property lists /
    /// top-level values). Initially `#f`.
    pub fn symbol_extra(&self, v: Value) -> Value {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Symbol, "symbol-extra");
        Value(self.segs.word(v.addr().add(2)))
    }

    /// Writes a symbol's extra slot (barriered).
    pub fn set_symbol_extra(&mut self, v: Value, x: Value) {
        let v = self.resolve_read(v);
        let x = self.resolve_read(x);
        self.expect_kind(v, ObjKind::Symbol, "set-symbol-extra!");
        self.segs.set_word(v.addr().add(2), x.raw());
        self.barrier(v, v.addr().add(2), x);
    }

    // ------------------------------------------------------------------
    // Bytevectors
    // ------------------------------------------------------------------

    /// A bytevector's length.
    pub fn bytevector_len(&self, v: Value) -> usize {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Bytevector, "bytevector-length")
            .len
    }

    /// Reads byte `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bytevector_ref(&self, v: Value, i: usize) -> u8 {
        let v = self.resolve_read(v);
        let h = self.expect_kind(v, ObjKind::Bytevector, "bytevector-ref");
        assert!(
            i < h.len,
            "bytevector-ref: index {i} out of range (len {})",
            h.len
        );
        let word = self.segs.word(v.addr().add(1 + i / 8));
        word.to_le_bytes()[i % 8]
    }

    /// Writes byte `i` (no barrier needed — bytes are not pointers).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bytevector_set(&mut self, v: Value, i: usize, byte: u8) {
        let v = self.resolve_read(v);
        let h = self.expect_kind(v, ObjKind::Bytevector, "bytevector-set!");
        assert!(
            i < h.len,
            "bytevector-set!: index {i} out of range (len {})",
            h.len
        );
        let addr = v.addr().add(1 + i / 8);
        let mut bytes = self.segs.word(addr).to_le_bytes();
        bytes[i % 8] = byte;
        self.segs.set_word(addr, u64::from_le_bytes(bytes));
    }

    /// Copies a bytevector's contents out.
    pub fn bytevector_value(&self, v: Value) -> Vec<u8> {
        let v = self.resolve_read(v);
        let h = self.expect_kind(v, ObjKind::Bytevector, "bytevector-value");
        read_bytes(&self.segs, v.addr().add(1), h.len)
    }

    // ------------------------------------------------------------------
    // Boxes
    // ------------------------------------------------------------------

    /// Reads a box.
    #[inline]
    pub fn box_ref(&self, v: Value) -> Value {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Box, "unbox");
        Value(self.segs.word(v.addr().add(1)))
    }

    /// Writes a box (barriered).
    #[inline]
    pub fn box_set(&mut self, v: Value, x: Value) {
        let v = self.resolve_read(v);
        let x = self.resolve_read(x);
        self.expect_kind(v, ObjKind::Box, "set-box!");
        self.segs.set_word(v.addr().add(1), x.raw());
        self.barrier(v, v.addr().add(1), x);
    }

    // ------------------------------------------------------------------
    // Flonums
    // ------------------------------------------------------------------

    /// A flonum's value.
    pub fn flonum_value(&self, v: Value) -> f64 {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Flonum, "flonum-value");
        f64::from_bits(self.segs.word(v.addr().add(1)))
    }

    // ------------------------------------------------------------------
    // Records
    // ------------------------------------------------------------------

    /// A record's descriptor value.
    #[inline]
    pub fn record_descriptor(&self, v: Value) -> Value {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Record, "record-descriptor");
        Value(self.segs.word(v.addr().add(1)))
    }

    /// Number of fields (excluding the descriptor).
    #[inline]
    pub fn record_len(&self, v: Value) -> usize {
        let v = self.resolve_read(v);
        self.expect_kind(v, ObjKind::Record, "record-length").len - 1
    }

    /// Reads record field `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn record_ref(&self, v: Value, i: usize) -> Value {
        let v = self.resolve_read(v);
        let h = self.expect_kind(v, ObjKind::Record, "record-ref");
        assert!(
            i + 1 < h.len,
            "record-ref: field {i} out of range (fields {})",
            h.len - 1
        );
        Value(self.segs.word(v.addr().add(2 + i)))
    }

    /// Writes record field `i` (barriered).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn record_set(&mut self, v: Value, i: usize, x: Value) {
        let v = self.resolve_read(v);
        let x = self.resolve_read(x);
        let h = self.expect_kind(v, ObjKind::Record, "record-set!");
        assert!(
            i + 1 < h.len,
            "record-set!: field {i} out of range (fields {})",
            h.len - 1
        );
        self.segs.set_word(v.addr().add(2 + i), x.raw());
        self.barrier(v, v.addr().add(2 + i), x);
    }

    /// Reads record field `i` with the dynamic kind/range checks demoted
    /// to debug assertions, for callers whose layout is *statically
    /// checked* — the bytecode VM's fixed frame layouts, where the Scheme
    /// analyzer's frame-slot check refused, at the single point that
    /// emits them, every (depth, slot) pair outside the frames in scope,
    /// and every frame with more inits than slots. Still resolves
    /// forwarded-on-read pointers, so it is safe across incremental
    /// collections. Misuse cannot break memory safety (segment reads stay
    /// bounds-checked); it returns a wrong word.
    #[inline]
    pub fn record_ref_audited(&self, v: Value, i: usize) -> Value {
        let v = self.resolve_read(v);
        debug_assert!(
            {
                let h = self.expect_kind(v, ObjKind::Record, "record-ref");
                i + 1 < h.len
            },
            "record-ref (audited): field {i} out of range"
        );
        Value(self.segs.word(v.addr().add(2 + i)))
    }

    /// Writes record field `i` under the checked-layout contract of
    /// [`Heap::record_ref_audited`] (the Scheme analyzer's frame-slot
    /// check). The write barrier always runs — only the kind/range checks
    /// are demoted to debug assertions.
    #[inline]
    pub fn record_set_audited(&mut self, v: Value, i: usize, x: Value) {
        let v = self.resolve_read(v);
        let x = self.resolve_read(x);
        debug_assert!(
            {
                let h = self.expect_kind(v, ObjKind::Record, "record-set!");
                i + 1 < h.len
            },
            "record-set! (audited): field {i} out of range"
        );
        self.segs.set_word(v.addr().add(2 + i), x.raw());
        self.barrier(v, v.addr().add(2 + i), x);
    }

    // ------------------------------------------------------------------
    // eqv?-style structural helpers
    // ------------------------------------------------------------------

    /// `eqv?`: pointer identity, plus value identity for fixnums,
    /// characters, immediates, and flonums.
    #[inline]
    pub fn eqv(&self, a: Value, b: Value) -> bool {
        // Resolve both sides so a stale from-space pointer and the
        // forwarded copy of the same object stay `eqv?` mid-cycle.
        let a = self.resolve_read(a);
        let b = self.resolve_read(b);
        if a == b {
            return true;
        }
        if self.is_flonum(a) && self.is_flonum(b) {
            return self.flonum_value(a).to_bits() == self.flonum_value(b).to_bits();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_car_into_young_pair_does_not_dirty() {
        let mut h = Heap::default();
        let p = h.cons(Value::NIL, Value::NIL);
        let q = h.cons(Value::NIL, Value::NIL);
        h.set_car(p, q);
        assert!(
            !h.segs.info(p.addr().seg()).dirty,
            "gen-0 writes need no barrier"
        );
    }

    #[test]
    #[should_panic(expected = "car: not a pair")]
    fn car_of_non_pair_panics() {
        let h = Heap::default();
        let _ = h.car(Value::fixnum(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vector_ref_bounds_checked() {
        let mut h = Heap::default();
        let v = h.make_vector(3, Value::NIL);
        let _ = h.vector_ref(v, 3);
    }

    #[test]
    #[should_panic(expected = "expected Vector")]
    fn kind_mismatch_panics() {
        let mut h = Heap::default();
        let s = h.make_string("not a vector");
        let _ = h.vector_ref(s, 0);
    }

    #[test]
    fn kind_of_classifies_everything() {
        let mut h = Heap::default();
        let cases = [
            (h.make_vector(1, Value::NIL), ObjKind::Vector),
            (h.make_string("s"), ObjKind::String),
            (h.make_symbol("s"), ObjKind::Symbol),
            (h.make_bytevector(1, 0), ObjKind::Bytevector),
            (h.make_box(Value::NIL), ObjKind::Box),
            (h.make_flonum(1.0), ObjKind::Flonum),
        ];
        for (v, kind) in cases {
            assert_eq!(h.kind_of(v), Some(kind));
        }
        let d = h.make_symbol("d");
        let r = h.make_record(d, &[]);
        assert_eq!(h.kind_of(r), Some(ObjKind::Record));
        let p = h.cons(Value::NIL, Value::NIL);
        assert_eq!(h.kind_of(p), None);
        assert_eq!(h.kind_of(Value::fixnum(1)), None);
    }

    #[test]
    fn eqv_distinguishes_identity_from_structure() {
        let mut h = Heap::default();
        let a = h.cons(Value::fixnum(1), Value::NIL);
        let b = h.cons(Value::fixnum(1), Value::NIL);
        assert!(h.eqv(a, a));
        assert!(!h.eqv(a, b), "structurally equal pairs are not eqv?");
        let f1 = h.make_flonum(2.5);
        let f2 = h.make_flonum(2.5);
        assert!(h.eqv(f1, f2), "equal flonums are eqv?");
        assert!(h.eqv(Value::fixnum(3), Value::fixnum(3)));
    }

    #[test]
    fn bytevector_edge_bytes() {
        let mut h = Heap::default();
        let bv = h.make_bytevector(9, 1);
        h.bytevector_set(bv, 7, 0xFE);
        h.bytevector_set(bv, 8, 0xFF);
        assert_eq!(h.bytevector_ref(bv, 7), 0xFE);
        assert_eq!(h.bytevector_ref(bv, 8), 0xFF);
        assert_eq!(
            h.bytevector_value(bv),
            vec![1, 1, 1, 1, 1, 1, 1, 0xFE, 0xFF]
        );
    }
}
