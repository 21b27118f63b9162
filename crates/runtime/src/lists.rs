//! Scheme list utilities over the heap: construction, traversal, and the
//! `assq`/`remq`/`memq` family that Figure 1's guarded hash table uses.

use guardians_gc::{Heap, Value};

/// Builds a proper list from a slice of values.
pub fn list(heap: &mut Heap, items: &[Value]) -> Value {
    let mut out = Value::NIL;
    for &v in items.iter().rev() {
        out = heap.cons(v, out);
    }
    out
}

/// Collects a proper list into a vector.
///
/// # Panics
///
/// Panics if `v` is not a proper list; never returns if it is circular.
pub fn list_to_vec(heap: &Heap, mut v: Value) -> Vec<Value> {
    let mut out = Vec::new();
    while !v.is_nil() {
        out.push(heap.car(v));
        v = heap.cdr(v);
    }
    out
}

/// List length.
///
/// # Panics
///
/// Panics if `v` is not a proper list; never returns if it is circular.
pub fn length(heap: &Heap, mut v: Value) -> usize {
    let mut n = 0;
    while !v.is_nil() {
        n += 1;
        v = heap.cdr(v);
    }
    n
}

/// Reverses a proper list (fresh pairs).
///
/// # Panics
///
/// Panics if `v` is not a proper list; never returns if it is circular.
pub fn reverse(heap: &mut Heap, mut v: Value) -> Value {
    let mut out = Value::NIL;
    while !v.is_nil() {
        let car = heap.car(v);
        out = heap.cons(car, out);
        v = heap.cdr(v);
    }
    out
}

/// Appends two proper lists (copying the first).
///
/// # Panics
///
/// Panics if `a` is not a proper list; never returns if it is circular.
pub fn append(heap: &mut Heap, a: Value, b: Value) -> Value {
    let items = list_to_vec(heap, a);
    let mut out = b;
    for &v in items.iter().rev() {
        out = heap.cons(v, out);
    }
    out
}

/// `memq`: the first tail of `ls` whose car is `x` (by `eq?`), or `#f`.
///
/// # Panics
///
/// Panics if the walk reaches an end of `ls` that is not `()`; never
/// returns if `ls` is circular and holds no match.
pub fn memq(heap: &Heap, x: Value, mut ls: Value) -> Value {
    while !ls.is_nil() {
        if heap.car(ls) == x {
            return ls;
        }
        ls = heap.cdr(ls);
    }
    Value::FALSE
}

/// `assq`: the first pair in the association list `ls` whose car is `x`
/// (by `eq?`), or `#f`. Works over weak pairs too (Figure 1 relies on
/// this: "weak pairs ... manipulated using normal list processing
/// operations, car, cdr, pair?, map, etc.").
///
/// # Panics
///
/// Panics if the walk reaches an end of `ls` that is not `()`; never
/// returns if `ls` is circular and holds no match.
pub fn assq(heap: &Heap, x: Value, mut ls: Value) -> Value {
    while !ls.is_nil() {
        let entry = heap.car(ls);
        if heap.is_pair(entry) && heap.car(entry) == x {
            return entry;
        }
        ls = heap.cdr(ls);
    }
    Value::FALSE
}

/// `remq`: a copy of `ls` with every element `eq?` to `x` removed.
///
/// # Panics
///
/// Panics if `ls` is not a proper list; never returns if it is circular.
pub fn remq(heap: &mut Heap, x: Value, ls: Value) -> Value {
    let items = list_to_vec(heap, ls);
    let mut out = Value::NIL;
    for &v in items.iter().rev() {
        if v != x {
            out = heap.cons(v, out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(n: i64) -> Value {
        Value::fixnum(n)
    }

    #[test]
    fn list_round_trip() {
        let mut h = Heap::default();
        let l = list(&mut h, &[fx(1), fx(2), fx(3)]);
        assert_eq!(length(&h, l), 3);
        assert_eq!(list_to_vec(&h, l), vec![fx(1), fx(2), fx(3)]);
        assert_eq!(list_to_vec(&h, Value::NIL), Vec::<Value>::new());
    }

    #[test]
    fn reverse_and_append() {
        let mut h = Heap::default();
        let l = list(&mut h, &[fx(1), fx(2), fx(3)]);
        let r = reverse(&mut h, l);
        assert_eq!(list_to_vec(&h, r), vec![fx(3), fx(2), fx(1)]);
        let l2 = list(&mut h, &[fx(4)]);
        let both = append(&mut h, l, l2);
        assert_eq!(list_to_vec(&h, both), vec![fx(1), fx(2), fx(3), fx(4)]);
        // Appending shares the tail.
        assert_eq!(heap_tail(&h, both, 3), l2);
    }

    fn heap_tail(h: &Heap, mut v: Value, n: usize) -> Value {
        for _ in 0..n {
            v = h.cdr(v);
        }
        v
    }

    #[test]
    fn memq_assq_remq() {
        let mut h = Heap::default();
        let key1 = h.make_symbol("k1");
        let key2 = h.make_symbol("k2");
        let e1 = h.cons(key1, fx(10));
        let e2 = h.cons(key2, fx(20));
        let al = list(&mut h, &[e1, e2]);

        assert_eq!(assq(&h, key1, al), e1);
        assert_eq!(assq(&h, key2, al), e2);
        let other = h.make_symbol("k1"); // different symbol, same name
        assert_eq!(assq(&h, other, al), Value::FALSE, "assq is eq?, not equal?");

        assert_eq!(memq(&h, e2, al), h.cdr(al));
        assert_eq!(memq(&h, fx(99), al), Value::FALSE);

        let without = remq(&mut h, e1, al);
        assert_eq!(list_to_vec(&h, without), vec![e2]);
        assert_eq!(list_to_vec(&h, al), vec![e1, e2], "remq copies");
    }

    #[test]
    fn assq_over_weak_pairs() {
        let mut h = Heap::default();
        let key = h.cons(fx(1), Value::NIL);
        let entry = h.weak_cons(key, fx(42));
        let bucket = list(&mut h, &[entry]);
        assert_eq!(assq(&h, key, bucket), entry);
        assert_eq!(h.cdr(assq(&h, key, bucket)), fx(42));
    }
}
