//! Primitive procedures.
//!
//! The set covers everything the paper's code uses (`cons`, `weak-cons`,
//! `make-guardian`, `assq`, `remq`, vectors, ports, `collect`, …) plus
//! enough of R7RS-small to write realistic programs.

use crate::error::{err, SResult};
use crate::interp::Interp;
use guardians_gc::{Heap, Value};
use guardians_runtime::lists;
use guardians_runtime::ports;
use guardians_runtime::printer::{display_value, write_value};
use guardians_runtime::rtags;

/// The signature every primitive implements.
pub(crate) type PrimFn = fn(&mut Interp, &[Value]) -> SResult<Value>;

/// Registry entry for a primitive.
pub(crate) struct PrimEntry {
    pub name: &'static str,
    pub func: PrimFn,
    pub min_args: usize,
    pub max_args: Option<usize>,
}

macro_rules! prims {
    ($(($name:literal, $func:expr, $min:expr, $max:expr)),* $(,)?) => {
        &[$(PrimEntry { name: $name, func: $func, min_args: $min, max_args: $max }),*]
    };
}

fn table() -> &'static [PrimEntry] {
    prims![
        // Pairs and lists
        ("cons", p_cons, 2, Some(2)),
        ("car", p_car, 1, Some(1)),
        ("cdr", p_cdr, 1, Some(1)),
        ("set-car!", p_set_car, 2, Some(2)),
        ("set-cdr!", p_set_cdr, 2, Some(2)),
        ("pair?", p_is_pair, 1, Some(1)),
        ("null?", p_is_null, 1, Some(1)),
        ("list", p_list, 0, None),
        ("length", p_length, 1, Some(1)),
        ("reverse", p_reverse, 1, Some(1)),
        ("append", p_append, 0, None),
        ("memq", p_memq, 2, Some(2)),
        ("memv", p_memv, 2, Some(2)),
        ("member", p_member, 2, Some(2)),
        ("assq", p_assq, 2, Some(2)),
        ("assv", p_assv, 2, Some(2)),
        ("assoc", p_assoc, 2, Some(2)),
        ("remq", p_remq, 2, Some(2)),
        ("list-ref", p_list_ref, 2, Some(2)),
        ("list-tail", p_list_tail, 2, Some(2)),
        ("list?", p_is_list, 1, Some(1)),
        ("caar", p_caar, 1, Some(1)),
        ("cadr", p_cadr, 1, Some(1)),
        ("cdar", p_cdar, 1, Some(1)),
        ("cddr", p_cddr, 1, Some(1)),
        ("caddr", p_caddr, 1, Some(1)),
        ("map", p_map, 2, None),
        ("for-each", p_for_each, 2, None),
        // Weak pairs
        ("weak-cons", p_weak_cons, 2, Some(2)),
        ("weak-pair?", p_is_weak_pair, 1, Some(1)),
        // Guardians and GC
        ("make-guardian", p_make_guardian, 0, Some(0)),
        ("guardian?", p_is_guardian, 1, Some(1)),
        ("collect", p_collect, 0, Some(1)),
        (
            "collect-request-handler",
            p_collect_request_handler,
            1,
            Some(1)
        ),
        ("collection-count", p_collection_count, 0, Some(0)),
        ("generation-of", p_generation_of, 1, Some(1)),
        // Numbers
        ("+", p_add, 0, None),
        ("-", p_sub, 1, None),
        ("*", p_mul, 0, None),
        ("=", p_num_eq, 2, None),
        ("<", p_lt, 2, None),
        (">", p_gt, 2, None),
        ("<=", p_le, 2, None),
        (">=", p_ge, 2, None),
        ("quotient", p_quotient, 2, Some(2)),
        ("remainder", p_remainder, 2, Some(2)),
        ("modulo", p_modulo, 2, Some(2)),
        ("zero?", p_is_zero, 1, Some(1)),
        ("even?", p_is_even, 1, Some(1)),
        ("odd?", p_is_odd, 1, Some(1)),
        ("number?", p_is_number, 1, Some(1)),
        ("abs", p_abs, 1, Some(1)),
        ("min", p_min, 1, None),
        ("max", p_max, 1, None),
        // Predicates
        ("eq?", p_eq, 2, Some(2)),
        ("eqv?", p_eqv, 2, Some(2)),
        ("equal?", p_equal, 2, Some(2)),
        ("not", p_not, 1, Some(1)),
        ("boolean?", p_is_boolean, 1, Some(1)),
        ("symbol?", p_is_symbol, 1, Some(1)),
        ("string?", p_is_string, 1, Some(1)),
        ("char?", p_is_char, 1, Some(1)),
        ("vector?", p_is_vector, 1, Some(1)),
        ("procedure?", p_is_procedure, 1, Some(1)),
        ("box?", p_is_box, 1, Some(1)),
        // Vectors
        ("make-vector", p_make_vector, 1, Some(2)),
        ("vector", p_vector, 0, None),
        ("vector-ref", p_vector_ref, 2, Some(2)),
        ("vector-set!", p_vector_set, 3, Some(3)),
        ("vector-length", p_vector_length, 1, Some(1)),
        // Strings, symbols, chars
        ("string-length", p_string_length, 1, Some(1)),
        ("string-append", p_string_append, 0, None),
        ("substring", p_substring, 3, Some(3)),
        ("string=?", p_string_eq, 2, Some(2)),
        ("string<?", p_string_lt, 2, Some(2)),
        ("char=?", p_char_eq, 2, Some(2)),
        ("vector->list", p_vector_to_list, 1, Some(1)),
        ("list->vector", p_list_to_vector, 1, Some(1)),
        ("symbol->string", p_symbol_to_string, 1, Some(1)),
        ("string->symbol", p_string_to_symbol, 1, Some(1)),
        ("number->string", p_number_to_string, 1, Some(1)),
        ("char->integer", p_char_to_integer, 1, Some(1)),
        ("integer->char", p_integer_to_char, 1, Some(1)),
        ("gensym", p_gensym, 0, Some(0)),
        ("string-hash", p_string_hash, 1, Some(1)),
        ("equal-hash", p_equal_hash, 1, Some(1)),
        // Records (used by the define-record-type expansion)
        ("%fresh-symbol", p_fresh_symbol, 1, Some(1)),
        ("%make-record", p_make_record, 1, None),
        ("%record-of-type?", p_record_of_type, 2, Some(2)),
        ("%record-ref", p_record_ref, 3, Some(3)),
        ("%record-set!", p_record_set, 4, Some(4)),
        // Boxes
        ("box", p_box, 1, Some(1)),
        ("unbox", p_unbox, 1, Some(1)),
        ("set-box!", p_set_box, 2, Some(2)),
        // I/O
        ("open-input-file", p_open_input_file, 1, Some(1)),
        ("open-output-file", p_open_output_file, 1, Some(1)),
        ("close-input-port", p_close_port, 1, Some(1)),
        ("close-output-port", p_close_port, 1, Some(1)),
        ("close-port", p_close_port, 1, Some(1)),
        ("flush-output-port", p_flush_output_port, 1, Some(1)),
        ("read-char", p_read_char, 1, Some(1)),
        ("write-char", p_write_char, 2, Some(2)),
        ("write-string", p_write_string, 2, Some(2)),
        ("port?", p_is_port, 1, Some(1)),
        ("input-port?", p_is_input_port, 1, Some(1)),
        ("output-port?", p_is_output_port, 1, Some(1)),
        ("port-open?", p_is_port_open, 1, Some(1)),
        ("eof-object?", p_is_eof, 1, Some(1)),
        ("eof-object", p_eof_object, 0, Some(0)),
        ("file-exists?", p_file_exists, 1, Some(1)),
        ("delete-file", p_delete_file, 1, Some(1)),
        ("display", p_display, 1, Some(2)),
        ("write", p_write, 1, Some(2)),
        ("newline", p_newline, 0, Some(1)),
        // Control
        ("apply", p_apply, 2, None),
        ("error", p_error, 1, None),
        ("void", p_void, 0, Some(0)),
    ]
}

/// Installs every primitive into the interpreter's global environment.
pub(crate) fn register_all(interp: &mut Interp) {
    for (index, entry) in table().iter().enumerate() {
        let name_v = interp.heap.make_string(entry.name);
        let rec = interp
            .heap
            .make_record(rtags::primitive(), &[Value::fixnum(index as i64), name_v]);
        let sym = interp.symbols.intern(&mut interp.heap, entry.name);
        interp.define_global(sym, rec);
        interp.prims.push(PrimEntry { ..*entry });
    }
}

impl Clone for PrimEntry {
    fn clone(&self) -> Self {
        PrimEntry { ..*self }
    }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

fn want_pair(heap: &Heap, v: Value, who: &str) -> SResult<Value> {
    if heap.is_pair(v) {
        Ok(v)
    } else {
        err(format!("{who}: not a pair: {}", write_value(heap, v)))
    }
}

/// The length of `v` if it is a proper list, `None` if it is improper or
/// circular: one tortoise-and-hare walk.
fn proper_length(heap: &Heap, v: Value) -> Option<usize> {
    let (mut slow, mut fast, mut n) = (v, v, 0);
    loop {
        for _ in 0..2 {
            if fast.is_nil() {
                return Some(n);
            }
            if !heap.is_pair(fast) {
                return None;
            }
            fast = heap.cdr(fast);
            n += 1;
        }
        slow = heap.cdr(slow);
        if slow == fast {
            return None;
        }
    }
}

/// `v`'s length, or an error unless it is a proper list. The message does
/// not print `v`: it may be circular.
fn want_list(heap: &Heap, v: Value, who: &str) -> SResult<usize> {
    proper_length(heap, v).map_or_else(|| err(format!("{who}: not a proper list")), Ok)
}

fn want_fixnum(v: Value, who: &str) -> SResult<i64> {
    if v.is_fixnum() {
        Ok(v.as_fixnum())
    } else {
        err(format!("{who}: not an integer"))
    }
}

fn want_string(heap: &Heap, v: Value, who: &str) -> SResult<String> {
    if heap.is_string(v) {
        Ok(heap.string_value(v))
    } else {
        err(format!("{who}: not a string: {}", write_value(heap, v)))
    }
}

/// Type check only — read paths then borrow bytes via
/// [`Heap::string_bytes`] instead of copying into a `String`.
fn check_string(heap: &Heap, v: Value, who: &str) -> SResult<()> {
    if heap.is_string(v) {
        Ok(())
    } else {
        err(format!("{who}: not a string: {}", write_value(heap, v)))
    }
}

#[derive(Copy, Clone)]
enum Num {
    Fix(i64),
    Flo(f64),
}

fn want_num(heap: &Heap, v: Value, who: &str) -> SResult<Num> {
    if v.is_fixnum() {
        Ok(Num::Fix(v.as_fixnum()))
    } else if heap.is_flonum(v) {
        Ok(Num::Flo(heap.flonum_value(v)))
    } else {
        err(format!("{who}: not a number: {}", write_value(heap, v)))
    }
}

/// An integer as a Scheme number: a fixnum, or outside the fixnum range
/// the flonum nearest it — what `fold_nums` does on `i64` overflow. Every
/// integer a primitive computes or the reader reads comes through here.
pub(crate) fn int_value(heap: &mut Heap, i: i64) -> Value {
    Value::try_fixnum(i).unwrap_or_else(|| heap.make_flonum(i as f64))
}

fn num_value(heap: &mut Heap, n: Num) -> Value {
    match n {
        Num::Fix(i) => int_value(heap, i),
        Num::Flo(f) => heap.make_flonum(f),
    }
}

fn as_f64(n: Num) -> f64 {
    match n {
        Num::Fix(i) => i as f64,
        Num::Flo(f) => f,
    }
}

fn fold_nums(
    it: &mut Interp,
    args: &[Value],
    who: &str,
    init: Num,
    fix: fn(i64, i64) -> Option<i64>,
    flo: fn(f64, f64) -> f64,
) -> SResult<Value> {
    let mut acc = init;
    for &a in args {
        let n = want_num(&it.heap, a, who)?;
        acc = match (acc, n) {
            (Num::Fix(x), Num::Fix(y)) => match fix(x, y) {
                Some(z) => Num::Fix(z),
                None => Num::Flo(flo(x as f64, y as f64)),
            },
            (x, y) => Num::Flo(flo(as_f64(x), as_f64(y))),
        };
    }
    Ok(num_value(&mut it.heap, acc))
}

fn compare_chain(
    it: &Interp,
    args: &[Value],
    who: &str,
    ok: fn(f64, f64) -> bool,
) -> SResult<Value> {
    for w in args.windows(2) {
        let a = as_f64(want_num(&it.heap, w[0], who)?);
        let b = as_f64(want_num(&it.heap, w[1], who)?);
        if !ok(a, b) {
            return Ok(Value::FALSE);
        }
    }
    Ok(Value::TRUE)
}

// ----------------------------------------------------------------------
// Pairs and lists
// ----------------------------------------------------------------------

fn p_cons(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(it.heap.cons(a[0], a[1]))
}

fn p_car(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_pair(&it.heap, a[0], "car")?;
    Ok(it.heap.car(a[0]))
}

fn p_cdr(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_pair(&it.heap, a[0], "cdr")?;
    Ok(it.heap.cdr(a[0]))
}

fn p_set_car(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_pair(&it.heap, a[0], "set-car!")?;
    it.heap.set_car(a[0], a[1]);
    Ok(Value::VOID)
}

fn p_set_cdr(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_pair(&it.heap, a[0], "set-cdr!")?;
    it.heap.set_cdr(a[0], a[1]);
    Ok(Value::VOID)
}

fn p_is_pair(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(it.heap.is_pair(a[0])))
}

fn p_is_null(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(a[0].is_nil()))
}

fn p_list(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(lists::list(&mut it.heap, a))
}

fn p_length(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let n = want_list(&it.heap, a[0], "length")?;
    Ok(Value::fixnum(n as i64))
}

fn p_reverse(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_list(&it.heap, a[0], "reverse")?;
    Ok(lists::reverse(&mut it.heap, a[0]))
}

fn p_append(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let (last, init) = a.split_last().unwrap_or((&Value::NIL, &[]));
    let mut out = *last;
    for &l in init.iter().rev() {
        want_list(&it.heap, l, "append")?;
        out = lists::append(&mut it.heap, l, out);
    }
    Ok(out)
}

/// The first tail of `ls` whose car satisfies `hit`, or `#f`; an error if
/// `ls` ends in something other than `()`.
fn member_by(heap: &Heap, mut ls: Value, who: &str, hit: impl Fn(Value) -> bool) -> SResult<Value> {
    while !ls.is_nil() {
        if !heap.is_pair(ls) {
            return err(format!("{who}: not a proper list"));
        }
        if hit(heap.car(ls)) {
            return Ok(ls);
        }
        ls = heap.cdr(ls);
    }
    Ok(Value::FALSE)
}

fn p_memq(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    member_by(&it.heap, a[1], "memq", |x| x == a[0])
}

fn p_assq(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    assoc_by(it, a[0], a[1], "assq", |_, x, y| x == y)
}

fn p_remq(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_list(&it.heap, a[1], "remq")?;
    Ok(lists::remq(&mut it.heap, a[0], a[1]))
}

fn p_list_ref(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let n = want_fixnum(a[1], "list-ref")?;
    let mut cur = a[0];
    for _ in 0..n {
        want_pair(&it.heap, cur, "list-ref")?;
        cur = it.heap.cdr(cur);
    }
    want_pair(&it.heap, cur, "list-ref")?;
    Ok(it.heap.car(cur))
}

fn p_memv(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let heap = &it.heap;
    member_by(heap, a[1], "memv", |x| heap.eqv(x, a[0]))
}

fn p_member(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let heap = &it.heap;
    member_by(heap, a[1], "member", |x| equal_rec(heap, x, a[0], 0))
}

/// The first pair of the association list `ls` whose car matches `key`
/// under `pred`, or `#f` ([`member_by`]'s walk and error).
fn assoc_by(
    it: &Interp,
    key: Value,
    ls: Value,
    who: &str,
    pred: impl Fn(&Heap, Value, Value) -> bool,
) -> SResult<Value> {
    let heap = &it.heap;
    let tail = member_by(heap, ls, who, |entry| {
        heap.is_pair(entry) && pred(heap, heap.car(entry), key)
    })?;
    Ok(if heap.is_pair(tail) {
        heap.car(tail)
    } else {
        Value::FALSE
    })
}

fn p_assv(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    assoc_by(it, a[0], a[1], "assv", |h, x, y| h.eqv(x, y))
}

fn p_assoc(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    assoc_by(it, a[0], a[1], "assoc", |h, x, y| equal_rec(h, x, y, 0))
}

fn p_list_tail(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let n = want_fixnum(a[1], "list-tail")?;
    let mut cur = a[0];
    for _ in 0..n {
        want_pair(&it.heap, cur, "list-tail")?;
        cur = it.heap.cdr(cur);
    }
    Ok(cur)
}

fn p_is_list(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(proper_length(&it.heap, a[0]).is_some()))
}

fn cxr(it: &Interp, v: Value, path: &[char], who: &str) -> SResult<Value> {
    let mut cur = v;
    for c in path.iter().rev() {
        want_pair(&it.heap, cur, who)?;
        cur = if *c == 'a' {
            it.heap.car(cur)
        } else {
            it.heap.cdr(cur)
        };
    }
    Ok(cur)
}

fn p_caar(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    cxr(it, a[0], &['a', 'a'], "caar")
}

fn p_cadr(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    cxr(it, a[0], &['a', 'd'], "cadr")
}

fn p_cdar(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    cxr(it, a[0], &['d', 'a'], "cdar")
}

fn p_cddr(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    cxr(it, a[0], &['d', 'd'], "cddr")
}

fn p_caddr(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    cxr(it, a[0], &['a', 'd', 'd'], "caddr")
}

/// Shared walker for `map`/`for-each`: applies `f` across parallel lists
/// until the shortest is exhausted; collects results when `collect`.
fn map_walk(it: &mut Interp, a: &[Value], collect: bool, who: &str) -> SResult<Value> {
    let f = a[0];
    // Roots: the procedure, the current list tails, and collected results
    // all live on the interpreter's rooted stack via this helper vector.
    let tails = it.heap.make_vector(a.len() - 1, Value::NIL);
    for (i, l) in a[1..].iter().enumerate() {
        it.heap.vector_set(tails, i, *l);
    }
    let state = it.heap.cons(f, tails); // (f . tails)
    let results_cell = it.heap.make_box(Value::NIL);
    let root = it.heap.root(state);
    let results_root = it.heap.root(results_cell);
    loop {
        let state = root.get();
        let tails = it.heap.cdr(state);
        let n = it.heap.vector_len(tails);
        let mut args = Vec::with_capacity(n);
        let mut done = false;
        for i in 0..n {
            let t = it.heap.vector_ref(tails, i);
            if !it.heap.is_pair(t) {
                if !t.is_nil() {
                    return err(format!("{who}: improper list"));
                }
                done = true;
                break;
            }
            args.push(it.heap.car(t));
        }
        if done {
            break;
        }
        // Advance the tails before applying (apply may collect; the
        // vector is rooted via `state`).
        for i in 0..n {
            let t = it.heap.vector_ref(tails, i);
            let next = it.heap.cdr(t);
            it.heap.vector_set(tails, i, next);
        }
        let f = it.heap.car(root.get());
        let v = it.apply(f, &args)?;
        if collect {
            let results = results_root.get();
            let acc = it.heap.box_ref(results);
            let cell = it.heap.cons(v, acc);
            let results = results_root.get();
            it.heap.box_set(results, cell);
        }
    }
    if collect {
        let acc = it.heap.box_ref(results_root.get());
        Ok(guardians_runtime::lists::reverse(&mut it.heap, acc))
    } else {
        Ok(Value::VOID)
    }
}

fn p_map(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    map_walk(it, a, true, "map")
}

fn p_for_each(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    map_walk(it, a, false, "for-each")
}

// ----------------------------------------------------------------------
// Weak pairs, guardians, GC
// ----------------------------------------------------------------------

fn p_weak_cons(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(it.heap.weak_cons(a[0], a[1]))
}

fn p_is_weak_pair(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(it.heap.is_weak_pair(a[0])))
}

fn p_make_guardian(it: &mut Interp, _: &[Value]) -> SResult<Value> {
    let tconc = it.heap.make_tconc();
    Ok(it.heap.make_record(rtags::guardian(), &[tconc]))
}

fn p_is_guardian(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(
        it.heap.is_record(a[0]) && it.heap.record_descriptor(a[0]) == rtags::guardian(),
    ))
}

fn p_collect(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let gen = match a.first() {
        Some(v) => {
            let g = want_fixnum(*v, "collect")?;
            if g < 0 || g >= it.heap.config().generations as i64 {
                return err(format!("collect: no such generation: {g}"));
            }
            g as u8
        }
        None => it
            .heap
            .config()
            .generation_for_collection(it.heap.collection_count() + 1),
    };
    it.heap.collect(gen);
    Ok(Value::VOID)
}

fn p_collect_request_handler(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if a[0].is_false() {
        it.collect_handler = None;
    } else {
        it.collect_handler = Some(it.heap.root(a[0]));
    }
    Ok(Value::VOID)
}

fn p_collection_count(it: &mut Interp, _: &[Value]) -> SResult<Value> {
    Ok(Value::fixnum(it.heap.collection_count() as i64))
}

fn p_generation_of(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(match it.heap.generation_of(a[0]) {
        Some(g) => Value::fixnum(g as i64),
        None => Value::FALSE,
    })
}

// ----------------------------------------------------------------------
// Numbers
// ----------------------------------------------------------------------

fn p_add(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    fold_nums(it, a, "+", Num::Fix(0), i64::checked_add, |x, y| x + y)
}

fn p_mul(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    fold_nums(it, a, "*", Num::Fix(1), i64::checked_mul, |x, y| x * y)
}

fn p_sub(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if a.len() == 1 {
        // A fixnum's negation cannot overflow `i64`; `-FIXNUM_MIN` is
        // past the fixnum range and becomes a flonum.
        let negated = match want_num(&it.heap, a[0], "-")? {
            Num::Fix(i) => Num::Fix(-i),
            Num::Flo(f) => Num::Flo(-f),
        };
        return Ok(num_value(&mut it.heap, negated));
    }
    let first = want_num(&it.heap, a[0], "-")?;
    let mut acc = first;
    for &v in &a[1..] {
        let n = want_num(&it.heap, v, "-")?;
        acc = match (acc, n) {
            (Num::Fix(x), Num::Fix(y)) => match x.checked_sub(y) {
                Some(z) => Num::Fix(z),
                None => Num::Flo(x as f64 - y as f64),
            },
            (x, y) => Num::Flo(as_f64(x) - as_f64(y)),
        };
    }
    Ok(num_value(&mut it.heap, acc))
}

fn p_num_eq(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    compare_chain(it, a, "=", |x, y| x == y)
}

fn p_lt(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    compare_chain(it, a, "<", |x, y| x < y)
}

fn p_gt(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    compare_chain(it, a, ">", |x, y| x > y)
}

fn p_le(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    compare_chain(it, a, "<=", |x, y| x <= y)
}

fn p_ge(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    compare_chain(it, a, ">=", |x, y| x >= y)
}

fn int2(it: &Interp, a: &[Value], who: &str) -> SResult<(i64, i64)> {
    let _ = it;
    let x = want_fixnum(a[0], who)?;
    let y = want_fixnum(a[1], who)?;
    if y == 0 {
        return err(format!("{who}: division by zero"));
    }
    Ok((x, y))
}

fn p_quotient(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let (x, y) = int2(it, a, "quotient")?;
    // `FIXNUM_MIN / -1` is past the fixnum range, not past `i64`'s.
    Ok(int_value(&mut it.heap, x / y))
}

fn p_remainder(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let (x, y) = int2(it, a, "remainder")?;
    Ok(Value::fixnum(x % y))
}

fn p_modulo(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let (x, y) = int2(it, a, "modulo")?;
    Ok(Value::fixnum(x.rem_euclid(y)))
}

fn p_is_zero(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(
        as_f64(want_num(&it.heap, a[0], "zero?")?) == 0.0,
    ))
}

fn p_is_even(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(want_fixnum(a[0], "even?")? % 2 == 0))
}

fn p_is_odd(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(want_fixnum(a[0], "odd?")? % 2 != 0))
}

fn p_is_number(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(a[0].is_fixnum() || it.heap.is_flonum(a[0])))
}

fn p_abs(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let n = match want_num(&it.heap, a[0], "abs")? {
        Num::Fix(i) => Num::Fix(i.abs()),
        Num::Flo(f) => Num::Flo(f.abs()),
    };
    Ok(num_value(&mut it.heap, n))
}

fn p_min(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let mut best = a[0];
    for &v in &a[1..] {
        if as_f64(want_num(&it.heap, v, "min")?) < as_f64(want_num(&it.heap, best, "min")?) {
            best = v;
        }
    }
    Ok(best)
}

fn p_max(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let mut best = a[0];
    for &v in &a[1..] {
        if as_f64(want_num(&it.heap, v, "max")?) > as_f64(want_num(&it.heap, best, "max")?) {
            best = v;
        }
    }
    Ok(best)
}

// ----------------------------------------------------------------------
// Predicates
// ----------------------------------------------------------------------

fn p_eq(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(a[0] == a[1]))
}

fn p_eqv(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(it.heap.eqv(a[0], a[1])))
}

fn equal_rec(heap: &Heap, a: Value, b: Value, depth: usize) -> bool {
    if a == b {
        return true;
    }
    if depth > 10_000 {
        return false; // cyclic-equality cutoff
    }
    if heap.is_pair(a) && heap.is_pair(b) {
        return equal_rec(heap, heap.car(a), heap.car(b), depth + 1)
            && equal_rec(heap, heap.cdr(a), heap.cdr(b), depth + 1);
    }
    if heap.is_string(a) && heap.is_string(b) {
        return heap.string_len(a) == heap.string_len(b)
            && heap.string_bytes(a).eq(heap.string_bytes(b));
    }
    if heap.is_flonum(a) && heap.is_flonum(b) {
        return heap.flonum_value(a).to_bits() == heap.flonum_value(b).to_bits();
    }
    if heap.is_vector(a) && heap.is_vector(b) {
        let n = heap.vector_len(a);
        if n != heap.vector_len(b) {
            return false;
        }
        return (0..n).all(|i| {
            equal_rec(
                heap,
                heap.vector_ref(a, i),
                heap.vector_ref(b, i),
                depth + 1,
            )
        });
    }
    false
}

fn p_equal(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(equal_rec(&it.heap, a[0], a[1], 0)))
}

fn p_not(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(a[0].is_false()))
}

fn p_is_boolean(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(a[0] == Value::TRUE || a[0] == Value::FALSE))
}

fn p_is_symbol(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(it.heap.is_symbol(a[0])))
}

fn p_is_string(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(it.heap.is_string(a[0])))
}

fn p_is_char(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(a[0].as_char().is_some()))
}

fn p_is_vector(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(it.heap.is_vector(a[0])))
}

fn p_is_procedure(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let v = a[0];
    let is_proc = it.heap.is_record(v) && {
        let d = it.heap.record_descriptor(v);
        d == rtags::closure()
            || d == rtags::compiled_closure()
            || d == rtags::primitive()
            || d == rtags::guardian()
    };
    Ok(Value::bool(is_proc))
}

fn p_is_box(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(it.heap.is_box(a[0])))
}

// ----------------------------------------------------------------------
// Vectors
// ----------------------------------------------------------------------

fn p_make_vector(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let n = want_fixnum(a[0], "make-vector")?;
    if n < 0 {
        return err("make-vector: negative length");
    }
    let fill = a.get(1).copied().unwrap_or(Value::NIL);
    // Fallible: a vector larger than what is left of a zone's quota is a
    // Scheme error, not a panic.
    it.heap
        .try_make_vector(n as usize, fill)
        .or_else(|e| err(format!("make-vector: {e}")))
}

fn p_vector(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let v = it
        .heap
        .try_make_vector(a.len(), Value::NIL)
        .or_else(|e| err(format!("vector: {e}")))?;
    for (i, x) in a.iter().enumerate() {
        it.heap.vector_set(v, i, *x);
    }
    Ok(v)
}

fn vec_index(it: &Interp, v: Value, i: Value, who: &str) -> SResult<usize> {
    if !it.heap.is_vector(v) {
        return err(format!("{who}: not a vector"));
    }
    let i = want_fixnum(i, who)?;
    if i < 0 || i as usize >= it.heap.vector_len(v) {
        return err(format!("{who}: index {i} out of range"));
    }
    Ok(i as usize)
}

fn p_vector_ref(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let i = vec_index(it, a[0], a[1], "vector-ref")?;
    Ok(it.heap.vector_ref(a[0], i))
}

fn p_vector_set(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let i = vec_index(it, a[0], a[1], "vector-set!")?;
    it.heap.vector_set(a[0], i, a[2]);
    Ok(Value::VOID)
}

fn p_vector_length(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if !it.heap.is_vector(a[0]) {
        return err("vector-length: not a vector");
    }
    Ok(Value::fixnum(it.heap.vector_len(a[0]) as i64))
}

// ----------------------------------------------------------------------
// Strings, symbols, chars
// ----------------------------------------------------------------------

fn p_string_length(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    check_string(&it.heap, a[0], "string-length")?;
    Ok(Value::fixnum(it.heap.string_char_count(a[0]) as i64))
}

fn p_string_append(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let mut out: Vec<u8> = Vec::new();
    for &v in a {
        check_string(&it.heap, v, "string-append")?;
        out.extend(it.heap.string_bytes(v));
    }
    let s = String::from_utf8(out).expect("heap strings are always valid UTF-8");
    // Fallible, like `make-vector`: a string past a zone's quota is a
    // Scheme error.
    it.heap
        .try_make_string(&s)
        .or_else(|e| err(format!("string-append: {e}")))
}

fn p_substring(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    check_string(&it.heap, a[0], "substring")?;
    let start = want_fixnum(a[1], "substring")? as usize;
    let end = want_fixnum(a[2], "substring")? as usize;
    if start > end {
        return err("substring: index out of range");
    }
    // One borrowed pass: keep the bytes of characters start..end, count
    // characters to bounds-check `end`. Only the result allocates.
    let mut out: Vec<u8> = Vec::new();
    let mut chars_seen = 0usize;
    for b in it.heap.string_bytes(a[0]) {
        if b & 0xC0 != 0x80 {
            chars_seen += 1;
        }
        if chars_seen > start && chars_seen <= end {
            out.push(b);
        }
    }
    if end > chars_seen {
        return err("substring: index out of range");
    }
    let sub = String::from_utf8(out).expect("heap strings are always valid UTF-8");
    it.heap
        .try_make_string(&sub)
        .or_else(|e| err(format!("substring: {e}")))
}

fn p_string_eq(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    check_string(&it.heap, a[0], "string=?")?;
    check_string(&it.heap, a[1], "string=?")?;
    let same = it.heap.string_len(a[0]) == it.heap.string_len(a[1])
        && it.heap.string_bytes(a[0]).eq(it.heap.string_bytes(a[1]));
    Ok(Value::bool(same))
}

fn p_string_lt(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    check_string(&it.heap, a[0], "string<?")?;
    check_string(&it.heap, a[1], "string<?")?;
    Ok(Value::bool(
        it.heap.string_bytes(a[0]).lt(it.heap.string_bytes(a[1])),
    ))
}

fn p_char_eq(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    match (a[0].as_char(), a[1].as_char()) {
        (Some(x), Some(y)) => Ok(Value::bool(x == y)),
        _ => err("char=?: not characters"),
    }
}

fn p_vector_to_list(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if !it.heap.is_vector(a[0]) {
        return err("vector->list: not a vector");
    }
    let n = it.heap.vector_len(a[0]);
    let mut out = Value::NIL;
    for i in (0..n).rev() {
        let v = it.heap.vector_ref(a[0], i);
        out = it.heap.cons(v, out);
    }
    Ok(out)
}

fn p_list_to_vector(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_list(&it.heap, a[0], "list->vector")?;
    let items = lists::list_to_vec(&it.heap, a[0]);
    let v = it
        .heap
        .try_make_vector(items.len(), Value::NIL)
        .or_else(|e| err(format!("list->vector: {e}")))?;
    for (i, x) in items.into_iter().enumerate() {
        it.heap.vector_set(v, i, x);
    }
    Ok(v)
}

fn p_symbol_to_string(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if !it.heap.is_symbol(a[0]) {
        return err("symbol->string: not a symbol");
    }
    let name = it.heap.symbol_name(a[0]);
    Ok(it.heap.make_string(&name))
}

fn p_string_to_symbol(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let s = want_string(&it.heap, a[0], "string->symbol")?;
    Ok(it.symbols.intern(&mut it.heap, &s))
}

fn p_number_to_string(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let s = write_value(&it.heap, a[0]);
    if !a[0].is_fixnum() && !it.heap.is_flonum(a[0]) {
        return err("number->string: not a number");
    }
    Ok(it.heap.make_string(&s))
}

fn p_char_to_integer(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    match a[0].as_char() {
        Some(c) => Ok(Value::fixnum(c as i64)),
        None => err("char->integer: not a character"),
    }
}

fn p_integer_to_char(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    let n = want_fixnum(a[0], "integer->char")?;
    match u32::try_from(n).ok().and_then(char::from_u32) {
        Some(c) => Ok(Value::char(c)),
        None => err("integer->char: not a valid code point"),
    }
}

fn p_gensym(it: &mut Interp, _: &[Value]) -> SResult<Value> {
    it.gensym_counter += 1;
    let name = format!("g{}", it.gensym_counter);
    // Gensyms are uninterned: a fresh symbol object each time.
    Ok(it.heap.make_symbol(&name))
}

fn p_string_hash(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    check_string(&it.heap, a[0], "string-hash")?;
    let mut h: u64 = 0xcbf29ce484222325;
    for b in it.heap.string_bytes(a[0]) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    Ok(Value::fixnum((h % (1 << 60)) as i64))
}

fn p_equal_hash(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let h = guardians_runtime::hashtab::content_hash(&it.heap, a[0]);
    Ok(Value::fixnum((h % (1 << 60)) as i64))
}

// ----------------------------------------------------------------------
// Records
// ----------------------------------------------------------------------

fn p_make_record(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(it.heap.make_record(a[0], &a[1..]))
}

/// A fresh uninterned symbol with the given symbol's name — the analyzer's
/// `define-record-type` expansion's eq-unique type descriptor (the naive
/// evaluator allocates the same fresh symbol directly).
fn p_fresh_symbol(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if !it.heap.is_symbol(a[0]) {
        return err("%fresh-symbol: expects a symbol");
    }
    let name = it.heap.symbol_name(a[0]);
    Ok(it.heap.make_symbol(&name))
}

fn p_record_of_type(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(
        it.heap.is_record(a[0]) && it.heap.record_descriptor(a[0]) == a[1],
    ))
}

fn record_field(it: &Interp, a: &[Value], who: &str) -> SResult<usize> {
    if !it.heap.is_record(a[0]) || it.heap.record_descriptor(a[0]) != a[1] {
        return err(format!("{who}: wrong record type"));
    }
    let idx = want_fixnum(a[2], who)?;
    if idx < 0 || idx as usize >= it.heap.record_len(a[0]) {
        return err(format!("{who}: field index out of range"));
    }
    Ok(idx as usize)
}

fn p_record_ref(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let idx = record_field(it, a, "record accessor")?;
    Ok(it.heap.record_ref(a[0], idx))
}

fn p_record_set(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let idx = record_field(it, a, "record mutator")?;
    it.heap.record_set(a[0], idx, a[3]);
    Ok(Value::VOID)
}

// ----------------------------------------------------------------------
// Boxes
// ----------------------------------------------------------------------

fn p_box(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(it.heap.make_box(a[0]))
}

fn p_unbox(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if !it.heap.is_box(a[0]) {
        return err("unbox: not a box");
    }
    Ok(it.heap.box_ref(a[0]))
}

fn p_set_box(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    if !it.heap.is_box(a[0]) {
        return err("set-box!: not a box");
    }
    it.heap.box_set(a[0], a[1]);
    Ok(Value::VOID)
}

// ----------------------------------------------------------------------
// I/O
// ----------------------------------------------------------------------

fn os_err(e: guardians_runtime::simos::OsError) -> crate::error::SchemeError {
    crate::error::SchemeError::new(e.to_string())
}

fn p_open_input_file(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let path = want_string(&it.heap, a[0], "open-input-file")?;
    ports::open_input_port(&mut it.heap, &mut it.os, &path).map_err(os_err)
}

fn p_open_output_file(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let path = want_string(&it.heap, a[0], "open-output-file")?;
    ports::open_output_port(&mut it.heap, &mut it.os, &path).map_err(os_err)
}

fn want_port(it: &Interp, v: Value, who: &str) -> SResult<()> {
    if ports::is_port(&it.heap, v) {
        Ok(())
    } else {
        err(format!("{who}: not a port"))
    }
}

fn p_close_port(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_port(it, a[0], "close-port")?;
    ports::close_port(&mut it.heap, &mut it.os, a[0]).map_err(os_err)?;
    Ok(Value::VOID)
}

fn p_flush_output_port(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_port(it, a[0], "flush-output-port")?;
    ports::flush_output_port(&mut it.heap, &mut it.os, a[0]).map_err(os_err)?;
    Ok(Value::VOID)
}

fn p_read_char(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_port(it, a[0], "read-char")?;
    match ports::read_byte(&mut it.heap, &mut it.os, a[0]).map_err(os_err)? {
        Some(b) => Ok(Value::char(b as char)),
        None => Ok(Value::EOF),
    }
}

fn p_write_char(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let c = a[0]
        .as_char()
        .ok_or_else(|| crate::error::SchemeError::new("write-char: not a char"))?;
    want_port(it, a[1], "write-char")?;
    let mut buf = [0u8; 4];
    let s = c.encode_utf8(&mut buf);
    for b in s.bytes() {
        ports::write_byte(&mut it.heap, &mut it.os, a[1], b).map_err(os_err)?;
    }
    Ok(Value::VOID)
}

fn p_write_string(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let s = want_string(&it.heap, a[0], "write-string")?;
    want_port(it, a[1], "write-string")?;
    ports::write_string(&mut it.heap, &mut it.os, a[1], &s).map_err(os_err)?;
    Ok(Value::VOID)
}

fn p_is_port(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(ports::is_port(&it.heap, a[0])))
}

fn p_is_input_port(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(ports::is_input_port(&it.heap, a[0])))
}

fn p_is_output_port(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(ports::is_output_port(&it.heap, a[0])))
}

fn p_is_port_open(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    want_port(it, a[0], "port-open?")?;
    Ok(Value::bool(ports::is_open(&it.heap, a[0])))
}

fn p_is_eof(_: &mut Interp, a: &[Value]) -> SResult<Value> {
    Ok(Value::bool(a[0] == Value::EOF))
}

fn p_eof_object(_: &mut Interp, _: &[Value]) -> SResult<Value> {
    Ok(Value::EOF)
}

fn p_file_exists(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let path = want_string(&it.heap, a[0], "file-exists?")?;
    Ok(Value::bool(it.os.file_exists(&path)))
}

fn p_delete_file(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let path = want_string(&it.heap, a[0], "delete-file")?;
    it.os.delete_file(&path).map_err(os_err)?;
    Ok(Value::VOID)
}

fn emit(it: &mut Interp, text: &str, port: Option<Value>) -> SResult<Value> {
    match port {
        Some(p) => {
            want_port(it, p, "display")?;
            ports::write_string(&mut it.heap, &mut it.os, p, text).map_err(os_err)?;
        }
        None => it.output.push_str(text),
    }
    Ok(Value::VOID)
}

fn p_display(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let text = display_value(&it.heap, a[0]);
    emit(it, &text, a.get(1).copied())
}

fn p_write(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let text = write_value(&it.heap, a[0]);
    emit(it, &text, a.get(1).copied())
}

fn p_newline(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    emit(it, "\n", a.first().copied())
}

// ----------------------------------------------------------------------
// Control
// ----------------------------------------------------------------------

fn p_apply(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let f = a[0];
    let rest = *a.last().expect("apply has >= 2 args");
    want_list(&it.heap, rest, "apply")?;
    let mut args: Vec<Value> = a[1..a.len() - 1].to_vec();
    args.extend(lists::list_to_vec(&it.heap, rest));
    it.apply(f, &args)
}

fn p_error(it: &mut Interp, a: &[Value]) -> SResult<Value> {
    let mut msg = if it.heap.is_string(a[0]) {
        it.heap.string_value(a[0])
    } else {
        write_value(&it.heap, a[0])
    };
    for v in &a[1..] {
        msg.push(' ');
        msg.push_str(&write_value(&it.heap, *v));
    }
    err(msg)
}

fn p_void(_: &mut Interp, _: &[Value]) -> SResult<Value> {
    Ok(Value::VOID)
}
