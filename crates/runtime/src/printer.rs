//! Printing with shared-structure detection.
//!
//! The paper's Section 1 motivates hash tables with "shared structure
//! detection during the printing of directed acyclic and cyclic graph
//! structures"; this module is that client. Shared and cyclic nodes are
//! printed with R7RS-style datum labels (`#0=`, `#0#`), so cyclic data —
//! which guardians are specifically designed to finalize sanely — prints
//! without looping.

use crate::rtags;
use guardians_gc::{Heap, ObjKind, Value};
use std::collections::HashMap;

/// `write`-style printing: strings escaped, characters in `#\` notation,
/// shared structure labelled.
pub fn write_value(heap: &Heap, v: Value) -> String {
    Printer::new(heap, true).print(v)
}

/// `display`-style printing: strings and characters raw.
pub fn display_value(heap: &Heap, v: Value) -> String {
    Printer::new(heap, false).print(v)
}

struct Printer<'h> {
    heap: &'h Heap,
    write: bool,
    /// address -> number of times encountered during the scan pass.
    seen: HashMap<u64, u32>,
    /// Multiply-referenced nodes: address -> label, assigned when the
    /// node is first emitted. Numbering labels in output order (not by
    /// address) keeps the text independent of where the collector or
    /// the evaluator happened to put things.
    labels: HashMap<u64, Option<usize>>,
    next_label: usize,
}

impl<'h> Printer<'h> {
    fn new(heap: &'h Heap, write: bool) -> Printer<'h> {
        Printer {
            heap,
            write,
            seen: HashMap::new(),
            labels: HashMap::new(),
            next_label: 0,
        }
    }

    fn print(mut self, v: Value) -> String {
        self.scan(v);
        self.labels = self
            .seen
            .iter()
            .filter(|(_, &count)| count > 1)
            .map(|(&addr, _)| (addr, None))
            .collect();
        let mut out = String::new();
        self.emit(v, &mut out);
        out
    }

    /// First pass: count in-edges of pairs and vectors, stopping at
    /// already-seen nodes (which also terminates on cycles). A work stack,
    /// not recursion, so neither a long list nor a deep nesting can
    /// overflow the thread's stack; the counts do not depend on the order.
    fn scan(&mut self, root: Value) {
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            if !v.is_ptr() {
                continue;
            }
            let count = self.seen.entry(v.addr().raw()).or_insert(0);
            *count += 1;
            if *count > 1 {
                continue;
            }
            let heap = self.heap;
            if heap.is_pair(v) {
                stack.extend([heap.cdr(v), heap.car(v)]);
            } else if heap.is_vector(v) {
                stack.extend((0..heap.vector_len(v)).map(|i| heap.vector_ref(v, i)));
            } else if heap.is_box(v) {
                stack.push(heap.box_ref(v));
            } else if heap.is_record(v) {
                stack.extend((0..heap.record_len(v)).map(|i| heap.record_ref(v, i)));
            }
        }
    }

    /// Second pass: the text, from a work stack of jobs popped in output
    /// order, so that labels are numbered as the text is written.
    fn emit(&mut self, root: Value, out: &mut String) {
        let mut jobs = vec![Job::Value(root)];
        while let Some(job) = jobs.pop() {
            match job {
                Job::Text(text) => out.push_str(text),
                Job::Value(v) => self.emit_value(v, &mut jobs, out),
                Job::Tail(cdr) => self.emit_tail(cdr, &mut jobs, out),
            }
        }
    }

    /// Writes `v` itself; what it contains is pushed onto `jobs`, last
    /// part first.
    fn emit_value(&mut self, v: Value, jobs: &mut Vec<Job>, out: &mut String) {
        use std::fmt::Write;
        if v.is_ptr() {
            let addr = v.addr().raw();
            if let Some(slot) = self.labels.get_mut(&addr) {
                if let Some(label) = *slot {
                    let _ = write!(out, "#{label}#");
                    return;
                }
                let label = self.next_label;
                self.next_label += 1;
                *slot = Some(label);
                let _ = write!(out, "#{label}=");
            }
        }
        if v.is_fixnum() {
            let _ = write!(out, "{}", v.as_fixnum());
            return;
        }
        if let Some(c) = v.as_char() {
            if self.write {
                let _ = match c {
                    ' ' => write!(out, "#\\space"),
                    '\n' => write!(out, "#\\newline"),
                    _ => write!(out, "#\\{c}"),
                };
            } else {
                out.push(c);
            }
            return;
        }
        if !v.is_ptr() {
            out.push_str(match v {
                Value::FALSE => "#f",
                Value::TRUE => "#t",
                Value::NIL => "()",
                Value::EOF => "#<eof>",
                Value::VOID => "#<void>",
                Value::UNBOUND => "#<unbound>",
                _ => "#<immediate>",
            });
            return;
        }
        if self.heap.is_pair(v) {
            out.push('(');
            jobs.extend([
                Job::Text(")"),
                Job::Tail(self.heap.cdr(v)),
                Job::Value(self.heap.car(v)),
            ]);
            return;
        }
        match self.heap.kind_of(v) {
            Some(ObjKind::String) => {
                let s = self.heap.string_value(v);
                if self.write {
                    let _ = write!(out, "{s:?}");
                } else {
                    out.push_str(&s);
                }
            }
            Some(ObjKind::Symbol) => out.push_str(&self.heap.symbol_name(v)),
            Some(ObjKind::Flonum) => {
                let f = self.heap.flonum_value(v);
                if f.fract() == 0.0 && f.is_finite() {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            }
            Some(ObjKind::Vector) => {
                out.push_str("#(");
                jobs.push(Job::Text(")"));
                for i in (0..self.heap.vector_len(v)).rev() {
                    jobs.push(Job::Value(self.heap.vector_ref(v, i)));
                    if i > 0 {
                        jobs.push(Job::Text(" "));
                    }
                }
            }
            Some(ObjKind::Bytevector) => {
                out.push_str("#vu8(");
                let bytes = self.heap.bytevector_value(v);
                for (i, b) in bytes.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    let _ = write!(out, "{b}");
                }
                out.push(')');
            }
            Some(ObjKind::Box) => {
                out.push_str("#&");
                jobs.push(Job::Value(self.heap.box_ref(v)));
            }
            Some(ObjKind::Record) => self.emit_record(v, jobs, out),
            None => out.push_str("#<unknown>"),
        }
    }

    fn emit_record(&mut self, v: Value, jobs: &mut Vec<Job>, out: &mut String) {
        use std::fmt::Write;
        let desc = self.heap.record_descriptor(v);
        if desc == rtags::port() {
            let _ = write!(out, "#<port {}>", crate::ports::port_path(self.heap, v));
        } else if desc == rtags::guardian() {
            out.push_str("#<guardian>");
        } else if desc == rtags::closure() || desc == rtags::compiled_closure() {
            out.push_str("#<procedure>");
        } else if desc == rtags::primitive() {
            out.push_str("#<primitive>");
        } else if desc == rtags::environment() || desc == rtags::frame() {
            out.push_str("#<environment>");
        } else if desc == rtags::hashtable() {
            out.push_str("#<hash-table>");
        } else {
            out.push_str("#[");
            jobs.push(Job::Text("]"));
            for i in (0..self.heap.record_len(v)).rev() {
                jobs.extend([Job::Value(self.heap.record_ref(v, i)), Job::Text(" ")]);
            }
            jobs.push(Job::Value(desc));
        }
    }

    /// The rest of a list after an element: nothing at its `()` end, the
    /// next element while the tail is an unlabelled pair, else ` . ` and
    /// the tail — a shared or cyclic tail must break the list notation.
    fn emit_tail(&mut self, cdr: Value, jobs: &mut Vec<Job>, out: &mut String) {
        if cdr.is_nil() {
            return;
        }
        if cdr.is_pair_ptr() && !self.labels.contains_key(&cdr.addr().raw()) {
            out.push(' ');
            jobs.extend([
                Job::Tail(self.heap.cdr(cdr)),
                Job::Value(self.heap.car(cdr)),
            ]);
        } else {
            out.push_str(" . ");
            jobs.push(Job::Value(cdr));
        }
    }
}

/// One step of [`Printer::emit`].
enum Job {
    /// Literal text.
    Text(&'static str),
    /// A value, with its label if it has one.
    Value(Value),
    /// A list's remainder after an element: its cdr.
    Tail(Value),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::list;

    #[test]
    fn atoms_print() {
        let mut h = Heap::default();
        assert_eq!(write_value(&h, Value::fixnum(42)), "42");
        assert_eq!(write_value(&h, Value::FALSE), "#f");
        assert_eq!(write_value(&h, Value::TRUE), "#t");
        assert_eq!(write_value(&h, Value::NIL), "()");
        assert_eq!(write_value(&h, Value::char('a')), "#\\a");
        assert_eq!(display_value(&h, Value::char('a')), "a");
        let s = h.make_string("hi \"there\"");
        assert_eq!(write_value(&h, s), "\"hi \\\"there\\\"\"");
        assert_eq!(display_value(&h, s), "hi \"there\"");
        let f = h.make_flonum(2.0);
        assert_eq!(write_value(&h, f), "2.0");
    }

    #[test]
    fn lists_print_in_list_notation() {
        let mut h = Heap::default();
        let a = h.make_symbol("a");
        let l = list(&mut h, &[Value::fixnum(1), a, Value::fixnum(3)]);
        assert_eq!(write_value(&h, l), "(1 a 3)");
        let improper = h.cons(Value::fixnum(1), Value::fixnum(2));
        assert_eq!(write_value(&h, improper), "(1 . 2)");
        let v = h.make_vector(2, Value::fixnum(0));
        assert_eq!(write_value(&h, v), "#(0 0)");
        let bv = h.make_bytevector(3, 7);
        assert_eq!(write_value(&h, bv), "#vu8(7 7 7)");
    }

    #[test]
    fn the_papers_pair_prints_as_a_dot_b() {
        let mut h = Heap::default();
        let a = h.make_symbol("a");
        let b = h.make_symbol("b");
        let x = h.cons(a, b);
        assert_eq!(write_value(&h, x), "(a . b)");
    }

    #[test]
    fn cycles_print_with_labels_and_terminate() {
        let mut h = Heap::default();
        let p = h.cons(Value::fixnum(1), Value::NIL);
        h.set_cdr(p, p);
        let s = write_value(&h, p);
        assert_eq!(s, "#0=(1 . #0#)");
    }

    #[test]
    fn shared_substructure_is_labelled() {
        let mut h = Heap::default();
        let shared = h.cons(Value::fixnum(9), Value::NIL);
        let l = list(&mut h, &[shared, shared]);
        let s = write_value(&h, l);
        assert_eq!(s, "(#0=(9) #0#)");
    }

    #[test]
    fn labels_are_numbered_in_output_order_not_address_order() {
        let mut h = Heap::default();
        // Allocated second-printed-first: an address-ordered numbering
        // would call `late` #0.
        let late = h.cons(Value::fixnum(2), Value::NIL);
        let early = h.cons(Value::fixnum(1), Value::NIL);
        let l = list(&mut h, &[early, early, late, late]);
        assert_eq!(write_value(&h, l), "(#0=(1) #0# #1=(2) #1#)");
    }

    /// Runs `f` on a thread with a 2 MiB stack: a stack overflow there
    /// aborts the whole process, so these tests fail by dying.
    fn on_2mib_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn a test thread")
            .join()
            .expect("test thread finished");
    }

    #[test]
    fn a_long_flat_list_prints_on_a_small_stack() {
        on_2mib_thread(|| {
            let mut h = Heap::default();
            let mut l = Value::NIL;
            for i in (0..100_000).rev() {
                l = h.cons(Value::fixnum(i), l);
            }
            let s = write_value(&h, l);
            assert!(s.starts_with("(0 1 2 "), "{}", &s[..16]);
            assert!(s.ends_with(" 99998 99999)"));
            assert_eq!(s.split(' ').count(), 100_000);
        });
    }

    #[test]
    fn a_deep_car_nesting_prints_on_a_small_stack() {
        on_2mib_thread(|| {
            let mut h = Heap::default();
            let mut v = Value::fixnum(0);
            for _ in 0..100_000 {
                v = h.cons(v, Value::NIL);
            }
            let depth = 100_000;
            let expected = format!("{}0{}", "(".repeat(depth), ")".repeat(depth));
            assert!(write_value(&h, v) == expected);
        });
    }

    #[test]
    fn nested_shared_and_cyclic_structure_keeps_its_labels() {
        let mut h = Heap::default();
        let shared = h.cons(Value::fixnum(9), Value::NIL);
        let v = h.make_vector(3, shared);
        let b = h.make_box(v);
        let tail = h.cons(Value::fixnum(2), Value::NIL);
        let l = list(&mut h, &[b, Value::fixnum(1)]);
        h.set_cdr(h.cdr(l), tail);
        h.set_cdr(tail, l);
        assert_eq!(write_value(&h, l), "#0=(#&#(#1=(9) #1# #1#) 1 2 . #0#)");
    }

    #[test]
    fn unshared_data_has_no_labels() {
        let mut h = Heap::default();
        let a = h.cons(Value::fixnum(1), Value::NIL);
        let b = h.cons(Value::fixnum(1), Value::NIL);
        let l = list(&mut h, &[a, b]);
        assert_eq!(write_value(&h, l), "((1) (1))");
    }
}
