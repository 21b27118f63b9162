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
    /// already-seen nodes (which also terminates on cycles).
    fn scan(&mut self, v: Value) {
        if !v.is_ptr() {
            return;
        }
        let addr = v.addr().raw();
        let count = self.seen.entry(addr).or_insert(0);
        *count += 1;
        if *count > 1 {
            return;
        }
        if self.heap.is_pair(v) {
            self.scan(self.heap.car(v));
            self.scan(self.heap.cdr(v));
        } else if self.heap.is_vector(v) {
            for i in 0..self.heap.vector_len(v) {
                self.scan(self.heap.vector_ref(v, i));
            }
        } else if self.heap.is_box(v) {
            self.scan(self.heap.box_ref(v));
        } else if self.heap.is_record(v) {
            for i in 0..self.heap.record_len(v) {
                self.scan(self.heap.record_ref(v, i));
            }
        }
    }

    fn emit(&mut self, v: Value, out: &mut String) {
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
            self.emit_list(v, out);
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
                for i in 0..self.heap.vector_len(v) {
                    if i > 0 {
                        out.push(' ');
                    }
                    self.emit(self.heap.vector_ref(v, i), out);
                }
                out.push(')');
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
                self.emit(self.heap.box_ref(v), out);
            }
            Some(ObjKind::Record) => self.emit_record(v, out),
            None => out.push_str("#<unknown>"),
        }
    }

    fn emit_record(&mut self, v: Value, out: &mut String) {
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
            self.emit(desc, out);
            for i in 0..self.heap.record_len(v) {
                out.push(' ');
                self.emit(self.heap.record_ref(v, i), out);
            }
            out.push(']');
        }
    }

    fn emit_list(&mut self, mut v: Value, out: &mut String) {
        out.push('(');
        let mut first = true;
        loop {
            if !first {
                out.push(' ');
            }
            first = false;
            let car = self.heap.car(v);
            self.emit(car, out);
            let cdr = self.heap.cdr(v);
            if cdr.is_nil() {
                break;
            }
            if cdr.is_pair_ptr() {
                // A shared/cyclic tail must break the list notation.
                let addr = cdr.addr().raw();
                if self.labels.contains_key(&addr) {
                    out.push_str(" . ");
                    self.emit(cdr, out);
                    break;
                }
                v = cdr;
                continue;
            }
            out.push_str(" . ");
            self.emit(cdr, out);
            break;
        }
        out.push(')');
    }
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

    #[test]
    fn unshared_data_has_no_labels() {
        let mut h = Heap::default();
        let a = h.cons(Value::fixnum(1), Value::NIL);
        let b = h.cons(Value::fixnum(1), Value::NIL);
        let l = list(&mut h, &[a, b]);
        assert_eq!(write_value(&h, l), "((1) (1))");
    }
}
