//! The indirection-header workaround (paper Section 2) and Atkins-style
//! forwarding objects:
//!
//! > "Instead of maintaining a pointer directly to the data, the program
//! > can maintain a weak pointer to an object header containing a nonweak
//! > pointer to the data. If a separate nonweak pointer to the data is
//! > maintained, then when the weak pointer to the header is broken the
//! > data needed to perform the clean-up action is still available. …
//! > the overhead caused by the extra level of indirection is unacceptable
//! > in some cases. In the case of ports, for example, it significantly
//! > increases the cost of reading or writing a character."
//!
//! [`IndirectPorts`] reproduces the scheme exactly: clients hold a
//! *header* (a one-field record forwarding to the real port); a registry
//! keeps a weak pointer to each header plus a nonweak pointer to the
//! underlying port, and a periodic scan closes ports whose headers broke.
//! Every I/O operation pays the extra dereference — the cost experiment
//! E5 measures against direct guarded ports.

use guardians_gc::{Heap, Rooted, Value};
use guardians_runtime::ports;
use guardians_runtime::simos::{OsError, SimOs};

/// Descriptor for forwarding-header records.
fn header_tag() -> Value {
    Value::fixnum(0x464f5257) // "FORW"
}

/// Port management via weak-pointed forwarding headers.
#[derive(Debug)]
pub struct IndirectPorts {
    /// Heap list of pairs `(weak-header-pair . port)`: the weak pointer to
    /// the header and the nonweak pointer to the data, exactly as in the
    /// paper's description.
    registry: Rooted,
    /// Entries examined by clean-up scans.
    pub entries_scanned: u64,
    /// Header dereferences paid by port operations: one per character
    /// read or written, where a direct port pays none.
    pub derefs: u64,
    /// Ports closed by clean-up scans.
    pub dropped_closed: u64,
}

impl IndirectPorts {
    /// An empty registry.
    pub fn new(heap: &mut Heap) -> IndirectPorts {
        IndirectPorts {
            registry: heap.root(Value::NIL),
            entries_scanned: 0,
            derefs: 0,
            dropped_closed: 0,
        }
    }

    /// Opens an output port and returns its forwarding **header**; the
    /// client never sees the port itself.
    ///
    /// # Errors
    ///
    /// Propagates OS errors.
    pub fn open_output(
        &mut self,
        heap: &mut Heap,
        os: &mut SimOs,
        path: &str,
    ) -> Result<Value, OsError> {
        let port = ports::open_output_port(heap, os, path)?;
        let header = heap.make_record(header_tag(), &[port]);
        let weak = heap.weak_cons(header, Value::FALSE);
        let entry = heap.cons(weak, port);
        let cell = heap.cons(entry, self.registry.get());
        self.registry.set(cell);
        Ok(header)
    }

    /// Opens an input port behind a header.
    ///
    /// # Errors
    ///
    /// Propagates OS errors.
    pub fn open_input(
        &mut self,
        heap: &mut Heap,
        os: &mut SimOs,
        path: &str,
    ) -> Result<Value, OsError> {
        let port = ports::open_input_port(heap, os, path)?;
        let header = heap.make_record(header_tag(), &[port]);
        let weak = heap.weak_cons(header, Value::FALSE);
        let entry = heap.cons(weak, port);
        let cell = heap.cons(entry, self.registry.get());
        self.registry.set(cell);
        Ok(header)
    }

    /// The forwarded port (the Atkins automatic-indirection step, paid on
    /// every operation).
    #[inline]
    pub fn deref(&mut self, heap: &Heap, header: Value) -> Value {
        debug_assert!(heap.record_descriptor(header) == header_tag());
        self.derefs += 1;
        heap.record_ref(header, 0)
    }

    /// Reads a byte through the header — one extra memory reference per
    /// character compared with a direct port.
    ///
    /// # Errors
    ///
    /// As for [`ports::read_byte`].
    pub fn read_byte(
        &mut self,
        heap: &mut Heap,
        os: &mut SimOs,
        header: Value,
    ) -> Result<Option<u8>, OsError> {
        let port = self.deref(heap, header);
        ports::read_byte(heap, os, port)
    }

    /// Writes a byte through the header.
    ///
    /// # Errors
    ///
    /// As for [`ports::write_byte`].
    pub fn write_byte(
        &mut self,
        heap: &mut Heap,
        os: &mut SimOs,
        header: Value,
        byte: u8,
    ) -> Result<(), OsError> {
        let port = self.deref(heap, header);
        ports::write_byte(heap, os, port, byte)
    }

    /// The clean-up scan: walks **every** registry entry looking for
    /// broken weak pointers, closing the associated ports. Unlike a
    /// guardian drain, the cost is proportional to the number of live
    /// ports, not the number of drops.
    ///
    /// # Errors
    ///
    /// OS errors while closing.
    pub fn scan_and_close(&mut self, heap: &mut Heap, os: &mut SimOs) -> Result<usize, OsError> {
        let mut kept = Vec::new();
        let mut closed = 0;
        let mut cur = self.registry.get();
        while !cur.is_nil() {
            self.entries_scanned += 1;
            let entry = heap.car(cur);
            let weak = heap.car(entry);
            let header = heap.car(weak);
            if header.is_false() {
                let port = heap.cdr(entry);
                if ports::is_open(heap, port) {
                    ports::close_port(heap, os, port)?;
                    closed += 1;
                    self.dropped_closed += 1;
                }
            } else {
                kept.push(entry);
            }
            cur = heap.cdr(cur);
        }
        let mut list = Value::NIL;
        for &e in kept.iter().rev() {
            list = heap.cons(e, list);
        }
        self.registry.set(list);
        Ok(closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_works_through_the_indirection() {
        let mut heap = Heap::default();
        let mut os = SimOs::new();
        let mut ip = IndirectPorts::new(&mut heap);
        let h = ip.open_output(&mut heap, &mut os, "/f").unwrap();
        for b in b"hi there" {
            ip.write_byte(&mut heap, &mut os, h, *b).unwrap();
        }
        let hr = heap.root(h);
        heap.collect(0);
        let h = hr.get();
        let port = ip.deref(&heap, h);
        ports::close_port(&mut heap, &mut os, port).unwrap();
        assert_eq!(os.file_contents("/f").unwrap(), b"hi there");
    }

    #[test]
    fn dropped_headers_close_their_ports_via_the_scan() {
        let mut heap = Heap::default();
        let mut os = SimOs::new();
        let mut ip = IndirectPorts::new(&mut heap);
        let kept = ip.open_output(&mut heap, &mut os, "/keep").unwrap();
        let keep_root = heap.root(kept);
        for i in 0..5 {
            let h = ip
                .open_output(&mut heap, &mut os, &format!("/drop{i}"))
                .unwrap();
            ip.write_byte(&mut heap, &mut os, h, b'x').unwrap();
        }
        assert_eq!(os.open_count(), 6);
        heap.collect(heap.config().max_generation());
        let closed = ip.scan_and_close(&mut heap, &mut os).unwrap();
        assert_eq!(closed, 5);
        assert_eq!(os.open_count(), 1);
        assert_eq!(
            os.file_contents("/drop0").unwrap(),
            b"x",
            "flushed on close"
        );
        assert!(ports::is_open(&heap, ip.deref(&heap, keep_root.get())));
        heap.verify().unwrap();
    }

    #[test]
    fn the_unsafety_the_paper_warns_about() {
        // "it is possible for some part of a program to keep a pointer to
        // the data itself even after the header has been dropped" — then
        // the scan closes the port out from under that pointer.
        let mut heap = Heap::default();
        let mut os = SimOs::new();
        let mut ip = IndirectPorts::new(&mut heap);
        let h = ip.open_output(&mut heap, &mut os, "/f").unwrap();
        // A careless component peels off the real port and keeps it.
        let smuggled = ip.deref(&heap, h);
        let smuggled_root = heap.root(smuggled);
        // The header is dropped...
        heap.collect(heap.config().max_generation());
        ip.scan_and_close(&mut heap, &mut os).unwrap();
        // ...and the smuggled direct pointer is now a closed port.
        assert!(
            !ports::is_open(&heap, smuggled_root.get()),
            "dangling resource: the hazard guardians avoid"
        );
    }

    #[test]
    fn scan_cost_scales_with_live_ports() {
        let mut heap = Heap::default();
        let mut os = SimOs::with_fd_limit(256);
        let mut ip = IndirectPorts::new(&mut heap);
        let mut keep = Vec::new();
        for i in 0..100 {
            let h = ip
                .open_output(&mut heap, &mut os, &format!("/p{i}"))
                .unwrap();
            keep.push(heap.root(h));
        }
        keep.pop(); // one drop
        heap.collect(heap.config().max_generation());
        ip.entries_scanned = 0;
        let closed = ip.scan_and_close(&mut heap, &mut os).unwrap();
        assert_eq!(closed, 1);
        assert_eq!(
            ip.entries_scanned, 100,
            "touched every live port to find one drop"
        );
    }
}
