//! The allocation ban of collector-invoked finalization: a thunk is
//! handed `&Heap`, and every allocator takes `&mut Heap`, so a thunk that
//! allocates is a borrowck error. A guardian clean-up runs in the
//! mutator with `&mut Heap` and needs no such restriction.

use guardians_baselines::FinalizationRegistry;
use guardians_gc::{Heap, Value};

fn main() {
    let mut heap = Heap::default();
    let mut reg = FinalizationRegistry::new();
    let obj = heap.cons(Value::NIL, Value::NIL);
    reg.register_for_finalization(&mut heap, obj, |h| {
        let _ = h.cons(Value::NIL, Value::NIL); //~ ERROR E0596
        //~ ERROR cannot borrow `*h` as mutable, as it is behind a `&` reference
        Ok(())
    });
}
