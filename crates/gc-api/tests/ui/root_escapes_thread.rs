//! Soundness boundary: a `Root<T>` is a slot in the owning thread's heap
//! root table (`Rc` internals, deliberately `!Send`), so it cannot
//! escape the stack region/thread that owns the heap. Moving one into a
//! spawned thread must fail the `Send` bound.

use guardians_gc_api::{impl_trace, GcHeap};

impl_trace! {
    pub struct Node {
        pub id: i64,
    }
}

fn main() {
    let mut heap = GcHeap::default();
    let root = heap.alloc(&Node { id: 1 });
    std::thread::spawn(move || {
        //~ ERROR E0277
        //~ ERROR cannot be sent between threads safely
        let _escaped = root;
    });
}
