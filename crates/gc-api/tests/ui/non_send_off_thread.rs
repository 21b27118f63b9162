//! Finalizer-Frontier rule: off-thread guardian drains require the
//! lifted payload to be `Send`. A type with a `Root<T>` edge holds
//! root-table `Rc` state, is therefore `!Send`, and must be rejected —
//! otherwise heap handles could be smuggled to a cleanup thread.

use guardians_gc_api::{impl_trace, GcHeap, Guardian, Root};

impl_trace! {
    pub struct Holder {
        pub id: i64,
        pub child: Option<Root<Holder>>,
    }
}

fn main() {
    let mut heap = GcHeap::default();
    let g: Guardian<Holder> = heap.guardian();
    let r = heap.alloc(&Holder { id: 1, child: None });
    heap.guard(&g, &r);
    drop(r);
    heap.collect(0);
    let _drain = heap.drain_off_thread(&g); //~ ERROR E0277
    //~ ERROR cannot be sent between threads safely
}
