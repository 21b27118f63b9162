//! Guarded object pools (paper Section 1):
//!
//! > "Sometimes it is useful to maintain an internal free list of objects
//! > that are expensive to allocate or initialize. Support for
//! > automatically returning such objects to the free list when they would
//! > otherwise be reclaimed can lead to a simpler, more efficient, and
//! > more robust implementation. This might be true, for example, of a set
//! > of large objects (such as a set of bit maps representing graphical
//! > displays) whose structure and/or contents remain fixed once they are
//! > initialized."
//!
//! [`GuardedPool::acquire`] hands out an object and registers it with the
//! pool's guardian; when the client drops every reference, the next
//! acquire recycles it instead of paying the factory cost again. No
//! explicit release call exists — that is the point.

use guardians_gc::{Guardian, Heap, Rooted, Value};

/// A free list of expensive objects, refilled automatically by a guardian.
pub struct GuardedPool {
    guardian: Guardian,
    /// Heap list of recycled objects awaiting reuse.
    free: Rooted,
    factory: Box<dyn FnMut(&mut Heap) -> Value>,
    /// Objects built from scratch.
    pub created: u64,
    /// Objects recycled from the guardian.
    pub recycled: u64,
}

impl GuardedPool {
    /// Creates a pool whose objects are built by `factory`.
    pub fn new(heap: &mut Heap, factory: impl FnMut(&mut Heap) -> Value + 'static) -> GuardedPool {
        GuardedPool {
            guardian: heap.make_guardian(),
            free: heap.root(Value::NIL),
            factory: Box::new(factory),
            created: 0,
            recycled: 0,
        }
    }

    /// Moves every object the guardian has proven dropped onto the free
    /// list. Returns how many were recycled.
    pub fn recycle_dropped(&mut self, heap: &mut Heap) -> usize {
        let mut n = 0;
        while let Some(obj) = self.guardian.poll(heap) {
            let cell = heap.cons(obj, self.free.get());
            self.free.set(cell);
            self.recycled += 1;
            n += 1;
        }
        n
    }

    /// Hands out an object: recycles dropped ones first, pops the free
    /// list if possible, otherwise runs the factory. The object is
    /// (re-)registered so that dropping it returns it to the pool.
    pub fn acquire(&mut self, heap: &mut Heap) -> Value {
        self.recycle_dropped(heap);
        let free = self.free.get();
        let obj = if free.is_nil() {
            self.created += 1;
            (self.factory)(heap)
        } else {
            let obj = heap.car(free);
            let rest = heap.cdr(free);
            self.free.set(rest);
            obj
        };
        self.guardian.register(heap, obj);
        obj
    }
}

impl std::fmt::Debug for GuardedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuardedPool")
            .field("created", &self.created)
            .field("recycled", &self.recycled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitmap_factory(heap: &mut Heap) -> Value {
        // An "expensive" object: a large zeroed bitmap.
        heap.make_bytevector(4096, 0)
    }

    #[test]
    fn dropped_objects_are_recycled() {
        let mut heap = Heap::default();
        let mut pool = GuardedPool::new(&mut heap, bitmap_factory);

        let a = pool.acquire(&mut heap);
        let addr = heap.address_of(a).unwrap();
        // `a` is never rooted, so the collection proves it dropped.
        heap.collect(heap.config().max_generation());

        let b = pool.acquire(&mut heap);
        assert_eq!(pool.created, 1, "second acquire did not re-create");
        assert_eq!(pool.recycled, 1);
        // Same object (moved by the collection, so compare by contents /
        // subsequent identity rather than address).
        assert_ne!(heap.address_of(b), Some(addr), "it did move");
        assert_eq!(heap.bytevector_len(b), 4096);
    }

    #[test]
    fn live_objects_are_not_stolen() {
        let mut heap = Heap::default();
        let mut pool = GuardedPool::new(&mut heap, bitmap_factory);
        let a = pool.acquire(&mut heap);
        let guard = heap.root(a);
        heap.collect(heap.config().max_generation());
        let b = pool.acquire(&mut heap);
        assert_eq!(pool.created, 2, "a is still alive, so b had to be created");
        assert_ne!(guard.get(), b);
        heap.bytevector_set(guard.get(), 0, 1);
        assert_eq!(heap.bytevector_ref(b, 0), 0, "objects are distinct");
    }

    #[test]
    fn pool_cycles_repeatedly() {
        let mut heap = Heap::default();
        let mut pool = GuardedPool::new(&mut heap, bitmap_factory);
        for round in 0..10 {
            let x = pool.acquire(&mut heap);
            heap.bytevector_set(x, 0, round as u8);
            heap.collect(heap.config().max_generation());
        }
        assert_eq!(pool.created, 1, "one object served all ten rounds");
        assert_eq!(pool.recycled, 9);
        heap.verify().unwrap();
    }

    #[test]
    fn multiple_objects_in_flight() {
        let mut heap = Heap::default();
        let mut pool = GuardedPool::new(&mut heap, bitmap_factory);
        let a = pool.acquire(&mut heap);
        let b = pool.acquire(&mut heap);
        let (ra, _rb) = (heap.root(a), heap.root(b));
        assert_eq!(pool.created, 2);
        drop(ra);
        heap.collect(heap.config().max_generation());
        let c = pool.acquire(&mut heap);
        assert_eq!(pool.created, 2, "c reuses a's storage");
        assert_eq!(pool.recycled, 1);
        let _ = c;
    }
}
