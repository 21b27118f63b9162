//! Typed weak references over the heap's weak-pair machinery.

use crate::ctx::ApiCtx;
use crate::handle::{Gc, Root};
use crate::trace::{expect_typed, Trace};
use guardians_gc::{Heap, Rooted, Value};
use std::marker::PhantomData;

/// A typed weak reference: observes the referent without keeping it
/// alive.
///
/// Backed by a rooted weak pair whose car holds the referent weakly; the
/// weak pass of each collection forwards the car when the referent moves
/// and breaks it to `#f` when the referent is reclaimed. Per the paper's
/// ordering (guardian pass *before* weak break), a weak reference to an
/// object a guardian saved still upgrades — resurrection through a
/// guardian never leaves dangling typed weaks.
pub struct Weak<T: Trace> {
    /// Root-table slot holding the weak *pair* (not the referent).
    slot: Rooted,
    _marker: PhantomData<T>,
}

impl<T: Trace> Weak<T> {
    /// Creates a weak reference to `target`. Allocates one weak pair.
    pub fn new(heap: &mut Heap, ctx: &ApiCtx, target: &Root<T>) -> Weak<T> {
        let pair = heap.weak_cons(target.value(), Value::NIL);
        Weak {
            slot: ctx.roots.root(pair),
            _marker: PhantomData,
        }
    }

    /// The underlying weak pair (raw-layer escape hatch).
    pub fn pair(&self) -> Value {
        self.slot.get()
    }

    /// The referent, if it has not been reclaimed. The returned [`Gc`] is
    /// a heap borrow like any other — root it to hold it across a safe
    /// point.
    pub fn upgrade<'gc>(&self, heap: &'gc Heap) -> Option<Gc<'gc, T>> {
        let car = heap.car(self.slot.get());
        if car.is_false() {
            None
        } else {
            expect_typed::<T>(heap, car);
            Some(Gc::from_value(car))
        }
    }

    /// Whether the referent has been proven dead and the car broken.
    pub fn is_broken(&self, heap: &Heap) -> bool {
        heap.car(self.slot.get()).is_false()
    }
}

impl<T: Trace> std::fmt::Debug for Weak<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Weak<{}>({:?})", T::NAME, self.slot.get())
    }
}
