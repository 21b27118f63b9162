//! Typed weak references: weak slots of the heap's root table.
//!
//! A [`Weak<T>`] is a [`WeakRooted`] — a slot in the root table's weak
//! slab — so creating one allocates nothing in the heap, and no collection
//! copies or sweeps it. The roots phase never visits the slot; phase 6
//! does, right after the guardian pass and before the weak-pair pass,
//! forwarding it when the referent moved and breaking it to `#f` when the
//! referent was reclaimed. Weak pairs stay the raw and Scheme primitive.

use crate::ctx::ApiCtx;
use crate::handle::{Gc, Root};
use crate::trace::{expect_typed, Trace};
use guardians_gc::{Heap, WeakRooted};
use std::marker::PhantomData;

/// A typed weak reference: observes the referent without keeping it
/// alive.
///
/// Per the paper's ordering (guardian pass *before* weak break), a weak
/// reference to an object a guardian saved still upgrades — resurrection
/// through a guardian never leaves dangling typed weaks. Like a root, the
/// slot carries a generation stamp, so a collection visits only the weak
/// references whose referent it can move.
pub struct Weak<T: Trace> {
    /// Weak root-table slot holding the referent.
    slot: WeakRooted,
    _marker: PhantomData<T>,
}

impl<T: Trace> Weak<T> {
    /// Creates a weak reference to `target`. Allocates nothing in the heap.
    pub fn new(ctx: &ApiCtx, target: &Root<T>) -> Weak<T> {
        Weak {
            slot: ctx.roots.weak(target.value()),
            _marker: PhantomData,
        }
    }

    /// The referent, if it has not been reclaimed. The returned [`Gc`] is
    /// a heap borrow like any other — root it to hold it across a safe
    /// point.
    ///
    /// Between the increments of a collection the slot may hold a
    /// from-space address whose object has already been copied; the read
    /// goes through [`Heap::resolve_read`], as a car read does.
    pub fn upgrade<'gc>(&self, heap: &'gc Heap) -> Option<Gc<'gc, T>> {
        let v = heap.resolve_read(self.slot.get());
        if v.is_false() {
            return None;
        }
        expect_typed::<T>(heap, v);
        Some(Gc::from_value(v))
    }

    /// Whether the referent has been proven dead and the slot broken.
    pub fn is_broken(&self) -> bool {
        self.slot.get().is_false()
    }
}

impl<T: Trace> std::fmt::Debug for Weak<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Weak<{}>({:?})", T::NAME, self.slot.get())
    }
}
