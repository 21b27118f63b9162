//! Typed weak references: weak slots of the heap's root table.
//!
//! A [`Weak<T>`] is a [`WeakRooted`] — a slot in the root table's weak
//! slab — so creating one allocates nothing in the heap, and no collection
//! copies or sweeps it. The roots phase never visits the slot; phase 6
//! does, right after the guardian pass and before the weak-pair pass,
//! forwarding it when the referent moved and breaking it to `#f` when the
//! referent was reclaimed. Weak pairs stay the raw and Scheme primitive.
//! [`GcHeap::downgrade`](crate::GcHeap::downgrade) makes one and
//! [`GcHeap::upgrade`](crate::GcHeap::upgrade) reads it.

use crate::trace::Trace;
use guardians_gc::WeakRooted;
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
    pub(crate) slot: WeakRooted,
    pub(crate) _marker: PhantomData<T>,
}

impl<T: Trace> Weak<T> {
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
