//! Typed handles: borrowed [`Gc`], owning [`Root`], and the [`GcRead`]
//! deref guard.
//!
//! The safety discipline is encoded in lifetimes, not in runtime checks:
//!
//! * A [`Gc<'gc, T>`] is a *borrow of the heap*. Every collection entry
//!   point takes `&mut Heap`, so the borrow checker statically rejects
//!   holding a `Gc` across a safe point — the "unrooted handle survives a
//!   collection" bug class is a compile error (see `tests/ui/`).
//! * A [`Root<T>`] is a [`Rooted`]: a slot in the heap's root table,
//!   claimed through the [`GcHeap`](crate::GcHeap)'s handle on it. The
//!   collector updates the slot in place, so a root is valid across any
//!   number of collections; dropping its last clone unroots. Roots hold
//!   `Rc` internals and so are `!Send`/`!Sync`: they cannot leave the
//!   mutator thread that owns the heap.
//!
//! Everything here is plain safe Rust over the tagged-value layer — a
//! stale or cross-heap handle produces a typed panic from the accessors,
//! never undefined behaviour. The lifetimes exist to turn those panics
//! into compile errors.

use crate::trace::Trace;
use guardians_gc::{Heap, Rooted, Value};
use std::marker::PhantomData;

/// A borrowed, `Copy` typed reference into the heap, invalidated by any
/// `&mut Heap` operation (allocation, mutation, collection).
///
/// Obtain one from [`GcHeap::get`](crate::GcHeap::get) or
/// [`GcHeap::upgrade`](crate::GcHeap::upgrade); promote it with
/// [`GcHeap::root`](crate::GcHeap::root) to keep the referent across a
/// safe point.
pub struct Gc<'gc, T: Trace> {
    raw: Value,
    /// Ties the handle to an outstanding `&Heap` borrow (and inherits the
    /// heap's `!Send`/`!Sync`).
    _heap: PhantomData<&'gc Heap>,
    _t: PhantomData<fn() -> T>,
}

impl<T: Trace> Copy for Gc<'_, T> {}
impl<T: Trace> Clone for Gc<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'gc, T: Trace> Gc<'gc, T> {
    pub(crate) fn from_value(raw: Value) -> Gc<'gc, T> {
        Gc {
            raw,
            _heap: PhantomData,
            _t: PhantomData,
        }
    }

    /// The underlying tagged value — the raw-layer escape hatch. The
    /// address is only current for the duration of `'gc`.
    pub fn value(self) -> Value {
        self.raw
    }

    /// Identity (address) equality, the typed [`Heap::eqv`] on pointers.
    pub fn ptr_eq(self, other: Gc<'gc, T>) -> bool {
        self.raw == other.raw
    }
}

impl<T: Trace> std::fmt::Debug for Gc<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gc<{}>({:?})", T::NAME, self.raw)
    }
}

/// An owning typed root: the referent survives every collection for as
/// long as the handle lives, and the handle always reads the referent's
/// *current* (possibly relocated) address.
///
/// `Root` is deliberately `!Send`/`!Sync` (a [`Rooted`] holds `Rc`
/// root-table state): a root can never escape the mutator thread, which
/// is one of the Finalizer-Frontier boundaries the `tests/ui/` suite pins.
pub struct Root<T: Trace> {
    pub(crate) slot: Rooted,
    pub(crate) _marker: PhantomData<T>,
}

impl<T: Trace> Root<T> {
    /// The referent's current tagged value (raw-layer escape hatch).
    pub fn value(&self) -> Value {
        self.slot.get()
    }
}

/// Clones share the slot: a `Root` is never re-pointed, so both read the
/// referent's current address, and the slot is freed when the last clone
/// drops.
impl<T: Trace> Clone for Root<T> {
    fn clone(&self) -> Self {
        Root {
            slot: self.slot.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Trace> std::fmt::Debug for Root<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Root<{}>({:?})", T::NAME, self.slot.get())
    }
}

/// An owning read of a typed object: the record lifted back into its Rust
/// mirror, behind [`Deref`](std::ops::Deref).
///
/// The exemplar handle layer (ballast's `Rooted<T>`) can `Deref` straight
/// into the heap because it stores native Rust values in place; this heap
/// stores tagged words, so the deref target is a *lifted copy* — edits to
/// it do not write back (use
/// [`GcHeap::set_field`](crate::GcHeap::set_field) for that).
pub struct GcRead<T: Trace> {
    pub(crate) value: T,
}

impl<T: Trace> std::ops::Deref for GcRead<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Trace> GcRead<T> {
    /// Unwraps the lifted value.
    pub fn into_inner(self) -> T {
        self.value
    }
}
