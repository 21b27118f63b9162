//! Typed guardians: the paper's §4 tconc queues as a `poll()`/drain
//! surface with the Finalizer-Frontier safety rules in the types.
//!
//! Two rules are enforced statically:
//!
//! * **Resurrection is confined to the guardian owner.** The only way a
//!   proven-dead object re-enters the program is [`GcHeap::poll`] /
//!   [`GcHeap::drain`], which return owning [`Root`]s to the caller —
//!   cleanup runs at mutator control points, never inside the collector,
//!   and nobody else can observe the resurrected object through a strong
//!   reference first. (A [`Weak`](crate::Weak) may still upgrade to a
//!   guardian-saved object — the paper breaks weaks *after* the guardian
//!   pass, deliberately.)
//! * **Off-thread cleanup requires `Send`.** [`GcHeap::drain_off_thread`]
//!   lifts dead objects into their Rust mirrors and hands back a `Send`
//!   iterator, but only for `T: Send` — and any `T` holding a
//!   [`Root`] edge is automatically `!Send`, so heap handles
//!   cannot be smuggled to another thread (see `tests/ui/`).
//!
//! The handle takes no heap: every guardian operation is a
//! [`GcHeap`] method. The §5 agent form stays in the raw layer
//! ([`RawGuardian::register_with_agent`]) and in Scheme.
//!
//! [`Root`]: crate::Root
//! [`GcHeap`]: crate::GcHeap
//! [`GcHeap::poll`]: crate::GcHeap::poll
//! [`GcHeap::drain`]: crate::GcHeap::drain
//! [`GcHeap::drain_off_thread`]: crate::GcHeap::drain_off_thread

use crate::trace::Trace;
use guardians_gc::Guardian as RawGuardian;
use std::marker::PhantomData;

/// A typed guardian over one tconc queue.
///
/// Dropping every clone of the handle (and every heap reference to the
/// tconc) makes the guardian collectable, which cancels finalization of
/// everything registered with it — the paper's cancellation story,
/// inherited unchanged from the raw layer.
pub struct Guardian<T: Trace> {
    pub(crate) raw: RawGuardian,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Trace> Guardian<T> {
    /// Wraps an existing untyped guardian. From here on, register only
    /// `T`s through it — [`GcHeap::poll`](crate::GcHeap::poll)
    /// type-checks what comes back out.
    pub fn from_untyped(raw: RawGuardian) -> Guardian<T> {
        Guardian {
            raw,
            _marker: PhantomData,
        }
    }
}

impl<T: Trace> Clone for Guardian<T> {
    fn clone(&self) -> Self {
        Guardian {
            raw: self.raw.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Trace> std::fmt::Debug for Guardian<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Guardian<{}>", T::NAME)
    }
}

/// A `Send` iterator of lifted finalization payloads — safe to hand to a
/// cleanup thread because construction required `T: Send` and no heap
/// handles are inside.
pub struct OffThreadDrain<T: Send> {
    pub(crate) items: std::vec::IntoIter<T>,
}

impl<T: Send> Iterator for OffThreadDrain<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.items.next()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.items.size_hint()
    }
}

impl<T: Send> ExactSizeIterator for OffThreadDrain<T> {}
