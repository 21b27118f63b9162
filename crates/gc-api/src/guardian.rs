//! Typed guardians: the paper's §4 tconc queues as a `poll()`/drain
//! surface with the Finalizer-Frontier safety rules in the types.
//!
//! Two rules are enforced statically:
//!
//! * **Resurrection is confined to the guardian owner.** The only way a
//!   proven-dead object re-enters the program is [`Guardian::poll`] /
//!   [`Guardian::drain`], which return owning [`Root`]s to the caller —
//!   cleanup runs at mutator control points, never inside the collector,
//!   and nobody else can observe the resurrected object through a strong
//!   reference first. (A [`Weak`](crate::Weak) may still upgrade to a
//!   guardian-saved object — the paper breaks weaks *after* the guardian
//!   pass, deliberately.)
//! * **Off-thread cleanup requires `Send`.** [`Guardian::drain_off_thread`]
//!   lifts dead objects into their Rust mirrors and hands back a `Send`
//!   iterator, but only for `T: Send` — and any `T` holding a
//!   [`Root`] edge is automatically `!Send`, so heap handles
//!   cannot be smuggled to another thread (see `tests/ui/`).

use crate::ctx::ApiCtx;
use crate::handle::Root;
use crate::trace::Trace;
use guardians_gc::{Guardian as RawGuardian, Heap};
use std::marker::PhantomData;

/// A typed guardian over one tconc queue.
///
/// Dropping every clone of the handle (and every heap reference to the
/// tconc) makes the guardian collectable, which cancels finalization of
/// everything registered with it — the paper's cancellation story,
/// inherited unchanged from the raw layer.
pub struct Guardian<T: Trace> {
    raw: RawGuardian,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Trace> Guardian<T> {
    /// Creates a guardian on `heap`. Allocates the two-pair tconc.
    pub fn new(heap: &mut Heap) -> Guardian<T> {
        Guardian {
            raw: heap.make_guardian(),
            _marker: PhantomData,
        }
    }

    /// Wraps an existing untyped guardian. From here on, register only
    /// `T`s through it — [`poll`](Guardian::poll) type-checks what comes
    /// back out.
    pub fn from_untyped(raw: RawGuardian) -> Guardian<T> {
        Guardian {
            raw,
            _marker: PhantomData,
        }
    }

    /// Registers `obj` for preservation — the paper's `(G obj)`. Takes a
    /// root (registration is a `&mut Heap` operation, under which no
    /// borrowed handle can be live); the registration itself does not
    /// keep `obj` alive.
    pub fn register(&self, heap: &mut Heap, obj: &Root<T>) {
        self.raw.register(heap, obj.value());
    }

    /// Registers `obj` with a separate `agent` returned in its place on
    /// death (§5): `obj` itself is *not* preserved.
    pub fn register_with_agent(&self, heap: &mut Heap, obj: &Root<T>, agent: &Root<T>) {
        self.raw
            .register_with_agent(heap, obj.value(), agent.value());
    }

    /// Retrieves one object proven inaccessible since registration, as a
    /// fresh owning root — `None` when the inaccessible group is empty.
    ///
    /// # Panics
    ///
    /// Panics if the queue front is not a `T` record — the guardian was
    /// shared with raw-layer registrations of another shape.
    pub fn poll(&self, heap: &mut Heap, ctx: &ApiCtx) -> Option<Root<T>> {
        let v = self.raw.poll(heap)?;
        Some(ctx.adopt(heap, v))
    }

    /// Drains every currently retrievable object, rooted.
    pub fn drain(&self, heap: &mut Heap, ctx: &ApiCtx) -> Vec<Root<T>> {
        let mut out = Vec::new();
        while let Some(r) = self.poll(heap, ctx) {
            out.push(r);
        }
        out
    }

    /// Drains every currently retrievable object *lifted* into its Rust
    /// mirror, as an iterator that may be moved to another thread. The
    /// `T: Send` bound is the off-thread safety rule: types holding heap
    /// handles are `!Send` and cannot take this path.
    pub fn drain_off_thread(&self, heap: &mut Heap, ctx: &ApiCtx) -> OffThreadDrain<T>
    where
        T: Send,
    {
        let mut items = Vec::new();
        while let Some(v) = self.raw.poll(heap) {
            // Lift while still on the mutator thread; the root is
            // transient and dropped before the iterator escapes.
            let root: Root<T> = ctx.adopt(heap, v);
            items.push(ctx.load(heap, root.get(heap)));
        }
        OffThreadDrain {
            items: items.into_iter(),
        }
    }

    /// Whether the inaccessible group is currently empty.
    pub fn is_empty(&self, heap: &Heap) -> bool {
        self.raw.is_empty(heap)
    }

    /// Number of objects currently retrievable.
    pub fn pending(&self, heap: &Heap) -> usize {
        self.raw.pending(heap)
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
    items: std::vec::IntoIter<T>,
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
