//! The typed-API root context: a rooted shadow stack with slot reuse,
//! plus the per-type descriptor table.
//!
//! [`ApiCtx`] is the piece of state the typed layer needs *besides* the
//! heap itself: every [`Root<T>`] is a slot on a [`RootedVec`] shadow
//! stack registered with the heap, and every [`Trace`] type gets one
//! interned descriptor symbol (rooted here) naming its record layout.
//! Keeping it separate from the heap lets an embedding that already owns
//! a [`Heap`] — the torture rig, the Scheme tiers — bolt the typed API on
//! without restructuring, while [`GcHeap`](crate::GcHeap) bundles the two
//! for ordinary programs.

use crate::handle::{Gc, GcRead, Root, RootSlot};
use crate::trace::{expect_typed, Field, Trace};
use guardians_gc::{Heap, Rooted, RootedVec, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::rc::Rc;

/// Shadow-stack root arena + descriptor table for the typed front-end.
///
/// Rooting goes through a [`RootedVec`] (interior mutability), so slots
/// can be created from `&ApiCtx` — which is what lets [`Field::decode`]
/// re-root edge fields during a read-only [`Trace::lift`]. Dropping a
/// [`Root`] tombstones its slot with a non-pointer and recycles the index
/// through a free list, so non-LIFO root lifetimes cost nothing.
pub struct ApiCtx {
    shadow: RootedVec,
    free: Rc<RefCell<Vec<usize>>>,
    descriptors: RefCell<HashMap<&'static str, Rooted>>,
}

impl ApiCtx {
    /// Creates a context whose shadow stack is registered with `heap`.
    ///
    /// A context only makes sense with the heap it was created for;
    /// mixing handles across heaps is a logic error the accessors catch
    /// as type-check panics, never memory unsafety.
    pub fn new(heap: &mut Heap) -> ApiCtx {
        ApiCtx {
            shadow: heap.root_vec(),
            free: Rc::new(RefCell::new(Vec::new())),
            descriptors: RefCell::new(HashMap::new()),
        }
    }

    /// Claims a shadow-stack slot holding `v` (reusing a freed slot when
    /// one exists) and returns its RAII handle state.
    pub(crate) fn claim_slot(&self, v: Value) -> RootSlot {
        let index = match self.free.borrow_mut().pop() {
            Some(i) => {
                self.shadow.set(i, v);
                i
            }
            None => self.shadow.push(v),
        };
        RootSlot {
            shadow: self.shadow.clone(),
            free: self.free.clone(),
            index,
        }
    }

    /// Number of live (non-tombstoned) typed roots — a test hook.
    pub fn live_roots(&self) -> usize {
        self.shadow.len() - self.free.borrow().len()
    }

    /// The interned, rooted descriptor symbol for `T`'s record layout.
    /// Allocates (string + symbol) on first use per type, per context.
    pub fn descriptor<T: Trace>(&self, heap: &mut Heap) -> Value {
        if let Some(r) = self.descriptors.borrow().get(T::NAME) {
            return r.get();
        }
        let sym = heap.make_symbol(T::NAME);
        let rooted = heap.root(sym);
        self.descriptors.borrow_mut().insert(T::NAME, rooted);
        sym
    }

    /// Allocates `value` as a heap record and returns an owning root.
    ///
    /// Lowering runs first (child allocations for strings, flonums, …),
    /// then the record itself; allocation never collects in this heap, so
    /// the intermediate [`Value`]s cannot move before the record captures
    /// them. Collections happen only at explicit safe points
    /// ([`Heap::collect`] / [`Heap::maybe_collect`] / [`Heap::gc_step`]),
    /// all of which take `&mut Heap` — which is exactly the borrow a live
    /// [`Gc`] forbids.
    pub fn alloc<T: Trace>(&self, heap: &mut Heap, value: &T) -> Root<T> {
        let fields = value.lower(heap, self);
        debug_assert_eq!(fields.len(), T::FIELDS, "{}::lower field count", T::NAME);
        let desc = self.descriptor::<T>(heap);
        let rec = heap.make_record(desc, &fields);
        Root {
            slot: self.claim_slot(rec),
            _marker: PhantomData,
        }
    }

    /// Re-roots a raw tagged value as a typed handle, checking that it is
    /// a record whose descriptor is `T`'s symbol.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a `T` record of this heap.
    pub fn adopt<T: Trace>(&self, heap: &Heap, v: Value) -> Root<T> {
        expect_typed::<T>(heap, v);
        Root {
            slot: self.claim_slot(v),
            _marker: PhantomData,
        }
    }

    /// Promotes a borrowed [`Gc`] to an owning [`Root`] — the reborrow
    /// escape valve: root what you need, then release the heap borrow and
    /// cross the safe point through the root.
    pub fn root<T: Trace>(&self, gc: Gc<'_, T>) -> Root<T> {
        Root {
            slot: self.claim_slot(gc.value()),
            _marker: PhantomData,
        }
    }

    /// Lifts the record behind `gc` back into its Rust mirror.
    pub fn load<T: Trace>(&self, heap: &Heap, gc: Gc<'_, T>) -> T {
        let v = gc.value();
        expect_typed::<T>(heap, v);
        let fields: Vec<Value> = (0..heap.record_len(v))
            .map(|i| heap.record_ref(v, i))
            .collect();
        T::lift(heap, self, &fields)
    }

    /// [`ApiCtx::load`] through a root, wrapped in a [`Deref`] read guard.
    ///
    /// [`Deref`]: std::ops::Deref
    pub fn read<T: Trace>(&self, heap: &Heap, root: &Root<T>) -> GcRead<T> {
        GcRead {
            value: self.load(heap, root.get(heap)),
        }
    }

    /// Reads field `i` of a typed record as `F`.
    ///
    /// Routed through [`Heap::record_ref`], so the read chases forwarding
    /// pointers while an incremental collection is in flight — correct
    /// under both schedules.
    ///
    /// # Panics
    ///
    /// Panics if `i >= T::FIELDS` or the field does not decode as `F`.
    pub fn field<T: Trace, F: Field>(&self, heap: &Heap, gc: Gc<'_, T>, i: usize) -> F {
        assert!(
            i < T::FIELDS,
            "{} has {} fields, no field {i}",
            T::NAME,
            T::FIELDS
        );
        F::decode(heap, self, heap.record_ref(gc.value(), i))
    }

    /// Writes field `i` of the record behind `root` as `F`.
    ///
    /// Routed through [`Heap::record_set`], which applies the
    /// generational/incremental write barrier; takes the object as a
    /// [`Root`] because encoding may allocate and mutation is a `&mut
    /// Heap` operation, under which no [`Gc`] can be live.
    pub fn set_field<T: Trace, F: Field>(
        &self,
        heap: &mut Heap,
        root: &Root<T>,
        i: usize,
        value: &F,
    ) {
        assert!(
            i < T::FIELDS,
            "{} has {} fields, no field {i}",
            T::NAME,
            T::FIELDS
        );
        let encoded = value.encode(heap, self);
        heap.record_set(root.value(), i, encoded);
    }
}

impl std::fmt::Debug for ApiCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ApiCtx")
            .field("shadow_len", &self.shadow.len())
            .field("free", &self.free.borrow().len())
            .field("descriptors", &self.descriptors.borrow().len())
            .finish()
    }
}
