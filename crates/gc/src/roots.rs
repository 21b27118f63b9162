//! Root registration: the root table.
//!
//! [`Value`]s held in Rust variables are invisible to the collector, so a
//! value that must survive a collection is placed in a [`Rooted`] slot (or
//! a [`RootedVec`] shadow stack, which is what the Scheme interpreter
//! uses). Dropping the last handle to a slot unregisters it at once —
//! this is exactly how dropping a [`Guardian`](crate::Guardian) handle
//! "cancels finalization of a group of objects by simply dropping all
//! references to the guardian".
//!
//! # The table
//!
//! Every single-value root of a heap lives in a slab shared by the heap and
//! its handles: a [`Rooted`] is a slot index plus the shared table, so
//! rooting allocates nothing. A per-slot share count lets clones share a
//! slot, and a free list lets `root`/drop pairs reuse storage. A
//! [`RootedVec`] keeps its own storage (a push is a `Vec` push and nothing
//! else) and is registered in the table under its registration number
//! until its last clone drops.
//!
//! The table holds two slabs of the one slab type: the strong one, which
//! the roots phase traces, and a weak one of [`WeakRooted`] slots, which it
//! never visits. Phase 6 settles weak slots after the guardian pass and
//! before the weak-pair pass (`collect/weak_pass.rs`): a survivor's new
//! address is written back, a dead referent breaks the slot to `#f`. A weak
//! slot is a weak pointer that costs no heap words.
//!
//! # Generation stamps
//!
//! Every root slot — slab and vector alike — carries one stamp byte, the
//! root set's counterpart of the remembered set's card byte
//! (`collect/remset.rs`), under the same three invariants:
//!
//! 1. **Lower bound.** A stamp is [`ROOT_CLEAN`] or at most the generation
//!    of the slot's referent.
//! 2. **The barrier only writes 0.** Every handle-side store
//!    ([`Rooted::set`], [`RootedVec::set`], claiming a slot, strong or
//!    weak) resets the stamp to 0.
//! 3. **Only the collector raises a stamp**, to the exact generation the
//!    referent ends the visit in ([`ROOT_CLEAN`] for a non-pointer).
//!
//! A collection of generations `0..=g` therefore visits exactly the slots
//! stamped `<= g`, eight stamps per word test ([`due_mask`]): a root whose
//! referent already sits in an older generation costs an eighth of a word
//! compare. A vector stamps only a *prefix* of its slots — slots at or
//! above the stamped length count as stamped 0, `pop`/`truncate` lower the
//! length, `push` never touches it, and the collector stamps the tail it
//! has just visited — so the operand-stack fast path is a `Vec` push.
//!
//! Weak slots follow the same rules, so a collection visits only the weak
//! slots whose referent it can move — generation-friendliness with no
//! remembered set.
//!
//! The visit order is deterministic: strong slab slots by index, then
//! vectors in registration order, each by index; weak slots by index.

use crate::value::Value;
use guardians_segments::SegmentTable;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

/// The stamp of a slot holding a non-pointer: no collection visits it.
/// Never a generation number (`GcConfig::generations` is a `u8`, so the
/// oldest generation is at most 254).
pub(crate) const ROOT_CLEAN: u8 = u8::MAX;

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Eight stamps at a time: the high bit of byte `i` of the result is set
/// exactly when byte `i` of `stamps` is `<= g`. Exact for every `g < 255`.
#[inline]
fn due_mask(stamps: u64, g: u8) -> u64 {
    debug_assert!(g < ROOT_CLEAN);
    // `b <= g` is `b < n` for `n = g + 1`, which still fits a byte.
    let n = (g as u64 + 1) * LOW_BITS;
    // No borrow crosses a byte (each minuend byte is >= 0x80, each
    // subtrahend byte <= 0x7f), so the high bit of byte `i` of `low_ge`
    // says whether the low seven bits of `b` are >= those of `n`.
    let low_ge = (stamps | HIGH_BITS) - (n & !HIGH_BITS);
    // b < n: the top bits differ and n has it, or they agree and the low
    // seven bits decide.
    ((!stamps & n) | (!(stamps ^ n) & !low_ge)) & HIGH_BITS
}

/// Applies `visit` to every slot of `values` whose stamp is `<= g` and
/// stores the stamp it returns. `values` and `stamps` are the same length.
/// Returns the number of slots visited.
fn trace_stamped(
    values: &mut [Value],
    stamps: &mut [u8],
    g: u8,
    visit: &mut impl FnMut(&mut Value) -> u8,
) -> u64 {
    debug_assert_eq!(values.len(), stamps.len());
    let mut traced = 0;
    let mut words = stamps.chunks_exact_mut(8);
    for (w, word) in words.by_ref().enumerate() {
        let eight: [u8; 8] = (&*word).try_into().expect("chunks of eight");
        let mut due = due_mask(u64::from_le_bytes(eight), g);
        while due != 0 {
            let k = (due.trailing_zeros() / 8) as usize;
            due &= due - 1;
            word[k] = visit(&mut values[w * 8 + k]);
            traced += 1;
        }
    }
    let rest = words.into_remainder();
    let base = values.len() - rest.len();
    for (k, stamp) in rest.iter_mut().enumerate() {
        if *stamp <= g {
            *stamp = visit(&mut values[base + k]);
            traced += 1;
        }
    }
    traced
}

/// A slab of single-value root slots: values, one stamp each, share
/// counts and a free list. The root table holds two, one strong and one
/// weak, and this is the only code that claims, frees or traces a slot.
#[derive(Default)]
struct Slab {
    /// Slot values; a free slot holds `#f`.
    values: Vec<Value>,
    /// One stamp per slot; a free slot is [`ROOT_CLEAN`].
    stamps: Vec<u8>,
    /// Handles sharing each slot; 0 exactly for free slots.
    shares: Vec<u32>,
    /// Free slots, reused last-freed first.
    free: Vec<u32>,
}

impl Slab {
    /// Claims a slot holding `v`, stamped 0 (reusing the last freed one).
    fn claim(&mut self, v: Value) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.values[i] = v;
                self.stamps[i] = 0;
                self.shares[i] = 1;
                slot
            }
            None => {
                let slot = u32::try_from(self.values.len()).expect("more than u32::MAX root slots");
                self.values.push(v);
                self.stamps.push(0);
                self.shares.push(1);
                slot
            }
        }
    }

    /// One more handle shares `slot`.
    fn share(&mut self, slot: u32) {
        self.shares[slot as usize] += 1;
    }

    /// One handle of `slot` is gone; the last frees the slot.
    fn release(&mut self, slot: u32) {
        let i = slot as usize;
        self.shares[i] -= 1;
        if self.shares[i] == 0 {
            self.values[i] = Value::FALSE;
            self.stamps[i] = ROOT_CLEAN;
            self.free.push(slot);
        }
    }

    /// Slots in use.
    fn live(&self) -> usize {
        self.values.len() - self.free.len()
    }

    /// [`trace_stamped`] over the whole slab.
    fn trace(&mut self, g: u8, visit: &mut impl FnMut(&mut Value) -> u8) -> u64 {
        trace_stamped(&mut self.values, &mut self.stamps, g, visit)
    }

    /// Free-list/share-count coherence: free slots are non-pointers on the
    /// free list exactly once with no sharers, live slots have one.
    fn check_free_list(&self, what: &str) -> Result<(), String> {
        let mut on_free_list = vec![false; self.values.len()];
        for &slot in &self.free {
            let i = slot as usize;
            if std::mem::replace(&mut on_free_list[i], true) {
                return Err(format!("{what} {i} is on the free list twice"));
            }
            if self.shares[i] != 0 {
                return Err(format!(
                    "free {what} {i} has share count {}",
                    self.shares[i]
                ));
            }
            if self.values[i].is_ptr() {
                return Err(format!(
                    "free {what} {i} holds a pointer: {:?}",
                    self.values[i]
                ));
            }
        }
        for (i, &free) in on_free_list.iter().enumerate() {
            if !free && self.shares[i] == 0 {
                return Err(format!(
                    "live {what} {i} has share count 0 (it is not on the free list)"
                ));
            }
        }
        Ok(())
    }
}

/// The table proper: the strong and weak slabs and the vector registry.
#[derive(Default)]
struct RootTable {
    /// Strong single-value roots: every [`Rooted`].
    strong: Slab,
    /// Weak single-value roots: every [`WeakRooted`]. The roots phase never
    /// visits them; the weak-slot pass of phase 6 settles them.
    weak: Slab,
    /// Registered vectors by registration number, so in registration
    /// order.
    vecs: BTreeMap<u64, Weak<VecRoot>>,
    /// The next registration number.
    next_vec: u64,
}

type SharedTable = Rc<RefCell<RootTable>>;

/// An owning handle to a GC root holding a single value.
///
/// The collector updates the slot in place when the referent moves. Clones
/// share the same slot. A handle may outlive its heap (the slot then simply
/// holds whatever it last held).
pub struct Rooted {
    table: SharedTable,
    slot: u32,
}

impl Rooted {
    /// The current (possibly relocated) value.
    #[inline]
    pub fn get(&self) -> Value {
        self.table.borrow().strong.values[self.slot as usize]
    }

    /// Replaces the rooted value.
    #[inline]
    pub fn set(&self, v: Value) {
        let mut table = self.table.borrow_mut();
        let i = self.slot as usize;
        table.strong.values[i] = v;
        // The root write barrier: the next collection visits this slot.
        table.strong.stamps[i] = 0;
    }
}

impl Clone for Rooted {
    fn clone(&self) -> Rooted {
        self.table.borrow_mut().strong.share(self.slot);
        Rooted {
            table: self.table.clone(),
            slot: self.slot,
        }
    }
}

impl Drop for Rooted {
    fn drop(&mut self) {
        self.table.borrow_mut().strong.release(self.slot);
    }
}

impl std::fmt::Debug for Rooted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Rooted").field(&self.get()).finish()
    }
}

/// An owning handle to a *weak* root: a slot that observes a value without
/// keeping it alive ([`RootSet::weak`]), settled in phase 6 (see the module
/// doc). There is no `set`: a weak slot is never re-pointed, so it needs no
/// barrier. Clones share the slot; dropping the last frees it.
///
/// Between the increments of a collection the slot may hold a from-space
/// pointer whose referent has already been copied; read it through
/// [`Heap::resolve_read`](crate::Heap::resolve_read).
pub struct WeakRooted {
    table: SharedTable,
    slot: u32,
}

impl WeakRooted {
    /// The referent's address as the last weak-slot pass left it (or as
    /// claimed), or `#f` once the referent has died.
    #[inline]
    pub fn get(&self) -> Value {
        self.table.borrow().weak.values[self.slot as usize]
    }
}

impl Clone for WeakRooted {
    fn clone(&self) -> WeakRooted {
        self.table.borrow_mut().weak.share(self.slot);
        WeakRooted {
            table: self.table.clone(),
            slot: self.slot,
        }
    }
}

impl Drop for WeakRooted {
    fn drop(&mut self) {
        self.table.borrow_mut().weak.release(self.slot);
    }
}

impl std::fmt::Debug for WeakRooted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("WeakRooted").field(&self.get()).finish()
    }
}

/// A vector's slots and the stamps of its stamped prefix
/// (`stamps.len() <= values.len()`; slots beyond count as stamped 0).
#[derive(Default)]
struct VecCells {
    values: Vec<Value>,
    stamps: Vec<u8>,
}

/// The state the clones of one [`RootedVec`] share; dropping it (with the
/// last clone) unregisters the vector.
struct VecRoot {
    cells: RefCell<VecCells>,
    table: SharedTable,
    /// Registration number: the key in the table's registry.
    number: u64,
}

impl Drop for VecRoot {
    fn drop(&mut self) {
        self.table.borrow_mut().vecs.remove(&self.number);
    }
}

/// An owning handle to a GC-rooted vector of values — a shadow stack.
///
/// Clones share the same underlying vector.
#[derive(Clone)]
pub struct RootedVec {
    root: Rc<VecRoot>,
}

impl std::fmt::Debug for RootedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RootedVec")
            .field(&self.root.cells.borrow().values)
            .finish()
    }
}

impl RootedVec {
    /// Pushes a value; returns its index.
    #[inline]
    pub fn push(&self, v: Value) -> usize {
        // No stamp: a slot beyond the stamped prefix counts as stamped 0.
        let mut cells = self.root.cells.borrow_mut();
        cells.values.push(v);
        cells.values.len() - 1
    }

    /// Pops the most recent value.
    #[inline]
    pub fn pop(&self) -> Option<Value> {
        let mut cells = self.root.cells.borrow_mut();
        let v = cells.values.pop();
        let len = cells.values.len();
        cells.stamps.truncate(len);
        v
    }

    /// Reads the value at `index` (values may have been relocated since
    /// they were pushed).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> Value {
        self.root.cells.borrow().values[index]
    }

    /// Overwrites the value at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn set(&self, index: usize, v: Value) {
        let mut cells = self.root.cells.borrow_mut();
        cells.values[index] = v;
        // The root write barrier, for a slot inside the stamped prefix.
        if let Some(stamp) = cells.stamps.get_mut(index) {
            *stamp = 0;
        }
    }

    /// Current stack depth.
    #[inline]
    pub fn len(&self) -> usize {
        self.root.cells.borrow().values.len()
    }

    /// Whether the stack is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.root.cells.borrow().values.is_empty()
    }

    /// Truncates the stack to `len` entries (for unwinding scopes).
    #[inline]
    pub fn truncate(&self, len: usize) {
        let mut cells = self.root.cells.borrow_mut();
        cells.values.truncate(len);
        cells.stamps.truncate(len);
    }
}

/// The heap's cloneable handle on its root table ([`Heap::roots`]).
///
/// A client that roots values on its own behalf — the typed layer's
/// `GcHeap` — keeps a clone and claims slab slots through it, so its roots
/// are the heap's roots and it keeps no table of its own.
///
/// [`Heap::roots`]: crate::Heap::roots
#[derive(Clone, Default)]
pub struct RootSet {
    table: SharedTable,
}

impl RootSet {
    /// Roots `v` in a slab slot (reusing the last freed one); the same as
    /// [`Heap::root`](crate::Heap::root).
    pub fn root(&self, v: Value) -> Rooted {
        Rooted {
            slot: self.table.borrow_mut().strong.claim(v),
            table: self.table.clone(),
        }
    }

    /// Observes `v` from a weak slot, stamped 0, so the next collection's
    /// weak-slot pass visits it.
    pub fn weak(&self, v: Value) -> WeakRooted {
        WeakRooted {
            slot: self.table.borrow_mut().weak.claim(v),
            table: self.table.clone(),
        }
    }

    pub(crate) fn root_vec(&self) -> RootedVec {
        let mut table = self.table.borrow_mut();
        let number = table.next_vec;
        table.next_vec += 1;
        let root = Rc::new(VecRoot {
            cells: RefCell::default(),
            table: self.table.clone(),
            number,
        });
        table.vecs.insert(number, Rc::downgrade(&root));
        RootedVec { root }
    }

    /// The roots pass of a collection of generations `0..=g`: applies
    /// `visit` to every slot stamped `<= g`, in the module's visit order,
    /// and stamps the slot with what it returns — the generation the
    /// slot's referent is now in, [`ROOT_CLEAN`] for a non-pointer.
    /// Returns the number of slots visited.
    pub(crate) fn trace(&self, g: u8, mut visit: impl FnMut(&mut Value) -> u8) -> u64 {
        let mut table = self.table.borrow_mut();
        let table = &mut *table;
        let mut traced = table.strong.trace(g, &mut visit);
        for entry in table.vecs.values() {
            let root = entry.upgrade().expect("a dropped vector unregisters");
            let mut cells = root.cells.borrow_mut();
            let VecCells { values, stamps } = &mut *cells;
            let (stamped, tail) = values.split_at_mut(stamps.len());
            traced += trace_stamped(stamped, stamps, g, &mut visit);
            traced += tail.len() as u64;
            stamps.extend(tail.iter_mut().map(&mut visit));
        }
        traced
    }

    /// The weak-slot pass of a collection of generations `0..=g`: applies
    /// `visit` to every weak slot stamped `<= g`, by index, and stamps the
    /// slot with what it returns. Returns the number of slots visited; an
    /// empty weak slab costs one length test.
    pub(crate) fn trace_weak(&self, g: u8, mut visit: impl FnMut(&mut Value) -> u8) -> u64 {
        let mut table = self.table.borrow_mut();
        if table.weak.values.is_empty() {
            return 0;
        }
        table.weak.trace(g, &mut visit)
    }

    /// Every strong root value, in visit order (free slab slots read `#f`).
    pub(crate) fn values(&self) -> Vec<Value> {
        let table = self.table.borrow();
        let mut out = table.strong.values.clone();
        for root in table.vecs.values().filter_map(Weak::upgrade) {
            out.extend_from_slice(&root.cells.borrow().values);
        }
        out
    }

    /// Every weak slot value, by index (free slots read `#f`).
    pub(crate) fn weak_values(&self) -> Vec<Value> {
        self.table.borrow().weak.values.clone()
    }

    /// Slab slots in use, strong and weak: every live [`Rooted`] (a
    /// guardian's tconc root included) and every live [`WeakRooted`].
    /// Vector slots are not counted.
    pub fn live_slots(&self) -> usize {
        let table = self.table.borrow();
        table.strong.live() + table.weak.live()
    }

    /// Test support: resets every stamp to 0, so the next collection
    /// visits every slot — the unfiltered reference the stamp filter is
    /// property-tested against.
    pub(crate) fn zero_stamps(&self) {
        let mut table = self.table.borrow_mut();
        table.strong.stamps.fill(0);
        table.weak.stamps.fill(0);
        for root in table.vecs.values().filter_map(Weak::upgrade) {
            root.cells.borrow_mut().stamps.fill(0);
        }
    }

    /// Checks the table's own invariants, for [`Heap::verify`]:
    /// free-list/share-count coherence of both slabs, stamped prefixes no
    /// longer than their vectors, and the stamp lower bound against `segs`.
    /// `collected` is the collected generation of a suspended incremental
    /// collection (its from-space is in `segs`).
    ///
    /// [`Heap::verify`]: crate::Heap::verify
    pub(crate) fn check(&self, segs: &SegmentTable, collected: Option<u8>) -> Result<(), String> {
        let table = self.table.borrow();
        table.strong.check_free_list("slot")?;
        table.weak.check_free_list("weak slot")?;
        let check_stamps = |what: &str, values: &[Value], stamps: &[u8]| {
            for (i, (&v, &stamp)) in values.iter().zip(stamps).enumerate() {
                if !v.is_ptr() {
                    continue;
                }
                // A pointer into a freed segment is the value check's to
                // report.
                let Some(info) = segs.try_info(v.addr().seg()) else {
                    continue;
                };
                if let Some(g) = collected {
                    if segs.in_from_space(v.addr().seg()) && stamp > g {
                        return Err(format!(
                            "{what} {i} holds the from-space pointer {v:?} but is stamped \
                             {stamp}, above the collected generation {g}"
                        ));
                    }
                }
                if stamp > info.generation {
                    return Err(format!(
                        "{what} {i} is stamped {stamp} but its referent {v:?} is in \
                         generation {} (stamp is not a lower bound)",
                        info.generation
                    ));
                }
            }
            Ok(())
        };
        check_stamps("slot", &table.strong.values, &table.strong.stamps)?;
        check_stamps("weak slot", &table.weak.values, &table.weak.stamps)?;
        for (number, root) in &table.vecs {
            let Some(root) = root.upgrade() else {
                continue;
            };
            let cells = root.cells.borrow();
            if cells.stamps.len() > cells.values.len() {
                return Err(format!(
                    "vector {number} has a stamped length of {} but only {} slots",
                    cells.stamps.len(),
                    cells.values.len()
                ));
            }
            check_stamps(
                &format!("vector {number} slot"),
                &cells.values,
                &cells.stamps,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcConfig, Heap};

    /// Visits every slot whatever its stamp, leaving stamps at 0.
    fn for_each_slot(set: &RootSet, mut f: impl FnMut(&mut Value)) -> u64 {
        set.zero_stamps();
        set.trace(0, |v| {
            f(v);
            0
        })
    }

    #[test]
    fn rooted_get_set_round_trip() {
        let set = RootSet::default();
        let r = set.root(Value::fixnum(1));
        assert_eq!(r.get(), Value::fixnum(1));
        r.set(Value::fixnum(2));
        assert_eq!(r.get(), Value::fixnum(2));
    }

    #[test]
    fn dropping_handle_unregisters() {
        let set = RootSet::default();
        let r = set.root(Value::fixnum(1));
        assert_eq!(set.live_slots(), 1);
        drop(r);
        assert_eq!(set.live_slots(), 0);
        // The freed slot is a clean non-pointer: no pass visits it, and
        // the next root reuses it.
        assert_eq!(set.trace(254, |_| unreachable!("nothing is due")), 0);
        let _again = set.root(Value::fixnum(2));
        assert_eq!(set.table.borrow().strong.values.len(), 1);
    }

    #[test]
    fn clones_share_a_cell_and_keep_it_alive() {
        let set = RootSet::default();
        let a = set.root(Value::fixnum(1));
        let b = a.clone();
        drop(a);
        b.set(Value::fixnum(9));
        let mut seen = Vec::new();
        for_each_slot(&set, |v| seen.push(*v));
        assert_eq!(seen, vec![Value::fixnum(9)]);
        drop(b);
        assert_eq!(set.live_slots(), 0);
    }

    #[test]
    fn for_each_slot_updates_in_place() {
        let set = RootSet::default();
        let r = set.root(Value::fixnum(1));
        let stack = set.root_vec();
        stack.push(Value::fixnum(10));
        stack.push(Value::fixnum(20));
        let visited = for_each_slot(&set, |v| {
            if v.is_fixnum() {
                *v = Value::fixnum(v.as_fixnum() + 1);
            }
        });
        assert_eq!(visited, 3);
        assert_eq!(r.get(), Value::fixnum(2));
        assert_eq!(stack.get(0), Value::fixnum(11));
        assert_eq!(stack.get(1), Value::fixnum(21));
    }

    #[test]
    fn weak_slots_are_a_slab_of_their_own() {
        let set = RootSet::default();
        let strong = set.root(Value::fixnum(1));
        let w = set.weak(Value::fixnum(2));
        let w2 = w.clone();
        assert_eq!(set.live_slots(), 2, "strong and weak slots both count");
        // The roots pass sees only the strong slot; the weak pass only the
        // weak one, whose clones share it.
        let mut seen = Vec::new();
        assert_eq!(
            set.trace(0, |v| {
                seen.push(*v);
                0
            }),
            1
        );
        assert_eq!(seen, [strong.get()]);
        let visited = set.trace_weak(0, |v| {
            *v = Value::fixnum(3);
            ROOT_CLEAN
        });
        assert_eq!(
            (visited, w.get(), w2.get()),
            (1, Value::fixnum(3), Value::fixnum(3))
        );
        assert_eq!(set.trace_weak(254, |_| unreachable!("stamped clean")), 0);
        drop(w);
        assert_eq!(set.live_slots(), 2);
        drop(w2);
        assert_eq!(set.live_slots(), 1);
        let _again = set.weak(Value::NIL);
        assert_eq!(
            set.table.borrow().weak.values.len(),
            1,
            "the slot is reused"
        );
    }

    #[test]
    fn rooted_vec_stack_discipline() {
        let set = RootSet::default();
        let stack = set.root_vec();
        assert!(stack.is_empty());
        let i = stack.push(Value::fixnum(5));
        assert_eq!(i, 0);
        assert_eq!(stack.len(), 1);
        stack.push(Value::TRUE);
        stack.truncate(1);
        assert_eq!(stack.pop(), Some(Value::fixnum(5)));
        assert_eq!(stack.pop(), None);
    }

    #[test]
    fn due_mask_is_exact_for_every_stamp_and_generation() {
        let step = if cfg!(miri) { 17 } else { 1 };
        for g in (0..ROOT_CLEAN).step_by(step) {
            for b in 0..=u8::MAX {
                // `b` in every lane in turn, beside neighbours that must
                // not leak into it.
                for lane in 0..8 {
                    let mut bytes = [b.wrapping_add(0x80); 8];
                    bytes[lane] = b;
                    let due = due_mask(u64::from_le_bytes(bytes), g);
                    assert_eq!(
                        due >> (lane * 8 + 7) & 1 == 1,
                        b <= g,
                        "stamp {b} against g {g} in lane {lane}"
                    );
                    assert_eq!(due & !HIGH_BITS, 0);
                }
            }
        }
    }

    #[test]
    fn trace_visits_exactly_the_due_slots_in_order() {
        let set = RootSet::default();
        let singles: Vec<Rooted> = (0..19).map(|i| set.root(Value::fixnum(i))).collect();
        let stack = set.root_vec();
        for i in 100..111 {
            stack.push(Value::fixnum(i));
        }
        // First pass: everything is stamped 0 or unstamped. Stamp each
        // slot with its payload modulo 4.
        let age = |v: &mut Value| (v.as_fixnum() % 4) as u8;
        assert_eq!(set.trace(0, age), 30);
        assert_eq!(stack.root.cells.borrow().stamps.len(), 11);
        // A generation-1 pass sees payloads 0 and 1 mod 4, slab first.
        let mut seen = Vec::new();
        let visited = set.trace(1, |v| {
            seen.push(v.as_fixnum());
            ROOT_CLEAN
        });
        let due = |r: std::ops::Range<i64>| r.filter(|i| i % 4 <= 1).collect::<Vec<_>>();
        assert_eq!(seen, [due(0..19), due(100..111)].concat());
        assert_eq!(visited, seen.len() as u64);
        // Those are clean now; stores bring slots back.
        assert_eq!(set.trace(1, |_| unreachable!("nothing is due")), 0);
        singles[7].set(Value::fixnum(7));
        stack.set(3, Value::fixnum(103));
        stack.truncate(9);
        stack.push(Value::fixnum(200));
        let mut seen = Vec::new();
        set.trace(0, |v| {
            seen.push(v.as_fixnum());
            ROOT_CLEAN
        });
        assert_eq!(seen, [7, 103, 200]);
    }

    #[test]
    fn registrations_do_not_grow_without_collections() {
        let mut h = Heap::default();
        let keep = h.root(Value::fixnum(0));
        let keep_vec = h.root_vec();
        // A poll loop holding a root per iteration, never allocating.
        let scale = if cfg!(miri) { 100 } else { 1 };
        for i in 0..1_000_000 / scale {
            let r = h.root(Value::fixnum(i));
            assert_eq!(r.get(), Value::fixnum(i));
        }
        for _ in 0..10_000 / scale {
            h.root_vec().push(Value::NIL);
        }
        assert_eq!(h.collection_count(), 0);
        let table = h.roots.table.borrow();
        assert_eq!(table.strong.values.len(), 2, "one live slot and one reused");
        assert_eq!(table.vecs.len(), 1, "the live vector");
        drop(table);
        drop((keep, keep_vec));
        assert_eq!(h.roots.live_slots(), 0);
        h.verify().expect("table is coherent");
    }

    #[test]
    fn handles_may_outlive_the_heap() {
        let mut h = Heap::default();
        let p = h.cons(Value::fixnum(1), Value::NIL);
        let r = h.root(p);
        let stack = h.root_vec();
        stack.push(p);
        h.collect(0);
        let moved = r.get();
        drop(h);
        assert_eq!(r.get(), moved);
        assert_eq!(stack.get(0), moved);
        r.set(Value::fixnum(2));
        stack.set(0, Value::fixnum(3));
        stack.push(Value::fixnum(4));
        let (r2, stack2) = (r.clone(), stack.clone());
        drop((r, stack));
        assert_eq!(r2.get(), Value::fixnum(2));
        assert_eq!(stack2.pop(), Some(Value::fixnum(4)));
        assert_eq!(stack2.pop(), Some(Value::fixnum(3)));
    }

    // ---- one test per verifier clause ------------------------------

    /// A heap with an aged rooted pair (slab slot 0), a freed slot 1 and a
    /// vector holding the pair twice.
    fn aged() -> (Heap, Rooted, RootedVec) {
        let mut h = Heap::default();
        let p = h.cons(Value::fixnum(1), Value::NIL);
        let r = h.root(p);
        drop(h.root(Value::NIL));
        let stack = h.root_vec();
        stack.push(p);
        stack.push(p);
        h.collect(0);
        h.verify().expect("sound before the corruption");
        (h, r, stack)
    }

    fn expect_error(h: &Heap, needle: &str) {
        let err = h.verify().expect_err("corruption must be detected");
        let text = err.to_string();
        assert!(
            text.contains("root table") && text.contains(needle),
            "got: {text}"
        );
    }

    #[test]
    fn verify_rejects_a_stamp_above_the_referents_generation() {
        let (h, r, stack) = aged();
        assert_eq!(h.generation_of(r.get()), Some(1));
        h.roots.table.borrow_mut().strong.stamps[0] = 2;
        expect_error(&h, "not a lower bound");
        h.roots.table.borrow_mut().strong.stamps[0] = ROOT_CLEAN;
        expect_error(&h, "not a lower bound");
        h.roots.table.borrow_mut().strong.stamps[0] = 1;
        stack.root.cells.borrow_mut().stamps[1] = 3;
        expect_error(&h, "vector 0 slot 1 is stamped 3");
    }

    #[test]
    fn verify_rejects_a_free_slot_holding_a_pointer() {
        let (h, r, _stack) = aged();
        h.roots.table.borrow_mut().strong.values[1] = r.get();
        expect_error(&h, "free slot 1 holds a pointer");
    }

    #[test]
    fn verify_rejects_a_slot_freed_twice() {
        let (h, _r, _stack) = aged();
        h.roots.table.borrow_mut().strong.free.push(1);
        expect_error(&h, "slot 1 is on the free list twice");
    }

    #[test]
    fn verify_rejects_a_shared_free_slot() {
        let (h, _r, _stack) = aged();
        h.roots.table.borrow_mut().strong.shares[1] = 1;
        expect_error(&h, "free slot 1 has share count 1");
    }

    #[test]
    fn verify_rejects_a_live_slot_nobody_shares() {
        let (h, _r, _stack) = aged();
        h.roots.table.borrow_mut().strong.shares[0] = 0;
        expect_error(&h, "live slot 0 has share count 0");
        // Put it back, or dropping the handle underflows the count.
        h.roots.table.borrow_mut().strong.shares[0] = 1;
    }

    #[test]
    fn verify_rejects_a_stamped_length_beyond_the_vector() {
        let (h, _r, stack) = aged();
        stack.root.cells.borrow_mut().stamps.push(0);
        expect_error(&h, "stamped length of 3 but only 2 slots");
    }

    /// A heap with a weak slot (slot 0) to a pair aged into generation 1
    /// and a freed weak slot 1.
    fn aged_weak() -> (Heap, Rooted, WeakRooted) {
        let mut h = Heap::default();
        let p = h.cons(Value::fixnum(1), Value::NIL);
        let r = h.root(p);
        let w = h.roots().weak(p);
        drop(h.roots().weak(p));
        h.collect(0);
        assert_eq!(w.get(), r.get());
        h.verify().expect("sound before the corruption");
        (h, r, w)
    }

    #[test]
    fn verify_rejects_a_weak_stamp_above_the_referents_generation() {
        let (h, _r, _w) = aged_weak();
        assert_eq!(h.roots.table.borrow().weak.stamps[0], 1);
        h.roots.table.borrow_mut().weak.stamps[0] = 2;
        expect_error(&h, "weak slot 0 is stamped 2");
    }

    #[test]
    fn verify_rejects_incoherent_weak_free_lists() {
        let (h, r, _w) = aged_weak();
        h.roots.table.borrow_mut().weak.values[1] = r.get();
        expect_error(&h, "free weak slot 1 holds a pointer");
        h.roots.table.borrow_mut().weak.values[1] = Value::FALSE;
        h.roots.table.borrow_mut().weak.free.push(1);
        expect_error(&h, "weak slot 1 is on the free list twice");
        h.roots.table.borrow_mut().weak.free.pop();
        h.roots.table.borrow_mut().weak.shares[0] = 0;
        expect_error(&h, "live weak slot 0 has share count 0");
        h.roots.table.borrow_mut().weak.shares[0] = 1;
    }

    #[test]
    fn verify_rejects_a_weak_slot_into_a_freed_segment() {
        let (h, _r, _w) = aged_weak();
        // What a skipped weak-slot pass leaves: the from-space address.
        let stale = Value::pair_at(guardians_segments::WordAddr::new(
            guardians_segments::SegIndex(900),
            0,
        ));
        h.roots.table.borrow_mut().weak.values[0] = stale;
        h.roots.table.borrow_mut().weak.stamps[0] = 0;
        let err = h.verify().expect_err("a dangling weak slot").to_string();
        assert!(
            err.contains("weak root points into a freed segment"),
            "got: {err}"
        );
    }

    #[test]
    fn verify_rejects_a_from_space_root_stamped_above_g_mid_cycle() {
        let mut h = Heap::new(GcConfig {
            pause_budget: Some(std::time::Duration::ZERO),
            ..GcConfig::new()
        });
        let p = h.cons(Value::fixnum(1), Value::NIL);
        let r = h.root(p);
        h.begin_incremental(0);
        h.verify().expect("a fresh root is stamped 0");
        // The root still holds the from-space address; claim the collector
        // had already seen the referent into generation 1.
        assert_eq!(r.get(), p);
        h.roots.table.borrow_mut().strong.stamps[0] = 1;
        expect_error(&h, "above the collected generation 0");
        h.roots.table.borrow_mut().strong.stamps[0] = 0;
        h.collect(0);
        h.verify().expect("sound after the cycle");
    }
}
