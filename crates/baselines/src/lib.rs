#![warn(missing_docs)]

//! The finalization mechanisms from the paper's Background section
//! (Section 2), implemented as comparison baselines:
//!
//! * [`WeakSet`] — T's "populations": weak sets whose every operation
//!   traverses the full list.
//! * [`WeakHasher`] — MIT-Scheme / T `hash`/`unhash` weak pointers.
//! * [`FinalizationRegistry`] — Dickey's `register-for-finalization`:
//!   thunks run right after the collection that reclaimed their object,
//!   with the no-allocation restriction (a thunk only gets `&Heap`) and
//!   the error suppression the paper criticises; built on weak pairs.
//! * [`IndirectPorts`] — the weak-pointer + forwarding-header workaround
//!   (Atkins), paying an extra dereference per I/O operation and a
//!   full-registry scan per clean-up.
//! * [`ScanTable`] — re-export of the weak-key hash table that needs
//!   periodic full scans (lives in `guardians-runtime` next to the
//!   guarded table it contrasts with).
//!
//! Together with the guarded implementations in `guardians-runtime`,
//! these are the comparison points for experiments E1, E4, and E5.

pub mod finalize;
pub mod indirection;
pub mod weak_hash;
pub mod weak_set;

pub use finalize::{FinalizationRegistry, FinalizeThunk};
pub use guardians_runtime::WeakKeyTable as ScanTable;
pub use indirection::IndirectPorts;
pub use weak_hash::WeakHasher;
pub use weak_set::WeakSet;
