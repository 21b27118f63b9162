//! Recoverable heap errors.
//!
//! The collector itself never runs user code and never fails mid-flight:
//! the only recoverable failure mode is *segment exhaustion*, which the
//! heap surfaces **before** mutating anything — either when a mutator
//! allocation cannot acquire the segments it needs, or when a collection's
//! worst-case to-space reservation does not fit in the remaining segment
//! budget. In both cases the heap is left exactly as it was (and still
//! passes [`Heap::verify`](crate::Heap::verify)); the caller can free
//! roots and retry, collect a smaller generation, or shut down cleanly.

use std::fmt;

/// A recoverable heap failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcError {
    /// Segment acquisition would exceed the configured budget (the
    /// [`Heap::set_acquisition_fault`](crate::Heap::set_acquisition_fault)
    /// fault-injection knob, which doubles as a hard heap-size cap).
    ///
    /// The operation that reported this error performed **no** heap
    /// mutation: allocations check their full segment demand up front, and
    /// collections check a conservative worst-case to-space reservation
    /// before the flip.
    Exhausted {
        /// Segments the operation needed (for a collection: the
        /// conservative worst-case reservation).
        needed: u64,
        /// Segments still acquirable before the fault fires.
        remaining: u64,
    },
}

impl fmt::Display for GcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GcError::Exhausted { needed, remaining } => write!(
                f,
                "heap exhausted: needs {needed} segment(s) but only {remaining} \
                 can still be acquired before the configured acquisition limit"
            ),
        }
    }
}

impl std::error::Error for GcError {}
