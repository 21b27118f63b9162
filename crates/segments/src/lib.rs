#![warn(missing_docs)]

//! Segmented heap substrate, modelled on the memory system the paper
//! attributes to Chez Scheme (Section 4):
//!
//! > "Chez Scheme employs a segmented memory system in which the heap is
//! > structured as a set of segments (each currently 4K bytes in size).
//! > Each segment belongs to a specific space and generation; the space and
//! > generation to which each segment belongs is maintained in a segment
//! > information table with one entry per segment."
//!
//! This crate provides exactly that: fixed-size segments of 64-bit words, a
//! segment information table tagging each segment with a [`Space`] and a
//! generation, a free pool so segment storage is recycled across
//! collections, contiguous multi-segment *runs* for objects larger than
//! one segment, and the remembered set's card table (one byte per
//! [`CARD_WORDS`]-word card, summarised by a per-run dirty flag and index). It knows nothing about value representation; the
//! `guardians-gc` crate builds the object model on top.
//!
//! # Example
//!
//! ```
//! use guardians_segments::{SegmentTable, Space, SEGMENT_WORDS};
//!
//! let mut table = SegmentTable::new();
//! let seg = table.allocate(Space::Pair, 0);
//! let addr = table.base_addr(seg);
//! table.set_word(addr, 42);
//! assert_eq!(table.word(addr), 42);
//! assert_eq!(table.info(seg).space, Space::Pair);
//! assert_eq!(table.info(seg).generation, 0);
//! assert!(table.words_allocated() >= SEGMENT_WORDS);
//! ```

mod addr;
mod info;
mod pool;
mod seg;
mod table;

pub use addr::{SegIndex, WordAddr, SEGMENT_BYTES, SEGMENT_WORDS, SEGMENT_WORDS_LOG2};
pub use info::{SegInfo, SegKind, Space};
pub use pool::{PoolStats, SegmentPool};
pub use seg::Segment;
pub use table::{SegmentTable, CARDS_PER_SEGMENT, CARD_CLEAN, CARD_WORDS, WHERE_FROM, WHERE_NONE};
