//! Structured event tracing for the collector and its clients.
//!
//! The heap owns an optional [`Tracer`]: a fixed-capacity ring buffer of
//! typed [`GcEvent`]s stamped with a monotonic timestamp and a sequence
//! number. When tracing is disabled the tracer is `None` and every
//! instrumentation site costs exactly one pointer-null test — no
//! timestamping, no event construction (the event is built inside a
//! closure that never runs). When enabled, events overwrite the oldest
//! entries once the ring fills; [`Heap::trace_dropped`] reports how many
//! were lost so replay-based consumers can detect truncation.
//!
//! Three consumers are built in:
//!
//! * [`replay_stats`] folds a drained event stream back into the
//!   collector-side fields of [`HeapStats`] — the parity contract that
//!   keeps the trace honest (tested in the bench crate and the torture
//!   rig).
//! * [`chrome_trace_json`] renders events as a Chrome `trace_event` JSON
//!   document (load in `chrome://tracing` or Perfetto): collections as
//!   begin/end spans, phases as complete slices, everything else as
//!   instant events, censuses as counter tracks.
//! * [`events_jsonl`] renders one JSON object per line for ad-hoc
//!   processing.
//!
//! [`Heap::trace_dropped`]: crate::Heap::trace_dropped
//! [`HeapStats`]: crate::HeapStats

use crate::stats::HeapStats;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Identifies one of the seven collection phases (see `collect`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum GcPhase {
    /// Phase 1: snapshot the from-space, reset cursors.
    Flip,
    /// Phase 2: forward registered roots.
    Roots,
    /// Phase 3: scan dirty old-generation segments.
    Remset,
    /// Phase 4: the main Cheney sweep.
    Sweep,
    /// Phase 5: the guardian protected-list pass.
    Guardian,
    /// Phase 6: the weak-pair pass.
    Weak,
    /// Phase 7: return from-space segments to the free pool.
    Reclaim,
}

impl GcPhase {
    /// Stable lower-case name, used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            GcPhase::Flip => "flip",
            GcPhase::Roots => "roots",
            GcPhase::Remset => "remset",
            GcPhase::Sweep => "sweep",
            GcPhase::Guardian => "guardian",
            GcPhase::Weak => "weak",
            GcPhase::Reclaim => "reclaim",
        }
    }
}

/// A typed trace event. All payloads are plain scalars so emitting an
/// event never allocates.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GcEvent {
    /// A collection started.
    CollectionBegin {
        /// 1-based collection index.
        index: u64,
        /// Highest generation collected.
        collected_generation: u8,
        /// Generation survivors are copied into.
        target_generation: u8,
    },
    /// A collection phase finished.
    PhaseEnd {
        /// Which phase.
        phase: GcPhase,
        /// Wall-clock nanoseconds the phase took.
        dur_ns: u64,
    },
    /// Words copied out of one source generation during a collection
    /// (emitted once per generation with a non-zero count, just before
    /// [`GcEvent::CollectionEnd`]; the counts sum to the collection's
    /// `words_copied`).
    GenCopied {
        /// Source generation the words were copied from.
        generation: u8,
        /// Words copied out of it.
        words: u64,
    },
    /// The guardian pass partitioned the protected lists (Block 1).
    GuardianPartition {
        /// Entries visited across the processed lists.
        visited: u64,
        /// Entries whose object was still accessible (pend-hold-list).
        pend_hold: u64,
        /// Entries whose object was inaccessible (pend-final-list).
        pend_final: u64,
    },
    /// One iteration of the pend-final-list fixpoint loop resurrected
    /// entries (Block 2; emitted only for non-empty rounds).
    GuardianRound {
        /// 1-based loop iteration.
        round: u64,
        /// Entries finalized (their representatives resurrected and
        /// enqueued) this round.
        resurrected: u64,
    },
    /// The guardian pass finished (after Block 3).
    GuardianOutcome {
        /// Entries finalized across all rounds.
        finalized: u64,
        /// Entries held (object alive, migrated to the target list).
        held: u64,
        /// Entries dropped (their guardian was unreachable).
        dropped: u64,
        /// Fixpoint loop iterations (including the final empty one).
        loop_iterations: u64,
    },
    /// The weak pass finished.
    WeakSweep {
        /// Weak pairs examined.
        scanned: u64,
        /// Weak cars overwritten with `#f`.
        broken: u64,
        /// Weak cars updated to a forwarded referent.
        forwarded: u64,
    },
    /// An element was appended to a tconc queue.
    TconcAppend {
        /// `true` for collector-side appends (the guardian pass enqueuing
        /// a finalized representative), `false` for mutator appends.
        during_collection: bool,
    },
    /// Segments were acquired from the OS or the free pool.
    SegmentsAcquired {
        /// Number of segments (a run counts one per segment).
        count: u64,
    },
    /// A from-space run was returned to the free pool.
    SegmentsReleased {
        /// Number of segments in the run.
        count: u64,
    },
    /// A sampled mutator allocation (every Nth per
    /// [`TraceConfig::alloc_sample_every`]).
    AllocSample {
        /// Space name: `"pair"`, `"weak-pair"`, `"typed"`, or `"pure"`.
        space: &'static str,
        /// Allocation size in words.
        words: u64,
        /// Allocation site, if the embedding tagged one (see
        /// [`Heap::set_alloc_site`](crate::Heap::set_alloc_site)).
        site: Option<&'static str>,
    },
    /// Live census of one generation, taken at collection end when
    /// [`TraceConfig::census_at_collection_end`] is set.
    CensusGen {
        /// The generation.
        generation: u8,
        /// Live ordinary pairs.
        pairs: u64,
        /// Live weak pairs.
        weak_pairs: u64,
        /// Live typed objects.
        objects: u64,
        /// Live words (pairs + weak pairs + typed objects).
        words: u64,
        /// Guardian protected-list entries parked at this generation.
        protected_entries: u64,
    },
    /// A collection finished; payload mirrors the headline counters of
    /// the [`CollectionReport`](crate::CollectionReport).
    CollectionEnd {
        /// 1-based collection index.
        index: u64,
        /// Total words copied.
        words_copied: u64,
        /// Pairs copied.
        pairs_copied: u64,
        /// Typed objects copied.
        objects_copied: u64,
        /// Guardian entries visited.
        guardian_entries_visited: u64,
        /// Weak pairs scanned.
        weak_pairs_scanned: u64,
        /// Remembered-set cards visited.
        dirty_cards_scanned: u64,
        /// Wall-clock nanoseconds for the whole collection.
        dur_ns: u64,
    },
    /// A runtime policy change applied between collections (see
    /// [`Heap::set_max_segments`](crate::Heap::set_max_segments), its
    /// one emitter).
    PolicyChange {
        /// Knob name: `"max_segments"`.
        knob: &'static str,
        /// Old knob value (`0` encodes "unbounded" for `max_segments`).
        from: u64,
        /// New knob value.
        to: u64,
        /// 1-based index of the collection the change followed.
        collection: u64,
    },
    /// An application-level marker emitted through
    /// [`Heap::trace_app_event`](crate::Heap::trace_app_event) — the
    /// runtime layer uses these for port finalization and transport
    /// rehash markers.
    App {
        /// Static marker name.
        name: &'static str,
    },
}

/// A ring-buffer entry: an event with its timestamp and sequence number.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TracedEvent {
    /// Nanoseconds since tracing was enabled (monotonic).
    pub ts_ns: u64,
    /// 1-based sequence number; contiguous unless events were dropped.
    pub seq: u64,
    /// The event.
    pub event: GcEvent,
}

/// Tracing configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events; the oldest events are overwritten when it
    /// fills (default 65 536, ≈ 2.5 MB).
    pub capacity: usize,
    /// Emit an [`GcEvent::AllocSample`] for every Nth mutator allocation;
    /// `0` disables allocation sampling (the default — collections are
    /// rare, allocations are not).
    pub alloc_sample_every: u32,
    /// Take a live-heap census at the end of every collection and emit a
    /// [`GcEvent::CensusGen`] per generation (default off; a census walks
    /// every live segment).
    pub census_at_collection_end: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 65_536,
            alloc_sample_every: 0,
            census_at_collection_end: false,
        }
    }
}

/// The event ring. Owned by the heap behind an `Option<Box<_>>` so the
/// disabled-mode cost of every instrumentation site is one null test.
pub(crate) struct Tracer {
    pub(crate) cfg: TraceConfig,
    ring: VecDeque<TracedEvent>,
    epoch: Instant,
    seq: u64,
    dropped: u64,
    /// Countdown state for allocation sampling.
    pub(crate) alloc_tick: u32,
}

impl Tracer {
    pub(crate) fn new(mut cfg: TraceConfig) -> Tracer {
        cfg.capacity = cfg.capacity.max(1);
        Tracer {
            ring: VecDeque::with_capacity(cfg.capacity),
            epoch: Instant::now(),
            seq: 0,
            dropped: 0,
            alloc_tick: 0,
            cfg,
        }
    }

    /// Records an event, overwriting the oldest if the ring is full.
    pub(crate) fn emit(&mut self, event: GcEvent) {
        if self.ring.len() == self.cfg.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.seq += 1;
        self.ring.push_back(TracedEvent {
            ts_ns: self.epoch.elapsed().as_nanos() as u64,
            seq: self.seq,
            event,
        });
    }

    pub(crate) fn drain(&mut self) -> Vec<TracedEvent> {
        self.ring.drain(..).collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Per-site allocation attribution, keyed by the static site names the
/// embedding passes to [`Heap::set_alloc_site`](crate::Heap::set_alloc_site).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Allocations attributed to the site.
    pub allocations: u64,
    /// Words attributed to the site.
    pub words: u64,
}

#[derive(Default)]
pub(crate) struct SiteProfile {
    /// `BTreeMap` for deterministic iteration order in reports.
    pub(crate) sites: std::collections::BTreeMap<&'static str, SiteStats>,
}

// ----------------------------------------------------------------------
// Replay
// ----------------------------------------------------------------------

/// Folds a drained event stream back into the collector-side fields of
/// [`HeapStats`]: collections, total words copied, guardian entries
/// visited, weak pairs scanned, remembered-set cards visited, total GC time, and the per-phase time
/// totals. The result must equal the heap's own accounting exactly —
/// the event-vs-counter parity contract. Mutator-side allocation counters
/// are not derivable from a (sampled) trace and stay zero.
pub fn replay_stats(events: &[TracedEvent]) -> HeapStats {
    let mut out = HeapStats::default();
    for e in events {
        match e.event {
            GcEvent::PhaseEnd { phase, dur_ns } => {
                let d = Duration::from_nanos(dur_ns);
                let p = &mut out.total_phase_times;
                match phase {
                    GcPhase::Flip => p.flip += d,
                    GcPhase::Roots => p.roots += d,
                    GcPhase::Remset => p.remset += d,
                    GcPhase::Sweep => p.sweep += d,
                    GcPhase::Guardian => p.guardian += d,
                    GcPhase::Weak => p.weak += d,
                    GcPhase::Reclaim => p.reclaim += d,
                }
            }
            GcEvent::CollectionEnd {
                words_copied,
                guardian_entries_visited,
                weak_pairs_scanned,
                dirty_cards_scanned,
                dur_ns,
                ..
            } => {
                out.collections += 1;
                out.total_words_copied += words_copied;
                out.total_guardian_entries_visited += guardian_entries_visited;
                out.total_weak_pairs_scanned += weak_pairs_scanned;
                out.total_dirty_cards_scanned += dirty_cards_scanned;
                out.total_gc_time += Duration::from_nanos(dur_ns);
            }
            _ => {}
        }
    }
    out
}

// ----------------------------------------------------------------------
// Exporters
// ----------------------------------------------------------------------

/// The event's exporter-facing shape: a stable name plus key/value args.
fn event_fields(e: &GcEvent) -> (&'static str, Vec<(&'static str, String)>) {
    fn u(v: u64) -> String {
        v.to_string()
    }
    match *e {
        GcEvent::CollectionBegin {
            index,
            collected_generation,
            target_generation,
        } => (
            "collection_begin",
            vec![
                ("index", u(index)),
                ("collected_generation", u(collected_generation as u64)),
                ("target_generation", u(target_generation as u64)),
            ],
        ),
        GcEvent::PhaseEnd { phase, dur_ns } => (
            "phase_end",
            vec![
                ("phase", format!("\"{}\"", phase.name())),
                ("dur_ns", u(dur_ns)),
            ],
        ),
        GcEvent::GenCopied { generation, words } => (
            "gen_copied",
            vec![("generation", u(generation as u64)), ("words", u(words))],
        ),
        GcEvent::GuardianPartition {
            visited,
            pend_hold,
            pend_final,
        } => (
            "guardian_partition",
            vec![
                ("visited", u(visited)),
                ("pend_hold", u(pend_hold)),
                ("pend_final", u(pend_final)),
            ],
        ),
        GcEvent::GuardianRound { round, resurrected } => (
            "guardian_round",
            vec![("round", u(round)), ("resurrected", u(resurrected))],
        ),
        GcEvent::GuardianOutcome {
            finalized,
            held,
            dropped,
            loop_iterations,
        } => (
            "guardian_outcome",
            vec![
                ("finalized", u(finalized)),
                ("held", u(held)),
                ("dropped", u(dropped)),
                ("loop_iterations", u(loop_iterations)),
            ],
        ),
        GcEvent::WeakSweep {
            scanned,
            broken,
            forwarded,
        } => (
            "weak_sweep",
            vec![
                ("scanned", u(scanned)),
                ("broken", u(broken)),
                ("forwarded", u(forwarded)),
            ],
        ),
        GcEvent::TconcAppend { during_collection } => (
            "tconc_append",
            vec![("during_collection", during_collection.to_string())],
        ),
        GcEvent::SegmentsAcquired { count } => ("segments_acquired", vec![("count", u(count))]),
        GcEvent::SegmentsReleased { count } => ("segments_released", vec![("count", u(count))]),
        GcEvent::AllocSample { space, words, site } => (
            "alloc_sample",
            vec![
                ("space", format!("\"{space}\"")),
                ("words", u(words)),
                (
                    "site",
                    match site {
                        Some(s) => format!("\"{s}\""),
                        None => "null".to_string(),
                    },
                ),
            ],
        ),
        GcEvent::CensusGen {
            generation,
            pairs,
            weak_pairs,
            objects,
            words,
            protected_entries,
        } => (
            "census_gen",
            vec![
                ("generation", u(generation as u64)),
                ("pairs", u(pairs)),
                ("weak_pairs", u(weak_pairs)),
                ("objects", u(objects)),
                ("words", u(words)),
                ("protected_entries", u(protected_entries)),
            ],
        ),
        GcEvent::CollectionEnd {
            index,
            words_copied,
            pairs_copied,
            objects_copied,
            guardian_entries_visited,
            weak_pairs_scanned,
            dirty_cards_scanned,
            dur_ns,
        } => (
            "collection_end",
            vec![
                ("index", u(index)),
                ("words_copied", u(words_copied)),
                ("pairs_copied", u(pairs_copied)),
                ("objects_copied", u(objects_copied)),
                ("guardian_entries_visited", u(guardian_entries_visited)),
                ("weak_pairs_scanned", u(weak_pairs_scanned)),
                ("dirty_cards_scanned", u(dirty_cards_scanned)),
                ("dur_ns", u(dur_ns)),
            ],
        ),
        GcEvent::PolicyChange {
            knob,
            from,
            to,
            collection,
        } => (
            "policy_change",
            vec![
                ("knob", format!("\"{knob}\"")),
                ("from", u(from)),
                ("to", u(to)),
                ("collection", u(collection)),
            ],
        ),
        GcEvent::App { name } => ("app", vec![("name", format!("\"{name}\""))]),
    }
}

fn args_json(fields: &[(&'static str, String)]) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{k}\":{v}"));
    }
    s.push('}');
    s
}

/// Renders events as one JSON object per line (`ts_ns`, `seq`, `type`,
/// then the event's own fields), with deterministic key order.
pub fn events_jsonl(events: &[TracedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let (name, fields) = event_fields(&e.event);
        out.push_str(&format!(
            "{{\"ts_ns\":{},\"seq\":{},\"type\":\"{}\"",
            e.ts_ns, e.seq, name
        ));
        for (k, v) in &fields {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str("}\n");
    }
    out
}

/// Renders events as a Chrome `trace_event` JSON document (open in
/// `chrome://tracing` or Perfetto). Collections become begin/end spans,
/// phases complete (`"X"`) slices placed by their end timestamp and
/// duration, censuses counter (`"C"`) tracks, and everything else instant
/// (`"i"`) events.
pub fn chrome_trace_json(events: &[TracedEvent]) -> String {
    // trace_event timestamps are microseconds; keep sub-µs precision.
    fn us(ns: u64) -> String {
        format!("{:.3}", ns as f64 / 1000.0)
    }
    let mut entries: Vec<String> = Vec::with_capacity(events.len());
    for e in events {
        let (name, fields) = event_fields(&e.event);
        let args = args_json(&fields);
        let entry = match e.event {
            GcEvent::CollectionBegin { .. } => format!(
                "{{\"name\":\"collection\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":1,\"args\":{}}}",
                us(e.ts_ns),
                args
            ),
            GcEvent::CollectionEnd { .. } => format!(
                "{{\"name\":\"collection\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":1,\"args\":{}}}",
                us(e.ts_ns),
                args
            ),
            GcEvent::PhaseEnd { phase, dur_ns } => format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{}}}",
                phase.name(),
                us(e.ts_ns.saturating_sub(dur_ns)),
                us(dur_ns),
                args
            ),
            GcEvent::CensusGen {
                generation,
                pairs,
                weak_pairs,
                objects,
                ..
            } => format!(
                "{{\"name\":\"census.gen{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"pairs\":{},\"weak_pairs\":{},\"objects\":{}}}}}",
                generation,
                us(e.ts_ns),
                pairs,
                weak_pairs,
                objects
            ),
            _ => format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{}}}",
                name,
                us(e.ts_ns),
                args
            ),
        };
        entries.push(entry);
    }
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\"}}",
        entries.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, event: GcEvent) -> TracedEvent {
        TracedEvent {
            ts_ns: seq * 1000,
            seq,
            event,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = Tracer::new(TraceConfig {
            capacity: 2,
            ..TraceConfig::default()
        });
        t.emit(GcEvent::SegmentsAcquired { count: 1 });
        t.emit(GcEvent::SegmentsAcquired { count: 2 });
        t.emit(GcEvent::SegmentsAcquired { count: 3 });
        assert_eq!(t.dropped(), 1);
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, GcEvent::SegmentsAcquired { count: 2 });
        assert_eq!(events[1].seq, 3, "sequence numbers survive drops");
        assert!(t.drain().is_empty(), "drain empties the ring");
    }

    #[test]
    fn replay_accumulates_collections_and_phases() {
        let events = [
            ev(
                1,
                GcEvent::PhaseEnd {
                    phase: GcPhase::Sweep,
                    dur_ns: 500,
                },
            ),
            ev(
                2,
                GcEvent::PhaseEnd {
                    phase: GcPhase::Weak,
                    dur_ns: 40,
                },
            ),
            ev(
                3,
                GcEvent::CollectionEnd {
                    index: 1,
                    words_copied: 10,
                    pairs_copied: 4,
                    objects_copied: 1,
                    guardian_entries_visited: 2,
                    weak_pairs_scanned: 3,
                    dirty_cards_scanned: 6,
                    dur_ns: 700,
                },
            ),
        ];
        let stats = replay_stats(&events);
        assert_eq!(stats.collections, 1);
        assert_eq!(stats.total_words_copied, 10);
        assert_eq!(stats.total_guardian_entries_visited, 2);
        assert_eq!(stats.total_weak_pairs_scanned, 3);
        assert_eq!(stats.total_dirty_cards_scanned, 6);
        assert_eq!(stats.total_gc_time, Duration::from_nanos(700));
        assert_eq!(stats.total_phase_times.sweep, Duration::from_nanos(500));
        assert_eq!(stats.total_phase_times.weak, Duration::from_nanos(40));
        assert_eq!(stats.total_phase_times.flip, Duration::ZERO);
    }

    #[test]
    fn exporters_emit_every_event_kind() {
        let all = [
            GcEvent::CollectionBegin {
                index: 1,
                collected_generation: 0,
                target_generation: 1,
            },
            GcEvent::PhaseEnd {
                phase: GcPhase::Flip,
                dur_ns: 10,
            },
            GcEvent::GenCopied {
                generation: 0,
                words: 8,
            },
            GcEvent::GuardianPartition {
                visited: 3,
                pend_hold: 1,
                pend_final: 2,
            },
            GcEvent::GuardianRound {
                round: 1,
                resurrected: 2,
            },
            GcEvent::GuardianOutcome {
                finalized: 2,
                held: 1,
                dropped: 0,
                loop_iterations: 2,
            },
            GcEvent::WeakSweep {
                scanned: 5,
                broken: 1,
                forwarded: 2,
            },
            GcEvent::TconcAppend {
                during_collection: true,
            },
            GcEvent::SegmentsAcquired { count: 2 },
            GcEvent::SegmentsReleased { count: 2 },
            GcEvent::AllocSample {
                space: "pair",
                words: 2,
                site: Some("cons"),
            },
            GcEvent::CensusGen {
                generation: 1,
                pairs: 7,
                weak_pairs: 1,
                objects: 2,
                words: 20,
                protected_entries: 1,
            },
            GcEvent::CollectionEnd {
                index: 1,
                words_copied: 8,
                pairs_copied: 4,
                objects_copied: 0,
                guardian_entries_visited: 3,
                weak_pairs_scanned: 5,
                dirty_cards_scanned: 0,
                dur_ns: 100,
            },
            GcEvent::PolicyChange {
                knob: "max_segments",
                from: 0,
                to: 64,
                collection: 1,
            },
            GcEvent::App { name: "port.close" },
        ];
        let traced: Vec<TracedEvent> = all
            .iter()
            .enumerate()
            .map(|(i, &event)| ev(i as u64 + 1, event))
            .collect();
        let jsonl = events_jsonl(&traced);
        assert_eq!(jsonl.lines().count(), all.len());
        for line in jsonl.lines() {
            assert!(line.starts_with("{\"ts_ns\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        let chrome = chrome_trace_json(&traced);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"C\""));
        assert!(chrome.contains("\"ph\":\"i\""));
    }

    #[test]
    fn phase_slices_are_placed_by_start_time() {
        let traced = [TracedEvent {
            ts_ns: 5_000,
            seq: 1,
            event: GcEvent::PhaseEnd {
                phase: GcPhase::Sweep,
                dur_ns: 2_000,
            },
        }];
        let chrome = chrome_trace_json(&traced);
        // end 5µs − dur 2µs → starts at 3µs.
        assert!(chrome.contains("\"ts\":3.000"), "{chrome}");
        assert!(chrome.contains("\"dur\":2.000"), "{chrome}");
    }
}
