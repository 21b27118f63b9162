//! Structured event tracing for the collector and its clients.
//!
//! The heap owns an optional [`Tracer`]: a fixed-capacity ring buffer of
//! typed [`GcEvent`]s stamped with a monotonic timestamp and a sequence
//! number. When tracing is disabled the tracer is `None` and every
//! instrumentation site costs exactly one pointer-null test — no
//! timestamping, no event construction (the event is built inside a
//! closure that never runs). When enabled, events overwrite the oldest
//! entries once the ring fills; [`Heap::trace_dropped`] reports how many
//! were lost so consumers that count events can detect truncation.
//!
//! The ring records what no counter holds: one [`GcEvent::Advance`] per
//! pause, with its phase laps, and the guardian rounds, tconc appends,
//! segment traffic, censuses and application markers around it. The
//! counts of a collection are its [`CollectionReport`]'s, not the ring's.
//! Two exporters are built in:
//!
//! * [`chrome_trace_json`] renders events as a Chrome `trace_event` JSON
//!   document (load in `chrome://tracing` or Perfetto): collections as
//!   begin/end spans, advances and their phases as complete slices,
//!   censuses as counter tracks, everything else as instant events.
//! * [`events_jsonl`] renders one JSON object per line for ad-hoc
//!   processing.
//!
//! [`Heap::trace_dropped`]: crate::Heap::trace_dropped
//! [`CollectionReport`]: crate::CollectionReport

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Identifies one of the seven collection phases (see `collect`), in
/// phase order: `phase as usize` indexes [`GcEvent::Advance`]'s `laps_ns`.
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
    /// Every phase, in phase order.
    pub const ALL: [GcPhase; 7] = [
        GcPhase::Flip,
        GcPhase::Roots,
        GcPhase::Remset,
        GcPhase::Sweep,
        GcPhase::Guardian,
        GcPhase::Weak,
        GcPhase::Reclaim,
    ];

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
/// event never allocates. An event records what no counter holds — when a
/// pause happened and how it split into phases, a guardian round, which
/// side appended to a tconc, segment traffic, a census, an embedding's
/// marker; a collection's counts are its
/// [`CollectionReport`](crate::CollectionReport)'s. The heap's policy is
/// fixed at construction, so no event reports a change to it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GcEvent {
    /// One advance of a collection — one pause, one `gc.pause_ns` sample —
    /// emitted as the advance returns.
    Advance {
        /// 1-based collection index (the report's `collection_index`).
        index: u64,
        /// Highest generation collected.
        collected_generation: u8,
        /// Generation survivors are copied into.
        target_generation: u8,
        /// 1-based number of this advance within its collection.
        increment: u32,
        /// Whether this advance completed the collection.
        terminal: bool,
        /// Wall-clock nanoseconds of the pause: the `gc.pause_ns` sample,
        /// which for the first advance includes the flip.
        pause_ns: u64,
        /// Nanoseconds each phase ran during this advance, indexed by
        /// [`GcPhase`]; the first advance's include the flip.
        laps_ns: [u64; 7],
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
    /// fills (default 65 536: a [`TracedEvent`] is 96 bytes, so 6 MiB).
    pub capacity: usize,
    /// Take a live-heap census at the end of every collection and emit a
    /// [`GcEvent::CensusGen`] per generation (default off; a census walks
    /// every live segment).
    pub census_at_collection_end: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            capacity: 65_536,
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
}

impl Tracer {
    pub(crate) fn new(mut cfg: TraceConfig) -> Tracer {
        cfg.capacity = cfg.capacity.max(1);
        Tracer {
            ring: VecDeque::with_capacity(cfg.capacity),
            epoch: Instant::now(),
            seq: 0,
            dropped: 0,
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
// Exporters
// ----------------------------------------------------------------------

/// The event's exporter-facing shape: a stable name plus key/value args.
fn event_fields(e: &GcEvent) -> (&'static str, Vec<(&'static str, String)>) {
    fn u(v: u64) -> String {
        v.to_string()
    }
    match *e {
        GcEvent::Advance {
            index,
            collected_generation,
            target_generation,
            increment,
            terminal,
            pause_ns,
            laps_ns,
        } => {
            let laps: Vec<(&'static str, String)> = GcPhase::ALL
                .iter()
                .map(|&p| (p.name(), u(laps_ns[p as usize])))
                .collect();
            (
                "advance",
                vec![
                    ("index", u(index)),
                    ("collected_generation", u(collected_generation as u64)),
                    ("target_generation", u(target_generation as u64)),
                    ("increment", u(increment as u64)),
                    ("terminal", terminal.to_string()),
                    ("pause_ns", u(pause_ns)),
                    ("laps_ns", args_json(&laps)),
                ],
            )
        }
        GcEvent::GuardianRound { round, resurrected } => (
            "guardian_round",
            vec![("round", u(round)), ("resurrected", u(resurrected))],
        ),
        GcEvent::TconcAppend { during_collection } => (
            "tconc_append",
            vec![("during_collection", during_collection.to_string())],
        ),
        GcEvent::SegmentsAcquired { count } => ("segments_acquired", vec![("count", u(count))]),
        GcEvent::SegmentsReleased { count } => ("segments_released", vec![("count", u(count))]),
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
/// `chrome://tracing` or Perfetto). Every advance becomes a complete
/// (`"X"`) slice over its pause, ending at its timestamp, with its phase
/// laps laid end to end inside it. A collection becomes one begin/end span
/// from the start of its earliest advance in `events` to its terminal
/// advance; one whose terminal advance is not in `events` gets no span, so
/// every `E` has its `B`. Censuses become counter (`"C"`) tracks and
/// everything else instant (`"i"`) events.
pub fn chrome_trace_json(events: &[TracedEvent]) -> String {
    // trace_event timestamps are microseconds; keep sub-µs precision.
    fn us(ns: u64) -> String {
        format!("{:.3}", ns as f64 / 1000.0)
    }
    fn slice(name: &str, start: u64, dur: u64, args: &str) -> String {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{args}}}",
            us(start),
            us(dur)
        )
    }
    let ended: HashSet<u64> = events
        .iter()
        .filter_map(|e| match e.event {
            GcEvent::Advance {
                index,
                terminal: true,
                ..
            } => Some(index),
            _ => None,
        })
        .collect();
    let mut entries: Vec<String> = Vec::with_capacity(events.len());
    // The collection of the last advance seen: a collection's advances are
    // consecutive among the advances, so a new index is its earliest.
    let mut last = None;
    for e in events {
        let (name, fields) = event_fields(&e.event);
        let args = args_json(&fields);
        match e.event {
            GcEvent::Advance {
                index,
                collected_generation,
                target_generation,
                terminal,
                pause_ns,
                laps_ns,
                ..
            } => {
                let start = e.ts_ns.saturating_sub(pause_ns);
                if last != Some(index) && ended.contains(&index) {
                    entries.push(format!(
                        "{{\"name\":\"collection\",\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":1,\
                         \"args\":{{\"index\":{index},\"collected_generation\":{collected_generation},\
                         \"target_generation\":{target_generation}}}}}",
                        us(start)
                    ));
                }
                last = Some(index);
                entries.push(slice("advance", start, pause_ns, &args));
                let mut at = start;
                for phase in GcPhase::ALL {
                    let lap = laps_ns[phase as usize];
                    if lap > 0 {
                        entries.push(slice(phase.name(), at, lap, "{}"));
                    }
                    at += lap;
                }
                if terminal {
                    entries.push(format!(
                        "{{\"name\":\"collection\",\"ph\":\"E\",\"ts\":{},\"pid\":1,\"tid\":1}}",
                        us(e.ts_ns)
                    ));
                }
            }
            GcEvent::CensusGen {
                generation,
                pairs,
                weak_pairs,
                objects,
                ..
            } => entries.push(format!(
                "{{\"name\":\"census.gen{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"pairs\":{},\"weak_pairs\":{},\"objects\":{}}}}}",
                generation,
                us(e.ts_ns),
                pairs,
                weak_pairs,
                objects
            )),
            _ => entries.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{}}}",
                name,
                us(e.ts_ns),
                args
            )),
        }
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

    /// An advance of collection 1 with `sweep_ns` in the sweep.
    fn advance(increment: u32, terminal: bool, pause_ns: u64, sweep_ns: u64) -> GcEvent {
        let mut laps_ns = [0; 7];
        laps_ns[GcPhase::Sweep as usize] = sweep_ns;
        GcEvent::Advance {
            index: 1,
            collected_generation: 0,
            target_generation: 1,
            increment,
            terminal,
            pause_ns,
            laps_ns,
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

    /// The ring's footprint is `capacity` times this (see
    /// `TraceConfig::capacity`): growing a variant is a visible decision.
    #[test]
    fn a_traced_event_is_96_bytes() {
        assert_eq!(std::mem::size_of::<TracedEvent>(), 96);
    }

    #[test]
    fn exporters_emit_every_event_kind() {
        let all = [
            advance(1, true, 100, 60),
            GcEvent::GuardianRound {
                round: 1,
                resurrected: 2,
            },
            GcEvent::TconcAppend {
                during_collection: true,
            },
            GcEvent::SegmentsAcquired { count: 2 },
            GcEvent::SegmentsReleased { count: 2 },
            GcEvent::CensusGen {
                generation: 1,
                pairs: 7,
                weak_pairs: 1,
                objects: 2,
                words: 20,
                protected_entries: 1,
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
        assert!(jsonl.contains("\"laps_ns\":{\"flip\":0,\"roots\":0,\"remset\":0,\"sweep\":60,"));
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
        // Ends at 5µs after a 3µs pause, of which the sweep took 2µs.
        let traced = [TracedEvent {
            ts_ns: 5_000,
            seq: 1,
            event: advance(1, true, 3_000, 2_000),
        }];
        let chrome = chrome_trace_json(&traced);
        let at = |name: &str| chrome.find(&format!("\"name\":\"{name}\"")).unwrap();
        assert!(chrome[at("advance")..]
            .starts_with("\"name\":\"advance\",\"ph\":\"X\",\"ts\":2.000,\"dur\":3.000"));
        assert!(chrome[at("sweep")..]
            .starts_with("\"name\":\"sweep\",\"ph\":\"X\",\"ts\":2.000,\"dur\":2.000"));
        assert!(
            !chrome.contains("\"name\":\"roots\""),
            "an empty lap draws nothing"
        );
    }

    #[test]
    fn a_collection_is_one_span_over_its_advances() {
        let count = |chrome: &str, ph: &str| chrome.matches(&format!("\"ph\":\"{ph}\"")).count();
        let advances = [
            ev(1, advance(1, false, 500, 400)),
            ev(2, advance(2, false, 500, 400)),
            ev(3, advance(3, true, 500, 400)),
        ];
        let chrome = chrome_trace_json(&advances);
        assert_eq!((count(&chrome, "B"), count(&chrome, "E")), (1, 1));
        assert_eq!(chrome.matches("\"name\":\"advance\"").count(), 3);
        assert!(chrome.contains("\"ph\":\"B\",\"ts\":0.500"), "{chrome}");
        // Its first advances dropped, the span opens at the earliest kept.
        let chrome = chrome_trace_json(&advances[1..]);
        assert_eq!((count(&chrome, "B"), count(&chrome, "E")), (1, 1));
        assert!(chrome.contains("\"ph\":\"B\",\"ts\":1.500"), "{chrome}");
        // Its terminal advance not yet taken, it has no span.
        let chrome = chrome_trace_json(&advances[..2]);
        assert_eq!((count(&chrome, "B"), count(&chrome, "E")), (0, 0));
    }
}
