//! Live-heap census: per-generation, per-kind object and word counts.
//!
//! The census is the heap's one occupancy walk: it counts segments per
//! generation, reads pair spaces by watermark and *walks object headers*
//! in typed and pure spaces, so it can break typed-space occupancy down by
//! [`ObjKind`] — the "what is actually alive, and where" view the
//! drag/liveness literature builds on. A census visits every live
//! segment, so it is a diagnostic tool, not a hot-path one; the tracer can
//! take one automatically at the end of every collection, right after its
//! terminal [`GcEvent::Advance`](crate::GcEvent::Advance) (see
//! [`TraceConfig::census_at_collection_end`](crate::TraceConfig)).
//!
//! A census may be taken at any safe point, including between the
//! increments of a suspended collection. Then the walk skips that
//! collection's from-space, whose copied objects hold broken hearts where
//! headers used to be: a survivor already copied is counted at its copy,
//! in the target generation, and one not yet copied is undecided until the
//! terminal increment and is not counted. Once the collection ends, the
//! census is the one a stop-the-world collection leaves.

use crate::header::{Header, ObjKind};
use crate::heap::Heap;

/// Objects and words attributed to one [`ObjKind`] within a generation.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct KindCensus {
    /// Live objects of the kind.
    pub objects: u64,
    /// Words they occupy (headers included).
    pub words: u64,
}

/// Census of one generation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GenCensus {
    /// The generation.
    pub generation: u8,
    /// Segments assigned to it (run tails included).
    pub segments: u64,
    /// Live ordinary pairs.
    pub pairs: u64,
    /// Live weak pairs (the weak-pair *population* the weak pass scans).
    pub weak_pairs: u64,
    /// Per-kind breakdown of typed objects, indexed by
    /// [`ObjKind::index`].
    pub kinds: [KindCensus; ObjKind::COUNT],
    /// Guardian protected-list entries parked at this generation — the
    /// guardian queue depth the next collection of this generation will
    /// visit.
    pub protected_entries: u64,
}

impl GenCensus {
    /// Total typed objects across all kinds.
    pub fn objects(&self) -> u64 {
        self.kinds.iter().map(|k| k.objects).sum()
    }

    /// Total live words: pairs, weak pairs, and typed objects.
    pub fn words(&self) -> u64 {
        2 * (self.pairs + self.weak_pairs) + self.kinds.iter().map(|k| k.words).sum::<u64>()
    }
}

/// Census of the whole heap, youngest generation first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HeapCensus {
    /// One entry per generation.
    pub generations: Vec<GenCensus>,
}

impl HeapCensus {
    /// Total live words across all generations.
    pub fn total_words(&self) -> u64 {
        self.generations.iter().map(GenCensus::words).sum()
    }

    /// Total live objects (pairs, weak pairs, and typed) across all
    /// generations.
    pub fn total_objects(&self) -> u64 {
        self.generations
            .iter()
            .map(|g| g.pairs + g.weak_pairs + g.objects())
            .sum()
    }

    /// Deterministic JSON rendering: an array of per-generation objects
    /// with a fixed key order and a per-kind breakdown.
    pub fn to_json(&self) -> String {
        let gens: Vec<String> = self
            .generations
            .iter()
            .map(|g| {
                let kinds: Vec<String> = ObjKind::ALL
                    .iter()
                    .map(|&k| {
                        let kc = g.kinds[k.index()];
                        format!(
                            "\"{}\":{{\"objects\":{},\"words\":{}}}",
                            k.name(),
                            kc.objects,
                            kc.words
                        )
                    })
                    .collect();
                format!(
                    "{{\"generation\":{},\"segments\":{},\"pairs\":{},\"weak_pairs\":{},\
                     \"protected_entries\":{},\"words\":{},\"kinds\":{{{}}}}}",
                    g.generation,
                    g.segments,
                    g.pairs,
                    g.weak_pairs,
                    g.protected_entries,
                    g.words(),
                    kinds.join(",")
                )
            })
            .collect();
        format!("{{\"generations\":[{}]}}", gens.join(","))
    }
}

impl Heap {
    /// Takes a live census by walking every head segment outside the
    /// from-space: pair spaces by watermark, typed and pure spaces header
    /// by header (large runs are walked across their consecutive
    /// segments). Between increments the from-space is not counted (see
    /// the module docs).
    pub fn census(&self) -> HeapCensus {
        use guardians_segments::Space;
        let mut out: Vec<GenCensus> = (0..self.config.generations)
            .map(|g| GenCensus {
                generation: g,
                ..GenCensus::default()
            })
            .collect();
        for (seg, info) in self.segs.iter() {
            if self.segs.in_from_space(seg) {
                continue;
            }
            let slot = &mut out[info.generation as usize];
            slot.segments += 1;
            if !info.is_head() {
                continue;
            }
            let used = info.used as usize;
            match info.space {
                Space::Pair => slot.pairs += (used / 2) as u64,
                Space::WeakPair => slot.weak_pairs += (used / 2) as u64,
                Space::Typed | Space::Pure => {
                    // Word addresses are linear across a run's consecutive
                    // segments, so `base.add(pos)` reaches every word of a
                    // large object.
                    let base = self.segs.base_addr(seg);
                    let mut pos = 0;
                    while pos < used {
                        let header =
                            Header::decode(self.segs.word(base.add(pos))).unwrap_or_else(|| {
                                panic!("census: corrupt header in {seg:?} at word {pos}")
                            });
                        let k = &mut slot.kinds[header.kind.index()];
                        k.objects += 1;
                        k.words += header.total_words() as u64;
                        pos += header.total_words();
                    }
                }
            }
        }
        for (i, list) in self.protected.iter().enumerate() {
            if let Some(slot) = out.get_mut(i) {
                slot.protected_entries = list.len() as u64;
            }
        }
        HeapCensus { generations: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn census_counts_kinds_and_generations() {
        let mut h = Heap::default();
        let keep = h.root_vec();
        for i in 0..10 {
            let p = h.cons(Value::fixnum(i), Value::NIL);
            keep.push(p);
        }
        let w = h.weak_cons(Value::NIL, Value::NIL);
        keep.push(w);
        let v = h.make_vector(5, Value::fixnum(1));
        keep.push(v);
        let s = h.make_string("hello");
        keep.push(s);
        let f = h.make_flonum(1.5);
        keep.push(f);

        let census = h.census();
        let g0 = &census.generations[0];
        assert_eq!(g0.pairs, 10);
        assert_eq!(g0.weak_pairs, 1);
        assert_eq!(g0.kinds[ObjKind::Vector.index()].objects, 1);
        assert_eq!(g0.kinds[ObjKind::Vector.index()].words, 6);
        assert_eq!(g0.kinds[ObjKind::String.index()].objects, 1);
        assert_eq!(g0.kinds[ObjKind::Flonum.index()].objects, 1);

        h.collect(0);
        let census = h.census();
        assert_eq!(census.generations[0].pairs, 0, "young space emptied");
        let g1 = &census.generations[1];
        assert_eq!(g1.pairs, 10, "pairs promoted");
        assert_eq!(g1.weak_pairs, 1);
        assert_eq!(g1.kinds[ObjKind::Vector.index()].objects, 1);
    }

    /// The header walk cross-checked against the segment watermarks: per
    /// generation, the census's words are the `used` words of its head
    /// segments.
    #[test]
    fn census_words_match_the_watermarks() {
        let mut h = Heap::default();
        let keep = h.root_vec();
        for i in 0..100 {
            let p = h.cons(Value::fixnum(i), Value::NIL);
            keep.push(p);
        }
        let v = h.make_vector(700, Value::NIL); // multi-segment run
        keep.push(v);
        h.collect(0);
        let mut used = vec![0u64; h.config.generations as usize];
        for (_, info) in h.segs.iter().filter(|(_, info)| info.is_head()) {
            used[info.generation as usize] += u64::from(info.used);
        }
        let census = h.census();
        for (g, &words) in used.iter().enumerate() {
            assert_eq!(
                census.generations[g].words(),
                words,
                "generation {g}: header walk must agree with watermarks"
            );
        }
        assert!(used[1] > 0);
        assert_eq!(
            census.generations[1].kinds[ObjKind::Vector.index()].words,
            701
        );
    }

    #[test]
    fn census_sees_guardian_queue_depths() {
        let mut h = Heap::default();
        let g = h.make_guardian();
        let x = h.cons(Value::NIL, Value::NIL);
        let r = h.root(x);
        g.register(&mut h, x);
        assert_eq!(h.census().generations[0].protected_entries, 1);
        h.collect(0);
        assert_eq!(h.census().generations[0].protected_entries, 0);
        assert_eq!(h.census().generations[1].protected_entries, 1);
        drop(r);
    }

    #[test]
    fn census_json_is_deterministic() {
        let mut h = Heap::default();
        let p = h.cons(Value::NIL, Value::NIL);
        let _r = h.root(p);
        let a = h.census().to_json();
        let b = h.census().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"generations\":[{\"generation\":0,"), "{a}");
        assert!(a.contains("\"vector\""), "{a}");
    }
}
