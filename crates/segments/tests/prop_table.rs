//! Property test: the segment table against a simple ownership model
//! under random allocate/free/write sequences. The model also mirrors the
//! free store's documented policy (which free storage serves which
//! request), so it can say when the table was entitled to grow.

use guardians_segments::{SegIndex, SegmentTable, Space, CARD_CLEAN, SEGMENT_WORDS};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

#[derive(Clone, Debug)]
enum Op {
    Alloc {
        space: u8,
        gen: u8,
    },
    AllocRun {
        space: u8,
        gen: u8,
        len: u8,
    },
    Free {
        pick: usize,
    },
    Write {
        pick: usize,
        offset: u16,
        value: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..3, 0u8..4).prop_map(|(space, gen)| Op::Alloc { space, gen }),
        4 => (0u8..3, 0u8..4, 2u8..9).prop_map(|(space, gen, len)| Op::AllocRun { space, gen, len }),
        5 => any::<usize>().prop_map(|pick| Op::Free { pick }),
        3 => (any::<usize>(), any::<u16>(), any::<u64>())
            .prop_map(|(pick, offset, value)| Op::Write { pick, offset, value }),
    ]
}

fn space_of(code: u8) -> Space {
    match code {
        0 => Space::Pair,
        1 => Space::WeakPair,
        _ => Space::Typed,
    }
}

#[derive(Clone, Debug)]
struct Owned {
    space: Space,
    gen: u8,
    run: usize,
    /// Our mirror of written words: (global offset) -> value.
    writes: HashMap<usize, u64>,
}

/// The model's free store: which indices are free, and which of them
/// still form a run the table may reissue whole.
#[derive(Default)]
struct FreeModel {
    /// Free segments that can only serve single requests.
    loose: BTreeSet<u32>,
    /// Intact free runs, `(head, len)` with `len >= 2`.
    spans: Vec<(u32, usize)>,
}

impl FreeModel {
    fn put(&mut self, head: u32, len: usize) {
        if len == 1 {
            self.loose.insert(head);
        } else if len > 1 {
            self.spans.push((head, len));
        }
    }

    fn segments(&self) -> usize {
        self.loose.len() + self.spans.iter().map(|s| s.1).sum::<usize>()
    }

    /// The shortest intact span of at least `min` segments.
    fn shortest_span(&self, min: usize) -> Option<usize> {
        self.spans.iter().map(|s| s.1).filter(|&l| l >= min).min()
    }

    fn take_span_headed(&mut self, head: u32) -> Option<usize> {
        let at = self.spans.iter().position(|s| s.0 == head)?;
        Some(self.spans.swap_remove(at).1)
    }
}

/// Which way each request was served, so a test can tell that the
/// interesting paths ran.
#[derive(Default, Debug)]
struct Served {
    exact_run: usize,
    split_for_run: usize,
    split_for_singles: usize,
    grown: usize,
}

/// A just-issued run: all-zero words, all-clean cards, dirty flag unset.
fn check_pristine(table: &SegmentTable, head: SegIndex, n: usize) -> Result<(), String> {
    if table.info(head).dirty {
        return Err(format!("{head:?} issued with its dirty flag set"));
    }
    if table.run_cards(head).iter().any(|&c| c != CARD_CLEAN) {
        return Err(format!("{head:?} issued with a card that is not clean"));
    }
    for i in 0..n {
        let seg = SegIndex(head.0 + i as u32);
        if table.words(seg).iter().any(|&w| w != 0) {
            return Err(format!("{seg:?} issued with a word that is not zero"));
        }
    }
    Ok(())
}

/// Applies `ops` to a fresh table, checking it against the model after
/// every step.
fn check_ops(ops: &[Op]) -> Result<Served, String> {
    let mut table = SegmentTable::new();
    let mut owned: HashMap<SegIndex, Owned> = HashMap::new();
    let mut free = FreeModel::default();
    let mut served = Served::default();
    // Upper bound on the table's size: the high-water mark of live
    // segments, plus what sat free but could not serve the request at
    // each moment the table grew.
    let mut bound = 0usize;
    for op in ops {
        match *op {
            Op::Alloc { space, gen } | Op::AllocRun { space, gen, .. } => {
                let n = match *op {
                    Op::AllocRun { len, .. } => len as usize,
                    _ => 1,
                };
                let space = space_of(space);
                let before = table.segments_total();
                let head = if n == 1 {
                    table.allocate(space, gen)
                } else {
                    table.allocate_run(space, gen, n)
                };
                if owned.contains_key(&head) {
                    return Err(format!("{head:?} issued twice"));
                }
                if table.run_len(head) != n {
                    return Err(format!(
                        "{head:?}: run of {n} has run_len {}",
                        table.run_len(head)
                    ));
                }
                check_pristine(&table, head, n)?;
                if table.segments_total() > before {
                    // Growth: only when nothing free could serve.
                    if (table.segments_total(), head.index()) != (before + n, before) {
                        return Err(format!("grew by other than the {n} segments issued"));
                    }
                    let servable = if n == 1 {
                        free.segments() > 0
                    } else {
                        free.shortest_span(n).is_some()
                    };
                    if servable {
                        return Err(format!("grew for {n} with a free run that could serve"));
                    }
                    served.grown += 1;
                } else if n == 1 {
                    if !free.loose.remove(&head.0) {
                        // The stack was empty: the shortest span goes apart.
                        let len = free
                            .take_span_headed(head.0)
                            .ok_or_else(|| format!("{head:?} issued but was not free"))?;
                        if !free.loose.is_empty() || free.shortest_span(2).is_some_and(|l| l < len)
                        {
                            return Err(format!("a run of {len} taken apart out of turn"));
                        }
                        free.loose.extend(head.0 + 1..head.0 + len as u32);
                        served.split_for_singles += 1;
                    }
                } else {
                    let want = free.shortest_span(n);
                    let len = free
                        .take_span_headed(head.0)
                        .ok_or_else(|| format!("run at {head:?} issued but was not a free run"))?;
                    if Some(len) != want {
                        return Err(format!("run of {n} cut from {len}, shortest fit {want:?}"));
                    }
                    free.put(head.0 + n as u32, len - n);
                    if len == n {
                        served.exact_run += 1;
                    } else {
                        served.split_for_run += 1;
                    }
                }
                let run = Owned {
                    space,
                    gen,
                    run: n,
                    writes: HashMap::new(),
                };
                owned.insert(head, run);
                let live: usize = owned.values().map(|o| o.run).sum();
                if table.segments_total() > before {
                    bound = bound.max(live + free.segments());
                }
                bound = bound.max(live);
            }
            Op::Free { pick } => {
                let mut keys: Vec<SegIndex> = owned.keys().copied().collect();
                keys.sort_unstable();
                if keys.is_empty() {
                    continue;
                }
                let seg = keys[pick % keys.len()];
                table.free(seg);
                let gone = owned.remove(&seg).expect("model entry");
                free.put(seg.0, gone.run);
                for i in 0..gone.run {
                    if table.try_info(SegIndex(seg.0 + i as u32)).is_some() {
                        return Err(format!("segment {i} of freed {seg:?} still has info"));
                    }
                }
            }
            Op::Write {
                pick,
                offset,
                value,
            } => {
                let mut keys: Vec<SegIndex> = owned.keys().copied().collect();
                keys.sort_unstable();
                if keys.is_empty() {
                    continue;
                }
                let seg = keys[pick % keys.len()];
                let entry = owned.get_mut(&seg).expect("model entry");
                let span = entry.run * SEGMENT_WORDS;
                let off = offset as usize % span;
                let addr = table.base_addr(seg).add(off);
                table.set_word(addr, value);
                // The barrier too, so reissued storage has marks to lose.
                table.mark_card(addr);
                entry.writes.insert(off, value);
            }
        }
        // Invariants after every step.
        let live: usize = owned.values().map(|o| o.run).sum();
        if table.segments_allocated() != live {
            return Err("allocation count diverged".into());
        }
        if table.segments_total() != live + free.segments() {
            return Err("live + free segments do not account for the table".into());
        }
        if table.segments_total() > bound {
            return Err(format!(
                "table of {} exceeds the bound of {bound}",
                table.segments_total()
            ));
        }
        table.check_free_store()?;
        let mut ranges: Vec<(u32, u32)> = owned
            .iter()
            .map(|(seg, o)| (seg.0, seg.0 + o.run as u32))
            .collect();
        ranges.sort_unstable();
        if ranges.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err(format!("live runs overlap: {ranges:?}"));
        }
        for (seg, o) in &owned {
            let info = table.info(*seg);
            if (info.space, info.generation) != (o.space, o.gen) {
                return Err(format!("{seg:?}: space or generation diverged"));
            }
        }
    }
    // Every recorded write is still readable.
    for (seg, o) in &owned {
        for (off, value) in &o.writes {
            if table.word(table.base_addr(*seg).add(*off)) != *value {
                return Err(format!("{seg:?}+{off}: written word lost"));
            }
        }
    }
    Ok(served)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn table_matches_ownership_model(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let served = check_ops(&ops);
        prop_assert!(served.is_ok(), "{}", served.unwrap_err());
    }

    /// One run length, no singles: nothing free is ever too short, so the
    /// table's size is exactly the high-water mark of live segments.
    #[test]
    fn fixed_run_length_table_is_its_high_water_mark(
        len in 2usize..7,
        steps in proptest::collection::vec(any::<u8>(), 1..120),
    ) {
        let mut table = SegmentTable::new();
        let mut live: Vec<SegIndex> = Vec::new();
        let mut high = 0;
        for step in steps {
            if step % 3 == 0 && !live.is_empty() {
                table.free(live.swap_remove(step as usize % live.len()));
            } else {
                live.push(table.allocate_run(Space::Typed, step % 4, len));
            }
            high = high.max(live.len() * len);
            prop_assert_eq!(table.segments_total(), high);
        }
    }
}

/// The model tells the free store's three ways of serving a request
/// apart, and the table takes each where the policy says so.
#[test]
fn scripted_stream_takes_every_free_store_path() {
    let run = |len| Op::AllocRun {
        space: 2,
        gen: 1,
        len,
    };
    let single = Op::Alloc { space: 0, gen: 0 };
    let free_first = Op::Free { pick: 0 };
    let ops = [
        run(3),
        run(5),
        Op::Write {
            pick: 1,
            offset: 700,
            value: 9,
        },
        free_first.clone(), // the run of 3
        free_first.clone(), // the run of 5
        run(3),             // exact reuse
        run(2),             // cut from the 5, remainder 3
        run(4),             // nothing long enough: growth
        free_first,         // the run of 3 again
        single.clone(),     // no single free: a run of 3 goes apart
        single.clone(),
        single.clone(),
        single.clone(), // the other run of 3
    ];
    let served = check_ops(&ops).expect("model and table agree");
    assert_eq!(
        (
            served.exact_run,
            served.split_for_run,
            served.split_for_singles,
            served.grown
        ),
        (1, 1, 2, 3),
        "{served:?}"
    );
}
