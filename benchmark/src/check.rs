//! `benchmark check`: the determinism self-test, at small scale.
//!
//! * Each serial workload run twice with one seed must agree exactly on
//!   every count-type metric and on the op stream's hash.
//! * A different seed must change the op stream's hash.
//! * `resident_cache_par2` must match `resident_cache` on every counter
//!   that does not depend on the collector's schedule.
//!
//! `guardian_pool_inc200` is time-sliced — where an increment ends
//! depends on the clock — so its counters are recorded as non-exact and
//! only its oracle is checked here.

use crate::metrics::is_exact_count;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::workloads::{Rep, RepParams, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

const SCALE: f64 = 0.15;

/// Counters the parallel engine must reproduce: what was allocated, what
/// survived, and every guardian and weak-pair outcome. Segment counts
/// and root-cell visits depend on how workers carve up to-space.
const SCHEDULE_INDEPENDENT: [&str; 16] = [
    "gc.heap.words_allocated",
    "gc.heap.pairs_allocated",
    "gc.heap.objects_allocated",
    "gc.collect.collections",
    "gc.collect.words_copied",
    "gc.collect.pairs_copied",
    "gc.collect.objects_copied",
    "gc.collect.pure_words_skipped",
    "gc.guardian.registrations",
    "gc.guardian.polls",
    "gc.guardian.entries_visited",
    "gc.guardian.entries_held",
    "gc.guardian.entries_finalized",
    "gc.weak.pairs_scanned",
    "gc.weak.cars_broken",
    "gc.weak.cars_forwarded",
];

/// The exact-count view of one repetition.
fn counts(rep: &mut Rep) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = rep
        .values
        .iter()
        .filter(|(name, _)| is_exact_count(name))
        .map(|(&name, &v)| (name, v as u64))
        .collect();
    out.insert("peak_heap_segments", rep.peak_segments);
    if let Some(lags) = rep.samples.get_mut("reclaim_lag_ops") {
        out.insert(
            "reclaim_lag_p99_ops",
            u64::from(percentile(lags, 0.99).unwrap_or(0)),
        );
    }
    out
}

fn run_once(w: Workload, seed: u64) -> Rep {
    let p = RepParams { seed, scale: SCALE };
    w.run_rep(&p, &mut Tracer::off())
}

pub fn run() -> Result<ExitCode, String> {
    let mut problems = Vec::new();
    let mut serial_resident = None;
    for w in Workload::ALL {
        let mut first = run_once(w, 1);
        if first.failed > 0 {
            problems.push(format!(
                "{}: {} of {} ops failed",
                w.name(),
                first.failed,
                first.ops
            ));
        }
        if !w.is_serial() {
            if w == Workload::ResidentCachePar2 {
                let serial: &BTreeMap<_, _> =
                    serial_resident.as_ref().expect("serial twin ran first");
                let par = counts(&mut first);
                for name in SCHEDULE_INDEPENDENT {
                    if par.get(name) != serial.get(name) {
                        problems.push(format!(
                            "{}: {name} = {:?}, serial twin has {:?}",
                            w.name(),
                            par.get(name),
                            serial.get(name)
                        ));
                    }
                }
            }
            println!(
                "{:<22} oracle ok; counters non-exact (schedule-dependent)",
                w.name()
            );
            continue;
        }
        let mut second = run_once(w, 1);
        let (a, b) = (counts(&mut first), counts(&mut second));
        if first.stream_hash != second.stream_hash {
            problems.push(format!("{}: same seed, different op stream", w.name()));
        }
        for (name, value) in &a {
            if b.get(name) != Some(value) {
                problems.push(format!(
                    "{}: {name} = {value} then {:?} with the same seed",
                    w.name(),
                    b.get(name)
                ));
            }
        }
        if run_once(w, 2).stream_hash == first.stream_hash {
            problems.push(format!("{}: seed 2 produced seed 1's op stream", w.name()));
        }
        println!(
            "{:<22} {} count metrics repeat exactly; seed changes the stream",
            w.name(),
            a.len()
        );
        if w == Workload::ResidentCache {
            serial_resident = Some(a);
        }
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Ok(if problems.is_empty() {
        println!("check passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
