//! **E5 — Guarded ports: resource safety and per-character cost.**
//!
//! Two claims:
//!
//! 1. Section 1: unclosed dropped ports "tie up system resources and may
//!    result in data associated with output ports remaining unwritten".
//!    We churn ports under a small descriptor limit and count failures,
//!    leaks, and lost bytes for (a) no clean-up, (b) guarded ports, and
//!    (c) the indirection-header workaround.
//! 2. Section 2: the indirection workaround "significantly increases the
//!    cost of reading or writing a character, since these operations
//!    otherwise involve only two or three memory references". We count
//!    the header dereferences each mechanism pays for the characters it
//!    writes: none for a direct or guarded port, one per character through
//!    a forwarding header. (What a dereference costs in nanoseconds is a
//!    time; `benchmark/` is where times are sampled.)

use guardians_baselines::IndirectPorts;
use guardians_gc::Heap;
use guardians_runtime::{ports, GuardedPorts, SimOs};
use guardians_workloads::report::fmt_count;
use guardians_workloads::Table;

/// Outcome of the resource-churn scenario.
#[derive(Debug, Clone)]
pub struct E5Churn {
    pub mechanism: &'static str,
    pub failed_opens: u64,
    pub leaked_fds: usize,
    pub lost_bytes: u64,
    pub cleanup_entries_touched: u64,
    /// Characters written to ports that opened.
    pub chars: u64,
    /// Forwarding-header dereferences paid to write them.
    pub header_derefs: u64,
}

const CHURN_PORTS: usize = 200;
const FD_LIMIT: usize = 16;
const PAYLOAD: &[u8] = b"twelve bytes";

fn churn_unguarded() -> E5Churn {
    let mut heap = Heap::default();
    let mut os = SimOs::with_fd_limit(FD_LIMIT);
    let mut failed = 0;
    let mut written = 0u64;
    for i in 0..CHURN_PORTS {
        match ports::open_output_port(&mut heap, &mut os, &format!("/f{i}")) {
            Ok(p) => {
                ports::write_string(&mut heap, &mut os, p, "twelve bytes").unwrap();
                written += PAYLOAD.len() as u64;
                // dropped without close
            }
            Err(_) => failed += 1,
        }
        if i % 20 == 0 {
            heap.collect(heap.config().max_generation());
        }
    }
    let durable: u64 = (0..CHURN_PORTS)
        .filter_map(|i| {
            os.file_contents(&format!("/f{i}"))
                .ok()
                .map(|b| b.len() as u64)
        })
        .sum();
    E5Churn {
        mechanism: "unguarded",
        failed_opens: failed,
        leaked_fds: os.open_count(),
        lost_bytes: written - durable,
        cleanup_entries_touched: 0,
        chars: written,
        header_derefs: 0,
    }
}

fn churn_guarded() -> E5Churn {
    let mut heap = Heap::default();
    let mut os = SimOs::with_fd_limit(FD_LIMIT);
    let mut gp = GuardedPorts::new(&mut heap);
    let mut failed = 0;
    let mut written = 0u64;
    for i in 0..CHURN_PORTS {
        if os.open_count() >= FD_LIMIT - 2 {
            heap.collect(heap.config().max_generation());
        }
        match gp.open_output(&mut heap, &mut os, &format!("/f{i}")) {
            Ok(p) => {
                ports::write_string(&mut heap, &mut os, p, "twelve bytes").unwrap();
                written += PAYLOAD.len() as u64;
            }
            Err(_) => failed += 1,
        }
    }
    gp.exit(&mut heap, &mut os).unwrap();
    let durable: u64 = (0..CHURN_PORTS)
        .filter_map(|i| {
            os.file_contents(&format!("/f{i}"))
                .ok()
                .map(|b| b.len() as u64)
        })
        .sum();
    E5Churn {
        mechanism: "guarded (paper)",
        failed_opens: failed,
        leaked_fds: os.open_count(),
        lost_bytes: written - durable,
        cleanup_entries_touched: gp.dropped_closed,
        chars: written,
        header_derefs: 0,
    }
}

fn churn_indirect() -> E5Churn {
    let mut heap = Heap::default();
    let mut os = SimOs::with_fd_limit(FD_LIMIT);
    let mut ip = IndirectPorts::new(&mut heap);
    let mut failed = 0;
    let mut written = 0u64;
    for i in 0..CHURN_PORTS {
        if os.open_count() >= FD_LIMIT - 2 {
            heap.collect(heap.config().max_generation());
            ip.scan_and_close(&mut heap, &mut os).unwrap();
        }
        match ip.open_output(&mut heap, &mut os, &format!("/f{i}")) {
            Ok(h) => {
                for b in PAYLOAD {
                    ip.write_byte(&mut heap, &mut os, h, *b).unwrap();
                }
                written += PAYLOAD.len() as u64;
            }
            Err(_) => failed += 1,
        }
    }
    heap.collect(heap.config().max_generation());
    ip.scan_and_close(&mut heap, &mut os).unwrap();
    let durable: u64 = (0..CHURN_PORTS)
        .filter_map(|i| {
            os.file_contents(&format!("/f{i}"))
                .ok()
                .map(|b| b.len() as u64)
        })
        .sum();
    E5Churn {
        mechanism: "indirection (Atkins)",
        failed_opens: failed,
        leaked_fds: os.open_count(),
        lost_bytes: written - durable,
        cleanup_entries_touched: ip.entries_scanned,
        chars: written,
        header_derefs: ip.derefs,
    }
}

/// Runs the experiment (one size: the churn is fixed by the descriptor
/// limit, so `quick` changes nothing).
pub fn run(_quick: bool) -> (Table, Vec<E5Churn>) {
    let rows = vec![churn_unguarded(), churn_guarded(), churn_indirect()];
    let mut table = Table::new(
        "E5: port finalization — 200 ports churned under a 16-descriptor limit",
        &[
            "mechanism",
            "failed opens",
            "leaked fds",
            "lost bytes",
            "cleanup touched",
            "chars written",
            "header derefs",
        ],
    );
    for r in &rows {
        table.row(&[
            r.mechanism.to_string(),
            fmt_count(r.failed_opens),
            fmt_count(r.leaked_fds as u64),
            fmt_count(r.lost_bytes),
            fmt_count(r.cleanup_entries_touched),
            fmt_count(r.chars),
            fmt_count(r.header_derefs),
        ]);
    }
    table.note("paper: guardians prevent descriptor exhaustion and data loss; indirection works but pays one header dereference per character and one registry entry per scan");
    (table, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_shape_holds() {
        let (_t, rows) = run(true);
        let unguarded = &rows[0];
        let guarded = &rows[1];
        let indirect = &rows[2];
        assert!(
            unguarded.failed_opens > 0,
            "descriptor exhaustion without clean-up"
        );
        assert!(
            unguarded.lost_bytes > 0,
            "buffered data lost without clean-up"
        );
        assert_eq!(guarded.failed_opens, 0);
        assert_eq!(guarded.leaked_fds, 0);
        assert_eq!(guarded.lost_bytes, 0);
        assert_eq!(indirect.failed_opens, 0, "the workaround also works...");
        assert!(
            indirect.cleanup_entries_touched >= guarded.cleanup_entries_touched,
            "...but scans at least as many entries"
        );
        assert!(indirect.chars > 0);
        assert_eq!(
            indirect.header_derefs, indirect.chars,
            "...and pays one dereference per character"
        );
        assert_eq!((unguarded.header_derefs, guarded.header_derefs), (0, 0));
    }
}
