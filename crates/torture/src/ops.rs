//! The torture rig's heap-operation language.
//!
//! A trace is a [`TortureConfig`] plus a sequence of [`Op`]s. Ops name
//! objects by the small integer ids the trace itself assigned at
//! allocation time — never by heap address — so a trace replays
//! identically on the real heap and on the shadow model, survives
//! shrinking (an op whose referents no longer exist degrades to a no-op
//! on *both* sides), and round-trips through a line-oriented text format
//! ready to be committed as a regression test.

use guardians_gc::Promotion;
use std::fmt;
use std::str::FromStr;

/// The textual form of a promotion policy: the config line's mandatory
/// second token. A trace's policy is fixed for its whole run, as a heap's
/// is fixed when it is built.
fn promotion_text(p: Promotion) -> String {
    match p {
        Promotion::NextGeneration => "next".to_string(),
        Promotion::Capped(c) => format!("cap{c}"),
        Promotion::SameGeneration => "same".to_string(),
    }
}

fn parse_promotion(s: &str) -> Result<Promotion, String> {
    match s {
        "next" => Ok(Promotion::NextGeneration),
        "same" => Ok(Promotion::SameGeneration),
        s if s.starts_with("cap") => Ok(Promotion::Capped(
            s[3..]
                .parse()
                .map_err(|e| format!("bad promotion cap: {e}"))?,
        )),
        other => Err(format!("bad promotion {other:?}")),
    }
}

/// A reference operand: nothing, a node by id, or a guardian's tconc by
/// guardian index.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ref {
    /// The empty reference (heap `'()` in edge slots, `#f` in weak cars).
    Null,
    /// The node allocated with this id.
    Node(u32),
    /// The tconc of the guardian with this index — letting traces store
    /// guardian queues into the object graph and register guardians with
    /// other guardians (the paper's `(G H)` example).
    Tconc(u32),
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ref::Null => write!(f, "null"),
            Ref::Node(id) => write!(f, "n{id}"),
            Ref::Tconc(g) => write!(f, "t{g}"),
        }
    }
}

impl FromStr for Ref {
    type Err = String;
    fn from_str(s: &str) -> Result<Ref, String> {
        if s == "null" {
            return Ok(Ref::Null);
        }
        let parse = |digits: &str| {
            digits
                .parse::<u32>()
                .map_err(|e| format!("bad ref {s:?}: {e}"))
        };
        match s.as_bytes().first() {
            Some(b'n') => Ok(Ref::Node(parse(&s[1..])?)),
            Some(b't') => Ok(Ref::Tconc(parse(&s[1..])?)),
            _ => Err(format!("bad ref {s:?}")),
        }
    }
}

/// The kind of heap object a node id denotes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Two pairs: `(id . (left . right))` — two mutable edge slots.
    Pair,
    /// A vector `[id, left, right, weak-pair, payload…]` — two mutable
    /// edge slots plus an attached weak pair whose car is settable.
    Vector,
    /// A pointer-free bytevector (pure space): id in the first 8 bytes,
    /// pattern fill after. Large lengths exercise multi-segment runs.
    Bytevector,
    /// An immutable string `"node-<id>"` plus deterministic padding.
    String,
    /// A record `{id, left, right}` allocated and mutated through the
    /// typed `guardians-gc-api` layer (`Gc<T>`/`Root<T>`): same two-edge
    /// shape as [`NodeKind::Pair`], but every access goes through the
    /// typed front-end's accessors and write barrier. Typed edges can
    /// only reference typed nodes (the field type is `Option<Root<T>>`).
    Typed,
}

/// One step of a torture trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Allocate a pair node.
    AllocPair {
        /// Fresh node id.
        id: u32,
        /// Initial left edge.
        left: Ref,
        /// Initial right edge.
        right: Ref,
    },
    /// Allocate a vector node with `payload` extra pattern-filled slots.
    AllocVector {
        /// Fresh node id.
        id: u32,
        /// Extra slots beyond the 4 structural ones; large values force
        /// multi-segment runs.
        payload: u32,
        /// Initial left edge.
        left: Ref,
        /// Initial right edge.
        right: Ref,
    },
    /// Allocate a bytevector node of `len` bytes.
    AllocBytevector {
        /// Fresh node id.
        id: u32,
        /// Length in bytes.
        len: u32,
    },
    /// Allocate a string node.
    AllocString {
        /// Fresh node id.
        id: u32,
    },
    /// Store `to` into edge `slot` (0 = left, 1 = right) of `node`.
    /// No-op on leaf nodes or if any referent is gone.
    SetEdge {
        /// The mutated node.
        node: u32,
        /// 0 = left, 1 = right.
        slot: u8,
        /// New edge target.
        to: Ref,
    },
    /// Point the attached weak car of vector node `node` at `to`
    /// (`Null` stores `#f`). No-op on non-vector nodes.
    SetWeak {
        /// The mutated vector node.
        node: u32,
        /// New weak target.
        to: Ref,
    },
    /// Strongly root `node`.
    AddRoot {
        /// The node to root.
        node: u32,
    },
    /// Drop the strong root of `node` (the node may then die at the next
    /// collection that reaches its generation).
    DropRoot {
        /// The node to unroot.
        node: u32,
    },
    /// Create guardian number `g` (indices are assigned in order).
    MakeGuardian {
        /// Fresh guardian index.
        g: u32,
    },
    /// Register `target` with guardian `g`; with `agent`, the paper's
    /// Section 5 generalisation (the agent is enqueued in the target's
    /// place).
    Register {
        /// The guardian to register with.
        g: u32,
        /// The watched object.
        target: Ref,
        /// Optional distinct representative.
        agent: Option<Ref>,
    },
    /// Poll guardian `g`; a delivered node is re-rooted (a
    /// finalizer-revived reference).
    Poll {
        /// The polled guardian.
        g: u32,
    },
    /// Drop guardian `g`'s handle: its tconc stays alive only through
    /// heap references, and pending registrations are cancelled once it
    /// is proven inaccessible.
    DropGuardian {
        /// The dropped guardian.
        g: u32,
    },
    /// Allocate a rooted standalone weak pair `wid` watching `target`.
    AllocWeakPair {
        /// Fresh weak-pair id.
        wid: u32,
        /// The watched object.
        target: Ref,
    },
    /// Re-aim standalone weak pair `wid` at `target`.
    SetWeakPair {
        /// The mutated weak pair.
        wid: u32,
        /// New weak target.
        target: Ref,
    },
    /// Unroot standalone weak pair `wid` (it becomes floating garbage
    /// until its generation is collected).
    DropWeakPair {
        /// The unrooted weak pair.
        wid: u32,
    },
    /// Allocate a typed node (a `{id, left, right}` record) through the
    /// `guardians-gc-api` layer; edges are wired afterwards via
    /// `set_field`, exercising the typed write-barrier path. Edge
    /// operands that are not live typed nodes degrade to `Null` (the
    /// field type is `Option<Root<T>>`).
    AllocTyped {
        /// Fresh node id.
        id: u32,
        /// Initial left edge (typed nodes only).
        left: Ref,
        /// Initial right edge (typed nodes only).
        right: Ref,
    },
    /// Root typed node `node` through a typed `Root<T>` on the shadow
    /// stack (the typed counterpart of `root`); dropped by the ordinary
    /// `unroot` op. No-op on non-typed nodes.
    AddTypedRoot {
        /// The typed node to root.
        node: u32,
    },
    /// Register typed node `node` with guardian `g` through the typed
    /// `Guardian<T>` view. No-op if the rig no longer holds `g`'s handle
    /// or `node` is not a live typed node.
    RegisterTyped {
        /// The guardian to register with.
        g: u32,
        /// The watched typed node.
        node: u32,
    },
    /// Poll guardian `g` through the typed view: delivers (and re-roots,
    /// via a typed `Root<T>`) when the queue front is a typed node;
    /// checks emptiness when the queue is empty; degrades to a no-op when
    /// the front is an untyped object (typed poll would reject it by
    /// descriptor).
    PollTyped {
        /// The polled guardian.
        g: u32,
    },
    /// Create typed weak reference `wid` (a `Weak<T>`: a weak slot of the
    /// root table, no heap object) watching typed node `node`. Shares the
    /// `wid` space with raw weak pairs and is dropped by the ordinary
    /// `dropweak` op, but cannot be re-aimed (`Weak<T>` has no re-aim API).
    AllocTypedWeak {
        /// Fresh weak id.
        wid: u32,
        /// The watched typed node.
        node: u32,
    },
    /// Upgrade typed weak `wid` and check the result against the model:
    /// `Some` with the right referent exactly when the model says the
    /// target is still physical. No-op on raw weak ids.
    UpgradeTypedWeak {
        /// The upgraded weak.
        wid: u32,
    },
    /// Collect generations `0..=gen`.
    Collect {
        /// Highest generation collected.
        gen: u8,
    },
    /// Allocate `n` garbage pairs (allocation pressure in the pair space).
    Churn {
        /// Number of garbage pairs.
        n: u32,
    },
    /// Allocate one garbage bytevector of `bytes` bytes (pure-space and
    /// large-run pressure).
    Grow {
        /// Garbage bytevector length.
        bytes: u32,
    },
    /// Overwrite the strong root of `root` with `node` through
    /// `Rooted::set` — the one root operation that needs the root write
    /// barrier: the slot may be stamped with an old generation while
    /// `node` is young. `root` is left unrooted. No-op unless `root` holds
    /// a raw root and `node` is a live node without one.
    SetRoot {
        /// The node whose root slot is overwritten.
        root: u32,
        /// The node the slot roots from now on.
        node: u32,
    },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::AllocPair { id, left, right } => write!(f, "pair {id} {left} {right}"),
            Op::AllocVector {
                id,
                payload,
                left,
                right,
            } => write!(f, "vec {id} {payload} {left} {right}"),
            Op::AllocBytevector { id, len } => write!(f, "bytes {id} {len}"),
            Op::AllocString { id } => write!(f, "str {id}"),
            Op::SetEdge { node, slot, to } => write!(f, "edge {node} {slot} {to}"),
            Op::SetWeak { node, to } => write!(f, "weakset {node} {to}"),
            Op::AddRoot { node } => write!(f, "root {node}"),
            Op::DropRoot { node } => write!(f, "unroot {node}"),
            Op::MakeGuardian { g } => write!(f, "guardian {g}"),
            Op::Register {
                g,
                target,
                agent: None,
            } => write!(f, "register {g} {target}"),
            Op::Register {
                g,
                target,
                agent: Some(a),
            } => write!(f, "register {g} {target} {a}"),
            Op::Poll { g } => write!(f, "poll {g}"),
            Op::DropGuardian { g } => write!(f, "dropg {g}"),
            Op::AllocWeakPair { wid, target } => write!(f, "weak {wid} {target}"),
            Op::SetWeakPair { wid, target } => write!(f, "reweak {wid} {target}"),
            Op::DropWeakPair { wid } => write!(f, "dropweak {wid}"),
            Op::AllocTyped { id, left, right } => write!(f, "tnode {id} {left} {right}"),
            Op::AddTypedRoot { node } => write!(f, "troot {node}"),
            Op::RegisterTyped { g, node } => write!(f, "tregister {g} {node}"),
            Op::PollTyped { g } => write!(f, "tpoll {g}"),
            Op::AllocTypedWeak { wid, node } => write!(f, "tweak {wid} {node}"),
            Op::UpgradeTypedWeak { wid } => write!(f, "tupgrade {wid}"),
            Op::Collect { gen } => write!(f, "collect {gen}"),
            Op::Churn { n } => write!(f, "churn {n}"),
            Op::Grow { bytes } => write!(f, "grow {bytes}"),
            Op::SetRoot { root, node } => write!(f, "setroot {root} {node}"),
        }
    }
}

impl FromStr for Op {
    type Err = String;
    fn from_str(line: &str) -> Result<Op, String> {
        let mut it = line.split_whitespace();
        let head = it.next().ok_or("empty op line")?;
        let mut num = |what: &str| -> Result<u32, String> {
            it.next()
                .ok_or_else(|| format!("{head}: missing {what}"))?
                .parse::<u32>()
                .map_err(|e| format!("{head}: bad {what}: {e}"))
        };
        let op = match head {
            "pair" => {
                let id = num("id")?;
                let left: Ref = it.next().ok_or("pair: missing left")?.parse()?;
                let right: Ref = it.next().ok_or("pair: missing right")?.parse()?;
                Op::AllocPair { id, left, right }
            }
            "vec" => {
                let id = num("id")?;
                let payload = num("payload")?;
                let left: Ref = it.next().ok_or("vec: missing left")?.parse()?;
                let right: Ref = it.next().ok_or("vec: missing right")?.parse()?;
                Op::AllocVector {
                    id,
                    payload,
                    left,
                    right,
                }
            }
            "bytes" => Op::AllocBytevector {
                id: num("id")?,
                len: num("len")?,
            },
            "str" => Op::AllocString { id: num("id")? },
            "edge" => {
                let node = num("node")?;
                let slot = num("slot")? as u8;
                let to: Ref = it.next().ok_or("edge: missing target")?.parse()?;
                Op::SetEdge { node, slot, to }
            }
            "weakset" => {
                let node = num("node")?;
                let to: Ref = it.next().ok_or("weakset: missing target")?.parse()?;
                Op::SetWeak { node, to }
            }
            "root" => Op::AddRoot { node: num("node")? },
            "unroot" => Op::DropRoot { node: num("node")? },
            "guardian" => Op::MakeGuardian { g: num("g")? },
            "register" => {
                let g = num("g")?;
                let target: Ref = it.next().ok_or("register: missing target")?.parse()?;
                let agent = it.next().map(Ref::from_str).transpose()?;
                Op::Register { g, target, agent }
            }
            "poll" => Op::Poll { g: num("g")? },
            "dropg" => Op::DropGuardian { g: num("g")? },
            "weak" => {
                let wid = num("wid")?;
                let target: Ref = it.next().ok_or("weak: missing target")?.parse()?;
                Op::AllocWeakPair { wid, target }
            }
            "reweak" => {
                let wid = num("wid")?;
                let target: Ref = it.next().ok_or("reweak: missing target")?.parse()?;
                Op::SetWeakPair { wid, target }
            }
            "dropweak" => Op::DropWeakPair { wid: num("wid")? },
            "tnode" => {
                let id = num("id")?;
                let left: Ref = it.next().ok_or("tnode: missing left")?.parse()?;
                let right: Ref = it.next().ok_or("tnode: missing right")?.parse()?;
                Op::AllocTyped { id, left, right }
            }
            "troot" => Op::AddTypedRoot { node: num("node")? },
            "tregister" => Op::RegisterTyped {
                g: num("g")?,
                node: num("node")?,
            },
            "tpoll" => Op::PollTyped { g: num("g")? },
            "tweak" => Op::AllocTypedWeak {
                wid: num("wid")?,
                node: num("node")?,
            },
            "tupgrade" => Op::UpgradeTypedWeak { wid: num("wid")? },
            "collect" => Op::Collect {
                gen: num("gen")? as u8,
            },
            "churn" => Op::Churn { n: num("n")? },
            "grow" => Op::Grow {
                bytes: num("bytes")?,
            },
            "setroot" => Op::SetRoot {
                root: num("root")?,
                node: num("node")?,
            },
            other => return Err(format!("unknown op {other:?}")),
        };
        if let Some(extra) = it.next() {
            return Err(format!("{head}: trailing token {extra:?}"));
        }
        Ok(op)
    }
}

/// Heap configuration a trace runs under (a deterministic subset of
/// [`guardians_gc::GcConfig`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TortureConfig {
    /// Number of generations.
    pub generations: u8,
    /// Survivor promotion policy.
    pub promotion: Promotion,
    /// Arm the segment-acquisition fault at this lifetime offset.
    pub fail_acquisition_at: Option<u64>,
    /// Bounded-pause budget in microseconds (`None` = stop-the-world).
    /// `Some` selects the incremental schedule; `Some(0)` is the finest
    /// slicing (one work unit per increment). The shadow model is
    /// schedule-agnostic: a budget leg checks the increments against the
    /// same oracle, observable for observable.
    pub pause_budget: Option<u64>,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            generations: 4,
            promotion: Promotion::NextGeneration,
            fail_acquisition_at: None,
            pause_budget: None,
        }
    }
}

/// Trace format version: the number in the header [`Trace::to_text`]
/// writes, [`Trace::parse`] requires, and every refusal names.
const FORMAT_VERSION: u32 = 3;

/// The `config` line of [`FORMAT_VERSION`], for refusals.
const CONFIG_SHAPE: &str = "`config <gens> <promotion> <fault> [budget_us]`";

/// The first line of a trace's text.
fn header() -> String {
    format!("# guardians torture trace v{FORMAT_VERSION}")
}

/// `config <gens> <promotion> <fault> [budget_us]`: the optional token is
/// omitted when there is no pause budget.
impl fmt::Display for TortureConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let promo = promotion_text(self.promotion);
        let fault = match self.fail_acquisition_at {
            Some(n) => n.to_string(),
            None => "-".to_string(),
        };
        write!(f, "config {} {promo} {fault}", self.generations)?;
        if let Some(us) = self.pause_budget {
            write!(f, " {us}")?;
        }
        Ok(())
    }
}

impl FromStr for TortureConfig {
    type Err = String;
    fn from_str(line: &str) -> Result<TortureConfig, String> {
        let mut it = line.split_whitespace();
        if it.next() != Some("config") {
            return Err("config line must start with 'config'".into());
        }
        let gens: u8 = it
            .next()
            .ok_or("config: missing generations")?
            .parse()
            .map_err(|e| format!("config: bad generations: {e}"))?;
        let promo = parse_promotion(it.next().ok_or("config: missing promotion")?)
            .map_err(|e| format!("config: {e}"))?;
        let fault = match it.next().ok_or("config: missing fault")? {
            "-" => None,
            n => Some(n.parse().map_err(|e| format!("config: bad fault: {e}"))?),
        };
        let pause_budget = it
            .next()
            .map(|us| {
                us.parse()
                    .map_err(|e| format!("config: bad pause budget: {e}"))
            })
            .transpose()?;
        if let Some(extra) = it.next() {
            // A v2 line put a workers token ahead of the budget (and a v1
            // line two switch slots ahead of the fault): either runs past
            // the one optional slot there is now.
            return Err(format!(
                "config: trailing token {extra:?}: trace format v{FORMAT_VERSION} ({CONFIG_SHAPE}) \
                 ends at the budget; a v2 line (`config <gens> <promotion> <fault> [workers \
                 [budget_us]]`) or older is refused, not reinterpreted"
            ));
        }
        Ok(TortureConfig {
            generations: gens,
            promotion: promo,
            fail_acquisition_at: fault,
            pause_budget,
        })
    }
}

/// A complete, replayable torture input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The seed the trace was generated from, if any (informational: a
    /// parsed trace replays from its ops, not its seed).
    pub seed: Option<u64>,
    /// Heap configuration.
    pub config: TortureConfig,
    /// The op sequence.
    pub ops: Vec<Op>,
}

impl Trace {
    /// Serialises the trace to the line format `parse` reads back.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{}", header());
        if let Some(seed) = self.seed {
            let _ = writeln!(out, "# seed {seed}");
        }
        let _ = writeln!(out, "{}", self.config);
        for op in &self.ops {
            let _ = writeln!(out, "{op}");
        }
        out
    }

    /// Parses the textual form produced by [`Trace::to_text`]. Blank
    /// lines and `#` comments are skipped; a `# seed N` comment restores
    /// the recorded seed. The format header must come before the `config`
    /// line: a v2 line's workers token sits where the budget is now, so a
    /// trace that does not say it is v3 is refused, never replayed under a
    /// schedule it did not record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let mut seed = None;
        let mut config = None;
        let mut ops = Vec::new();
        let mut headed = false;
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let mut it = comment.split_whitespace();
                if it.next() == Some("seed") {
                    if let Some(Ok(s)) = it.next().map(str::parse) {
                        seed = Some(s);
                    }
                }
                if let Some(version) = comment.trim().strip_prefix("guardians torture trace ") {
                    if line != header() {
                        return Err(format!(
                            "line {}: trace format {version}, and this rig reads \
                             v{FORMAT_VERSION} ({CONFIG_SHAPE})",
                            n + 1
                        ));
                    }
                    headed = true;
                }
                continue;
            }
            if line.starts_with("config") {
                if !headed {
                    return Err(format!(
                        "line {}: config line with no `{}` line before it: an unheaded \
                         trace may be v2, whose workers token would read as a pause budget",
                        n + 1,
                        header()
                    ));
                }
                config = Some(
                    line.parse::<TortureConfig>()
                        .map_err(|e| format!("line {}: {e}", n + 1))?,
                );
                continue;
            }
            ops.push(
                line.parse::<Op>()
                    .map_err(|e| format!("line {}: {e}", n + 1))?,
            );
        }
        Ok(Trace {
            seed,
            config: config.ok_or("trace has no config line")?,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_round_trip_through_text() {
        let ops = vec![
            Op::AllocPair {
                id: 0,
                left: Ref::Null,
                right: Ref::Node(7),
            },
            Op::AllocVector {
                id: 1,
                payload: 600,
                left: Ref::Tconc(2),
                right: Ref::Null,
            },
            Op::AllocBytevector { id: 2, len: 5000 },
            Op::AllocString { id: 3 },
            Op::SetEdge {
                node: 1,
                slot: 1,
                to: Ref::Node(0),
            },
            Op::SetWeak {
                node: 1,
                to: Ref::Node(2),
            },
            Op::AddRoot { node: 1 },
            Op::DropRoot { node: 0 },
            Op::MakeGuardian { g: 0 },
            Op::Register {
                g: 0,
                target: Ref::Node(1),
                agent: None,
            },
            Op::Register {
                g: 0,
                target: Ref::Tconc(1),
                agent: Some(Ref::Node(3)),
            },
            Op::Poll { g: 0 },
            Op::DropGuardian { g: 0 },
            Op::AllocWeakPair {
                wid: 0,
                target: Ref::Node(1),
            },
            Op::SetWeakPair {
                wid: 0,
                target: Ref::Null,
            },
            Op::DropWeakPair { wid: 0 },
            Op::AllocTyped {
                id: 4,
                left: Ref::Node(0),
                right: Ref::Null,
            },
            Op::AddTypedRoot { node: 4 },
            Op::RegisterTyped { g: 0, node: 4 },
            Op::PollTyped { g: 0 },
            Op::AllocTypedWeak { wid: 1, node: 4 },
            Op::UpgradeTypedWeak { wid: 1 },
            Op::Collect { gen: 2 },
            Op::Churn { n: 300 },
            Op::Grow { bytes: 9000 },
        ];
        for promotion in [
            Promotion::NextGeneration,
            Promotion::Capped(2),
            Promotion::SameGeneration,
        ] {
            let trace = Trace {
                seed: Some(42),
                config: TortureConfig {
                    promotion,
                    fail_acquisition_at: Some(99),
                    ..TortureConfig::default()
                },
                ops: ops.clone(),
            };
            let parsed = Trace::parse(&trace.to_text()).expect("parses");
            assert_eq!(parsed, trace);
        }
    }

    #[test]
    fn older_formats_are_refused_by_name() {
        // A v2-headed trace is refused at its header, whatever its config
        // line: `config 4 next - 4` meant four workers, and would read
        // here as a 4 µs pause budget.
        for old in ["v2", "v1"] {
            let text =
                format!("# guardians torture trace {old}\nconfig 4 next - 4\npair 0 null null");
            let err = Trace::parse(&text).unwrap_err();
            assert!(
                err.contains("line 1") && err.contains(old) && err.contains("v3"),
                "{err}"
            );
        }
        // So is a trace that does not say what it is.
        let err = Trace::parse("config 4 next - 4\npair 0 null null").unwrap_err();
        assert!(err.contains("line 1") && err.contains("v2"), "{err}");
        // A config line on its own: v2's workers-and-budget pair and the v1
        // default line both run past the one optional slot.
        for old in ["config 4 next - 1 250", "config 4 next 0 0 -"] {
            let err = old.parse::<TortureConfig>().unwrap_err();
            assert!(
                err.contains("trailing") && err.contains("v2") && err.contains("v3"),
                "{err}"
            );
        }
    }

    #[test]
    fn pause_budget_token_round_trips_and_defaults() {
        let budgeted = TortureConfig {
            pause_budget: Some(250),
            ..TortureConfig::default()
        };
        let text = budgeted.to_string();
        assert_eq!(text, "config 4 next - 250");
        assert_eq!(text.parse::<TortureConfig>().unwrap(), budgeted);
        // Zero (finest slicing) round-trips distinctly from None.
        let finest = TortureConfig {
            pause_budget: Some(0),
            ..TortureConfig::default()
        };
        assert_eq!(finest.to_string().parse::<TortureConfig>().unwrap(), finest);
        // The default stays token-free, and without the token a line is
        // stop-the-world.
        let serial = TortureConfig::default();
        assert_eq!(serial.to_string(), "config 4 next -");
        assert_eq!(serial.to_string().parse::<TortureConfig>().unwrap(), serial);
    }

    #[test]
    fn promotion_token_round_trips() {
        for (text, promotion) in [
            ("config 4 next -", Promotion::NextGeneration),
            ("config 4 cap1 -", Promotion::Capped(1)),
            ("config 4 cap2 -", Promotion::Capped(2)),
            ("config 4 same -", Promotion::SameGeneration),
        ] {
            let config = text.parse::<TortureConfig>().unwrap();
            assert_eq!(config.promotion, promotion, "{text}");
            assert_eq!(config.to_string(), text);
        }
        assert!("config 4 sideways -".parse::<TortureConfig>().is_err());
    }

    #[test]
    fn typed_tokens_are_purely_additive() {
        // The typed tokens parse and round-trip...
        for (text, op) in [
            (
                "tnode 7 n2 null",
                Op::AllocTyped {
                    id: 7,
                    left: Ref::Node(2),
                    right: Ref::Null,
                },
            ),
            ("troot 7", Op::AddTypedRoot { node: 7 }),
            ("tregister 1 7", Op::RegisterTyped { g: 1, node: 7 }),
            ("tpoll 1", Op::PollTyped { g: 1 }),
            ("tweak 3 7", Op::AllocTypedWeak { wid: 3, node: 7 }),
            ("tupgrade 3", Op::UpgradeTypedWeak { wid: 3 }),
            ("setroot 7 2", Op::SetRoot { root: 7, node: 2 }),
        ] {
            assert_eq!(text.parse::<Op>().unwrap(), op, "{text}");
            assert_eq!(op.to_string(), text);
        }
        // ...and a trace without them serialises exactly as before, so
        // every committed pre-typed trace keeps its text and meaning.
        let old = Trace {
            seed: None,
            config: TortureConfig::default(),
            ops: vec![
                Op::AllocPair {
                    id: 0,
                    left: Ref::Null,
                    right: Ref::Null,
                },
                Op::AddRoot { node: 0 },
                Op::Collect { gen: 0 },
            ],
        };
        let text = old.to_text();
        assert!(
            !text.contains("tnode") && !text.contains("setroot"),
            "{text}"
        );
        assert_eq!(Trace::parse(&text).unwrap(), old);
    }

    #[test]
    fn parse_reports_bad_lines() {
        let head = header();
        let err = Trace::parse(&format!("{head}\nconfig 4 next -\nfrobnicate 1")).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        let err = Trace::parse("pair 0 null null").unwrap_err();
        assert!(err.contains("no config"), "{err}");
        let err =
            Trace::parse(&format!("{head}\nconfig 4 next -\npair 0 null null extra")).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }
}
