//! The bytecode: the instruction set, the flat [`CodeObject`]s the VM
//! runs, and the block [`Emitter`] the analyzer (`analyze.rs`) writes
//! them with as it walks a form.
//!
//! The emitter is *pure* with respect to the heap: it moves the
//! analyzer's `Rooted` handles and global sites into per-object constant
//! pools and never allocates, so the VM's allocation sequence is a
//! function of the analyzer's own allocations alone — the property the
//! golden counter table (`crates/torture/tests/scheme_counters.rs`) pins
//! down.
//!
//! Layout decisions (see DESIGN §11):
//! - one `CodeObject` per straight-line region: the top-level form, each
//!   lambda clause body, and each quasiquote unquote site;
//! - operands are pool indices (`u32`) or depth/slot pairs (`u16`), so an
//!   [`Insn`] stays small and `Copy`;
//! - all jumps are forward — loops re-enter through
//!   [`Insn::TailCall`]/[`Insn::EnterLoop`], which switch code objects;
//! - call sites carry a monomorphic inline-cache slot ([`CallCache`])
//!   remembering the last closure's lambda index and selected clause, so
//!   repeat calls skip clause selection;
//! - the last value push before a call is fused into the call insn
//!   (`local-ref+call`, `imm+call`, `const+call`) unless a jump target
//!   lands between them.

use crate::analyze::GlobalSite;
use crate::error::{SResult, SchemeError};
use guardians_gc::{Heap, Rooted, Value};
use guardians_runtime::printer::write_value;
use std::cell::Cell;
use std::rc::Rc;

/// Sentinel for an empty [`CallCache`] slot.
const CACHE_EMPTY: u32 = u32::MAX;

/// Per-call-site monomorphic inline cache: the lambda index of the last
/// closure applied here and the clause it selected. Sound because a
/// call site's argument count is fixed, so for a given lambda the clause
/// choice can never change; a hit skips the clause walk and its arity
/// error checks (the miss path re-validates from scratch).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CallCache {
    /// Lambda index of the cached lambda, or `CACHE_EMPTY`.
    pub lambda: u32,
    /// Clause index selected for this site's argc.
    pub clause: u32,
}

impl CallCache {
    /// An empty (never-hit) cache slot.
    pub fn empty() -> CallCache {
        CallCache {
            lambda: CACHE_EMPTY,
            clause: 0,
        }
    }

    /// Whether this cache entry matches `lambda_index`.
    #[inline]
    pub fn hits(self, lambda_index: usize) -> bool {
        self.lambda != CACHE_EMPTY && self.lambda as usize == lambda_index
    }
}

/// A lambda creation site: the lambda's index in `Interp::lambdas` plus
/// the procedure name used in the closure record.
pub(crate) struct LambdaRef {
    /// Index into `Interp::lambdas`.
    pub index: usize,
    /// The procedure's name (rooted symbol, or `#f`).
    pub name: Rooted,
}

/// A compiled quasiquote: the rooted template plus one compiled code
/// object per unquote site, in runtime walk order.
pub(crate) struct QuasiBlock {
    /// The template datum (rooted; it moves during collection).
    pub template: Rooted,
    /// Compiled unquote/unquote-splicing expressions.
    pub sites: Vec<Rc<CodeObject>>,
}

/// One clause of a compiled lambda.
pub(crate) struct VmClause {
    /// Number of required parameters.
    pub n_req: usize,
    /// Whether a rest parameter follows.
    pub variadic: bool,
    /// Exact frame slot count: the length of the clause's scope frame,
    /// against which the analyzer checked every address into it.
    pub n_slots: usize,
    /// The clause body.
    pub body: Rc<CodeObject>,
}

/// A compiled lambda: clauses tried in order (a plain `lambda` has one).
pub(crate) struct VmLambda {
    /// One entry per clause.
    pub clauses: Vec<VmClause>,
}

/// A flat compiled code unit: a linear instruction vector plus the
/// constant pools its operands index into.
pub(crate) struct CodeObject {
    /// The instruction stream.
    pub insns: Vec<Insn>,
    /// Non-pointer immediates (fixnums, booleans, chars, void).
    pub imms: Vec<Value>,
    /// Rooted heap constants (quoted data, `case` datum lists).
    pub consts: Vec<Rooted>,
    /// Global reference sites, one per source reference, each with its
    /// inline cache.
    pub sites: Vec<GlobalSite>,
    /// Variable names for "used before initialization" errors.
    pub names: Vec<Rc<str>>,
    /// Lambda creation sites.
    pub lambdas: Vec<LambdaRef>,
    /// Compiled quasiquote templates.
    pub quasis: Vec<QuasiBlock>,
    /// Per-call-site inline caches, indexed by the call insn's `cache`.
    pub caches: Vec<Cell<CallCache>>,
}

/// One VM instruction. Operands are indices into the owning
/// [`CodeObject`]'s pools (`u32`) or small scalars (`u16`); the whole
/// enum is `Copy` so the dispatch loop reads it by value.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Insn {
    /// Push `imms[i]`.
    Imm(u32),
    /// Push `consts[i]`.
    Const(u32),
    /// Push the lexical variable at (`depth`, `slot`); `name` indexes
    /// `names` for the uninitialized-variable error.
    LocalRef {
        /// Frames to walk outward.
        depth: u16,
        /// Slot within that frame.
        slot: u16,
        /// Name pool index.
        name: u16,
    },
    /// Push the global at `sites[i]` through its inline-cached cell.
    GlobalRef(u32),
    /// Pop a value, store it at (`depth`, `slot`), push void.
    LocalSet {
        /// Frames to walk outward.
        depth: u16,
        /// Slot within that frame.
        slot: u16,
    },
    /// Pop a value, `set!` the global at `sites[i]`, push void.
    GlobalSet(u32),
    /// Pop a value, define the global at `sites[i]`, push void.
    GlobalDefine(u32),
    /// Push a compiled closure over the current environment for
    /// `lambdas[i]`.
    MakeClosure(u32),
    /// Pop and discard the top of stack.
    Pop,
    /// Unconditional forward jump.
    Jmp(u32),
    /// Pop; jump if the value is `#f`.
    JmpIfFalse(u32),
    /// Pop; jump if the value is truthy.
    JmpIfTrue(u32),
    /// If top-of-stack is `#f`, keep it and jump; else pop (for `and`).
    JmpIfFalseKeep(u32),
    /// If top-of-stack is truthy, keep it and jump; else pop (for `or`).
    JmpIfTrueKeep(u32),
    /// If top-of-stack is `#f`, pop and jump; else keep it (for
    /// `cond`'s `=>` clauses, which hold the test value for the
    /// receiver).
    JmpIfFalsePop(u32),
    /// Push a copy of the current environment (the frame slot at
    /// `base`), as a saved value or as the environment slot of a nested
    /// activation.
    SaveEnv,
    /// Allocate a `let` frame of `n_slots`, fill the first `n_inits`
    /// slots from the stack (popping them), parent it on the current
    /// environment, and install it at `base`.
    PushFrame {
        /// Total slot count of the new frame.
        n_slots: u16,
        /// How many slots are initialized from the stack.
        n_inits: u16,
    },
    /// Pop the result, pop the saved environment back into `base`, push
    /// the result (closes a non-tail `let`).
    RestoreEnv,
    /// Bump the gensym counter (keeps `do` in lockstep with the naive
    /// desugar).
    BumpGensym,
    /// Tail named-`let`: pop `argc` loop arguments, build the loop
    /// closure + frame for `lambdas[lambda]`, install at `base`, and
    /// continue in the selected clause body. No safe point — mirrors
    /// `step_named_let`.
    EnterLoop {
        /// Lambda pool index of the loop lambda.
        lambda: u16,
        /// Number of loop arguments on the stack.
        argc: u16,
    },
    /// Non-tail named-`let`: like [`Insn::EnterLoop`] but runs the loop
    /// body as a nested activation rooted at the `SaveEnv` slot below
    /// the arguments, pushing its result. Counts one non-tail frame.
    EnterLoopCall {
        /// Lambda pool index of the loop lambda.
        lambda: u16,
        /// Number of loop arguments on the stack.
        argc: u16,
    },
    /// Apply: stack holds `op` then `argc` arguments. The safe point.
    /// Counts one non-tail frame; pushes the result.
    Call {
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Tail apply: like [`Insn::Call`] but reuses this activation.
    TailCall {
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Fused `LocalRef` + `Call`.
    LocalRefCall {
        /// Frames to walk outward.
        depth: u16,
        /// Slot within that frame.
        slot: u16,
        /// Name pool index.
        name: u16,
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Fused `LocalRef` + `TailCall`.
    LocalRefTailCall {
        /// Frames to walk outward.
        depth: u16,
        /// Slot within that frame.
        slot: u16,
        /// Name pool index.
        name: u16,
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Fused `Imm` + `Call`.
    ImmCall {
        /// Immediate pool index.
        imm: u32,
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Fused `Imm` + `TailCall`.
    ImmTailCall {
        /// Immediate pool index.
        imm: u32,
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Fused `Const` + `Call`.
    ConstCall {
        /// Constant pool index.
        konst: u32,
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Fused `Const` + `TailCall`.
    ConstTailCall {
        /// Constant pool index.
        konst: u32,
        /// Argument count.
        argc: u16,
        /// Inline-cache pool index.
        cache: u16,
    },
    /// Fused `LocalRef` + `Return`.
    LocalRefRet {
        /// Frames to walk outward.
        depth: u16,
        /// Slot within that frame.
        slot: u16,
        /// Name pool index.
        name: u16,
    },
    /// Pop the receiver, pop the test value, apply receiver to value,
    /// push the result (`cond`'s `=>`, non-tail like the naive
    /// evaluator).
    CondApply,
    /// `case` dispatch: if the key at top-of-stack is `eqv?` to any
    /// datum in `consts[datums]`, jump to `target` (keeping the key on
    /// the stack; clause bodies start with `Pop`).
    CaseMatch {
        /// Constant pool index of the datum list.
        datums: u32,
        /// Jump target of the clause body.
        target: u32,
    },
    /// Run the quasiquote walk for `quasis[i]`, pushing the built datum.
    Quasi(u32),
    /// Pop the result and return it from this code object.
    Return,
}

/// Number of distinct opcodes, for the dispatch-counter table.
pub(crate) const OP_COUNT: usize = 34;

/// Opcode names, indexed by [`Insn::op_index`]; used for the
/// `vm.dispatch.*` metrics counters and the disassembler.
pub(crate) const OP_NAMES: [&str; OP_COUNT] = [
    "imm",
    "const",
    "local-ref",
    "global-ref",
    "local-set",
    "global-set",
    "global-define",
    "make-closure",
    "pop",
    "jmp",
    "jmp-if-false",
    "jmp-if-true",
    "jmp-if-false-keep",
    "jmp-if-true-keep",
    "jmp-if-false-pop",
    "save-env",
    "push-frame",
    "restore-env",
    "bump-gensym",
    "enter-loop",
    "enter-loop-call",
    "call",
    "tail-call",
    "local-ref-call",
    "local-ref-tail-call",
    "imm-call",
    "imm-tail-call",
    "const-call",
    "const-tail-call",
    "local-ref-ret",
    "cond-apply",
    "case-match",
    "quasi",
    "return",
];

impl Insn {
    /// Dense opcode index, for dispatch counters and `OP_NAMES`.
    pub(crate) fn op_index(self) -> usize {
        match self {
            Insn::Imm(_) => 0,
            Insn::Const(_) => 1,
            Insn::LocalRef { .. } => 2,
            Insn::GlobalRef(_) => 3,
            Insn::LocalSet { .. } => 4,
            Insn::GlobalSet(_) => 5,
            Insn::GlobalDefine(_) => 6,
            Insn::MakeClosure(_) => 7,
            Insn::Pop => 8,
            Insn::Jmp(_) => 9,
            Insn::JmpIfFalse(_) => 10,
            Insn::JmpIfTrue(_) => 11,
            Insn::JmpIfFalseKeep(_) => 12,
            Insn::JmpIfTrueKeep(_) => 13,
            Insn::JmpIfFalsePop(_) => 14,
            Insn::SaveEnv => 15,
            Insn::PushFrame { .. } => 16,
            Insn::RestoreEnv => 17,
            Insn::BumpGensym => 18,
            Insn::EnterLoop { .. } => 19,
            Insn::EnterLoopCall { .. } => 20,
            Insn::Call { .. } => 21,
            Insn::TailCall { .. } => 22,
            Insn::LocalRefCall { .. } => 23,
            Insn::LocalRefTailCall { .. } => 24,
            Insn::ImmCall { .. } => 25,
            Insn::ImmTailCall { .. } => 26,
            Insn::ConstCall { .. } => 27,
            Insn::ConstTailCall { .. } => 28,
            Insn::LocalRefRet { .. } => 29,
            Insn::CondApply => 30,
            Insn::CaseMatch { .. } => 31,
            Insn::Quasi(_) => 32,
            Insn::Return => 33,
        }
    }

    /// Allocation-site label for the heap's site profile
    /// ([`Heap::set_alloc_site`]), named after the source construct the
    /// insn came from. Labels are `&'static str` so attribution costs one
    /// pointer store. Insns that cannot allocate are grouped under
    /// `scheme.vm`.
    pub(crate) fn site(self) -> &'static str {
        match self {
            Insn::Imm(_) | Insn::ImmCall { .. } | Insn::ImmTailCall { .. } => "scheme.imm",
            Insn::Const(_) | Insn::ConstCall { .. } | Insn::ConstTailCall { .. } => "scheme.const",
            Insn::LocalRef { .. }
            | Insn::LocalRefCall { .. }
            | Insn::LocalRefTailCall { .. }
            | Insn::LocalRefRet { .. } => "scheme.local-ref",
            Insn::GlobalRef(_) => "scheme.global-ref",
            Insn::LocalSet { .. } => "scheme.local-set",
            Insn::GlobalSet(_) => "scheme.global-set",
            Insn::GlobalDefine(_) => "scheme.define",
            Insn::MakeClosure(_) => "scheme.lambda",
            Insn::PushFrame { .. } => "scheme.let",
            Insn::EnterLoop { .. } | Insn::EnterLoopCall { .. } => "scheme.named-let",
            Insn::Call { .. } | Insn::TailCall { .. } => "scheme.app",
            Insn::CondApply => "scheme.cond-arrow",
            Insn::CaseMatch { .. } => "scheme.case",
            Insn::Quasi(_) => "scheme.quasiquote",
            _ => "scheme.vm",
        }
    }
}

/// The block emitter: one [`CodeObject`] under construction. The
/// analyzer emits into it as it walks a form; a jump is emitted with a
/// placeholder target and bound later by [`Emitter::patch_here`].
#[derive(Default)]
pub(crate) struct Emitter {
    insns: Vec<Insn>,
    imms: Vec<Value>,
    consts: Vec<Rooted>,
    sites: Vec<GlobalSite>,
    names: Vec<Rc<str>>,
    lambdas: Vec<LambdaRef>,
    quasis: Vec<QuasiBlock>,
    n_caches: usize,
    /// Fusion barrier: the instruction index at or after which no jump
    /// target lands yet. Fusing is only legal when the would-be-fused
    /// push is past every bound label, otherwise a jump could land
    /// between the push and the call.
    barrier: usize,
}

impl Emitter {
    /// The finished code object.
    pub(crate) fn finish(self) -> Rc<CodeObject> {
        Rc::new(CodeObject {
            insns: self.insns,
            imms: self.imms,
            consts: self.consts,
            sites: self.sites,
            names: self.names,
            lambdas: self.lambdas,
            quasis: self.quasis,
            caches: vec![Cell::new(CallCache::empty()); self.n_caches],
        })
    }

    // ---- pooled pushes ----------------------------------------------

    /// Emits a push of the immediate `v`.
    pub(crate) fn imm(&mut self, v: Value) -> SResult<()> {
        let i = pool_push(&mut self.imms, v, "immediate")?;
        self.emit(Insn::Imm(i));
        Ok(())
    }

    /// Emits a push of the heap constant `r`.
    pub(crate) fn konst(&mut self, r: Rooted) -> SResult<()> {
        let i = pool_push(&mut self.consts, r, "constant")?;
        self.emit(Insn::Const(i));
        Ok(())
    }

    /// Emits `op` — a global reference, `set!` or define — on `site`.
    pub(crate) fn global(&mut self, op: fn(u32) -> Insn, site: GlobalSite) -> SResult<()> {
        let i = pool_push(&mut self.sites, site, "global site")?;
        self.emit(op(i));
        Ok(())
    }

    /// Pools a variable name for a lexical reference's error message.
    pub(crate) fn name(&mut self, name: Rc<str>) -> SResult<u16> {
        narrow(pool_push(&mut self.names, name, "name")? as usize, "name")
    }

    /// Emits a closure creation for the lambda at `index`.
    pub(crate) fn make_closure(&mut self, index: usize, name: Rooted) -> SResult<()> {
        let i = pool_push(&mut self.lambdas, LambdaRef { index, name }, "lambda")?;
        self.emit(Insn::MakeClosure(i));
        Ok(())
    }

    /// Emits a named-`let` entry into the loop lambda at `index` on the
    /// `argc` arguments just pushed: `EnterLoop` in tail position,
    /// `EnterLoopCall` (over a saved environment) otherwise.
    pub(crate) fn enter_loop(
        &mut self,
        index: usize,
        name: Rooted,
        argc: usize,
        tail: bool,
    ) -> SResult<()> {
        let i = pool_push(&mut self.lambdas, LambdaRef { index, name }, "lambda")?;
        let lambda = narrow(i as usize, "loop lambda")?;
        let argc = narrow(argc, "loop argc")?;
        self.emit(if tail {
            Insn::EnterLoop { lambda, argc }
        } else {
            Insn::EnterLoopCall { lambda, argc }
        });
        Ok(())
    }

    /// Emits the expansion of `template` over its compiled unquote
    /// `sites`.
    pub(crate) fn quasi(&mut self, template: Rooted, sites: Vec<Rc<CodeObject>>) -> SResult<()> {
        let i = pool_push(
            &mut self.quasis,
            QuasiBlock { template, sites },
            "quasiquote",
        )?;
        self.emit(Insn::Quasi(i));
        Ok(())
    }

    /// Emits a `case` dispatch on `datums` with a placeholder target;
    /// returns its index for [`Emitter::patch_here`].
    pub(crate) fn case_match(&mut self, datums: Rooted) -> SResult<usize> {
        let datums = pool_push(&mut self.consts, datums, "constant")?;
        let at = self.insns.len();
        self.emit(Insn::CaseMatch {
            datums,
            target: u32::MAX,
        });
        Ok(at)
    }

    // ---- control ----------------------------------------------------

    /// Emits `insn`.
    pub(crate) fn emit(&mut self, insn: Insn) {
        self.insns.push(insn);
    }

    /// Emits a jump with a placeholder target; returns its index for
    /// [`Emitter::patch_here`].
    pub(crate) fn emit_jump(&mut self, mk: fn(u32) -> Insn) -> usize {
        let at = self.insns.len();
        self.insns.push(mk(u32::MAX));
        at
    }

    /// Binds the jump (or `case` dispatch) at `at` to the current
    /// position and raises the fusion barrier (a label now lands here).
    pub(crate) fn patch_here(&mut self, at: usize) -> SResult<()> {
        let target = narrow32(self.insns.len(), "jump target")?;
        set_jump_target(&mut self.insns[at], target);
        self.barrier = self.insns.len();
        Ok(())
    }

    /// Emits a call, fusing the preceding value push when no jump target
    /// separates them.
    pub(crate) fn emit_call(&mut self, argc: usize, tail: bool) -> SResult<()> {
        let argc = narrow(argc, "call argc")?;
        let cache = narrow(self.n_caches, "call cache")?;
        self.n_caches += 1;
        if self.insns.len() > self.barrier {
            let fused = match *self.insns.last().expect("non-empty past barrier") {
                Insn::LocalRef { depth, slot, name } => Some(if tail {
                    Insn::LocalRefTailCall {
                        depth,
                        slot,
                        name,
                        argc,
                        cache,
                    }
                } else {
                    Insn::LocalRefCall {
                        depth,
                        slot,
                        name,
                        argc,
                        cache,
                    }
                }),
                Insn::Imm(imm) => Some(if tail {
                    Insn::ImmTailCall { imm, argc, cache }
                } else {
                    Insn::ImmCall { imm, argc, cache }
                }),
                Insn::Const(konst) => Some(if tail {
                    Insn::ConstTailCall { konst, argc, cache }
                } else {
                    Insn::ConstCall { konst, argc, cache }
                }),
                _ => None,
            };
            if let Some(f) = fused {
                *self.insns.last_mut().expect("non-empty past barrier") = f;
                return Ok(());
            }
        }
        self.emit(if tail {
            Insn::TailCall { argc, cache }
        } else {
            Insn::Call { argc, cache }
        });
        Ok(())
    }

    /// Emits a return, fusing a preceding `LocalRef`.
    pub(crate) fn emit_return(&mut self) {
        if self.insns.len() > self.barrier {
            if let Some(&Insn::LocalRef { depth, slot, name }) = self.insns.last() {
                *self.insns.last_mut().expect("non-empty past barrier") =
                    Insn::LocalRefRet { depth, slot, name };
                return;
            }
        }
        self.emit(Insn::Return);
    }
}

/// Pushes into a pool, returning the new index as `u32`.
fn pool_push<T>(pool: &mut Vec<T>, item: T, what: &str) -> SResult<u32> {
    let i = pool.len();
    pool.push(item);
    narrow32(i, what)
}

fn narrow32(n: usize, what: &str) -> SResult<u32> {
    u32::try_from(n).map_err(|_| SchemeError::new(format!("compile: {what} overflow")))
}

/// Narrows an operand to an insn's `u16` field.
pub(crate) fn narrow(n: usize, what: &str) -> SResult<u16> {
    u16::try_from(n).map_err(|_| SchemeError::new(format!("compile: {what} overflow")))
}

/// Rewrites the target operand of a jump-family insn.
fn set_jump_target(insn: &mut Insn, target: u32) {
    match insn {
        Insn::Jmp(t)
        | Insn::JmpIfFalse(t)
        | Insn::JmpIfTrue(t)
        | Insn::JmpIfFalseKeep(t)
        | Insn::JmpIfTrueKeep(t)
        | Insn::JmpIfFalsePop(t)
        | Insn::CaseMatch { target: t, .. } => *t = target,
        other => unreachable!("not a jump: {other:?}"),
    }
}

// ---- disassembler -------------------------------------------------

/// Pretty-prints a compiled code object: one line per instruction with
/// operands resolved against the pools (constants printed through the
/// writer, global sites by name) plus the allocation-site label.
pub(crate) fn disassemble(heap: &Heap, co: &CodeObject) -> String {
    let mut out = String::new();
    disassemble_into(heap, co, "", &mut out);
    out
}

fn disassemble_into(heap: &Heap, co: &CodeObject, indent: &str, out: &mut String) {
    use std::fmt::Write as _;
    for (pc, insn) in co.insns.iter().enumerate() {
        let name = OP_NAMES[insn.op_index()];
        let _ = write!(out, "{indent}{pc:4}  {name:<20}");
        let operands = describe_operands(heap, co, *insn);
        if !operands.is_empty() {
            let _ = write!(out, " {operands}");
        }
        let site = insn.site();
        if site != "scheme.vm" {
            let _ = write!(out, "  ; {site}");
        }
        out.push('\n');
    }
    for (i, q) in co.quasis.iter().enumerate() {
        let _ = writeln!(
            out,
            "{indent}quasi[{i}] template {}",
            write_value(heap, q.template.get())
        );
        for (j, s) in q.sites.iter().enumerate() {
            let _ = writeln!(out, "{indent}quasi[{i}] site {j}:");
            disassemble_into(heap, s, &format!("{indent}  "), out);
        }
    }
}

fn describe_operands(heap: &Heap, co: &CodeObject, insn: Insn) -> String {
    let imm = |i: u32| write_value(heap, co.imms[i as usize]);
    let konst = |i: u32| write_value(heap, co.consts[i as usize].get());
    let site = |i: u32| co.sites[i as usize].name.to_string();
    let lam = |i: usize| {
        let l = &co.lambdas[i];
        let name = l.name.get();
        if name == Value::FALSE {
            format!("code[{}]", l.index)
        } else {
            format!("code[{}] ({})", l.index, write_value(heap, name))
        }
    };
    match insn {
        Insn::Imm(i) => imm(i),
        Insn::Const(i) => konst(i),
        Insn::LocalRef { depth, slot, name } | Insn::LocalRefRet { depth, slot, name } => {
            format!("depth {depth} slot {slot} ({})", co.names[name as usize])
        }
        Insn::GlobalRef(i) | Insn::GlobalSet(i) | Insn::GlobalDefine(i) => site(i),
        Insn::LocalSet { depth, slot } => format!("depth {depth} slot {slot}"),
        Insn::MakeClosure(i) => lam(i as usize),
        Insn::Jmp(t)
        | Insn::JmpIfFalse(t)
        | Insn::JmpIfTrue(t)
        | Insn::JmpIfFalseKeep(t)
        | Insn::JmpIfTrueKeep(t)
        | Insn::JmpIfFalsePop(t) => format!("-> {t}"),
        Insn::PushFrame { n_slots, n_inits } => format!("slots {n_slots} inits {n_inits}"),
        Insn::EnterLoop { lambda, argc } | Insn::EnterLoopCall { lambda, argc } => {
            format!("{} argc {argc}", lam(lambda as usize))
        }
        Insn::Call { argc, cache } | Insn::TailCall { argc, cache } => {
            format!("argc {argc} cache {cache}")
        }
        Insn::LocalRefCall {
            depth,
            slot,
            name,
            argc,
            cache,
        }
        | Insn::LocalRefTailCall {
            depth,
            slot,
            name,
            argc,
            cache,
        } => format!(
            "depth {depth} slot {slot} ({}) argc {argc} cache {cache}",
            co.names[name as usize]
        ),
        Insn::ImmCall {
            imm: i,
            argc,
            cache,
        }
        | Insn::ImmTailCall {
            imm: i,
            argc,
            cache,
        } => {
            format!("{} argc {argc} cache {cache}", imm(i))
        }
        Insn::ConstCall {
            konst: k,
            argc,
            cache,
        }
        | Insn::ConstTailCall {
            konst: k,
            argc,
            cache,
        } => {
            format!("{} argc {argc} cache {cache}", konst(k))
        }
        Insn::CaseMatch { datums, target } => format!("{} -> {target}", konst(datums)),
        Insn::Quasi(i) => format!("quasi[{i}]"),
        Insn::Pop
        | Insn::SaveEnv
        | Insn::RestoreEnv
        | Insn::BumpGensym
        | Insn::CondApply
        | Insn::Return => String::new(),
    }
}
