//! The bytecode VM: a direct-threaded dispatch loop over the flat
//! [`CodeObject`]s the analyzer emits (`analyze.rs`, in the format of
//! [`crate::compile`]). It runs what it is given and decides nothing
//! about syntax; a closure's code is `Interp::lambdas[index]`, finished
//! before any closure over it can exist.
//!
//! The VM is the production evaluator ([`crate::EvalMode::Vm`]). Its
//! contract with the naive oracle ([`crate::EvalMode::Naive`]) is
//! *observable equivalence*: the only collection safe point is procedure
//! application (the same `maybe_collect` dance as the oracle's
//! `apply_from_stack`, including the collect-handler re-entrancy guard),
//! and every result, printed byte and error message is identical. The
//! differential suites (`tests/prop_oracle.rs`, the torture scheme leg)
//! pin this down; the VM's own allocation sequence is pinned by a golden
//! counter table (`crates/torture/tests/scheme_counters.rs`).
//!
//! Execution model: one [`Interp::vm_run`] activation per code object,
//! rooted at stack slot `base` which holds the current environment frame
//! (`#f` at top level). All operand-stack slots live in the interpreter's
//! [`RootedVec`](guardians_gc::RootedVec) shadow stack, so a collection
//! at the application safe point can relocate freely. Tail calls switch
//! code objects in place; non-tail calls run a nested activation and
//! count one frame on the same `depth` spine the oracle uses, so
//! runaway recursion errors out with the same message.
//!
//! Known (bounded) divergence from the oracle, not observable by the
//! differential suites: the oracle bumps `depth` once per nested `eval`
//! (every operand and `let` init, every quasiquote template level and
//! every unquote, not only every non-tail call), so a program that
//! exhausts the ~400-frame budget can do so a few Scheme recursion levels
//! earlier there than here. The error string is identical, and both
//! recover; the property generators stay far below the limit. A template
//! is code like any other here: the analyzer bounds its nesting by
//! `MAX_NESTING`, and the VM runs it without recursing, so a template
//! nested past 400 levels that the oracle refuses ("quasiquote nesting
//! too deep") builds under the VM.

use crate::analyze::GlobalSite;
use crate::compile::{self, CallCache, CodeObject, Insn, VmLambda, OP_COUNT};
use crate::error::{err, SResult};
use crate::interp::Interp;
use guardians_gc::Value;
use guardians_runtime::symtab::SymbolTable;
use guardians_runtime::{lists, rtags};
use std::cell::Cell;
use std::rc::Rc;

/// Metrics keys for the per-opcode dispatch counters, parallel to
/// [`OP_NAMES`] (the registry wants `&'static str` keys).
const DISPATCH_KEYS: [&str; OP_COUNT] = [
    "vm.dispatch.imm",
    "vm.dispatch.const",
    "vm.dispatch.local-ref",
    "vm.dispatch.global-ref",
    "vm.dispatch.local-set",
    "vm.dispatch.global-set",
    "vm.dispatch.global-define",
    "vm.dispatch.make-closure",
    "vm.dispatch.pop",
    "vm.dispatch.jmp",
    "vm.dispatch.jmp-if-false",
    "vm.dispatch.jmp-if-true",
    "vm.dispatch.jmp-if-false-keep",
    "vm.dispatch.jmp-if-true-keep",
    "vm.dispatch.jmp-if-false-pop",
    "vm.dispatch.save-env",
    "vm.dispatch.push-frame",
    "vm.dispatch.restore-env",
    "vm.dispatch.bump-gensym",
    "vm.dispatch.enter-loop",
    "vm.dispatch.enter-loop-call",
    "vm.dispatch.call",
    "vm.dispatch.tail-call",
    "vm.dispatch.local-ref-call",
    "vm.dispatch.local-ref-tail-call",
    "vm.dispatch.imm-call",
    "vm.dispatch.imm-tail-call",
    "vm.dispatch.const-call",
    "vm.dispatch.const-tail-call",
    "vm.dispatch.local-ref-ret",
    "vm.dispatch.cond-apply",
    "vm.dispatch.case-match",
    "vm.dispatch.qq-cons",
    "vm.dispatch.qq-splice",
    "vm.dispatch.qq-append",
    "vm.dispatch.qq-vector",
    "vm.dispatch.return",
];

/// What a call site resolved to: an immediate value (primitive,
/// guardian) or a closure body to enter.
pub(crate) enum VmApplied {
    /// The application produced a value directly.
    Value(Value),
    /// A closure: its frame is installed at `base`, enter this body.
    Enter(Rc<CodeObject>),
}

/// How a tail call left the dispatch loop.
enum TailStep {
    /// The application produced the activation's final value.
    Done(Value),
    /// Continue dispatching in this code object.
    Continue(Rc<CodeObject>),
}

impl Interp {
    /// The lambda behind a compiled closure's index.
    fn vm_lambda(&self, index: usize) -> SResult<Rc<VmLambda>> {
        match self.lambdas.get(index) {
            Some(vl) => Ok(vl.clone()),
            None => err(format!("vm: no compiled lambda for index {index}")),
        }
    }

    /// Runs a top-level form's code. The bottom environment is `#f`:
    /// the analyzer's frame-slot check refuses any `LocalRef` past the
    /// frames the form creates, so the sentinel is never dereferenced.
    /// The caller keeps `co` until the form has finished, so its rooted
    /// constants and global sites stay rooted for the whole form even
    /// after a tail call has left the code.
    pub(crate) fn vm_top(&mut self, co: &Rc<CodeObject>) -> SResult<Value> {
        self.profile = self.heap.site_profile_enabled();
        if self.depth >= self.max_depth {
            return err(format!(
                "recursion too deep (max {} non-tail frames)",
                self.max_depth
            ));
        }
        self.depth += 1;
        let base = self.stack.len();
        self.stack.push(Value::FALSE);
        let result = self.vm_run(co.clone(), base);
        self.stack.truncate(base);
        self.depth -= 1;
        if self.profile {
            self.flush_dispatch_counters();
        }
        result
    }

    /// Publishes the accumulated per-opcode dispatch counts as
    /// `vm.dispatch.*` metrics counters (profiling mode only).
    fn flush_dispatch_counters(&mut self) {
        for (i, &n) in self.vm_counters.iter().enumerate() {
            if n > 0 {
                self.heap.metrics_mut().set_counter(DISPATCH_KEYS[i], n);
            }
        }
    }

    /// Applies a procedure value to arguments in VM mode (backs
    /// [`Interp::apply`] for primitives like `map` and for embedders).
    pub(crate) fn vm_apply_values(&mut self, f: Value, args: &[Value]) -> SResult<Value> {
        let base = self.stack.len();
        self.stack.push(Value::FALSE);
        let op_slot = self.stack.push(f);
        let args_base = self.stack.len();
        for &a in args {
            self.stack.push(a);
        }
        let result = match self.vm_apply(base, op_slot, args_base, args.len(), None) {
            Ok(VmApplied::Value(v)) => Ok(v),
            Ok(VmApplied::Enter(body)) => self.vm_run(body, base),
            Err(e) => Err(e),
        };
        self.stack.truncate(base);
        result
    }

    /// The dispatch loop. Slot `base` holds the activation's environment
    /// frame; everything above it is the operand stack (all rooted).
    ///
    /// The insn bodies with more than a couple of locals live in their
    /// own `vm_step_*` methods: a
    /// monolithic match gives every arm's locals a distinct slot in one
    /// giant frame (debug builds don't coalesce), and this frame sits on
    /// the ~400-deep non-tail recursion spine.
    fn vm_run(&mut self, mut co: Rc<CodeObject>, base: usize) -> SResult<Value> {
        self.stack.truncate(base + 1);
        let mut pc = 0usize;
        loop {
            let insn = co.insns[pc];
            pc += 1;
            if self.profile {
                // Attribute allocations to the insn kind (see
                // `Insn::site`); count dispatches.
                self.heap.set_alloc_site(insn.site());
                self.vm_counters[insn.op_index()] += 1;
            }
            match insn {
                Insn::Imm(i) => {
                    self.stack.push(co.imms[i as usize]);
                }
                Insn::Const(i) => {
                    self.stack.push(co.consts[i as usize].get());
                }
                Insn::LocalRef { depth, slot, name } => {
                    let v = self.vm_local_ref(&co, base, depth, slot, name)?;
                    self.stack.push(v);
                }
                Insn::GlobalRef(i) => self.vm_step_global_ref(&co, i)?,
                Insn::LocalSet { depth, slot } => self.vm_step_local_set(base, depth, slot),
                Insn::GlobalSet(i) => self.vm_step_global_set(&co, i)?,
                Insn::GlobalDefine(i) => self.vm_step_global_define(&co, i),
                Insn::MakeClosure(i) => self.vm_step_make_closure(&co, base, i),
                Insn::Pop => {
                    self.stack.pop();
                }
                Insn::Jmp(t) => pc = t as usize,
                Insn::JmpIfFalse(t) => {
                    let v = self.stack.pop().expect("vm: jmp underflow");
                    if !v.is_truthy() {
                        pc = t as usize;
                    }
                }
                Insn::JmpIfTrue(t) => {
                    let v = self.stack.pop().expect("vm: jmp underflow");
                    if v.is_truthy() {
                        pc = t as usize;
                    }
                }
                Insn::JmpIfFalseKeep(t) => {
                    let v = self.stack.get(self.stack.len() - 1);
                    if !v.is_truthy() {
                        pc = t as usize;
                    } else {
                        self.stack.pop();
                    }
                }
                Insn::JmpIfTrueKeep(t) => {
                    let v = self.stack.get(self.stack.len() - 1);
                    if v.is_truthy() {
                        pc = t as usize;
                    } else {
                        self.stack.pop();
                    }
                }
                Insn::JmpIfFalsePop(t) => {
                    let v = self.stack.get(self.stack.len() - 1);
                    if !v.is_truthy() {
                        self.stack.pop();
                        pc = t as usize;
                    }
                }
                Insn::SaveEnv => {
                    let env = self.stack.get(base);
                    self.stack.push(env);
                }
                Insn::PushFrame { n_slots, n_inits } => {
                    self.vm_step_push_frame(base, n_slots, n_inits)
                }
                Insn::RestoreEnv => {
                    let v = self.stack.pop().expect("vm: restore underflow");
                    let saved = self.stack.pop().expect("vm: restore underflow");
                    self.stack.set(base, saved);
                    self.stack.push(v);
                }
                Insn::BumpGensym => {
                    // Lockstep with the naive `do` desugar's gensym.
                    self.gensym_counter += 1;
                }
                Insn::EnterLoop { lambda, argc } => {
                    let body = self.vm_enter_loop(&co, lambda, argc, base)?;
                    co = body;
                    pc = 0;
                    self.stack.truncate(base + 1);
                }
                Insn::EnterLoopCall { lambda, argc } => {
                    self.vm_step_enter_loop_call(&co, lambda, argc)?
                }
                Insn::Call { argc, cache } => self.vm_call(&co, argc, cache)?,
                Insn::TailCall { argc, cache } => {
                    match self.vm_tail_call(&co, base, argc, cache)? {
                        TailStep::Done(v) => return Ok(v),
                        TailStep::Continue(body) => {
                            co = body;
                            pc = 0;
                            self.stack.truncate(base + 1);
                        }
                    }
                }
                Insn::LocalRefCall {
                    depth,
                    slot,
                    name,
                    argc,
                    cache,
                } => {
                    let v = self.vm_local_ref(&co, base, depth, slot, name)?;
                    self.stack.push(v);
                    self.vm_call(&co, argc, cache)?;
                }
                Insn::LocalRefTailCall {
                    depth,
                    slot,
                    name,
                    argc,
                    cache,
                } => {
                    let v = self.vm_local_ref(&co, base, depth, slot, name)?;
                    self.stack.push(v);
                    match self.vm_tail_call(&co, base, argc, cache)? {
                        TailStep::Done(v) => return Ok(v),
                        TailStep::Continue(body) => {
                            co = body;
                            pc = 0;
                            self.stack.truncate(base + 1);
                        }
                    }
                }
                Insn::ImmCall { imm, argc, cache } => {
                    self.stack.push(co.imms[imm as usize]);
                    self.vm_call(&co, argc, cache)?;
                }
                Insn::ImmTailCall { imm, argc, cache } => {
                    self.stack.push(co.imms[imm as usize]);
                    match self.vm_tail_call(&co, base, argc, cache)? {
                        TailStep::Done(v) => return Ok(v),
                        TailStep::Continue(body) => {
                            co = body;
                            pc = 0;
                            self.stack.truncate(base + 1);
                        }
                    }
                }
                Insn::ConstCall { konst, argc, cache } => {
                    self.stack.push(co.consts[konst as usize].get());
                    self.vm_call(&co, argc, cache)?;
                }
                Insn::ConstTailCall { konst, argc, cache } => {
                    self.stack.push(co.consts[konst as usize].get());
                    match self.vm_tail_call(&co, base, argc, cache)? {
                        TailStep::Done(v) => return Ok(v),
                        TailStep::Continue(body) => {
                            co = body;
                            pc = 0;
                            self.stack.truncate(base + 1);
                        }
                    }
                }
                Insn::LocalRefRet { depth, slot, name } => {
                    return self.vm_local_ref(&co, base, depth, slot, name);
                }
                Insn::CondApply => self.vm_step_cond_apply()?,
                Insn::CaseMatch { datums, target } => {
                    if self.vm_step_case_match(&co, datums) {
                        pc = target as usize;
                    }
                }
                Insn::QqCons => {
                    let cdr = self.stack.pop().expect("vm: qq-cons underflow");
                    let car = self.stack.pop().expect("vm: qq-cons underflow");
                    let pair = self.heap.cons(car, cdr);
                    self.stack.push(pair);
                }
                Insn::QqSplice => self.vm_step_qq_splice()?,
                Insn::QqAppend => self.vm_step_qq_append(),
                Insn::QqVector(n) => self.vm_step_qq_vector(n)?,
                Insn::Return => {
                    return Ok(self.stack.pop().expect("vm: return underflow"));
                }
            }
        }
    }

    /// Reads a lexical variable (with the slot-accounting debug
    /// assertion and the oracle's uninitialized error).
    fn vm_local_ref(
        &mut self,
        co: &CodeObject,
        base: usize,
        depth: u16,
        slot: u16,
        name: u16,
    ) -> SResult<Value> {
        let env = self.stack.get(base);
        // Audited layout: the analyzer's frame-slot check (`local`)
        // refused every (depth, slot) pair outside the scope stack it was
        // emitted under, and that stack is this frame chain.
        let mut frame = env;
        for _ in 0..depth {
            frame = self.heap.record_ref_audited(frame, 0);
        }
        debug_assert!(
            1 + (slot as usize) < self.heap.record_len(frame),
            "frame-slot accounting: {} resolved to slot {slot} in a frame of {} slots",
            co.names[name as usize],
            self.heap.record_len(frame) - 1
        );
        let v = self.heap.record_ref_audited(frame, 1 + slot as usize);
        if v == Value::UNBOUND {
            return err(format!(
                "variable {} used before initialization",
                co.names[name as usize]
            ));
        }
        Ok(v)
    }

    /// The global value cell for a reference site, consulting and
    /// warming the site's one-entry inline cache. `None` means the
    /// symbol has never been defined.
    fn try_site_cell(&mut self, site: &GlobalSite) -> Option<Value> {
        if let Some(r) = site.cell.borrow().as_ref() {
            return Some(r.get());
        }
        let cell = SymbolTable::try_global_cell(&self.heap, site.sym.get())?;
        *site.cell.borrow_mut() = Some(self.heap.root(cell));
        Some(cell)
    }

    /// Reads a global through the per-site inline cache, warming it on
    /// first use.
    fn vm_step_global_ref(&mut self, co: &CodeObject, i: u32) -> SResult<()> {
        let site = &co.sites[i as usize];
        let cell = match self.try_site_cell(site) {
            Some(c) => c,
            None => return err(format!("unbound variable: {}", site.name)),
        };
        let v = self.heap.box_ref(cell);
        if v == Value::UNBOUND {
            return err(format!("unbound variable: {}", site.name));
        }
        self.stack.push(v);
        Ok(())
    }

    /// `set!` on a lexical variable.
    fn vm_step_local_set(&mut self, base: usize, depth: u16, slot: u16) {
        let v = self.stack.pop().expect("vm: local-set underflow");
        let env = self.stack.get(base);
        let mut frame = env;
        for _ in 0..depth {
            frame = self.heap.record_ref_audited(frame, 0);
        }
        debug_assert!(
            1 + (slot as usize) < self.heap.record_len(frame),
            "frame-slot accounting: set! target slot {slot} in a frame of {} slots",
            self.heap.record_len(frame) - 1
        );
        self.heap.record_set_audited(frame, 1 + slot as usize, v);
        self.stack.push(Value::VOID);
    }

    /// `set!` on a global. The value is popped before the bound check so
    /// the order matches the oracle (which evaluates the value expression
    /// before `set_var` fails).
    fn vm_step_global_set(&mut self, co: &CodeObject, i: u32) -> SResult<()> {
        let v = self.stack.pop().expect("vm: global-set underflow");
        let site = &co.sites[i as usize];
        let cell = match self.try_site_cell(site) {
            Some(c) if self.heap.box_ref(c) != Value::UNBOUND => c,
            _ => return err(format!("set!: unbound variable: {}", site.name)),
        };
        self.heap.box_set(cell, v);
        self.stack.push(Value::VOID);
        Ok(())
    }

    /// Top-level `define`: binds through the symbol table's global cell
    /// and warms the site cache so later refs hit it.
    fn vm_step_global_define(&mut self, co: &CodeObject, i: u32) {
        let v = self.stack.pop().expect("vm: define underflow");
        let site = &co.sites[i as usize];
        let sym = site.sym.get();
        let cell = SymbolTable::global_cell(&mut self.heap, sym);
        self.heap.box_set(cell, v);
        if site.cell.borrow().is_none() {
            let rooted = self.heap.root(cell);
            *site.cell.borrow_mut() = Some(rooted);
        }
        self.stack.push(Value::VOID);
    }

    /// Builds a compiled-closure record over the current environment.
    fn vm_step_make_closure(&mut self, co: &CodeObject, base: usize, i: u32) {
        let l = &co.lambdas[i as usize];
        let env = self.stack.get(base);
        let idx = Value::fixnum(l.index as i64);
        let nm = l.name.get();
        let closure = self
            .heap
            .make_record(rtags::compiled_closure(), &[idx, env, nm]);
        self.stack.push(closure);
    }

    /// Materializes a `let` frame from the initializer values sitting on
    /// the operand stack.
    fn vm_step_push_frame(&mut self, base: usize, n_slots: u16, n_inits: u16) {
        let n_inits = n_inits as usize;
        let vals_base = self.stack.len() - n_inits;
        // Allocation never collects: the raw frame pointer stays valid
        // while the slots are filled.
        let frame =
            self.heap
                .make_record_filled(rtags::frame(), 1 + n_slots as usize, Value::UNBOUND);
        let parent = self.stack.get(base);
        self.heap.record_set_audited(frame, 0, parent);
        for i in 0..n_inits {
            let v = self.stack.get(vals_base + i);
            self.heap.record_set_audited(frame, 1 + i, v);
        }
        self.stack.truncate(vals_base);
        self.stack.set(base, frame);
    }

    /// A non-tail named-`let` entry: one frame on the recursion spine,
    /// the loop body as a nested activation rooted at the saved-env slot.
    fn vm_step_enter_loop_call(&mut self, co: &CodeObject, lambda: u16, argc: u16) -> SResult<()> {
        let env_slot = self.stack.len() - argc as usize - 1;
        if self.depth >= self.max_depth {
            return err(format!(
                "recursion too deep (max {} non-tail frames)",
                self.max_depth
            ));
        }
        self.depth += 1;
        let result = match self.vm_enter_loop(co, lambda, argc, env_slot) {
            Ok(body) => self.vm_run(body, env_slot),
            Err(e) => Err(e),
        };
        self.stack.truncate(env_slot);
        self.depth -= 1;
        let v = result?;
        self.stack.push(v);
        Ok(())
    }

    /// Non-tail application of a `cond` `=>` receiver, exactly like the
    /// oracle's arrow path. No collection can run between the pops
    /// and `apply` re-rooting the values.
    fn vm_step_cond_apply(&mut self) -> SResult<()> {
        let f = self.stack.pop().expect("vm: cond-apply underflow");
        let v = self.stack.pop().expect("vm: cond-apply underflow");
        let result = self.apply(f, &[v])?;
        self.stack.push(result);
        Ok(())
    }

    /// Walks one `case` clause's datum list against the key on top of the
    /// stack; returns whether the clause matched. Matching neither
    /// allocates nor collects, so the raw key stays valid across the walk.
    fn vm_step_case_match(&mut self, co: &CodeObject, datums: u32) -> bool {
        let key = self.stack.get(self.stack.len() - 1);
        let mut d = co.consts[datums as usize].get();
        while self.heap.is_pair(d) {
            if self.heap.eqv(self.heap.car(d), key) {
                return true;
            }
            d = self.heap.cdr(d);
        }
        false
    }

    /// Copies the spliced list on top of the stack, so a later unquote
    /// that mutates it leaves the template's value alone. Copying
    /// allocates but never collects, so the raw items stay valid.
    fn vm_step_qq_splice(&mut self) -> SResult<()> {
        let top = self.stack.len() - 1;
        let Ok(items) = self.syntax_items(self.stack.get(top)) else {
            return err("unquote-splicing: not a list");
        };
        let copy = lists::list(&mut self.heap, &items);
        self.stack.set(top, copy);
        Ok(())
    }

    /// Ends a splice's copy in the tail built to its right.
    fn vm_step_qq_append(&mut self) {
        let tail = self.stack.pop().expect("vm: qq-append underflow");
        let top = self.stack.len() - 1;
        let copy = self.stack.get(top);
        if copy.is_nil() {
            self.stack.set(top, tail);
            return;
        }
        let mut last = copy;
        while self.heap.is_pair(self.heap.cdr(last)) {
            last = self.heap.cdr(last);
        }
        self.heap.set_cdr(last, tail);
    }

    /// Gathers a vector template's `n` elements into a fresh vector.
    fn vm_step_qq_vector(&mut self, n: u32) -> SResult<()> {
        let items = self.stack.len() - n as usize;
        let v = self
            .heap
            .try_make_vector(n as usize, Value::NIL)
            .or_else(|e| err(format!("quasiquote: {e}")))?;
        for i in 0..n as usize {
            let x = self.stack.get(items + i);
            self.heap.vector_set(v, i, x);
        }
        self.stack.truncate(items);
        self.stack.push(v);
        Ok(())
    }

    /// A non-tail call: counts one frame on the recursion spine, runs
    /// closure bodies as a nested activation rooted at the operator
    /// slot, and pushes the result.
    fn vm_call(&mut self, co: &CodeObject, argc: u16, cache: u16) -> SResult<()> {
        let argc = argc as usize;
        let op_slot = self.stack.len() - argc - 1;
        if self.depth >= self.max_depth {
            return err(format!(
                "recursion too deep (max {} non-tail frames)",
                self.max_depth
            ));
        }
        self.depth += 1;
        let result = match self.vm_apply(
            op_slot,
            op_slot,
            op_slot + 1,
            argc,
            Some(&co.caches[cache as usize]),
        ) {
            Ok(VmApplied::Value(v)) => Ok(v),
            Ok(VmApplied::Enter(body)) => self.vm_run(body, op_slot),
            Err(e) => Err(e),
        };
        self.stack.truncate(op_slot);
        self.depth -= 1;
        let v = result?;
        self.stack.push(v);
        Ok(())
    }

    /// A tail call: reuses this activation, installing a closure's frame
    /// at `base`.
    fn vm_tail_call(
        &mut self,
        co: &CodeObject,
        base: usize,
        argc: u16,
        cache: u16,
    ) -> SResult<TailStep> {
        let argc = argc as usize;
        let op_slot = self.stack.len() - argc - 1;
        match self.vm_apply(
            base,
            op_slot,
            op_slot + 1,
            argc,
            Some(&co.caches[cache as usize]),
        )? {
            VmApplied::Value(v) => Ok(TailStep::Done(v)),
            VmApplied::Enter(body) => Ok(TailStep::Continue(body)),
        }
    }

    /// Named-`let` entry: builds the loop closure + frame (letrec-style
    /// self-reference, no safe point) and returns the selected clause
    /// body. `env_slot` is the activation's
    /// environment slot (`base` for the tail form, the `SaveEnv` slot
    /// for the nested form).
    fn vm_enter_loop(
        &mut self,
        co: &CodeObject,
        lambda: u16,
        argc: u16,
        env_slot: usize,
    ) -> SResult<Rc<CodeObject>> {
        let argc = argc as usize;
        let args_base = self.stack.len() - argc;
        let lref = &co.lambdas[lambda as usize];
        let index = lref.index;
        let nm = lref.name.get();
        // One-slot frame holding the loop closure (letrec-style
        // self-reference).
        let name_frame = self
            .heap
            .make_record_filled(rtags::frame(), 2, Value::UNBOUND);
        let parent = self.stack.get(env_slot);
        self.heap.record_set_audited(name_frame, 0, parent);
        let idx_v = Value::fixnum(index as i64);
        let closure = self
            .heap
            .make_record(rtags::compiled_closure(), &[idx_v, name_frame, nm]);
        self.heap.record_set_audited(name_frame, 1, closure);
        let vl = self.vm_lambda(index)?;
        let ci = select_vm_clause(&vl, argc)?;
        let clause = &vl.clauses[ci];
        let frame =
            self.heap
                .make_record_filled(rtags::frame(), 1 + clause.n_slots, Value::UNBOUND);
        self.heap.record_set_audited(frame, 0, name_frame);
        for i in 0..argc {
            let v = self.stack.get(args_base + i);
            self.heap.record_set_audited(frame, 1 + i, v);
        }
        // No safe point here: the oracle enters the loop body via
        // install_closure_call without passing through maybe_collect
        // either.
        self.stack.set(env_slot, frame);
        Ok(clause.body.clone())
    }

    /// The application safe point — placed at every application, exactly
    /// where the oracle collects, so guardian and weak-pair observables
    /// match: `maybe_collect` + collect-handler dance, then dispatch on
    /// the operator. Closures install their frame at `base` and return the
    /// clause body; `cache` (when present) is the call site's
    /// monomorphic inline cache, skipping clause selection on a hit.
    pub(crate) fn vm_apply(
        &mut self,
        base: usize,
        op_slot: usize,
        args_base: usize,
        argc: usize,
        cache: Option<&Cell<CallCache>>,
    ) -> SResult<VmApplied> {
        if self.profile {
            // Evaluating the operands re-stamped the site with their own
            // insns; the frame/prim allocations below belong to the
            // application itself.
            self.heap.set_alloc_site("scheme.app");
        }
        // Everything live is on the rooted stack: safe to collect.
        let collected = self.heap.maybe_collect().is_some();
        if collected && !self.in_collect_handler {
            if let Some(handler) = self.collect_handler.clone() {
                self.in_collect_handler = true;
                let result = self.apply(handler.get(), &[]);
                self.in_collect_handler = false;
                result?;
            }
        }
        let op = self.stack.get(op_slot);
        if self.heap.is_record(op) {
            let desc = self.heap.record_descriptor(op);
            if desc == rtags::compiled_closure() {
                let index = self.heap.record_ref_audited(op, 0).as_fixnum() as usize;
                let vl = self.vm_lambda(index)?;
                let ci = match cache {
                    Some(c) if c.get().hits(index) => c.get().clause as usize,
                    _ => {
                        let ci = select_vm_clause(&vl, argc)?;
                        if let Some(c) = cache {
                            c.set(CallCache {
                                lambda: index as u32,
                                clause: ci as u32,
                            });
                        }
                        ci
                    }
                };
                let clause = &vl.clauses[ci];
                let frame = self.heap.make_record_filled(
                    rtags::frame(),
                    1 + clause.n_slots,
                    Value::UNBOUND,
                );
                // Re-read from the rooted stack: the collection above may
                // have moved the closure.
                let op = self.stack.get(op_slot);
                let closure_env = self.heap.record_ref_audited(op, 1);
                self.heap.record_set_audited(frame, 0, closure_env);
                for i in 0..clause.n_req {
                    let v = self.stack.get(args_base + i);
                    self.heap.record_set_audited(frame, 1 + i, v);
                }
                if clause.variadic {
                    let mut rest = Value::NIL;
                    for j in (clause.n_req..argc).rev() {
                        let v = self.stack.get(args_base + j);
                        rest = self.heap.cons(v, rest);
                    }
                    self.heap.record_set_audited(frame, 1 + clause.n_req, rest);
                }
                let body = clause.body.clone();
                self.stack.set(base, frame);
                return Ok(VmApplied::Enter(body));
            }
            if desc == rtags::primitive() {
                let index = self.heap.record_ref_audited(op, 0).as_fixnum() as usize;
                let entry = &self.prims[index];
                if argc < entry.min_args || entry.max_args.is_some_and(|m| argc > m) {
                    return err(format!(
                        "{}: wrong number of arguments ({argc})",
                        entry.name
                    ));
                }
                let f = entry.func;
                // Copy the (rooted) arguments out without a per-call Vec:
                // almost every primitive call fits the fixed buffer.
                if argc <= 8 {
                    let mut buf = [Value::FALSE; 8];
                    for (i, slot) in buf.iter_mut().enumerate().take(argc) {
                        *slot = self.stack.get(args_base + i);
                    }
                    return f(self, &buf[..argc]).map(VmApplied::Value);
                }
                let args: Vec<Value> = (0..argc).map(|i| self.stack.get(args_base + i)).collect();
                return f(self, &args).map(VmApplied::Value);
            }
            if desc == rtags::guardian() {
                let tconc = self.heap.record_ref(op, 0);
                return match argc {
                    // (G) — retrieve, or #f.
                    0 => Ok(VmApplied::Value(
                        self.heap.tconc_pop(tconc).unwrap_or(Value::FALSE),
                    )),
                    // (G obj) — register.
                    1 => {
                        let obj = self.stack.get(args_base);
                        self.heap.guardian_register(tconc, obj, obj);
                        Ok(VmApplied::Value(Value::VOID))
                    }
                    // (G obj agent) — the Section 5 generalisation.
                    2 => {
                        let obj = self.stack.get(args_base);
                        let agent = self.stack.get(args_base + 1);
                        self.heap.guardian_register(tconc, obj, agent);
                        Ok(VmApplied::Value(Value::VOID))
                    }
                    _ => err("guardian: expects 0, 1, or 2 arguments"),
                };
            }
        }
        err(format!(
            "not a procedure: {}",
            guardians_runtime::printer::write_value(&self.heap, op)
        ))
    }

    /// Analyzes one source string's forms and returns their disassembly
    /// (drives the `--dump-bytecode` flag; does not execute anything,
    /// though analysis registers lambdas and interns constants).
    pub fn dump_bytecode(&mut self, src: &str) -> SResult<String> {
        use std::fmt::Write as _;
        let forms = crate::reader::read_all(&mut self.heap, &mut self.symbols, src)?;
        // Root the pending forms as a heap list, like `eval_str`:
        // analysis allocates, and a collect-handler-free heap may still
        // collect from embedder calls between forms.
        let mut list = Value::NIL;
        for &f in forms.iter().rev() {
            list = self.heap.cons(f, list);
        }
        let base = self.stack.len();
        self.stack.push(list);
        let mut out = String::new();
        let mut i = 0usize;
        loop {
            let rest = self.stack.get(base);
            if rest.is_nil() {
                break;
            }
            let form = self.heap.car(rest);
            let next = self.heap.cdr(rest);
            self.stack.set(base, next);
            let first = self.lambdas.len();
            let co = match crate::analyze::analyze_top(self, form) {
                Ok(co) => co,
                Err(e) => {
                    self.stack.truncate(base);
                    return Err(e);
                }
            };
            let _ = writeln!(out, ";; form {i}:");
            out.push_str(&compile::disassemble(&self.heap, &co));
            for (index, vl) in self.lambdas.iter().enumerate().skip(first) {
                for (ci, clause) in vl.clauses.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        ";; code[{index}] clause {ci} (n_req {}, variadic {}, n_slots {}):",
                        clause.n_req, clause.variadic, clause.n_slots
                    );
                    out.push_str(&compile::disassemble(&self.heap, &clause.body));
                }
            }
            i += 1;
        }
        self.stack.truncate(base);
        Ok(out)
    }
}

/// Selects the clause matching `argc`, with the shared error message.
fn select_vm_clause(vl: &VmLambda, argc: usize) -> SResult<usize> {
    for (i, clause) in vl.clauses.iter().enumerate() {
        if (clause.variadic && argc >= clause.n_req) || (!clause.variadic && argc == clause.n_req) {
            return Ok(i);
        }
    }
    err(format!("no matching clause for {argc} arguments"))
}

/// Names for the dispatch counters are exercised by the metrics tests;
/// keep the parallel arrays honest.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::OP_NAMES;

    #[test]
    fn dispatch_keys_parallel_op_names() {
        for (key, name) in DISPATCH_KEYS.iter().zip(OP_NAMES.iter()) {
            assert_eq!(*key, format!("vm.dispatch.{name}"));
        }
    }

    /// The prelude — the largest in-tree corpus — round-trips through
    /// the compiler and disassembler: one listing header per top-level
    /// form, and every instruction line names a real opcode.
    #[test]
    fn prelude_disassembly_round_trips() {
        let mut probe = Interp::new();
        let n_forms =
            crate::reader::read_all(&mut probe.heap, &mut probe.symbols, crate::prelude::PRELUDE)
                .expect("prelude parses")
                .len();

        let mut it = Interp::new();
        let listing = it
            .dump_bytecode(crate::prelude::PRELUDE)
            .expect("prelude compiles");
        let headers = listing
            .lines()
            .filter(|l| l.starts_with(";; form "))
            .count();
        assert_eq!(headers, n_forms, "one listing header per prelude form");
        assert!(
            listing.lines().any(|l| l.starts_with(";; code[")),
            "prelude lambdas are listed"
        );
        let mut insn_lines = 0usize;
        for line in listing.lines() {
            let mut toks = line.split_whitespace();
            let Some(first) = toks.next() else { continue };
            if first.starts_with(";;") {
                continue;
            }
            assert!(
                first.chars().all(|c| c.is_ascii_digit()),
                "insn lines start with a pc: {line:?}"
            );
            let op = toks.next().expect("opcode token");
            assert!(
                OP_NAMES.contains(&op),
                "unknown opcode {op:?} in line {line:?}"
            );
            insn_lines += 1;
        }
        assert!(
            insn_lines > n_forms,
            "listing suspiciously sparse: {insn_lines} insns for {n_forms} forms"
        );

        // Dumping must not disturb evaluation: the same interpreter
        // still runs a guardian transcript afterwards.
        it.eval_str("(define G (make-guardian))").expect("eval");
        assert_eq!(it.eval_to_string("(G)").expect("poll"), "#f");
    }
}
