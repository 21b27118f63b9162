//! The interpreter state and the reference evaluator.
//!
//! Everything the interpreter touches — expressions, environments,
//! closures, guardians — lives on the collected heap, which makes the
//! interpreter both a faithful way to run the paper's Scheme code and a
//! demanding test load for the collector. Collections may happen at every
//! procedure application (`maybe_collect`), so the evaluator keeps every
//! live intermediate value on a rooted shadow stack and re-reads values
//! from their slots after any sub-evaluation.
//!
//! Production evaluation is two stages: `analyze.rs` emits bytecode (the
//! format of `compile.rs`) and `vm.rs` runs it; this file holds the one
//! table of analyzed lambdas they share. The cons-walking evaluator here
//! ([`EvalMode::Naive`]) is the oracle the VM is tested against: it
//! re-walks the source list on every evaluation and is kept because it
//! is obviously right, not because it is fast.
//!
//! Tail calls (including `if` branches, `begin`/`let`/`cond` bodies, and
//! closure applications) are executed by looping rather than recursing, so
//! the paper's tail-recursive idioms (`close-dropped-ports`, Figure 1's
//! `let loop`) run in constant Rust stack.

use crate::analyze::{self, GlobalSite};
use crate::compile::{CodeObject, VmLambda};
use crate::error::{err, SResult};
use crate::prims::{self, PrimEntry};
use crate::reader;
use guardians_gc::{GcConfig, Heap, Rooted, RootedVec, Value};
use guardians_runtime::rtags;
use guardians_runtime::simos::SimOs;
use guardians_runtime::symtab::SymbolTable;
use std::rc::Rc;

/// Cached special-form symbols (as rooted handles; symbol objects move
/// during collections).
pub(crate) struct SpecialForms {
    pub(crate) quote: Rooted,
    pub(crate) iff: Rooted,
    pub(crate) define: Rooted,
    pub(crate) set: Rooted,
    pub(crate) lambda: Rooted,
    pub(crate) case_lambda: Rooted,
    pub(crate) begin: Rooted,
    pub(crate) let_: Rooted,
    pub(crate) let_star: Rooted,
    pub(crate) letrec: Rooted,
    pub(crate) cond: Rooted,
    pub(crate) else_: Rooted,
    pub(crate) and: Rooted,
    pub(crate) or: Rooted,
    pub(crate) when: Rooted,
    pub(crate) unless: Rooted,
    pub(crate) case: Rooted,
    pub(crate) do_: Rooted,
    pub(crate) arrow: Rooted,
    pub(crate) define_record_type: Rooted,
    pub(crate) quasiquote: Rooted,
    pub(crate) unquote: Rooted,
    pub(crate) unquote_splicing: Rooted,
}

/// Which evaluator runs the program.
///
/// Both share the reader, the primitives, and — critically — the
/// safe-point discipline (a possible collection at every procedure
/// application, and nowhere else), so results, error messages, printed
/// output, and guardian, weak-pair, and tconc observables are
/// byte-identical between them at any [`GcConfig`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvalMode {
    /// The production evaluator: one-time syntax analysis with lexical
    /// addressing that emits flat bytecode as it goes (`analyze.rs`),
    /// run by the direct-threaded dispatch loop in `vm.rs` with fused
    /// super-instructions and per-call-site inline caches.
    #[default]
    Vm,
    /// The reference oracle: the cons-walking evaluator with
    /// association-list environments. Trusted for being simple; the VM
    /// is differentially tested against it.
    Naive,
}

/// Interpreter configuration: the heap configuration plus the evaluator.
#[derive(Clone, Debug, Default)]
pub struct InterpConfig {
    /// Heap (collector) configuration.
    pub gc: GcConfig,
    /// Which evaluator to use.
    pub mode: EvalMode,
}

impl InterpConfig {
    /// The naive cons-walking evaluator (the reference oracle).
    pub fn naive() -> InterpConfig {
        InterpConfig {
            mode: EvalMode::Naive,
            ..InterpConfig::default()
        }
    }

    /// The bytecode VM (the default).
    pub fn vm() -> InterpConfig {
        InterpConfig::default()
    }
}

/// The Scheme interpreter.
pub struct Interp {
    pub(crate) heap: Heap,
    pub(crate) stack: RootedVec,
    pub(crate) symbols: SymbolTable,
    pub(crate) prims: Vec<PrimEntry>,
    pub(crate) os: SimOs,
    pub(crate) output: String,
    pub(crate) gensym_counter: u64,
    /// Scheme procedure run after each automatic collection — the paper's
    /// Chez idiom `(collect-request-handler (lambda () (collect)
    /// (close-dropped-ports)))`, adapted: the handler runs *after* the
    /// collection `maybe_collect` performed.
    pub(crate) collect_handler: Option<Rooted>,
    pub(crate) in_collect_handler: bool,
    pub(crate) depth: usize,
    /// Maximum non-tail eval nesting before a "recursion too deep" error
    /// (tail calls are unlimited — they loop). Guards the Rust stack.
    pub max_depth: usize,
    pub(crate) global: Rooted,
    pub(crate) sf: SpecialForms,
    /// Which evaluator is active.
    pub(crate) mode: EvalMode,
    /// Cached `heap.site_profile_enabled()`, refreshed at each VM
    /// top-level entry so the per-opcode dispatch pays one local bool
    /// test when profiling is off.
    pub(crate) profile: bool,
    /// Every lambda the analyzer has finished, in post-order;
    /// compiled-closure records index into this table so closures remain
    /// plain heap values.
    pub(crate) lambdas: Vec<Rc<VmLambda>>,
    /// Per-opcode dispatch counts, indexed by `Insn::op_index`; only
    /// maintained while site profiling is enabled, flushed into the
    /// metrics registry as `vm.dispatch.*` counters per top-level form.
    pub(crate) vm_counters: Vec<u64>,
}

impl Interp {
    /// An interpreter over a heap with the given collector configuration
    /// (bytecode VM).
    pub fn with_config(config: GcConfig) -> Interp {
        Interp::with_interp_config(InterpConfig {
            gc: config,
            mode: EvalMode::Vm,
        })
    }

    /// An interpreter with the given full configuration.
    pub fn with_interp_config(config: InterpConfig) -> Interp {
        Interp::with_heap(Heap::new(config.gc), config.mode)
    }

    /// An interpreter over a pre-built heap — the multi-tenant entry
    /// point: a zone constructs its heap against a shared
    /// [`guardians_gc::SegmentPool`] (via [`Heap::with_pool`]) and hands
    /// it here; every interpreter structure (symbols, globals, prelude)
    /// is built on top exactly as [`Interp::with_interp_config`] would.
    pub fn with_heap(mut heap: Heap, mode: EvalMode) -> Interp {
        let mut symbols = SymbolTable::new();
        let stack = heap.root_vec();
        let nil_bindings = Value::NIL;
        let global_env = heap.make_record(rtags::environment(), &[nil_bindings, Value::FALSE]);
        let global = heap.root(global_env);
        let mut intern = |heap: &mut Heap, s: &str| {
            let v = symbols.intern(heap, s);
            heap.root(v)
        };
        let sf = SpecialForms {
            quote: intern(&mut heap, "quote"),
            iff: intern(&mut heap, "if"),
            define: intern(&mut heap, "define"),
            set: intern(&mut heap, "set!"),
            lambda: intern(&mut heap, "lambda"),
            case_lambda: intern(&mut heap, "case-lambda"),
            begin: intern(&mut heap, "begin"),
            let_: intern(&mut heap, "let"),
            let_star: intern(&mut heap, "let*"),
            letrec: intern(&mut heap, "letrec"),
            cond: intern(&mut heap, "cond"),
            else_: intern(&mut heap, "else"),
            and: intern(&mut heap, "and"),
            or: intern(&mut heap, "or"),
            when: intern(&mut heap, "when"),
            unless: intern(&mut heap, "unless"),
            case: intern(&mut heap, "case"),
            do_: intern(&mut heap, "do"),
            arrow: intern(&mut heap, "=>"),
            define_record_type: intern(&mut heap, "define-record-type"),
            quasiquote: intern(&mut heap, "quasiquote"),
            unquote: intern(&mut heap, "unquote"),
            unquote_splicing: intern(&mut heap, "unquote-splicing"),
        };
        let mut interp = Interp {
            heap,
            stack,
            symbols,
            prims: Vec::new(),
            os: SimOs::new(),
            output: String::new(),
            gensym_counter: 0,
            collect_handler: None,
            in_collect_handler: false,
            depth: 0,
            max_depth: 400,
            global,
            sf,
            mode,
            profile: false,
            lambdas: Vec::new(),
            vm_counters: vec![0; crate::compile::OP_COUNT],
        };
        prims::register_all(&mut interp);
        interp
            .eval_str(crate::prelude::PRELUDE)
            .expect("the prelude always evaluates");
        interp
    }

    /// An interpreter with the default heap configuration.
    pub fn new() -> Interp {
        Interp::with_config(GcConfig::default())
    }

    /// The heap (for inspecting results).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access (for rooting results across evaluations).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The simulated OS backing the port primitives.
    pub fn os(&self) -> &SimOs {
        &self.os
    }

    /// Mutable access to the simulated OS (e.g. to pre-create files).
    pub fn os_mut(&mut self) -> &mut SimOs {
        &mut self.os
    }

    /// Interns a symbol.
    pub fn intern(&mut self, name: &str) -> Value {
        self.symbols.intern(&mut self.heap, name)
    }

    /// Takes everything `display`/`write`/`newline` printed so far.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }

    /// Renders a value with `write` semantics.
    pub fn write(&self, v: Value) -> String {
        guardians_runtime::printer::write_value(&self.heap, v)
    }

    /// Evaluates every form in `src`; returns the last result.
    ///
    /// The returned [`Value`] is valid until the next evaluation or
    /// collection; root it to keep it longer.
    ///
    /// # Errors
    ///
    /// Reader and evaluation errors.
    pub fn eval_str(&mut self, src: &str) -> SResult<Value> {
        let forms = reader::read_all(&mut self.heap, &mut self.symbols, src)?;
        // Root the pending forms as a heap list so collections during
        // evaluation of earlier forms keep (and relocate) the later ones.
        let mut list = Value::NIL;
        for &f in forms.iter().rev() {
            list = self.heap.cons(f, list);
        }
        let base = self.stack.len();
        self.stack.push(list);
        let mut result = Value::VOID;
        loop {
            let rest = self.stack.get(base);
            if rest.is_nil() {
                break;
            }
            let form = self.heap.car(rest);
            let next = self.heap.cdr(rest);
            self.stack.set(base, next);
            let outcome = match self.mode {
                EvalMode::Naive => {
                    let env = self.global.get();
                    self.eval(form, env)
                }
                // Analyze the form once, emitting its bytecode (allocates
                // expansions and rooted constants but never collects, so
                // the raw `form` stays valid), and dispatch.
                EvalMode::Vm => analyze::analyze_top(self, form).and_then(|co| self.vm_top(&co)),
            };
            match outcome {
                Ok(v) => result = v,
                Err(e) => {
                    self.stack.truncate(base);
                    return Err(e);
                }
            }
        }
        self.stack.truncate(base);
        Ok(result)
    }

    /// Evaluates `src` and renders the result with `write`.
    ///
    /// # Errors
    ///
    /// As for [`Interp::eval_str`].
    pub fn eval_to_string(&mut self, src: &str) -> SResult<String> {
        let v = self.eval_str(src)?;
        Ok(self.write(v))
    }

    // ------------------------------------------------------------------
    // Environments
    // ------------------------------------------------------------------

    pub(crate) fn make_env(&mut self, bindings: Value, parent: Value) -> Value {
        self.heap
            .make_record(rtags::environment(), &[bindings, parent])
    }

    fn lookup(&self, env: Value, sym: Value) -> SResult<Value> {
        let mut frame = env;
        while frame.is_truthy() {
            let mut b = self.heap.record_ref(frame, 0);
            while !b.is_nil() {
                let pair = self.heap.car(b);
                if self.heap.car(pair) == sym {
                    let v = self.heap.cdr(pair);
                    if v == Value::UNBOUND {
                        return err(format!(
                            "variable {} used before initialization",
                            self.heap.symbol_name(sym)
                        ));
                    }
                    return Ok(v);
                }
                b = self.heap.cdr(b);
            }
            frame = self.heap.record_ref(frame, 1);
        }
        err(format!("unbound variable: {}", self.heap.symbol_name(sym)))
    }

    pub(crate) fn define_var(&mut self, env: Value, sym: Value, value: Value) {
        let pair = self.heap.cons(sym, value);
        let bindings = self.heap.record_ref(env, 0);
        let extended = self.heap.cons(pair, bindings);
        self.heap.record_set(env, 0, extended);
    }

    /// Defines a global binding in whichever representation the active
    /// evaluator uses: the global alist (naive) or the symbol's interned
    /// value cell (VM).
    pub(crate) fn define_global(&mut self, sym: Value, value: Value) {
        if self.mode == EvalMode::Naive {
            let env = self.global.get();
            self.define_var(env, sym, value);
        } else {
            let cell = SymbolTable::global_cell(&mut self.heap, sym);
            self.heap.box_set(cell, value);
        }
    }

    fn set_var(&mut self, env: Value, sym: Value, value: Value) -> SResult<()> {
        let mut frame = env;
        while frame.is_truthy() {
            let mut b = self.heap.record_ref(frame, 0);
            while !b.is_nil() {
                let pair = self.heap.car(b);
                if self.heap.car(pair) == sym {
                    self.heap.set_cdr(pair, value);
                    return Ok(());
                }
                b = self.heap.cdr(b);
            }
            frame = self.heap.record_ref(frame, 1);
        }
        err(format!(
            "set!: unbound variable: {}",
            self.heap.symbol_name(sym)
        ))
    }

    /// The global environment record.
    pub(crate) fn global_env(&self) -> Value {
        self.global.get()
    }

    // ------------------------------------------------------------------
    // Small structure helpers (no allocation, no collection)
    // ------------------------------------------------------------------

    fn nth(&self, list: Value, n: usize) -> SResult<Value> {
        let mut cur = list;
        for _ in 0..n {
            if !self.heap.is_pair(cur) {
                return err("malformed form: too few subexpressions");
            }
            cur = self.heap.cdr(cur);
        }
        if !self.heap.is_pair(cur) {
            return err("malformed form: too few subexpressions");
        }
        Ok(self.heap.car(cur))
    }

    /// Advances `n` cdrs, stopping early (without panicking) if the form
    /// is improper; consumers validate what remains.
    fn tail_from(&self, list: Value, n: usize) -> Value {
        let mut cur = list;
        for _ in 0..n {
            if !self.heap.is_pair(cur) {
                return cur;
            }
            cur = self.heap.cdr(cur);
        }
        cur
    }

    /// car of a syntax position; malformed (non-pair) syntax is a Scheme
    /// error, never a panic.
    fn scar(&self, v: Value) -> SResult<Value> {
        if self.heap.is_pair(v) {
            Ok(self.heap.car(v))
        } else {
            err("malformed form")
        }
    }

    /// cdr of a syntax position; see [`Interp::scar`].
    fn scdr(&self, v: Value) -> SResult<Value> {
        if self.heap.is_pair(v) {
            Ok(self.heap.cdr(v))
        } else {
            err("malformed form")
        }
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluates one expression in an environment.
    ///
    /// # Errors
    ///
    /// Scheme errors (unbound variables, arity mismatches, type errors
    /// from primitives, user `error` calls).
    pub fn eval(&mut self, expr: Value, env: Value) -> SResult<Value> {
        if self.depth >= self.max_depth {
            return err(format!(
                "recursion too deep (max {} non-tail frames)",
                self.max_depth
            ));
        }
        self.depth += 1;
        let base = self.stack.len();
        self.stack.push(expr);
        self.stack.push(env);
        let result = self.eval_loop(base);
        self.stack.truncate(base);
        self.depth -= 1;
        result
    }

    /// The trampoline: slots `base`/`base+1` hold the current expression
    /// and environment; tail positions update the slots and `continue`.
    fn eval_loop(&mut self, base: usize) -> SResult<Value> {
        loop {
            self.stack.truncate(base + 2);
            let expr = self.stack.get(base);
            let env = self.stack.get(base + 1);

            if !self.heap.is_pair(expr) {
                if self.heap.is_symbol(expr) {
                    return self.lookup(env, expr);
                }
                return Ok(expr); // self-evaluating
            }

            let head = self.heap.car(expr);
            if self.heap.is_symbol(head) {
                if head == self.sf.quote.get() {
                    return self.nth(expr, 1);
                }
                if head == self.sf.quasiquote.get() {
                    let template = self.nth(expr, 1)?;
                    return self.expand_quasiquote(base, template, 1);
                }
                if head == self.sf.unquote.get() || head == self.sf.unquote_splicing.get() {
                    return err("unquote outside quasiquote");
                }
                if head == self.sf.iff.get() {
                    let test = self.nth(expr, 1)?;
                    let c = self.eval(test, env)?;
                    let expr = self.stack.get(base);
                    let branch = if c.is_truthy() {
                        self.nth(expr, 2)?
                    } else {
                        let rest = self.tail_from(expr, 3);
                        if rest.is_nil() {
                            return Ok(Value::VOID);
                        }
                        self.scar(rest)?
                    };
                    self.stack.set(base, branch);
                    continue;
                }
                if head == self.sf.define.get() {
                    return self.eval_define(base);
                }
                if head == self.sf.set.get() {
                    let value_expr = self.nth(expr, 2)?;
                    let v = self.eval(value_expr, env)?;
                    let expr = self.stack.get(base);
                    let env = self.stack.get(base + 1);
                    let sym = self.nth(expr, 1)?;
                    self.set_var(env, sym, v)?;
                    return Ok(Value::VOID);
                }
                if head == self.sf.lambda.get() {
                    let params = self.nth(expr, 1)?;
                    let body = self.tail_from(expr, 2);
                    let clause = self.heap.cons(params, body);
                    let clauses = self.heap.cons(clause, Value::NIL);
                    return Ok(self.make_closure(clauses, env, Value::FALSE));
                }
                if head == self.sf.case_lambda.get() {
                    let clauses = self.heap.cdr(expr);
                    return Ok(self.make_closure(clauses, env, Value::FALSE));
                }
                if head == self.sf.begin.get() {
                    if let Some(v) = self.eval_sequence_tail(base, self.heap.cdr(expr))? {
                        return Ok(v);
                    }
                    continue;
                }
                if head == self.sf.let_.get() {
                    self.eval_let(base)?;
                    continue;
                }
                if head == self.sf.let_star.get() {
                    self.eval_let_star(base)?;
                    continue;
                }
                if head == self.sf.letrec.get() {
                    self.eval_letrec(base)?;
                    continue;
                }
                if head == self.sf.cond.get() {
                    match self.eval_cond(base)? {
                        Some(v) => return Ok(v),
                        None => continue,
                    }
                }
                if head == self.sf.and.get() {
                    match self.eval_and_or(base, true)? {
                        Some(v) => return Ok(v),
                        None => continue,
                    }
                }
                if head == self.sf.or.get() {
                    match self.eval_and_or(base, false)? {
                        Some(v) => return Ok(v),
                        None => continue,
                    }
                }
                if head == self.sf.define_record_type.get() {
                    self.eval_define_record_type(base)?;
                    continue; // tail: the generated (begin (define ...) ...)
                }
                if head == self.sf.case.get() {
                    match self.eval_case(base)? {
                        Some(v) => return Ok(v),
                        None => continue,
                    }
                }
                if head == self.sf.do_.get() {
                    match self.eval_do(base)? {
                        Some(v) => return Ok(v),
                        None => continue,
                    }
                }
                if head == self.sf.when.get() || head == self.sf.unless.get() {
                    let want = head == self.sf.when.get();
                    let test = self.nth(expr, 1)?;
                    let c = self.eval(test, env)?;
                    if c.is_truthy() != want {
                        return Ok(Value::VOID);
                    }
                    let expr = self.stack.get(base);
                    if let Some(v) = self.eval_sequence_tail(base, self.tail_from(expr, 2))? {
                        return Ok(v);
                    }
                    continue;
                }
            }

            // Application.
            match self.eval_application(base)? {
                Some(v) => return Ok(v),
                None => continue, // tail call installed in the slots
            }
        }
    }

    pub(crate) fn make_closure(&mut self, clauses: Value, env: Value, name: Value) -> Value {
        self.heap
            .make_record(rtags::closure(), &[clauses, env, name])
    }

    fn eval_define(&mut self, base: usize) -> SResult<Value> {
        let expr = self.stack.get(base);
        let env = self.stack.get(base + 1);
        let target = self.nth(expr, 1)?;
        if self.heap.is_symbol(target) {
            let value_expr = self.nth(expr, 2)?;
            let v = self.eval(value_expr, env)?;
            let expr = self.stack.get(base);
            let env = self.stack.get(base + 1);
            let sym = self.nth(expr, 1)?;
            self.define_var(env, sym, v);
            return Ok(Value::VOID);
        }
        if self.heap.is_pair(target) {
            // (define (f . params) body...) — allocation only, no eval.
            let name = self.heap.car(target);
            let params = self.heap.cdr(target);
            let body = self.tail_from(expr, 2);
            let clause = self.heap.cons(params, body);
            let clauses = self.heap.cons(clause, Value::NIL);
            let closure = self.make_closure(clauses, env, name);
            self.define_var(env, name, closure);
            return Ok(Value::VOID);
        }
        err("define: bad target")
    }

    /// Evaluates all but the last expression of `body`; installs the last
    /// as the tail expression (returns `None`), or returns `Some(void)`
    /// for an empty body.
    fn eval_sequence_tail(&mut self, base: usize, body: Value) -> SResult<Option<Value>> {
        if body.is_nil() {
            return Ok(Some(Value::VOID));
        }
        let rest_slot = self.stack.push(body);
        loop {
            let rest = self.stack.get(rest_slot);
            let next = self.scdr(rest)?;
            if next.is_nil() {
                let last = self.scar(rest)?;
                self.stack.set(base, last);
                return Ok(None);
            }
            let e = self.scar(rest)?;
            let env = self.stack.get(base + 1);
            self.eval(e, env)?;
            let rest = self.stack.get(rest_slot);
            self.stack.set(rest_slot, self.scdr(rest)?);
        }
    }

    /// `(let ([x e] ...) body...)` and named `let`.
    fn eval_let(&mut self, base: usize) -> SResult<()> {
        let expr = self.stack.get(base);
        let second = self.nth(expr, 1)?;
        if self.heap.is_symbol(second) {
            return self.eval_named_let(base);
        }
        // Evaluate the inits onto the stack.
        let bindings_slot = self.stack.push(second);
        let inits_base = self.stack.len();
        loop {
            let b = self.stack.get(bindings_slot);
            if b.is_nil() {
                break;
            }
            let binding = self.scar(b)?;
            let init = self.nth(binding, 1)?;
            let env = self.stack.get(base + 1);
            let v = self.eval(init, env)?;
            self.stack.push(v);
            let b = self.stack.get(bindings_slot);
            self.stack.set(bindings_slot, self.scdr(b)?);
        }
        let argc = self.stack.len() - inits_base;
        // Build the new frame (allocation only — stack values stay put).
        let expr = self.stack.get(base);
        let mut bindings_src = self.nth(expr, 1)?;
        let mut frame_bindings = Value::NIL;
        for i in 0..argc {
            let binding = self.scar(bindings_src)?;
            let sym = self.scar(binding)?;
            let v = self.stack.get(inits_base + i);
            let pair = self.heap.cons(sym, v);
            frame_bindings = self.heap.cons(pair, frame_bindings);
            bindings_src = self.scdr(bindings_src)?;
        }
        let env = self.stack.get(base + 1);
        let new_env = self.make_env(frame_bindings, env);
        let expr = self.stack.get(base);
        let body = self.tail_from(expr, 2);
        let begin_expr = self.heap.cons(self.sf.begin.get(), body);
        self.stack.set(base, begin_expr);
        self.stack.set(base + 1, new_env);
        Ok(())
    }

    /// `(let loop ([x e] ...) body...)` — letrec-style self-reference,
    /// then a tail call of the loop closure on the evaluated inits.
    fn eval_named_let(&mut self, base: usize) -> SResult<()> {
        let expr = self.stack.get(base);
        let env = self.stack.get(base + 1);
        let name = self.nth(expr, 1)?;
        let bindings = self.nth(expr, 2)?;
        let body = self.tail_from(expr, 3);

        // Frame holding the loop name, initially unbound.
        let name_pair = self.heap.cons(name, Value::UNBOUND);
        let frame_bindings = self.heap.cons(name_pair, Value::NIL);
        let loop_env = self.make_env(frame_bindings, env);
        // Parameters are the binding names.
        let mut params = Value::NIL;
        let mut syms = Vec::new();
        let mut b = bindings;
        while self.heap.is_pair(b) {
            let binding = self.heap.car(b);
            syms.push(self.scar(binding)?);
            b = self.heap.cdr(b);
        }
        for &s in syms.iter().rev() {
            params = self.heap.cons(s, params);
        }
        let clause = self.heap.cons(params, body);
        let clauses = self.heap.cons(clause, Value::NIL);
        let closure = self.make_closure(clauses, loop_env, name);
        self.heap.set_cdr(name_pair, closure);

        // Tail-apply the closure to the evaluated inits: rewrite to
        // ((quoted-closure) init...) and let the application path run it.
        // Simpler: push closure, evaluate inits, install tail call.
        let op_slot = self.stack.push(closure);
        let bindings_slot = self.stack.push(bindings);
        let args_base = self.stack.len();
        loop {
            let b = self.stack.get(bindings_slot);
            if !self.heap.is_pair(b) {
                break;
            }
            let binding = self.heap.car(b);
            let init = self.nth(binding, 1)?;
            let env = self.stack.get(base + 1);
            let v = self.eval(init, env)?;
            self.stack.push(v);
            let b = self.stack.get(bindings_slot);
            self.stack.set(bindings_slot, self.heap.cdr(b));
        }
        let argc = self.stack.len() - args_base;
        self.install_closure_call(base, op_slot, args_base, argc)
    }

    /// `(let* ([x e] ...) body...)`: one frame per binding.
    fn eval_let_star(&mut self, base: usize) -> SResult<()> {
        let expr = self.stack.get(base);
        let bindings = self.nth(expr, 1)?;
        let bindings_slot = self.stack.push(bindings);
        let env_slot = self.stack.push(self.stack.get(base + 1));
        loop {
            let b = self.stack.get(bindings_slot);
            if b.is_nil() {
                break;
            }
            let binding = self.scar(b)?;
            let init = self.nth(binding, 1)?;
            let env = self.stack.get(env_slot);
            let v = self.eval(init, env)?;
            let b = self.stack.get(bindings_slot);
            let sym = self.scar(self.scar(b)?)?;
            let pair = self.heap.cons(sym, v);
            let frame = self.heap.cons(pair, Value::NIL);
            let env = self.stack.get(env_slot);
            let new_env = self.make_env(frame, env);
            self.stack.set(env_slot, new_env);
            let b = self.stack.get(bindings_slot);
            self.stack.set(bindings_slot, self.scdr(b)?);
        }
        let expr = self.stack.get(base);
        let body = self.tail_from(expr, 2);
        let begin_expr = self.heap.cons(self.sf.begin.get(), body);
        let final_env = self.stack.get(env_slot);
        self.stack.set(base, begin_expr);
        self.stack.set(base + 1, final_env);
        Ok(())
    }

    /// `(letrec ([x e] ...) body...)`.
    fn eval_letrec(&mut self, base: usize) -> SResult<()> {
        let expr = self.stack.get(base);
        let env = self.stack.get(base + 1);
        let bindings = self.nth(expr, 1)?;
        // Frame with every name unbound.
        let mut frame = Value::NIL;
        let mut b = bindings;
        while self.heap.is_pair(b) {
            let binding = self.heap.car(b);
            let sym = self.scar(binding)?;
            let pair = self.heap.cons(sym, Value::UNBOUND);
            frame = self.heap.cons(pair, frame);
            b = self.heap.cdr(b);
        }
        let new_env = self.make_env(frame, env);
        let env_slot = self.stack.push(new_env);
        let bindings_slot = self.stack.push(bindings);
        loop {
            let b = self.stack.get(bindings_slot);
            if b.is_nil() {
                break;
            }
            if !self.heap.is_pair(b) {
                break;
            }
            let binding = self.heap.car(b);
            let init = self.nth(binding, 1)?;
            let env = self.stack.get(env_slot);
            let v = self.eval(init, env)?;
            let b = self.stack.get(bindings_slot);
            let sym = self.scar(self.heap.car(b))?;
            let env = self.stack.get(env_slot);
            self.set_var(env, sym, v)?;
            self.stack.set(bindings_slot, self.heap.cdr(b));
        }
        let expr = self.stack.get(base);
        let body = self.tail_from(expr, 2);
        let begin_expr = self.heap.cons(self.sf.begin.get(), body);
        let env = self.stack.get(env_slot);
        self.stack.set(base, begin_expr);
        self.stack.set(base + 1, env);
        Ok(())
    }

    /// `cond`: returns `Some(v)` for an immediate result, `None` after
    /// installing a tail expression.
    fn eval_cond(&mut self, base: usize) -> SResult<Option<Value>> {
        let expr = self.stack.get(base);
        let clauses_slot = self.stack.push(self.heap.cdr(expr));
        loop {
            let clauses = self.stack.get(clauses_slot);
            if clauses.is_nil() {
                return Ok(Some(Value::VOID));
            }
            let clause = self.scar(clauses)?;
            let test = self.scar(clause)?;
            if self.heap.is_symbol(test) && test == self.sf.else_.get() {
                let body = self.heap.cdr(clause);
                return self.eval_sequence_tail(base, body);
            }
            let env = self.stack.get(base + 1);
            let v = self.eval(test, env)?;
            let clauses = self.stack.get(clauses_slot);
            let clause = self.heap.car(clauses);
            if v.is_truthy() {
                let body = self.heap.cdr(clause);
                if body.is_nil() {
                    return Ok(Some(v));
                }
                // (test => proc): apply proc to the test value.
                let first = self.heap.car(body);
                if self.heap.is_symbol(first) && first == self.sf.arrow.get() {
                    let v_slot = self.stack.push(v);
                    let f_expr = self.nth(body, 1)?;
                    let env = self.stack.get(base + 1);
                    let f = self.eval(f_expr, env)?;
                    let v = self.stack.get(v_slot);
                    return self.apply(f, &[v]).map(Some);
                }
                return self.eval_sequence_tail(base, body);
            }
            self.stack.set(clauses_slot, self.scdr(clauses)?);
        }
    }

    /// `(case key [(datum ...) body...] ... [else body...])`: the key is
    /// compared with `eqv?` against each clause's datum list.
    fn eval_case(&mut self, base: usize) -> SResult<Option<Value>> {
        let expr = self.stack.get(base);
        let env = self.stack.get(base + 1);
        let key_expr = self.nth(expr, 1)?;
        let key = self.eval(key_expr, env)?;
        let key_slot = self.stack.push(key);
        let expr = self.stack.get(base);
        let clauses_slot = self.stack.push(self.tail_from(expr, 2));
        loop {
            let clauses = self.stack.get(clauses_slot);
            if clauses.is_nil() {
                return Ok(Some(Value::VOID));
            }
            let clause = self.scar(clauses)?;
            let head = self.scar(clause)?;
            let is_else = self.heap.is_symbol(head) && head == self.sf.else_.get();
            let mut matched = is_else;
            if !matched {
                let mut datums = head;
                let key = self.stack.get(key_slot);
                while self.heap.is_pair(datums) {
                    if self.heap.eqv(self.heap.car(datums), key) {
                        matched = true;
                        break;
                    }
                    datums = self.heap.cdr(datums);
                }
            }
            if matched {
                let body = self.heap.cdr(clause);
                return self.eval_sequence_tail(base, body);
            }
            self.stack.set(clauses_slot, self.scdr(clauses)?);
        }
    }

    /// `(do ([var init step] ...) (test result ...) body ...)`.
    fn eval_do(&mut self, base: usize) -> SResult<Option<Value>> {
        // Desugar to a named let the evaluator already handles in
        // constant stack:  (let loop ([var init] ...)
        //                    (if test (begin result...)
        //                        (begin body... (loop step...))))
        let expr = self.stack.get(base);
        let specs = self.nth(expr, 1)?;
        let exit = self.nth(expr, 2)?;
        let body = self.tail_from(expr, 3);

        let loop_sym = {
            self.gensym_counter += 1;
            let name = format!("do-loop-{}", self.gensym_counter);
            self.heap.make_symbol(&name)
        };
        // bindings: ([var init] ...) and steps: (step-or-var ...)
        let mut bindings = Vec::new();
        let mut steps = Vec::new();
        let mut s = specs;
        while self.heap.is_pair(s) {
            let spec = self.heap.car(s);
            let var = self.nth(spec, 0)?;
            let init = self.nth(spec, 1)?;
            let step = {
                let rest = self.tail_from(spec, 2);
                if rest.is_nil() {
                    var
                } else {
                    self.heap.car(rest)
                }
            };
            let b = self.heap.cons(init, Value::NIL);
            let b = self.heap.cons(var, b);
            bindings.push(b);
            steps.push(step);
            s = self.heap.cdr(s);
        }
        let mut bindings_list = Value::NIL;
        for &b in bindings.iter().rev() {
            bindings_list = self.heap.cons(b, bindings_list);
        }
        // (loop step ...)
        let mut recur = Value::NIL;
        for &st in steps.iter().rev() {
            recur = self.heap.cons(st, recur);
        }
        let recur = self.heap.cons(loop_sym, recur);
        // (begin body ... (loop step...))
        let mut tail_body = self.heap.cons(recur, Value::NIL);
        {
            let mut items = Vec::new();
            let mut b = body;
            while self.heap.is_pair(b) {
                items.push(self.heap.car(b));
                b = self.heap.cdr(b);
            }
            for &e in items.iter().rev() {
                tail_body = self.heap.cons(e, tail_body);
            }
        }
        let loop_body = self.heap.cons(self.sf.begin.get(), tail_body);
        // (begin result ...), or the test value when no results given.
        let test = self.scar(exit)?;
        let results = self.heap.cdr(exit);
        let result_expr = if results.is_nil() {
            Value::VOID // (if test) with no alternative yields void
        } else {
            self.heap.cons(self.sf.begin.get(), results)
        };
        // (if test result-expr loop-body)
        let if_tail = self.heap.cons(loop_body, Value::NIL);
        let if_tail = self.heap.cons(result_expr, if_tail);
        let if_tail = self.heap.cons(test, if_tail);
        let if_expr = self.heap.cons(self.sf.iff.get(), if_tail);
        // (let loop (bindings) if-expr)
        let let_tail = self.heap.cons(if_expr, Value::NIL);
        let let_tail = self.heap.cons(bindings_list, let_tail);
        let let_tail = self.heap.cons(loop_sym, let_tail);
        let let_expr = self.heap.cons(self.sf.let_.get(), let_tail);
        self.stack.set(base, let_expr);
        Ok(None)
    }

    fn eval_and_or(&mut self, base: usize, is_and: bool) -> SResult<Option<Value>> {
        let expr = self.stack.get(base);
        let rest = self.heap.cdr(expr);
        if rest.is_nil() {
            return Ok(Some(Value::bool(is_and)));
        }
        let rest_slot = self.stack.push(rest);
        loop {
            let rest = self.stack.get(rest_slot);
            let next = self.scdr(rest)?;
            if next.is_nil() {
                let last = self.scar(rest)?;
                self.stack.set(base, last);
                return Ok(None); // tail position
            }
            let e = self.scar(rest)?;
            let env = self.stack.get(base + 1);
            let v = self.eval(e, env)?;
            if v.is_truthy() != is_and {
                return Ok(Some(v));
            }
            let rest = self.stack.get(rest_slot);
            self.stack.set(rest_slot, self.scdr(rest)?);
        }
    }

    /// Evaluates operator and operands, then applies: primitives return a
    /// value; closures install a tail call and return `None`.
    fn eval_application(&mut self, base: usize) -> SResult<Option<Value>> {
        let expr = self.stack.get(base);
        let env = self.stack.get(base + 1);
        let op_expr = self.heap.car(expr);
        let op = self.eval(op_expr, env)?;
        let op_slot = self.stack.push(op);
        let expr = self.stack.get(base);
        let rest_slot = self.stack.push(self.heap.cdr(expr));
        let args_base = self.stack.len();
        loop {
            let rest = self.stack.get(rest_slot);
            if rest.is_nil() {
                break;
            }
            let arg_expr = self.scar(rest)?;
            let env = self.stack.get(base + 1);
            let v = self.eval(arg_expr, env)?;
            self.stack.push(v);
            let rest = self.stack.get(rest_slot);
            self.stack.set(rest_slot, self.scdr(rest)?);
        }
        let argc = self.stack.len() - args_base;
        self.apply_from_stack(base, op_slot, args_base, argc)
    }

    /// Applies the value in `op_slot` to the `argc` values starting at
    /// `args_base`. This is the collection safe point.
    fn apply_from_stack(
        &mut self,
        base: usize,
        op_slot: usize,
        args_base: usize,
        argc: usize,
    ) -> SResult<Option<Value>> {
        // Everything live is on the rooted stack: safe to collect.
        let collected = self.heap.maybe_collect().is_some();
        if collected && !self.in_collect_handler {
            if let Some(handler) = self.collect_handler.clone() {
                // Run the Scheme-level post-collection handler (e.g.
                // close-dropped-ports), guarding against re-entry from
                // collections the handler itself triggers.
                self.in_collect_handler = true;
                let result = self.apply(handler.get(), &[]);
                self.in_collect_handler = false;
                result?;
            }
        }
        let op = self.stack.get(op_slot);
        if self.heap.is_record(op) {
            let desc = self.heap.record_descriptor(op);
            if desc == rtags::closure() {
                self.install_closure_call(base, op_slot, args_base, argc)?;
                return Ok(None);
            }
            if desc == rtags::primitive() {
                let index = self.heap.record_ref(op, 0).as_fixnum() as usize;
                let args: Vec<Value> = (0..argc).map(|i| self.stack.get(args_base + i)).collect();
                let entry = &self.prims[index];
                if args.len() < entry.min_args || entry.max_args.is_some_and(|m| args.len() > m) {
                    return err(format!(
                        "{}: wrong number of arguments ({})",
                        entry.name,
                        args.len()
                    ));
                }
                let f = entry.func;
                return f(self, &args).map(Some);
            }
            if desc == rtags::guardian() {
                let tconc = self.heap.record_ref(op, 0);
                return match argc {
                    // (G) — retrieve, or #f.
                    0 => Ok(Some(self.heap.tconc_pop(tconc).unwrap_or(Value::FALSE))),
                    // (G obj) — register.
                    1 => {
                        let obj = self.stack.get(args_base);
                        self.heap.guardian_register(tconc, obj, obj);
                        Ok(Some(Value::VOID))
                    }
                    // (G obj agent) — the Section 5 generalisation.
                    2 => {
                        let obj = self.stack.get(args_base);
                        let agent = self.stack.get(args_base + 1);
                        self.heap.guardian_register(tconc, obj, agent);
                        Ok(Some(Value::VOID))
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

    /// Installs a closure call as the current tail expression.
    fn install_closure_call(
        &mut self,
        base: usize,
        op_slot: usize,
        args_base: usize,
        argc: usize,
    ) -> SResult<()> {
        let op = self.stack.get(op_slot);
        let clauses = self.heap.record_ref(op, 0);
        let clause = self.select_clause(clauses, argc)?;
        let params = self.heap.car(clause);
        // Build the frame bindings (allocation only from here on).
        let mut frame = Value::NIL;
        let mut p = params;
        let mut i = 0;
        while self.heap.is_pair(p) {
            let sym = self.heap.car(p);
            let v = self.stack.get(args_base + i);
            let pair = self.heap.cons(sym, v);
            frame = self.heap.cons(pair, frame);
            i += 1;
            p = self.heap.cdr(p);
        }
        if self.heap.is_symbol(p) {
            // Rest parameter: collect the remaining args as a list.
            let mut rest = Value::NIL;
            for j in (i..argc).rev() {
                let v = self.stack.get(args_base + j);
                rest = self.heap.cons(v, rest);
            }
            let pair = self.heap.cons(p, rest);
            frame = self.heap.cons(pair, frame);
        }
        let op = self.stack.get(op_slot);
        let closure_env = self.heap.record_ref(op, 1);
        let new_env = self.make_env(frame, closure_env);
        let clauses = self.heap.record_ref(self.stack.get(op_slot), 0);
        let clause = self.select_clause(clauses, argc)?;
        let body = self.heap.cdr(clause);
        let begin_expr = self.heap.cons(self.sf.begin.get(), body);
        self.stack.set(base, begin_expr);
        self.stack.set(base + 1, new_env);
        Ok(())
    }

    /// `(define-record-type name (ctor field ...) pred
    ///    (field accessor [mutator]) ...)` — R7RS records, desugared to
    /// the `%record` primitives. The type name is bound to a fresh
    /// (uninterned) descriptor symbol, so each evaluation creates a
    /// distinct, eq-unique type.
    fn eval_define_record_type(&mut self, base: usize) -> SResult<()> {
        let expr = self.stack.get(base);
        let name = self.nth(expr, 1)?;
        let pred_name = self.nth(expr, 3)?;
        let field_specs = self.tail_from(expr, 4);
        if !self.heap.is_symbol(name) || !self.heap.is_symbol(pred_name) {
            return err("define-record-type: malformed");
        }
        // Collect field names in declaration order, with their accessors
        // and optional mutators.
        let mut fields: Vec<Value> = Vec::new(); // field symbols
        let mut accessors: Vec<(Value, usize)> = Vec::new();
        let mut mutators: Vec<(Value, usize)> = Vec::new();
        let mut fs = field_specs;
        while self.heap.is_pair(fs) {
            let spec = self.heap.car(fs);
            let field = self.scar(spec)?;
            let idx = fields.len();
            fields.push(field);
            let rest = self.scdr(spec)?;
            if self.heap.is_pair(rest) {
                accessors.push((self.heap.car(rest), idx));
                let rest2 = self.heap.cdr(rest);
                if self.heap.is_pair(rest2) {
                    mutators.push((self.heap.car(rest2), idx));
                }
            }
            fs = self.heap.cdr(fs);
        }
        // Bind the type name to a fresh descriptor symbol.
        let type_name = self.heap.symbol_name(name);
        let desc = self.heap.make_symbol(&type_name);
        let env2 = self.stack.get(base + 1);
        let name2 = self.nth(self.stack.get(base), 1)?;
        self.define_var(env2, name2, desc);

        // Constructor: map ctor args to field positions by name.
        let expr = self.stack.get(base);
        let ctor_spec = self.nth(expr, 2)?;
        let ctor_name = self.scar(ctor_spec)?;
        let mut ctor_args: Vec<Value> = Vec::new();
        let mut c = self.heap.cdr(ctor_spec);
        while self.heap.is_pair(c) {
            ctor_args.push(self.heap.car(c));
            c = self.heap.cdr(c);
        }
        // (lambda (args...) (%make-record <name> <arg-or-#f per field>))
        let make_sym = self.intern("%make-record");
        let mut call_fields: Vec<Value> = Vec::new();
        for f in &fields {
            if ctor_args.contains(f) {
                call_fields.push(*f);
            } else {
                call_fields.push(Value::FALSE);
            }
        }
        let name3 = self.nth(self.stack.get(base), 1)?;
        let mut call = Value::NIL;
        for v in call_fields.iter().rev() {
            call = self.heap.cons(*v, call);
        }
        call = self.heap.cons(name3, call);
        call = self.heap.cons(make_sym, call);
        let body = self.heap.cons(call, Value::NIL);
        let mut params = Value::NIL;
        for a in ctor_args.iter().rev() {
            params = self.heap.cons(*a, params);
        }
        let clause = self.heap.cons(params, body);
        let clauses = self.heap.cons(clause, Value::NIL);
        let env3 = self.stack.get(base + 1);
        let ctor_closure = self.make_closure(clauses, env3, ctor_name);
        self.define_var(env3, ctor_name, ctor_closure);

        // Predicate: (lambda (o) (%record-of-type? o <name>)).
        let obj_sym = self.intern("%obj");
        let val_sym = self.intern("%val");
        let pred_prim = self.intern("%record-of-type?");
        let name4 = self.nth(self.stack.get(base), 1)?;
        let call = {
            let t = self.heap.cons(name4, Value::NIL);
            let t = self.heap.cons(obj_sym, t);
            self.heap.cons(pred_prim, t)
        };
        let body = self.heap.cons(call, Value::NIL);
        let params = self.heap.cons(obj_sym, Value::NIL);
        let clause = self.heap.cons(params, body);
        let clauses = self.heap.cons(clause, Value::NIL);
        let env4 = self.stack.get(base + 1);
        let pred_name = self.nth(self.stack.get(base), 3)?;
        let pred_closure = self.make_closure(clauses, env4, pred_name);
        self.define_var(env4, pred_name, pred_closure);

        // Accessors and mutators.
        let ref_prim = self.intern("%record-ref");
        let set_prim = self.intern("%record-set!");
        for (acc_name, idx) in accessors {
            let name5 = self.nth(self.stack.get(base), 1)?;
            let call = {
                let t = self.heap.cons(Value::fixnum(idx as i64), Value::NIL);
                let t = self.heap.cons(name5, t);
                let t = self.heap.cons(obj_sym, t);
                self.heap.cons(ref_prim, t)
            };
            let body = self.heap.cons(call, Value::NIL);
            let params = self.heap.cons(obj_sym, Value::NIL);
            let clause = self.heap.cons(params, body);
            let clauses = self.heap.cons(clause, Value::NIL);
            let env5 = self.stack.get(base + 1);
            let closure = self.make_closure(clauses, env5, acc_name);
            self.define_var(env5, acc_name, closure);
        }
        for (mut_name, idx) in mutators {
            let name6 = self.nth(self.stack.get(base), 1)?;
            let call = {
                let t = self.heap.cons(val_sym, Value::NIL);
                let t = self.heap.cons(Value::fixnum(idx as i64), t);
                let t = self.heap.cons(name6, t);
                let t = self.heap.cons(obj_sym, t);
                self.heap.cons(set_prim, t)
            };
            let body = self.heap.cons(call, Value::NIL);
            let params = {
                let t = self.heap.cons(val_sym, Value::NIL);
                self.heap.cons(obj_sym, t)
            };
            let clause = self.heap.cons(params, body);
            let clauses = self.heap.cons(clause, Value::NIL);
            let env6 = self.stack.get(base + 1);
            let closure = self.make_closure(clauses, env6, mut_name);
            self.define_var(env6, mut_name, closure);
        }
        self.stack.set(base, Value::VOID);
        Ok(())
    }

    /// Expands a quasiquote template at `depth` (1 = unquotes evaluate).
    /// All intermediate structure is kept on the rooted stack, since
    /// nested unquotes evaluate arbitrary code (which may collect).
    fn expand_quasiquote(&mut self, base: usize, template: Value, depth: usize) -> SResult<Value> {
        if self.depth >= self.max_depth {
            return err("quasiquote nesting too deep");
        }
        self.depth += 1;
        let result = self.expand_quasiquote_inner(base, template, depth);
        self.depth -= 1;
        result
    }

    fn expand_quasiquote_inner(
        &mut self,
        base: usize,
        template: Value,
        depth: usize,
    ) -> SResult<Value> {
        let mark = self.stack.len();
        let result = (|| {
            if self.heap.is_vector(template) {
                // Expand the elements as a list, then rebuild the vector.
                let t_slot = self.stack.push(template);
                let mut items = Vec::new();
                for i in 0..self.heap.vector_len(self.stack.get(t_slot)) {
                    let e = self.heap.vector_ref(self.stack.get(t_slot), i);
                    let v = self.expand_quasiquote(base, e, depth)?;
                    items.push(self.stack.push(v));
                }
                let v = self.heap.make_vector(items.len(), Value::NIL);
                for (i, slot) in items.iter().enumerate() {
                    let item = self.stack.get(*slot);
                    self.heap.vector_set(v, i, item);
                }
                return Ok(v);
            }
            if !self.heap.is_pair(template) {
                return Ok(template);
            }
            let head = self.heap.car(template);
            if self.heap.is_symbol(head) {
                if head == self.sf.unquote.get() {
                    let inner = self.nth(template, 1)?;
                    if depth == 1 {
                        let env = self.stack.get(base + 1);
                        return self.eval(inner, env);
                    }
                    let e_slot = {
                        let v = self.expand_quasiquote(base, inner, depth - 1)?;
                        self.stack.push(v)
                    };
                    let tail = self.heap.cons(self.stack.get(e_slot), Value::NIL);
                    return Ok(self.heap.cons(self.sf.unquote.get(), tail));
                }
                if head == self.sf.quasiquote.get() {
                    let inner = self.nth(template, 1)?;
                    let e_slot = {
                        let v = self.expand_quasiquote(base, inner, depth + 1)?;
                        self.stack.push(v)
                    };
                    let tail = self.heap.cons(self.stack.get(e_slot), Value::NIL);
                    return Ok(self.heap.cons(self.sf.quasiquote.get(), tail));
                }
            }
            // General list walk with splicing, building a reversed
            // accumulator on the rooted stack.
            let acc_slot = self.stack.push(Value::NIL);
            let rest_slot = self.stack.push(template);
            let tail_slot = self.stack.push(Value::NIL);
            loop {
                let rest = self.stack.get(rest_slot);
                if rest.is_nil() {
                    break;
                }
                if !self.heap.is_pair(rest) {
                    // Improper tail: expand it and finish.
                    let v = self.expand_quasiquote(base, rest, depth)?;
                    self.stack.set(tail_slot, v);
                    break;
                }
                // `(a . ,x) reads as (a unquote x): an unquote (or nested
                // quasiquote) in tail position is a dotted tail.
                let rest_head = self.heap.car(rest);
                if self.heap.is_symbol(rest_head)
                    && (rest_head == self.sf.unquote.get() || rest_head == self.sf.quasiquote.get())
                {
                    let v = self.expand_quasiquote(base, rest, depth)?;
                    self.stack.set(tail_slot, v);
                    break;
                }
                let e = self.heap.car(rest);
                let is_splice = depth == 1
                    && self.heap.is_pair(e)
                    && self.heap.is_symbol(self.heap.car(e))
                    && self.heap.car(e) == self.sf.unquote_splicing.get();
                if is_splice {
                    let inner = self.nth(e, 1)?;
                    let env = self.stack.get(base + 1);
                    let spliced = self.eval(inner, env)?;
                    let sp_slot = self.stack.push(spliced);
                    loop {
                        let sp = self.stack.get(sp_slot);
                        if sp.is_nil() {
                            break;
                        }
                        if !self.heap.is_pair(sp) {
                            return err("unquote-splicing: not a list");
                        }
                        let item = self.heap.car(sp);
                        let acc = self.stack.get(acc_slot);
                        let cell = self.heap.cons(item, acc);
                        self.stack.set(acc_slot, cell);
                        let sp = self.stack.get(sp_slot);
                        self.stack.set(sp_slot, self.heap.cdr(sp));
                    }
                } else {
                    let v = self.expand_quasiquote(base, e, depth)?;
                    let acc = self.stack.get(acc_slot);
                    let cell = self.heap.cons(v, acc);
                    self.stack.set(acc_slot, cell);
                }
                let rest = self.stack.get(rest_slot);
                self.stack.set(rest_slot, self.heap.cdr(rest));
            }
            // Reverse the accumulator onto the tail.
            let mut out = self.stack.get(tail_slot);
            let mut acc = self.stack.get(acc_slot);
            while !acc.is_nil() {
                let item = self.heap.car(acc);
                out = self.heap.cons(item, out);
                acc = self.heap.cdr(acc);
            }
            Ok(out)
        })();
        self.stack.truncate(mark);
        result
    }

    fn select_clause(&self, clauses: Value, argc: usize) -> SResult<Value> {
        let mut c = clauses;
        while self.heap.is_pair(c) {
            let clause = self.heap.car(c);
            if !self.heap.is_pair(clause) {
                c = self.heap.cdr(c);
                continue;
            }
            let mut params = self.heap.car(clause);
            let mut n = 0;
            while self.heap.is_pair(params) {
                n += 1;
                params = self.heap.cdr(params);
            }
            let variadic = self.heap.is_symbol(params);
            if (variadic && argc >= n) || (!variadic && argc == n) {
                return Ok(clause);
            }
            c = self.heap.cdr(c);
        }
        err(format!("no matching clause for {argc} arguments"))
    }

    /// Applies a procedure value to arguments (used by the `apply`
    /// primitive, by higher-order primitives such as `map`, and by
    /// embedding code). Non-tail: closure bodies are evaluated
    /// recursively, so every call is charged against `max_depth` — a
    /// procedure that recurses through `map` or `apply` gets the
    /// "recursion too deep" error instead of overflowing the Rust stack.
    pub fn apply(&mut self, f: Value, args: &[Value]) -> SResult<Value> {
        // One level of primitive → `apply` → evaluator re-entry spans
        // nearly twice the Rust stack of an ordinary non-tail call
        // (measured in a debug build: ~7.4 KiB against ~4.1 KiB), so it
        // is charged as two frames to keep `max_depth` levels of either
        // kind, or any mix, inside a 2 MiB thread.
        const APPLY_FRAMES: usize = 2;
        if self.depth + APPLY_FRAMES > self.max_depth {
            return err(format!(
                "recursion too deep (max {} non-tail frames)",
                self.max_depth
            ));
        }
        self.depth += APPLY_FRAMES;
        let result = match self.mode {
            EvalMode::Vm => self.vm_apply_values(f, args),
            EvalMode::Naive => self.naive_apply_values(f, args),
        };
        self.depth -= APPLY_FRAMES;
        result
    }

    fn naive_apply_values(&mut self, f: Value, args: &[Value]) -> SResult<Value> {
        let base = self.stack.len();
        // Fake expression/environment slots so the shared machinery
        // works.
        self.stack.push(Value::NIL);
        self.stack.push(self.global_env());
        let op_slot = self.stack.push(f);
        let args_base = self.stack.len();
        for &a in args {
            self.stack.push(a);
        }
        let result = match self.apply_from_stack(base, op_slot, args_base, args.len()) {
            Ok(Some(v)) => Ok(v),
            Ok(None) => self.eval_loop(base), // closure: run the installed body
            Err(e) => Err(e),
        };
        self.stack.truncate(base);
        result
    }

    // ------------------------------------------------------------------
    // Helpers shared with the VM (`vm.rs`)
    // ------------------------------------------------------------------

    /// The global value cell for a reference site, consulting and
    /// warming the site's one-entry inline cache. `None` means the
    /// symbol has never been defined.
    pub(crate) fn try_site_cell(&mut self, site: &GlobalSite) -> Option<Value> {
        if let Some(r) = site.cell.borrow().as_ref() {
            return Some(r.get());
        }
        let cell = SymbolTable::try_global_cell(&self.heap, site.sym.get())?;
        *site.cell.borrow_mut() = Some(self.heap.root(cell));
        Some(cell)
    }

    /// Expands a quasiquote template at runtime, consuming the
    /// pre-analyzed unquote sites in walk order. This mirrors the naive
    /// `expand_quasiquote` walk exactly (same structure sharing, same
    /// splice semantics, same error messages) with site execution in
    /// place of `eval`.
    pub(crate) fn exec_quasi(
        &mut self,
        base: usize,
        template: Value,
        depth_qq: usize,
        sites: &[Rc<CodeObject>],
        cursor: &mut usize,
    ) -> SResult<Value> {
        if self.depth >= self.max_depth {
            return err("quasiquote nesting too deep");
        }
        self.depth += 1;
        let result = self.exec_quasi_inner(base, template, depth_qq, sites, cursor);
        self.depth -= 1;
        result
    }

    /// Runs the next compiled unquote site as a fresh non-tail
    /// activation sharing the current environment.
    fn run_quasi_site(
        &mut self,
        sites: &[Rc<CodeObject>],
        cursor: &mut usize,
        base: usize,
    ) -> SResult<Value> {
        let Some(site) = sites.get(*cursor) else {
            return err("quasiquote: template changed since analysis");
        };
        *cursor += 1;
        self.vm_sub(site, base)
    }

    fn exec_quasi_inner(
        &mut self,
        base: usize,
        template: Value,
        depth_qq: usize,
        sites: &[Rc<CodeObject>],
        cursor: &mut usize,
    ) -> SResult<Value> {
        let mark = self.stack.len();
        let result = (|| {
            if self.heap.is_vector(template) {
                // Expand the elements, then rebuild the vector.
                let t_slot = self.stack.push(template);
                let mut items = Vec::new();
                for i in 0..self.heap.vector_len(self.stack.get(t_slot)) {
                    let e = self.heap.vector_ref(self.stack.get(t_slot), i);
                    let v = self.exec_quasi(base, e, depth_qq, sites, cursor)?;
                    items.push(self.stack.push(v));
                }
                let v = self.heap.make_vector(items.len(), Value::NIL);
                for (i, slot) in items.iter().enumerate() {
                    let item = self.stack.get(*slot);
                    self.heap.vector_set(v, i, item);
                }
                return Ok(v);
            }
            if !self.heap.is_pair(template) {
                return Ok(template);
            }
            let head = self.heap.car(template);
            if self.heap.is_symbol(head) {
                if head == self.sf.unquote.get() {
                    let inner = self.nth(template, 1)?;
                    if depth_qq == 1 {
                        return self.run_quasi_site(sites, cursor, base);
                    }
                    let e_slot = {
                        let v = self.exec_quasi(base, inner, depth_qq - 1, sites, cursor)?;
                        self.stack.push(v)
                    };
                    let tail = self.heap.cons(self.stack.get(e_slot), Value::NIL);
                    return Ok(self.heap.cons(self.sf.unquote.get(), tail));
                }
                if head == self.sf.quasiquote.get() {
                    let inner = self.nth(template, 1)?;
                    let e_slot = {
                        let v = self.exec_quasi(base, inner, depth_qq + 1, sites, cursor)?;
                        self.stack.push(v)
                    };
                    let tail = self.heap.cons(self.stack.get(e_slot), Value::NIL);
                    return Ok(self.heap.cons(self.sf.quasiquote.get(), tail));
                }
            }
            // General list walk with splicing, building a reversed
            // accumulator on the rooted stack.
            let acc_slot = self.stack.push(Value::NIL);
            let rest_slot = self.stack.push(template);
            let tail_slot = self.stack.push(Value::NIL);
            loop {
                let rest = self.stack.get(rest_slot);
                if rest.is_nil() {
                    break;
                }
                if !self.heap.is_pair(rest) {
                    // Improper tail: expand it and finish.
                    let v = self.exec_quasi(base, rest, depth_qq, sites, cursor)?;
                    self.stack.set(tail_slot, v);
                    break;
                }
                // An unquote (or nested quasiquote) in tail position is
                // a dotted tail.
                let rest_head = self.heap.car(rest);
                if self.heap.is_symbol(rest_head)
                    && (rest_head == self.sf.unquote.get() || rest_head == self.sf.quasiquote.get())
                {
                    let v = self.exec_quasi(base, rest, depth_qq, sites, cursor)?;
                    self.stack.set(tail_slot, v);
                    break;
                }
                let e = self.heap.car(rest);
                let is_splice = depth_qq == 1
                    && self.heap.is_pair(e)
                    && self.heap.is_symbol(self.heap.car(e))
                    && self.heap.car(e) == self.sf.unquote_splicing.get();
                if is_splice {
                    let spliced = self.run_quasi_site(sites, cursor, base)?;
                    let sp_slot = self.stack.push(spliced);
                    loop {
                        let sp = self.stack.get(sp_slot);
                        if sp.is_nil() {
                            break;
                        }
                        if !self.heap.is_pair(sp) {
                            return err("unquote-splicing: not a list");
                        }
                        let item = self.heap.car(sp);
                        let acc = self.stack.get(acc_slot);
                        let cell = self.heap.cons(item, acc);
                        self.stack.set(acc_slot, cell);
                        let sp = self.stack.get(sp_slot);
                        self.stack.set(sp_slot, self.heap.cdr(sp));
                    }
                } else {
                    let v = self.exec_quasi(base, e, depth_qq, sites, cursor)?;
                    let acc = self.stack.get(acc_slot);
                    let cell = self.heap.cons(v, acc);
                    self.stack.set(acc_slot, cell);
                }
                let rest = self.stack.get(rest_slot);
                self.stack.set(rest_slot, self.heap.cdr(rest));
            }
            // Reverse the accumulator onto the tail.
            let mut out = self.stack.get(tail_slot);
            let mut acc = self.stack.get(acc_slot);
            while !acc.is_nil() {
                let item = self.heap.car(acc);
                out = self.heap.cons(item, out);
                acc = self.heap.cdr(acc);
            }
            Ok(out)
        })();
        self.stack.truncate(mark);
        result
    }
}

impl Default for Interp {
    fn default() -> Self {
        Interp::new()
    }
}

impl std::fmt::Debug for Interp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interp")
            .field("heap", &self.heap)
            .field("primitives", &self.prims.len())
            .finish()
    }
}
