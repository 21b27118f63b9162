//! Syntax analysis: the production evaluator's front end, which emits
//! the bytecode as it goes.
//!
//! `analyze_top` walks a top-level form once. Every special form is
//! resolved as it is met and its code is emitted then, into the block
//! emitter of `compile.rs` (which also defines the instruction set);
//! `vm.rs` runs the result without ever re-inspecting source syntax.
//! Every local variable reference becomes a `(frame depth, slot)` pair
//! against a compile-time scope map, and every global reference goes
//! through the symbol's interned value cell with a one-entry inline cache
//! at the reference site — the cost of parsing special forms, walking
//! binding lists, and searching association-list environments is paid
//! once per form instead of once per evaluation. The top-level form, each
//! lambda clause body and each quasiquote unquote site get a code object
//! of their own; finished lambdas join `Interp::lambdas` in post-order.
//! Every `analyze_*` takes a `tail` flag: in tail position every path of
//! a form's code ends in a return, a tail call or a loop entry.
//!
//! The frame-slot check is made where slots are made. Lexical addresses
//! are emitted in one place (`Analyzer::local`), which refuses any
//! `(depth, slot)` outside the live scope stack — at that moment exactly
//! the runtime frame chain the instruction will walk — and frames are
//! opened in one place (`Analyzer::push_frame`), which refuses more
//! inits than slots. Both are hard errors, and together they license the
//! VM's audited frame accessors (`Heap::record_ref_audited` /
//! `record_set_audited`).
//!
//! The analyzer deliberately mirrors the naive (cons-walking) evaluator's
//! observable behaviour: error messages are byte-identical, scope rules
//! match (special forms are not shadowable, duplicate lambda parameters
//! resolve to the last occurrence, named-`let` inits evaluate in the
//! outer scope), and the `do` desugar bumps the same gensym counter so
//! symbol generation stays in lockstep between the two modes. Known,
//! documented divergences are limited to *malformed* programs (the
//! analyzer reports a syntax error at analysis time where the naive
//! evaluator would only fail if and when the bad subform was reached) and
//! to conditionally-executed `define`s inside bodies, which the analyzer
//! allocates a slot for unconditionally.

use crate::compile::{narrow, CodeObject, Emitter, Insn, VmClause, VmLambda};
use crate::error::{err, SResult};
use crate::interp::Interp;
use crate::reader::MAX_NESTING;
use guardians_gc::{Rooted, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// A global-variable reference site.
///
/// `cell` is the site's inline cache: once the symbol's global value cell
/// exists it is rooted here and every later execution of this site goes
/// straight to the box, skipping the symbol-extra probe. Cells are
/// created at most once per symbol and never replaced (see
/// `SymbolTable::global_cell`), which is what makes the cache sound.
pub(crate) struct GlobalSite {
    /// The variable's symbol (rooted; symbols move during collection).
    pub sym: Rooted,
    /// The variable's name, for error messages without heap access.
    pub name: Rc<str>,
    /// One-entry inline cache of the rooted global value cell.
    pub cell: RefCell<Option<Rooted>>,
}

/// Analyzes one top-level form and returns its code object; the lambdas
/// it creates join `Interp::lambdas`. Defines at top level bind globals;
/// everything else is an expression in the empty lexical scope.
pub(crate) fn analyze_top(it: &mut Interp, form: Value) -> SResult<Rc<CodeObject>> {
    let mut a = Analyzer {
        it,
        scopes: Vec::new(),
        depth: 0,
        code: Emitter::default(),
    };
    a.analyze(form, true)?;
    Ok(a.code.finish())
}

/// A special form's analyzer, called with the whole form and the tail flag.
type SpecialForm<'a> = fn(&mut Analyzer<'a>, Value, bool) -> SResult<()>;

struct Analyzer<'a> {
    it: &'a mut Interp,
    /// The compile-time scope map: one `Vec<Value>` of raw parameter /
    /// binding symbols per frame, innermost last. Raw `Value`s are safe
    /// here because the analyzer performs no collection (symbols are
    /// additionally kept alive by the form being analyzed, which the
    /// caller roots). Non-symbol "parameters" are stored as-is; they can
    /// never match a symbol lookup, which exactly mirrors the naive
    /// evaluator's behaviour of binding them inertly in the alist.
    scopes: Vec<Vec<Value>>,
    depth: usize,
    /// The code object being emitted; see [`Analyzer::block`].
    code: Emitter,
}

impl<'a> Analyzer<'a> {
    // ------------------------------------------------------------------
    // Structure helpers (mirror the naive evaluator's error strings)
    // ------------------------------------------------------------------

    fn nth(&self, list: Value, n: usize) -> SResult<Value> {
        let mut cur = list;
        for _ in 0..n {
            if !self.it.heap.is_pair(cur) {
                return err("malformed form: too few subexpressions");
            }
            cur = self.it.heap.cdr(cur);
        }
        if !self.it.heap.is_pair(cur) {
            return err("malformed form: too few subexpressions");
        }
        Ok(self.it.heap.car(cur))
    }

    fn tail_from(&self, list: Value, n: usize) -> Value {
        let mut cur = list;
        for _ in 0..n {
            if !self.it.heap.is_pair(cur) {
                return cur;
            }
            cur = self.it.heap.cdr(cur);
        }
        cur
    }

    fn scar(&self, v: Value) -> SResult<Value> {
        if self.it.heap.is_pair(v) {
            Ok(self.it.heap.car(v))
        } else {
            err("malformed form")
        }
    }

    fn scdr(&self, v: Value) -> SResult<Value> {
        if self.it.heap.is_pair(v) {
            Ok(self.it.heap.cdr(v))
        } else {
            err("malformed form")
        }
    }

    fn list_items(&self, mut v: Value) -> Vec<Value> {
        let mut items = Vec::new();
        while self.it.heap.is_pair(v) {
            items.push(self.it.heap.car(v));
            v = self.it.heap.cdr(v);
        }
        items
    }

    // ------------------------------------------------------------------
    // Scope map and frames
    // ------------------------------------------------------------------

    /// Resolves `sym` in the compile-time scope map. Duplicate names in
    /// one frame resolve to the *last* occurrence, matching the naive
    /// evaluator's alist shadowing (later conses shadow earlier ones).
    fn resolve_local(&self, sym: Value) -> Option<(usize, usize)> {
        for (depth, frame) in self.scopes.iter().rev().enumerate() {
            if let Some(slot) = frame.iter().rposition(|&s| s == sym) {
                return Some((depth, slot));
            }
        }
        None
    }

    /// Emits a lexical reference (`name` given, for the
    /// uninitialized-variable error) or a lexical `set!` (`None`): the one
    /// emission point of `(depth, slot)` addresses. An address outside
    /// the live scope stack — at emission exactly the frame chain the
    /// insn walks at run time — is refused.
    fn local(&mut self, depth: usize, slot: usize, name: Option<Rc<str>>) -> SResult<()> {
        let Some(frame) = self.scopes.iter().rev().nth(depth) else {
            return err(format!(
                "frame-slot check: depth {depth} escapes the {} frames in scope",
                self.scopes.len()
            ));
        };
        if slot >= frame.len() {
            return err(format!(
                "frame-slot check: slot {slot} outside its frame's {} slots at depth {depth}",
                frame.len()
            ));
        }
        let (depth, slot) = (narrow(depth, "frame depth")?, narrow(slot, "frame slot")?);
        let insn = match name {
            Some(name) => Insn::LocalRef {
                depth,
                slot,
                name: self.code.name(name)?,
            },
            None => Insn::LocalSet { depth, slot },
        };
        self.code.emit(insn);
        Ok(())
    }

    /// Emits a frame of one slot per name, its first `n_inits` slots
    /// filled from the values just pushed, and brings the names into
    /// scope: the one place a `let`-style frame is made, so the one place
    /// its layout is checked — never more inits than slots.
    fn push_frame(&mut self, names: Vec<Value>, n_inits: usize) -> SResult<()> {
        if n_inits > names.len() {
            return err(format!(
                "frame-slot check: {n_inits} inits for a frame of {} slots",
                names.len()
            ));
        }
        self.code.emit(Insn::PushFrame {
            n_slots: narrow(names.len(), "let slots")?,
            n_inits: narrow(n_inits, "let inits")?,
        });
        self.scopes.push(names);
        Ok(())
    }

    /// Outside tail position a frame is pushed over a saved environment
    /// (emitted before the inits) and popped back to it; in tail position
    /// the activation's environment is simply replaced.
    fn save_env(&mut self, tail: bool) {
        if !tail {
            self.code.emit(Insn::SaveEnv);
        }
    }

    /// Closes the frame of [`Analyzer::push_frame`].
    fn pop_frame(&mut self, tail: bool) {
        self.scopes.pop();
        if !tail {
            self.code.emit(Insn::RestoreEnv);
        }
    }

    fn global_site(&mut self, sym: Value) -> GlobalSite {
        let name: Rc<str> = Rc::from(self.it.heap.symbol_name(sym).as_str());
        GlobalSite {
            sym: self.it.heap.root(sym),
            name,
            cell: RefCell::new(None),
        }
    }

    // ------------------------------------------------------------------
    // Emission helpers
    // ------------------------------------------------------------------

    /// Ends a value push: in tail position, with a return.
    fn done(&mut self, tail: bool) -> SResult<()> {
        if tail {
            self.code.emit_return();
        }
        Ok(())
    }

    /// An immediate stays unrooted; heap data gets a rooted handle.
    fn constant(&mut self, v: Value, tail: bool) -> SResult<()> {
        if v.is_ptr() {
            let r = self.it.heap.root(v);
            self.code.konst(r)?;
        } else {
            self.code.imm(v)?;
        }
        self.done(tail)
    }

    fn void(&mut self, tail: bool) -> SResult<()> {
        self.constant(Value::VOID, tail)
    }

    /// Ends a non-tail branch with a jump to the join point (a tail
    /// branch has already returned).
    fn branch_end(&mut self, tail: bool) -> Option<usize> {
        (!tail).then(|| self.code.emit_jump(Insn::Jmp))
    }

    /// Binds a [`Analyzer::branch_end`] jump here.
    fn join(&mut self, at: Option<usize>) -> SResult<()> {
        match at {
            Some(at) => self.code.patch_here(at),
            None => Ok(()),
        }
    }

    /// Every form but the last for effect, the last in position; empty
    /// is void.
    fn seq(&mut self, items: &[Value], tail: bool) -> SResult<()> {
        let Some((&last, init)) = items.split_last() else {
            return self.void(tail);
        };
        for &item in init {
            self.analyze(item, false)?;
            self.code.emit(Insn::Pop);
        }
        self.analyze(last, tail)
    }

    /// Emits into a code object of its own (a lambda clause body or an
    /// unquote site), then resumes the current one.
    fn block(&mut self, emit: impl FnOnce(&mut Self) -> SResult<()>) -> SResult<Rc<CodeObject>> {
        let outer = std::mem::take(&mut self.code);
        emit(self)?;
        Ok(std::mem::replace(&mut self.code, outer).finish())
    }

    // ------------------------------------------------------------------
    // Entry
    // ------------------------------------------------------------------

    fn analyze(&mut self, form: Value, tail: bool) -> SResult<()> {
        if self.depth >= MAX_NESTING {
            return err("form nesting too deep");
        }
        self.depth += 1;
        self.analyze_inner(form, tail)?;
        self.depth -= 1;
        Ok(())
    }

    fn analyze_inner(&mut self, form: Value, tail: bool) -> SResult<()> {
        let heap = &self.it.heap;
        if !heap.is_pair(form) {
            if heap.is_symbol(form) {
                return self.analyze_var(form, tail);
            }
            return self.constant(form, tail);
        }
        let head = heap.car(form);
        if let Some(special) = self.special_form(head) {
            return special(self, form, tail);
        }
        // Application.
        self.analyze(head, false)?;
        let args = self.list_items(self.it.heap.cdr(form));
        for &a in &args {
            self.analyze(a, false)?;
        }
        self.code.emit_call(args.len(), tail)
    }

    /// The analyzer of the special form `head` names, if it names one.
    /// Special forms are resolved by symbol identity *before* the scope
    /// map is consulted: like the naive evaluator's, they are not
    /// shadowable by local bindings. The answer is a function pointer so
    /// that the recursion through `analyze_inner` keeps a small frame:
    /// deep nesting must fit [`MAX_NESTING`] levels in a 2 MiB stack,
    /// debug builds included.
    fn special_form(&self, head: Value) -> Option<SpecialForm<'a>> {
        if !self.it.heap.is_symbol(head) {
            return None;
        }
        let sf = &self.it.sf;
        let is = |name: &Rooted| head == name.get();
        let analyze: SpecialForm<'a> = if is(&sf.quote) {
            |a, form, tail| {
                let datum = a.nth(form, 1)?;
                a.constant(datum, tail)
            }
        } else if is(&sf.quasiquote) {
            |a, form, tail| {
                let template = a.nth(form, 1)?;
                a.analyze_quasiquote(template, tail)
            }
        } else if is(&sf.unquote) || is(&sf.unquote_splicing) {
            |_, _, _| err("unquote outside quasiquote")
        } else if is(&sf.iff) {
            Self::analyze_if
        } else if is(&sf.define) {
            Self::analyze_define
        } else if is(&sf.set) {
            Self::analyze_set
        } else if is(&sf.lambda) {
            |a, form, tail| {
                let params = a.nth(form, 1)?;
                let body = a.tail_from(form, 2);
                a.analyze_lambda(&[(params, body)], Value::FALSE, tail)
            }
        } else if is(&sf.case_lambda) {
            |a, form, tail| {
                let mut clauses = Vec::new();
                for c in a.list_items(a.it.heap.cdr(form)) {
                    clauses.push((a.scar(c)?, a.it.heap.cdr(c)));
                }
                a.analyze_lambda(&clauses, Value::FALSE, tail)
            }
        } else if is(&sf.begin) {
            |a, form, tail| a.analyze_body(a.it.heap.cdr(form), tail)
        } else if is(&sf.let_) {
            Self::analyze_let
        } else if is(&sf.let_star) {
            |a, form, tail| {
                let bindings = a.nth(form, 1)?;
                let body = a.tail_from(form, 2);
                a.analyze_let_star(bindings, body, tail)
            }
        } else if is(&sf.letrec) {
            Self::analyze_letrec
        } else if is(&sf.cond) {
            |a, form, tail| a.analyze_cond(a.it.heap.cdr(form), tail)
        } else if is(&sf.and) {
            |a, form, tail| a.analyze_and_or(form, true, tail)
        } else if is(&sf.or) {
            |a, form, tail| a.analyze_and_or(form, false, tail)
        } else if is(&sf.when) {
            |a, form, tail| a.analyze_when(form, true, tail)
        } else if is(&sf.unless) {
            |a, form, tail| a.analyze_when(form, false, tail)
        } else if is(&sf.case) {
            Self::analyze_case
        } else if is(&sf.do_) {
            Self::analyze_do
        } else if is(&sf.define_record_type) {
            |a, form, tail| {
                let forms = a.expand_define_record_type(form)?;
                a.seq(&forms, tail)
            }
        } else {
            return None;
        };
        Some(analyze)
    }

    fn analyze_set(&mut self, form: Value, tail: bool) -> SResult<()> {
        let target = self.nth(form, 1)?;
        let value = self.nth(form, 2)?;
        self.analyze(value, false)?;
        if !self.it.heap.is_symbol(target) {
            // The naive evaluator's set_var never finds a non-symbol in
            // any alist, so it reports an unbound variable through the
            // printer; malformed programs diverge by design — report a
            // clean syntax error here.
            return err("set!: bad target");
        }
        self.store(target, Insn::GlobalSet, tail)
    }

    fn analyze_var(&mut self, sym: Value, tail: bool) -> SResult<()> {
        match self.resolve_local(sym) {
            Some((depth, slot)) => {
                let name: Rc<str> = Rc::from(self.it.heap.symbol_name(sym).as_str());
                self.local(depth, slot, Some(name))?;
            }
            None => {
                let site = self.global_site(sym);
                self.code.global(Insn::GlobalRef, site)?;
            }
        }
        self.done(tail)
    }

    /// Stores the value just pushed into `sym`: a lexical `set!` when it
    /// resolves locally, else the global `op` (`set!` or define).
    fn store(&mut self, sym: Value, op: fn(u32) -> Insn, tail: bool) -> SResult<()> {
        match self.resolve_local(sym) {
            Some((depth, slot)) => self.local(depth, slot, None)?,
            None => {
                let site = self.global_site(sym);
                self.code.global(op, site)?;
            }
        }
        self.done(tail)
    }

    fn analyze_if(&mut self, form: Value, tail: bool) -> SResult<()> {
        let test = self.nth(form, 1)?;
        self.analyze(test, false)?;
        let to_else = self.code.emit_jump(Insn::JmpIfFalse);
        let then_form = self.nth(form, 2)?;
        self.analyze(then_form, tail)?;
        let to_end = self.branch_end(tail);
        self.code.patch_here(to_else)?;
        let rest = self.tail_from(form, 3);
        if rest.is_nil() {
            self.void(tail)?;
        } else {
            let e = self.scar(rest)?;
            self.analyze(e, tail)?;
        }
        self.join(to_end)
    }

    /// A top-level or body `define`. Inside bodies the enclosing
    /// `analyze_body` has already registered the name in the scope map,
    /// so it resolves locally; at top level it becomes a global define.
    fn analyze_define(&mut self, form: Value, tail: bool) -> SResult<()> {
        let target = self.nth(form, 1)?;
        let heap = &self.it.heap;
        if heap.is_symbol(target) {
            let value = self.nth(form, 2)?;
            self.analyze(value, false)?;
            return self.store(target, Insn::GlobalDefine, tail);
        }
        if heap.is_pair(target) {
            // (define (f . params) body...)
            let name = heap.car(target);
            let params = heap.cdr(target);
            let body = self.tail_from(form, 2);
            self.analyze_lambda(&[(params, body)], name, false)?;
            if !self.it.heap.is_symbol(name) {
                return err("define: bad target");
            }
            return self.store(name, Insn::GlobalDefine, tail);
        }
        err("define: bad target")
    }

    // ------------------------------------------------------------------
    // Bodies (define splicing and slot allocation)
    // ------------------------------------------------------------------

    /// Whether `form` is a `define` / `define-record-type`, or a `begin`
    /// that (recursively) contains one — those begins are spliced into
    /// the surrounding body, mirroring top-level semantics; a `begin`
    /// with no defines is left as an expression so `(begin)` in final
    /// position still evaluates to void.
    fn contains_defines(&self, form: Value) -> bool {
        let heap = &self.it.heap;
        if !heap.is_pair(form) {
            return false;
        }
        let head = heap.car(form);
        if !heap.is_symbol(head) {
            return false;
        }
        if head == self.it.sf.define.get() || head == self.it.sf.define_record_type.get() {
            return true;
        }
        if head == self.it.sf.begin.get() {
            let mut b = heap.cdr(form);
            while heap.is_pair(b) {
                if self.contains_defines(heap.car(b)) {
                    return true;
                }
                b = heap.cdr(b);
            }
        }
        false
    }

    /// A body's item list: define-carrying `begin`s spliced in and
    /// `define-record-type` expanded into its constituent defines.
    fn expand_body(&mut self, body: Value) -> SResult<Vec<Value>> {
        let mut items = Vec::new();
        self.expand_body_items(body, &mut items)?;
        Ok(items)
    }

    fn expand_body_items(&mut self, body: Value, out: &mut Vec<Value>) -> SResult<()> {
        for item in self.list_items(body) {
            let heap = &self.it.heap;
            if heap.is_pair(item) {
                let head = heap.car(item);
                if heap.is_symbol(head) {
                    if head == self.it.sf.begin.get() && self.contains_defines(item) {
                        let inner = self.it.heap.cdr(item);
                        self.expand_body_items(inner, out)?;
                        continue;
                    }
                    if head == self.it.sf.define_record_type.get() {
                        out.extend(self.expand_define_record_type(item)?);
                        continue;
                    }
                }
            }
            out.push(item);
        }
        Ok(())
    }

    /// The symbol a body item defines, if any.
    fn defined_name(&self, item: Value) -> Option<Value> {
        let heap = &self.it.heap;
        if !heap.is_pair(item) {
            return None;
        }
        let head = heap.car(item);
        if !heap.is_symbol(head) || head != self.it.sf.define.get() {
            return None;
        }
        let rest = heap.cdr(item);
        if !heap.is_pair(rest) {
            return None;
        }
        let target = heap.car(rest);
        if heap.is_symbol(target) {
            Some(target)
        } else if heap.is_pair(target) {
            let name = heap.car(target);
            heap.is_symbol(name).then_some(name)
        } else {
            None
        }
    }

    /// Appends the names `items` define to `frame`, each once: body
    /// defines extend the frame they appear in.
    fn add_defines(&self, frame: &mut Vec<Value>, items: &[Value]) {
        for &item in items {
            if let Some(name) = self.defined_name(item) {
                if !frame.contains(&name) {
                    frame.push(name);
                }
            }
        }
    }

    /// A body (the forms of a `begin`, a `cond`/`case`/`when` clause, or
    /// an empty-bindings `let*`). Defines get a fresh frame of their own
    /// — unless the scope map is empty, in which case this is top level
    /// and the defines are global, exactly as the naive evaluator's
    /// `define-into-current-env` gives.
    fn analyze_body(&mut self, body: Value, tail: bool) -> SResult<()> {
        let items = self.expand_body(body)?;
        let mut defines = Vec::new();
        self.add_defines(&mut defines, &items);
        if defines.is_empty() || self.scopes.is_empty() {
            return self.seq(&items, tail);
        }
        self.save_env(tail);
        self.push_frame(defines, 0)?;
        self.seq(&items, tail)?;
        self.pop_frame(tail);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lambda
    // ------------------------------------------------------------------

    /// A `lambda`/`case-lambda` of clauses `(params, body)`: the lambda
    /// joins `Interp::lambdas`, and a closure named `name` over the
    /// current environment is pushed.
    fn analyze_lambda(
        &mut self,
        clauses: &[(Value, Value)],
        name: Value,
        tail: bool,
    ) -> SResult<()> {
        let mut out = Vec::with_capacity(clauses.len());
        for &(params, body) in clauses {
            let heap = &self.it.heap;
            let mut frame = Vec::new();
            let mut p = params;
            while heap.is_pair(p) {
                frame.push(heap.car(p));
                p = heap.cdr(p);
            }
            let variadic = heap.is_symbol(p);
            if variadic {
                frame.push(p);
            }
            out.push(self.clause(frame, variadic, body, |a, items| a.seq(items, true))?);
        }
        let index = self.push_lambda(out);
        let name = self.it.heap.root(name);
        self.code.make_closure(index, name)?;
        self.done(tail)
    }

    /// One lambda clause over a frame of `params` (the rest parameter
    /// last when `variadic`), extended by the body's defines; `emit`
    /// writes the body, in tail position, into its own code object.
    fn clause(
        &mut self,
        mut frame: Vec<Value>,
        variadic: bool,
        body: Value,
        emit: impl FnOnce(&mut Self, &[Value]) -> SResult<()>,
    ) -> SResult<VmClause> {
        let n_req = frame.len() - usize::from(variadic);
        let items = self.expand_body(body)?;
        self.add_defines(&mut frame, &items);
        let n_slots = frame.len();
        self.scopes.push(frame);
        let body = self.block(|a| emit(a, &items))?;
        self.scopes.pop();
        Ok(VmClause {
            n_req,
            variadic,
            n_slots,
            body,
        })
    }

    /// Adds a finished lambda to the interpreter's table, after every
    /// lambda its body created; returns its index.
    fn push_lambda(&mut self, clauses: Vec<VmClause>) -> usize {
        self.it.lambdas.push(Rc::new(VmLambda { clauses }));
        self.it.lambdas.len() - 1
    }

    // ------------------------------------------------------------------
    // let / let* / letrec / named let / do
    // ------------------------------------------------------------------

    fn analyze_let(&mut self, form: Value, tail: bool) -> SResult<()> {
        let second = self.nth(form, 1)?;
        if self.it.heap.is_symbol(second) {
            return self.analyze_named_let(form, tail);
        }
        self.save_env(tail);
        let bindings = self.list_items(second);
        let mut names = Vec::with_capacity(bindings.len());
        for &b in &bindings {
            names.push(self.scar(b)?);
            let init = self.nth(b, 1)?;
            self.analyze(init, false)?;
        }
        let items = self.expand_body(self.tail_from(form, 2))?;
        self.add_defines(&mut names, &items);
        self.push_frame(names, bindings.len())?;
        self.seq(&items, tail)?;
        self.pop_frame(tail);
        Ok(())
    }

    fn analyze_let_star(&mut self, bindings: Value, body: Value, tail: bool) -> SResult<()> {
        if !self.it.heap.is_pair(bindings) {
            // No bindings left: the body in its own frame (for defines).
            return self.analyze_body(body, tail);
        }
        let binding = self.scar(bindings)?;
        let sym = self.scar(binding)?;
        let init = self.nth(binding, 1)?;
        self.save_env(tail);
        self.analyze(init, false)?;
        self.push_frame(vec![sym], 1)?;
        self.analyze_let_star(self.it.heap.cdr(bindings), body, tail)?;
        self.pop_frame(tail);
        Ok(())
    }

    fn analyze_letrec(&mut self, form: Value, tail: bool) -> SResult<()> {
        let bindings = self.list_items(self.nth(form, 1)?);
        let mut names = Vec::with_capacity(bindings.len());
        let mut inits = Vec::with_capacity(bindings.len());
        for &b in &bindings {
            names.push(self.scar(b)?);
            inits.push(self.nth(b, 1)?);
        }
        let items = self.expand_body(self.tail_from(form, 2))?;
        self.add_defines(&mut names, &items);
        self.save_env(tail);
        self.push_frame(names, 0)?;
        // Slot i gets init i, evaluated inside the new scope; each store
        // is one more form of the body.
        for (i, &init) in inits.iter().enumerate() {
            self.analyze(init, false)?;
            self.local(0, i, None)?;
            if i + 1 == inits.len() && items.is_empty() {
                self.done(tail)?;
            } else {
                self.code.emit(Insn::Pop);
            }
        }
        if !items.is_empty() || inits.is_empty() {
            self.seq(&items, tail)?;
        }
        self.pop_frame(tail);
        Ok(())
    }

    fn analyze_named_let(&mut self, form: Value, tail: bool) -> SResult<()> {
        let name = self.nth(form, 1)?;
        let bindings = self.list_items(self.nth(form, 2)?);
        let body = self.tail_from(form, 3);
        self.save_env(tail);
        // Inits are analyzed in the OUTER scope (before the loop-name
        // frame is pushed), matching the naive evaluator.
        let mut params = Vec::with_capacity(bindings.len());
        for &b in &bindings {
            params.push(self.scar(b)?);
            let init = self.nth(b, 1)?;
            self.analyze(init, false)?;
        }
        self.enter_loop(name, params, body, tail, |a, items| a.seq(items, true))
    }

    /// Emits a named-`let` loop entry on the inits already pushed: the
    /// loop lambda is one clause over `params`, analyzed under a one-slot
    /// scope frame holding the loop name — the runtime builds the
    /// matching one-slot frame holding the loop closure.
    fn enter_loop(
        &mut self,
        name: Value,
        params: Vec<Value>,
        body: Value,
        tail: bool,
        emit: impl FnOnce(&mut Self, &[Value]) -> SResult<()>,
    ) -> SResult<()> {
        let argc = params.len();
        self.scopes.push(vec![name]);
        let clause = self.clause(params, false, body, emit)?;
        self.scopes.pop();
        let index = self.push_lambda(vec![clause]);
        let name = self.it.heap.root(name);
        self.code.enter_loop(index, name, argc, tail)
    }

    /// `(do ([var init step] ...) (test result ...) body ...)`, emitted
    /// as the same named-let shape the naive evaluator desugars to:
    ///
    /// ```text
    /// (let loop ([var init] ...)
    ///   (if test (begin result...) (begin body... (loop step...))))
    /// ```
    ///
    /// The loop-name slot is an unmatchable marker (`#f`) — source code
    /// cannot name the gensym — and the recursion is a direct local
    /// reference to it.
    fn analyze_do(&mut self, form: Value, tail: bool) -> SResult<()> {
        let specs = self.list_items(self.nth(form, 1)?);
        let exit = self.nth(form, 2)?;
        let body = self.tail_from(form, 3);
        // The naive `do` desugar allocates a gensym per evaluation; keep
        // the counter in lockstep.
        self.code.emit(Insn::BumpGensym);
        self.save_env(tail);
        let mut vars = Vec::with_capacity(specs.len());
        let mut steps = Vec::with_capacity(specs.len());
        for &spec in &specs {
            let var = self.nth(spec, 0)?;
            let init = self.nth(spec, 1)?;
            let rest = self.tail_from(spec, 2);
            let step = if rest.is_nil() { var } else { self.scar(rest)? };
            vars.push(var);
            self.analyze(init, false)?;
            steps.push(step);
        }
        let test = self.scar(exit)?;
        let results = self.list_items(self.it.heap.cdr(exit));
        // Body defines extend the loop frame (the naive desugar's defines
        // land in the per-iteration call frame).
        self.enter_loop(Value::FALSE, vars, body, tail, |a, items| {
            a.analyze(test, false)?;
            let to_else = a.code.emit_jump(Insn::JmpIfFalse);
            a.seq(&results, true)?;
            a.code.patch_here(to_else)?;
            for &item in items {
                a.analyze(item, false)?;
                a.code.emit(Insn::Pop);
            }
            a.local(1, 0, Some(Rc::from("do-loop")))?;
            for &step in &steps {
                a.analyze(step, false)?;
            }
            a.code.emit_call(steps.len(), true)
        })
    }

    // ------------------------------------------------------------------
    // and / or / when / cond / case
    // ------------------------------------------------------------------

    /// `and`/`or`: short-circuit through keep-jumps to a common end; the
    /// empty forms are constants.
    fn analyze_and_or(&mut self, form: Value, is_and: bool, tail: bool) -> SResult<()> {
        let items = self.list_items(self.it.heap.cdr(form));
        let Some((&last, init)) = items.split_last() else {
            return self.constant(Value::bool(is_and), tail);
        };
        let jump: fn(u32) -> Insn = if is_and {
            Insn::JmpIfFalseKeep
        } else {
            Insn::JmpIfTrueKeep
        };
        let mut outs = Vec::with_capacity(init.len());
        for &e in init {
            self.analyze(e, false)?;
            outs.push(self.code.emit_jump(jump));
        }
        self.analyze(last, tail)?;
        for at in outs {
            self.code.patch_here(at)?;
        }
        if tail && !init.is_empty() {
            self.code.emit(Insn::Return);
        }
        Ok(())
    }

    /// `when` (`want` = true) / `unless` (`want` = false).
    fn analyze_when(&mut self, form: Value, want: bool, tail: bool) -> SResult<()> {
        let test = self.nth(form, 1)?;
        let body = self.tail_from(form, 2);
        self.analyze(test, false)?;
        let to_void = self.code.emit_jump(if want {
            Insn::JmpIfFalse
        } else {
            Insn::JmpIfTrue
        });
        self.analyze_body(body, tail)?;
        let to_end = self.branch_end(tail);
        self.code.patch_here(to_void)?;
        self.void(tail)?;
        self.join(to_end)
    }

    fn analyze_cond(&mut self, clauses: Value, tail: bool) -> SResult<()> {
        if clauses.is_nil() {
            return self.void(tail);
        }
        let clause = self.scar(clauses)?;
        let test = self.scar(clause)?;
        let rest = self.scdr(clauses)?;
        let body = self.it.heap.cdr(clause);
        if self.it.heap.is_symbol(test) && test == self.it.sf.else_.get() {
            return self.analyze_body(body, tail);
        }
        self.analyze(test, false)?;
        if body.is_nil() {
            // (test): the test's value, or fall through — an `or`.
            let out = self.code.emit_jump(Insn::JmpIfTrueKeep);
            self.analyze_cond(rest, tail)?;
            self.code.patch_here(out)?;
            if tail {
                self.code.emit(Insn::Return);
            }
            return Ok(());
        }
        let first = self.scar(body)?;
        if self.it.heap.is_symbol(first) && first == self.it.sf.arrow.get() {
            // (test => receiver): apply the receiver to the test's value,
            // non-tail like the naive evaluator.
            let to_rest = self.code.emit_jump(Insn::JmpIfFalsePop);
            let recv = self.nth(body, 1)?;
            self.analyze(recv, false)?;
            self.code.emit(Insn::CondApply);
            let to_end = if tail {
                self.code.emit(Insn::Return);
                None
            } else {
                Some(self.code.emit_jump(Insn::Jmp))
            };
            self.code.patch_here(to_rest)?;
            self.analyze_cond(rest, tail)?;
            return self.join(to_end);
        }
        let to_else = self.code.emit_jump(Insn::JmpIfFalse);
        self.analyze_body(body, tail)?;
        let to_end = self.branch_end(tail);
        self.code.patch_here(to_else)?;
        self.analyze_cond(rest, tail)?;
        self.join(to_end)
    }

    /// `(case key clauses...)`: the key stays on the stack through a
    /// `CaseMatch` per datum clause — every dispatch first, an `else` as
    /// a plain jump — and each body starts by popping it.
    fn analyze_case(&mut self, form: Value, tail: bool) -> SResult<()> {
        let key = self.nth(form, 1)?;
        self.analyze(key, false)?;
        let mut arms = Vec::new();
        let mut c = self.tail_from(form, 2);
        while !c.is_nil() {
            let clause = self.scar(c)?;
            let head = self.scar(clause)?;
            let body = self.it.heap.cdr(clause);
            if self.it.heap.is_symbol(head) && head == self.it.sf.else_.get() {
                // The naive evaluator stops at the first else clause.
                arms.push((self.code.emit_jump(Insn::Jmp), body));
                break;
            }
            let datums = self.it.heap.root(head);
            arms.push((self.code.case_match(datums)?, body));
            c = self.scdr(c)?;
        }
        // No clause matched: drop the key, produce void.
        self.code.emit(Insn::Pop);
        self.void(tail)?;
        let mut to_end: Vec<usize> = self.branch_end(tail).into_iter().collect();
        for (at, body) in arms {
            self.code.patch_here(at)?;
            self.code.emit(Insn::Pop);
            self.analyze_body(body, tail)?;
            to_end.extend(self.branch_end(tail));
        }
        for at in to_end {
            self.code.patch_here(at)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // define-record-type
    // ------------------------------------------------------------------

    /// Expands `define-record-type` to plain defines over the `%record`
    /// primitives (the same shape the naive evaluator builds closures
    /// for directly). The descriptor is a fresh uninterned symbol made
    /// at *run* time by `%fresh-symbol`, so each evaluation creates a
    /// distinct, eq-unique type — exactly like the naive path.
    fn expand_define_record_type(&mut self, form: Value) -> SResult<Vec<Value>> {
        let name = self.nth(form, 1)?;
        let pred_name = self.nth(form, 3)?;
        if !self.it.heap.is_symbol(name) || !self.it.heap.is_symbol(pred_name) {
            return err("define-record-type: malformed");
        }
        let ctor_spec = self.nth(form, 2)?;
        let ctor_name = self.scar(ctor_spec)?;
        let ctor_args = self.list_items(self.it.heap.cdr(ctor_spec));
        let field_specs = self.list_items(self.tail_from(form, 4));
        let mut fields: Vec<Value> = Vec::new();
        let mut accessors: Vec<(Value, usize)> = Vec::new();
        let mut mutators: Vec<(Value, usize)> = Vec::new();
        for spec in field_specs {
            let field = self.scar(spec)?;
            let idx = fields.len();
            fields.push(field);
            let rest = self.scdr(spec)?;
            if self.it.heap.is_pair(rest) {
                accessors.push((self.it.heap.car(rest), idx));
                let rest2 = self.it.heap.cdr(rest);
                if self.it.heap.is_pair(rest2) {
                    mutators.push((self.it.heap.car(rest2), idx));
                }
            }
        }
        let define = self.it.sf.define.get();
        let quote = self.it.sf.quote.get();
        let fresh = self.it.intern("%fresh-symbol");
        let make_rec = self.it.intern("%make-record");
        let of_type = self.it.intern("%record-of-type?");
        let rec_ref = self.it.intern("%record-ref");
        let rec_set = self.it.intern("%record-set!");
        let obj_sym = self.it.intern("%obj");
        let val_sym = self.it.intern("%val");
        let heap = &mut self.it.heap;
        let mut out = Vec::new();
        // (define Name (%fresh-symbol 'Name))
        {
            let quoted = list2(heap, quote, name);
            let call = list2(heap, fresh, quoted);
            out.push(list3(heap, define, name, call));
        }
        // (define (ctor args...) (%make-record Name field-or-#f ...))
        {
            let mut call = Value::NIL;
            for f in fields.iter().rev() {
                let arg = if ctor_args.contains(f) {
                    *f
                } else {
                    Value::FALSE
                };
                call = heap.cons(arg, call);
            }
            call = heap.cons(name, call);
            call = heap.cons(make_rec, call);
            let mut target = Value::NIL;
            for a in ctor_args.iter().rev() {
                target = heap.cons(*a, target);
            }
            target = heap.cons(ctor_name, target);
            out.push(list3(heap, define, target, call));
        }
        // (define (pred %obj) (%record-of-type? %obj Name))
        {
            let call = list3(heap, of_type, obj_sym, name);
            let target = list2(heap, pred_name, obj_sym);
            out.push(list3(heap, define, target, call));
        }
        for (acc_name, idx) in accessors {
            let call = {
                let t = heap.cons(Value::fixnum(idx as i64), Value::NIL);
                let t = heap.cons(name, t);
                let t = heap.cons(obj_sym, t);
                heap.cons(rec_ref, t)
            };
            let target = list2(heap, acc_name, obj_sym);
            out.push(list3(heap, define, target, call));
        }
        for (mut_name, idx) in mutators {
            let call = {
                let t = heap.cons(val_sym, Value::NIL);
                let t = heap.cons(Value::fixnum(idx as i64), t);
                let t = heap.cons(name, t);
                let t = heap.cons(obj_sym, t);
                heap.cons(rec_set, t)
            };
            let target = list3(heap, mut_name, obj_sym, val_sym);
            out.push(list3(heap, define, target, call));
        }
        // Root the expansion on the interpreter stack? Not needed: the
        // analyzer performs no collection, and the produced forms are
        // consumed immediately by `analyze`, which roots any quoted data
        // it keeps.
        Ok(out)
    }

    // ------------------------------------------------------------------
    // quasiquote
    // ------------------------------------------------------------------

    /// Emits each `unquote`/`unquote-splicing` expression of a template
    /// as a code object of its own, in the exact order the runtime
    /// expansion walk reaches them, in the current scope. The runtime
    /// `Quasi` executor performs the same walk, consuming sites by cursor.
    fn analyze_quasiquote(&mut self, template: Value, tail: bool) -> SResult<()> {
        let mut sites = Vec::new();
        self.qq_collect(template, 1, &mut sites)?;
        let template = self.it.heap.root(template);
        self.code.quasi(template, sites)?;
        self.done(tail)
    }

    fn qq_collect(
        &mut self,
        template: Value,
        depth: usize,
        sites: &mut Vec<Rc<CodeObject>>,
    ) -> SResult<()> {
        if self.depth >= MAX_NESTING {
            return err("quasiquote nesting too deep");
        }
        self.depth += 1;
        let r = self.qq_collect_inner(template, depth, sites);
        self.depth -= 1;
        r
    }

    fn qq_collect_inner(
        &mut self,
        template: Value,
        depth: usize,
        sites: &mut Vec<Rc<CodeObject>>,
    ) -> SResult<()> {
        let heap = &self.it.heap;
        if heap.is_vector(template) {
            for i in 0..self.it.heap.vector_len(template) {
                let e = self.it.heap.vector_ref(template, i);
                self.qq_collect(e, depth, sites)?;
            }
            return Ok(());
        }
        if !heap.is_pair(template) {
            return Ok(());
        }
        let head = heap.car(template);
        if heap.is_symbol(head) {
            if head == self.it.sf.unquote.get() {
                let inner = self.nth(template, 1)?;
                if depth == 1 {
                    sites.push(self.block(|a| a.analyze(inner, true))?);
                    return Ok(());
                }
                return self.qq_collect(inner, depth - 1, sites);
            }
            if head == self.it.sf.quasiquote.get() {
                let inner = self.nth(template, 1)?;
                return self.qq_collect(inner, depth + 1, sites);
            }
        }
        // General list walk, mirroring expand_quasiquote_inner.
        let mut rest = template;
        loop {
            if rest.is_nil() {
                return Ok(());
            }
            if !self.it.heap.is_pair(rest) {
                return self.qq_collect(rest, depth, sites);
            }
            let rest_head = self.it.heap.car(rest);
            if self.it.heap.is_symbol(rest_head)
                && (rest_head == self.it.sf.unquote.get()
                    || rest_head == self.it.sf.quasiquote.get())
            {
                return self.qq_collect(rest, depth, sites);
            }
            let e = self.it.heap.car(rest);
            let is_splice = depth == 1
                && self.it.heap.is_pair(e)
                && self.it.heap.is_symbol(self.it.heap.car(e))
                && self.it.heap.car(e) == self.it.sf.unquote_splicing.get();
            if is_splice {
                let inner = self.nth(e, 1)?;
                sites.push(self.block(|a| a.analyze(inner, true))?);
            } else {
                self.qq_collect(e, depth, sites)?;
            }
            rest = self.it.heap.cdr(rest);
        }
    }
}

/// `(a b)` as a heap list.
fn list2(heap: &mut guardians_gc::Heap, a: Value, b: Value) -> Value {
    let t = heap.cons(b, Value::NIL);
    heap.cons(a, t)
}

/// `(a b c)` as a heap list.
fn list3(heap: &mut guardians_gc::Heap, a: Value, b: Value, c: Value) -> Value {
    let t = heap.cons(c, Value::NIL);
    let t = heap.cons(b, t);
    heap.cons(a, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two frame-slot checks refuse forged layouts by name: a
    /// lexical address outside the live scope stack, and a frame with
    /// more inits than slots. In-range addresses emit.
    #[test]
    fn frame_slot_check_refuses_forged_addresses() {
        let mut it = Interp::new();
        let x = it.intern("x");
        let mut a = Analyzer {
            it: &mut it,
            scopes: vec![vec![x, x], vec![x]],
            depth: 0,
            code: Emitter::default(),
        };
        a.local(0, 0, Some(Rc::from("x")))
            .expect("slot 0 of the inner frame");
        a.local(1, 1, None).expect("slot 1 of the outer frame");
        for (depth, slot, name, expected) in [
            (
                0,
                1,
                Some("x"),
                "slot 1 outside its frame's 1 slots at depth 0",
            ),
            (1, 2, None, "slot 2 outside its frame's 2 slots at depth 1"),
            (2, 0, None, "depth 2 escapes the 2 frames in scope"),
        ] {
            let e = a.local(depth, slot, name.map(Rc::from)).unwrap_err();
            assert_eq!(e.message(), format!("frame-slot check: {expected}"));
        }
        let e = a.push_frame(vec![x], 2).unwrap_err();
        assert_eq!(
            e.message(),
            "frame-slot check: 2 inits for a frame of 1 slots"
        );
        a.push_frame(vec![x, x], 1).expect("one init, two slots");
    }

    /// The analyzer's own guard, on forms built past the reader:
    /// `(+ 1 (+ 1 … 0))` analyzes 999 levels deep and refuses 1000.
    #[test]
    fn analysis_refuses_forms_nested_past_the_bound() {
        let mut it = Interp::new();
        let plus = it.intern("+");
        let mut form = Value::fixnum(0);
        for depth in 1..=1000 {
            let heap = &mut it.heap;
            let args = heap.cons(form, Value::NIL);
            let args = heap.cons(Value::fixnum(1), args);
            form = heap.cons(plus, args);
            if depth == 999 {
                assert!(analyze_top(&mut it, form).is_ok());
            }
        }
        let e = analyze_top(&mut it, form).err().expect("past the bound");
        assert_eq!(e.message(), "form nesting too deep");
    }
}
