//! One-time syntax analysis: the front half of the production evaluator.
//!
//! `analyze_top` walks a top-level form once and produces an opcode tree
//! ([`Code`]) in which every special form has been resolved to an enum
//! variant, every local variable reference has been replaced by a
//! `(frame depth, slot)` pair against a compile-time scope map, and every
//! global reference goes through the symbol's interned value cell with a
//! one-entry inline cache at the reference site. `compile.rs` lowers the
//! tree to bytecode and `vm.rs` runs it without ever re-inspecting source
//! syntax — the cost of parsing special forms, walking binding lists,
//! and searching association-list environments is paid once per form
//! instead of once per evaluation.
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

use crate::error::{err, SResult};
use crate::interp::Interp;
use guardians_gc::{Rooted, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared handle to an analyzed code node.
pub(crate) type CodeRef = Rc<Code>;

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

/// Analyzed code for one `lambda`/`case-lambda`, stored in the
/// interpreter's code table; compiled-closure records refer to it by
/// index so closures stay ordinary heap values.
pub(crate) struct LambdaCode {
    /// One entry per clause, tried in order (a plain `lambda` has one).
    pub clauses: Vec<ClauseCode>,
}

/// One clause of an analyzed lambda.
pub(crate) struct ClauseCode {
    /// Number of required (positional) parameters.
    pub n_req: usize,
    /// Whether a rest parameter follows the required ones.
    pub variadic: bool,
    /// Total frame slots: parameters, rest, then body `define`s.
    pub n_slots: usize,
    /// The clause body as a single code node.
    pub body: CodeRef,
}

/// One clause of an analyzed `case`.
pub(crate) struct CaseClause {
    /// The datum list to `eqv?` the key against; `None` for `else`.
    pub datums: Option<Rooted>,
    /// The clause body.
    pub body: CodeRef,
}

/// The opcode tree. Every variant holds pre-resolved operands; nothing
/// here requires walking source syntax at execution time.
pub(crate) enum Code {
    /// A self-evaluating immediate (fixnum, boolean, char, ...).
    Imm(Value),
    /// A heap constant (quoted data, literal strings), kept rooted.
    Const(Rooted),
    /// A lexical variable: `depth` frames out, slot `slot`.
    LocalRef {
        /// Frames to walk outward from the current environment.
        depth: usize,
        /// Slot index within that frame.
        slot: usize,
        /// Name for "used before initialization" errors.
        name: Rc<str>,
    },
    /// A global variable through its interned value cell.
    GlobalRef(Rc<GlobalSite>),
    /// `set!` of a lexical variable (evaluates to void).
    LocalSet {
        /// Frames to walk outward.
        depth: usize,
        /// Slot index within that frame.
        slot: usize,
        /// The value expression.
        value: CodeRef,
    },
    /// `set!` of a global variable.
    GlobalSet {
        /// The reference site (with inline cache).
        site: Rc<GlobalSite>,
        /// The value expression.
        value: CodeRef,
    },
    /// Top-level `define`: evaluate, then bind the global cell.
    GlobalDefine {
        /// The reference site (with inline cache).
        site: Rc<GlobalSite>,
        /// The value expression.
        value: CodeRef,
    },
    /// `(if test then [else])`.
    If {
        /// The condition.
        test: CodeRef,
        /// Taken when the condition is truthy.
        then_: CodeRef,
        /// Taken otherwise; `None` evaluates to void.
        else_: Option<CodeRef>,
    },
    /// A `lambda`/`case-lambda`: builds a compiled closure over the
    /// current environment from the code table entry at `index`.
    Lambda {
        /// Index into the interpreter's code table.
        index: usize,
        /// The procedure's name (a rooted symbol, or `#f`).
        name: Rooted,
    },
    /// A sequence; empty evaluates to void, last form is in tail position.
    Seq(Vec<CodeRef>),
    /// `(let ([x e] ...) body)` and `letrec` (with empty `inits`): make a
    /// fresh frame of `n_slots` slots, fill from `inits` evaluated in the
    /// *outer* environment, run `body` in the extended environment.
    Let {
        /// Slot count of the new frame.
        n_slots: usize,
        /// Init expressions (outer scope); slots beyond them start
        /// `UNBOUND` (letrec-style).
        inits: Vec<CodeRef>,
        /// The body, in the extended environment.
        body: CodeRef,
    },
    /// Named `let` (and the `do` desugar): allocate the loop closure and
    /// tail-call it on the evaluated `args`.
    NamedLet {
        /// Code-table index of the loop lambda.
        index: usize,
        /// The loop name (rooted symbol, or `#f` for `do`).
        name: Rooted,
        /// The init expressions, evaluated in the outer environment.
        args: Vec<CodeRef>,
        /// Whether to bump the interpreter's gensym counter first (the
        /// naive `do` desugar allocates a gensym per evaluation; the VM's
        /// `do` must keep the counter in lockstep).
        bump_gensym: bool,
    },
    /// `(and e ...)`; empty is folded to `Imm(#t)` at analysis time.
    And(Vec<CodeRef>),
    /// `(or e ...)`; empty is folded to `Imm(#f)` at analysis time.
    Or(Vec<CodeRef>),
    /// `when` (`want` = true) / `unless` (`want` = false).
    When {
        /// The condition.
        test: CodeRef,
        /// The truthiness that runs the body.
        want: bool,
        /// The body sequence.
        body: CodeRef,
    },
    /// A `cond` clause of the form `(test => receiver)`: if `test` is
    /// truthy, apply the receiver to its value (non-tail, matching the
    /// naive evaluator); otherwise continue with `rest`.
    CondArrow {
        /// The condition.
        test: CodeRef,
        /// The receiver expression.
        recv: CodeRef,
        /// The remaining clauses.
        rest: CodeRef,
    },
    /// `(case key clauses...)` with pre-split datum lists.
    Case {
        /// The key expression.
        key: CodeRef,
        /// The clauses, in order; an `else` clause always matches.
        clauses: Vec<CaseClause>,
    },
    /// A procedure application.
    App {
        /// The operator expression.
        op: CodeRef,
        /// The operand expressions.
        args: Vec<CodeRef>,
    },
    /// A quasiquote template with its unquote sites pre-analyzed, in the
    /// order the runtime walk reaches them.
    Quasi {
        /// The (rooted) template datum.
        template: Rooted,
        /// Analyzed `unquote`/`unquote-splicing` expressions.
        sites: Vec<CodeRef>,
    },
}

/// Analyzes one top-level form. Defines at top level become
/// [`Code::GlobalDefine`]; everything else is an expression in the empty
/// lexical scope.
pub(crate) fn analyze_top(it: &mut Interp, form: Value) -> SResult<CodeRef> {
    let mut a = Analyzer {
        it,
        scopes: Vec::new(),
        depth: 0,
    };
    a.analyze(form)
}

/// Maximum analysis nesting; guards the Rust stack against
/// pathologically deep source forms.
const MAX_ANALYZE_DEPTH: usize = 1000;

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
    // Scope map
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

    fn global_site(&mut self, sym: Value) -> Rc<GlobalSite> {
        let name: Rc<str> = Rc::from(self.it.heap.symbol_name(sym).as_str());
        Rc::new(GlobalSite {
            sym: self.it.heap.root(sym),
            name,
            cell: RefCell::new(None),
        })
    }

    /// An immediate stays unrooted; heap data gets a rooted handle.
    fn constant(&mut self, v: Value) -> CodeRef {
        if v.is_ptr() {
            Rc::new(Code::Const(self.it.heap.root(v)))
        } else {
            Rc::new(Code::Imm(v))
        }
    }

    // ------------------------------------------------------------------
    // Entry
    // ------------------------------------------------------------------

    fn analyze(&mut self, form: Value) -> SResult<CodeRef> {
        if self.depth >= MAX_ANALYZE_DEPTH {
            return err("form nesting too deep");
        }
        self.depth += 1;
        let r = self.analyze_inner(form);
        self.depth -= 1;
        r
    }

    fn analyze_inner(&mut self, form: Value) -> SResult<CodeRef> {
        let heap = &self.it.heap;
        if !heap.is_pair(form) {
            if heap.is_symbol(form) {
                return self.analyze_var(form);
            }
            return Ok(self.constant(form));
        }
        let head = heap.car(form);
        if heap.is_symbol(head) {
            // Special forms are resolved by symbol identity *before* the
            // scope map is consulted: like the naive evaluator, they are
            // not shadowable by local bindings.
            let sf = &self.it.sf;
            if head == sf.quote.get() {
                let datum = self.nth(form, 1)?;
                return Ok(self.constant(datum));
            }
            if head == sf.quasiquote.get() {
                let template = self.nth(form, 1)?;
                return self.analyze_quasiquote(template);
            }
            if head == sf.unquote.get() || head == sf.unquote_splicing.get() {
                return err("unquote outside quasiquote");
            }
            if head == sf.iff.get() {
                return self.analyze_if(form);
            }
            if head == sf.define.get() {
                return self.analyze_define(form);
            }
            if head == sf.set.get() {
                return self.analyze_set(form);
            }
            if head == sf.lambda.get() {
                let params = self.nth(form, 1)?;
                let body = self.tail_from(form, 2);
                let clause = vec![(params, body)];
                let index = self.analyze_lambda_clauses(&clause)?;
                let name = self.it.heap.root(Value::FALSE);
                return Ok(Rc::new(Code::Lambda { index, name }));
            }
            if head == sf.case_lambda.get() {
                let mut clauses = Vec::new();
                for c in self.list_items(self.it.heap.cdr(form)) {
                    let params = self.scar(c)?;
                    let body = self.it.heap.cdr(c);
                    clauses.push((params, body));
                }
                let index = self.analyze_lambda_clauses(&clauses)?;
                let name = self.it.heap.root(Value::FALSE);
                return Ok(Rc::new(Code::Lambda { index, name }));
            }
            if head == sf.begin.get() {
                let body = self.it.heap.cdr(form);
                return self.analyze_body(body);
            }
            if head == sf.let_.get() {
                return self.analyze_let(form);
            }
            if head == sf.let_star.get() {
                let bindings = self.nth(form, 1)?;
                let body = self.tail_from(form, 2);
                return self.analyze_let_star(bindings, body);
            }
            if head == sf.letrec.get() {
                return self.analyze_letrec(form);
            }
            if head == sf.cond.get() {
                let clauses = self.it.heap.cdr(form);
                return self.analyze_cond(clauses);
            }
            if head == sf.and.get() || head == sf.or.get() {
                let is_and = head == sf.and.get();
                let items = self.list_items(self.it.heap.cdr(form));
                if items.is_empty() {
                    return Ok(Rc::new(Code::Imm(Value::bool(is_and))));
                }
                let mut parts = Vec::with_capacity(items.len());
                for e in items {
                    parts.push(self.analyze(e)?);
                }
                return Ok(Rc::new(if is_and {
                    Code::And(parts)
                } else {
                    Code::Or(parts)
                }));
            }
            if head == sf.when.get() || head == sf.unless.get() {
                let want = head == sf.when.get();
                let test = self.nth(form, 1)?;
                let body = self.tail_from(form, 2);
                let test = self.analyze(test)?;
                let body = self.analyze_body(body)?;
                return Ok(Rc::new(Code::When { test, want, body }));
            }
            if head == sf.case.get() {
                return self.analyze_case(form);
            }
            if head == sf.do_.get() {
                return self.analyze_do(form);
            }
            if head == sf.define_record_type.get() {
                let forms = self.expand_define_record_type(form)?;
                let mut parts = Vec::with_capacity(forms.len());
                for f in forms {
                    parts.push(self.analyze(f)?);
                }
                return Ok(Rc::new(Code::Seq(parts)));
            }
        }
        // Application.
        let op = self.analyze(head)?;
        let arg_forms = self.list_items(self.it.heap.cdr(form));
        let mut args = Vec::with_capacity(arg_forms.len());
        for a in arg_forms {
            args.push(self.analyze(a)?);
        }
        Ok(Rc::new(Code::App { op, args }))
    }

    fn analyze_var(&mut self, sym: Value) -> SResult<CodeRef> {
        if let Some((depth, slot)) = self.resolve_local(sym) {
            let name: Rc<str> = Rc::from(self.it.heap.symbol_name(sym).as_str());
            return Ok(Rc::new(Code::LocalRef { depth, slot, name }));
        }
        let site = self.global_site(sym);
        Ok(Rc::new(Code::GlobalRef(site)))
    }

    fn analyze_if(&mut self, form: Value) -> SResult<CodeRef> {
        let test = self.nth(form, 1)?;
        let test = self.analyze(test)?;
        let then_form = self.nth(form, 2)?;
        let then_ = self.analyze(then_form)?;
        let rest = self.tail_from(form, 3);
        let else_ = if rest.is_nil() {
            None
        } else {
            let e = self.scar(rest)?;
            Some(self.analyze(e)?)
        };
        Ok(Rc::new(Code::If { test, then_, else_ }))
    }

    fn analyze_set(&mut self, form: Value) -> SResult<CodeRef> {
        let target = self.nth(form, 1)?;
        let value_form = self.nth(form, 2)?;
        let value = self.analyze(value_form)?;
        if !self.it.heap.is_symbol(target) {
            // The naive evaluator's set_var never finds a non-symbol in
            // any alist, so it reports an unbound variable through the
            // printer; malformed programs diverge by design — report a
            // clean syntax error here.
            return err("set!: bad target");
        }
        if let Some((depth, slot)) = self.resolve_local(target) {
            return Ok(Rc::new(Code::LocalSet { depth, slot, value }));
        }
        let site = self.global_site(target);
        Ok(Rc::new(Code::GlobalSet { site, value }))
    }

    /// A top-level or body `define`. Inside bodies the enclosing
    /// `analyze_body` has already registered the name in the scope map,
    /// so it resolves locally; at top level it becomes a global define.
    fn analyze_define(&mut self, form: Value) -> SResult<CodeRef> {
        let target = self.nth(form, 1)?;
        let heap = &self.it.heap;
        if heap.is_symbol(target) {
            let value_form = self.nth(form, 2)?;
            let value = self.analyze(value_form)?;
            return self.finish_define(target, value);
        }
        if heap.is_pair(target) {
            // (define (f . params) body...)
            let name = heap.car(target);
            let params = heap.cdr(target);
            let body = self.tail_from(form, 2);
            let clause = vec![(params, body)];
            let index = self.analyze_lambda_clauses(&clause)?;
            let rooted_name = self.it.heap.root(name);
            let value = Rc::new(Code::Lambda {
                index,
                name: rooted_name,
            });
            if !self.it.heap.is_symbol(name) {
                return err("define: bad target");
            }
            return self.finish_define(name, value);
        }
        err("define: bad target")
    }

    fn finish_define(&mut self, sym: Value, value: CodeRef) -> SResult<CodeRef> {
        if let Some((depth, slot)) = self.resolve_local(sym) {
            return Ok(Rc::new(Code::LocalSet { depth, slot, value }));
        }
        let site = self.global_site(sym);
        Ok(Rc::new(Code::GlobalDefine { site, value }))
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

    /// Expands a body item list: splices define-carrying `begin`s and
    /// expands `define-record-type` into its constituent defines.
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

    /// Analyzes a body (the forms of a `begin`, a `cond`/`case`/`when`
    /// clause, or an empty-bindings `let*`). Defines get a fresh frame of
    /// their own (a `Let` with zero inits) — unless the scope map is
    /// empty, in which case this is top level and the defines are global,
    /// exactly as the naive evaluator's `define-into-current-env` gives.
    fn analyze_body(&mut self, body: Value) -> SResult<CodeRef> {
        let mut items = Vec::new();
        self.expand_body_items(body, &mut items)?;
        let defines: Vec<Value> = {
            let mut names = Vec::new();
            for &it_form in &items {
                if let Some(name) = self.defined_name(it_form) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
            names
        };
        if defines.is_empty() || self.scopes.is_empty() {
            let mut parts = Vec::with_capacity(items.len());
            for item in items {
                parts.push(self.analyze(item)?);
            }
            return Ok(seq_of(parts));
        }
        // Wrap in a fresh frame holding the defined names.
        self.scopes.push(defines.clone());
        let result = (|| {
            let mut parts = Vec::with_capacity(items.len());
            for item in items {
                parts.push(self.analyze(item)?);
            }
            Ok(seq_of(parts))
        })();
        self.scopes.pop();
        let body = result?;
        Ok(Rc::new(Code::Let {
            n_slots: defines.len(),
            inits: Vec::new(),
            body,
        }))
    }

    // ------------------------------------------------------------------
    // Lambda
    // ------------------------------------------------------------------

    /// Analyzes lambda clauses `(params, body)` and registers a
    /// [`LambdaCode`] in the interpreter's code table, returning its
    /// index.
    fn analyze_lambda_clauses(&mut self, clauses: &[(Value, Value)]) -> SResult<usize> {
        let mut out = Vec::with_capacity(clauses.len());
        for &(params, body) in clauses {
            out.push(self.analyze_clause(params, body)?);
        }
        let index = self.it.code_tab.len();
        self.it.code_tab.push(Rc::new(LambdaCode { clauses: out }));
        Ok(index)
    }

    fn analyze_clause(&mut self, params: Value, body: Value) -> SResult<ClauseCode> {
        let heap = &self.it.heap;
        let mut frame: Vec<Value> = Vec::new();
        let mut p = params;
        while heap.is_pair(p) {
            frame.push(heap.car(p));
            p = heap.cdr(p);
        }
        let n_req = frame.len();
        let variadic = heap.is_symbol(p);
        if variadic {
            frame.push(p);
        }
        // Body defines extend the same frame after the parameters.
        let mut items = Vec::new();
        self.expand_body_items(body, &mut items)?;
        for &item in &items {
            if let Some(name) = self.defined_name(item) {
                if !frame.contains(&name) {
                    frame.push(name);
                }
            }
        }
        let n_slots = frame.len();
        self.scopes.push(frame);
        let result = (|| {
            let mut parts = Vec::with_capacity(items.len());
            for item in items {
                parts.push(self.analyze(item)?);
            }
            Ok(seq_of(parts))
        })();
        self.scopes.pop();
        Ok(ClauseCode {
            n_req,
            variadic,
            n_slots,
            body: result?,
        })
    }

    // ------------------------------------------------------------------
    // let / let* / letrec / named let / do
    // ------------------------------------------------------------------

    fn analyze_let(&mut self, form: Value) -> SResult<CodeRef> {
        let second = self.nth(form, 1)?;
        if self.it.heap.is_symbol(second) {
            return self.analyze_named_let(form);
        }
        let bindings = self.list_items(second);
        let mut names = Vec::with_capacity(bindings.len());
        let mut inits = Vec::with_capacity(bindings.len());
        for b in &bindings {
            let sym = self.scar(*b)?;
            let init = self.nth(*b, 1)?;
            names.push(sym);
            inits.push(self.analyze(init)?);
        }
        let body = self.tail_from(form, 2);
        // Body defines extend the let frame.
        let mut items = Vec::new();
        self.expand_body_items(body, &mut items)?;
        for &item in &items {
            if let Some(name) = self.defined_name(item) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        let n_slots = names.len();
        self.scopes.push(names);
        let result = (|| {
            let mut parts = Vec::with_capacity(items.len());
            for item in items {
                parts.push(self.analyze(item)?);
            }
            Ok(seq_of(parts))
        })();
        self.scopes.pop();
        Ok(Rc::new(Code::Let {
            n_slots,
            inits,
            body: result?,
        }))
    }

    fn analyze_let_star(&mut self, bindings: Value, body: Value) -> SResult<CodeRef> {
        if !self.it.heap.is_pair(bindings) {
            // No bindings left: the body in its own frame (for defines).
            return self.analyze_body(body);
        }
        let binding = self.scar(bindings)?;
        let sym = self.scar(binding)?;
        let init = self.nth(binding, 1)?;
        let init = self.analyze(init)?;
        let rest = self.it.heap.cdr(bindings);
        self.scopes.push(vec![sym]);
        let result = self.analyze_let_star(rest, body);
        self.scopes.pop();
        Ok(Rc::new(Code::Let {
            n_slots: 1,
            inits: vec![init],
            body: result?,
        }))
    }

    fn analyze_letrec(&mut self, form: Value) -> SResult<CodeRef> {
        let bindings = self.list_items(self.nth(form, 1)?);
        let mut names = Vec::with_capacity(bindings.len());
        let mut init_forms = Vec::with_capacity(bindings.len());
        for b in &bindings {
            names.push(self.scar(*b)?);
            init_forms.push(self.nth(*b, 1)?);
        }
        let body = self.tail_from(form, 2);
        let mut items = Vec::new();
        self.expand_body_items(body, &mut items)?;
        for &item in &items {
            if let Some(name) = self.defined_name(item) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        let n_binds = bindings.len();
        let n_slots = names.len();
        self.scopes.push(names);
        let result = (|| {
            let mut parts = Vec::with_capacity(n_binds + items.len());
            // Slot i gets init i, evaluated inside the new scope.
            for (i, init_form) in init_forms.into_iter().enumerate() {
                let value = self.analyze(init_form)?;
                parts.push(Rc::new(Code::LocalSet {
                    depth: 0,
                    slot: i,
                    value,
                }));
            }
            for item in items {
                parts.push(self.analyze(item)?);
            }
            Ok(seq_of(parts))
        })();
        self.scopes.pop();
        Ok(Rc::new(Code::Let {
            n_slots,
            inits: Vec::new(),
            body: result?,
        }))
    }

    fn analyze_named_let(&mut self, form: Value) -> SResult<CodeRef> {
        let name = self.nth(form, 1)?;
        let bindings = self.list_items(self.nth(form, 2)?);
        let body = self.tail_from(form, 3);
        let mut params = Vec::with_capacity(bindings.len());
        let mut args = Vec::with_capacity(bindings.len());
        // Inits are analyzed in the OUTER scope (before the loop-name
        // frame is pushed), matching the naive evaluator.
        for b in &bindings {
            params.push(self.scar(*b)?);
            let init = self.nth(*b, 1)?;
            args.push(self.analyze(init)?);
        }
        let index = self.analyze_loop_lambda(name, &params, body)?;
        let rooted_name = self.it.heap.root(name);
        Ok(Rc::new(Code::NamedLet {
            index,
            name: rooted_name,
            args,
            bump_gensym: false,
        }))
    }

    /// Analyzes the loop lambda of a named `let`/`do` under a one-slot
    /// scope frame holding the loop name, and registers it in the code
    /// table. The runtime builds the matching one-slot name frame.
    fn analyze_loop_lambda(
        &mut self,
        name: Value,
        params: &[Value],
        body: Value,
    ) -> SResult<usize> {
        self.scopes.push(vec![name]);
        let result = (|| {
            let mut frame: Vec<Value> = params.to_vec();
            let n_req = frame.len();
            let mut items = Vec::new();
            self.expand_body_items(body, &mut items)?;
            for &item in &items {
                if let Some(n) = self.defined_name(item) {
                    if !frame.contains(&n) {
                        frame.push(n);
                    }
                }
            }
            let n_slots = frame.len();
            self.scopes.push(frame);
            let body_code = (|| {
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    parts.push(self.analyze(item)?);
                }
                Ok(seq_of(parts))
            })();
            self.scopes.pop();
            Ok(ClauseCode {
                n_req,
                variadic: false,
                n_slots,
                body: body_code?,
            })
        })();
        self.scopes.pop();
        let clause = result?;
        let index = self.it.code_tab.len();
        self.it.code_tab.push(Rc::new(LambdaCode {
            clauses: vec![clause],
        }));
        Ok(index)
    }

    /// `(do ([var init step] ...) (test result ...) body ...)`, analyzed
    /// as the same named-let shape the naive evaluator desugars to:
    ///
    /// ```text
    /// (let loop ([var init] ...)
    ///   (if test (begin result...) (begin body... (loop step...))))
    /// ```
    ///
    /// The loop-name slot is an unmatchable marker (`#f`) — source code
    /// cannot name the gensym — and the recursion is a direct
    /// `LocalRef` to it.
    fn analyze_do(&mut self, form: Value) -> SResult<CodeRef> {
        let specs = self.list_items(self.nth(form, 1)?);
        let exit = self.nth(form, 2)?;
        let body = self.tail_from(form, 3);
        let mut vars = Vec::with_capacity(specs.len());
        let mut args = Vec::with_capacity(specs.len());
        let mut step_forms = Vec::with_capacity(specs.len());
        for spec in &specs {
            let var = self.nth(*spec, 0)?;
            let init = self.nth(*spec, 1)?;
            let step = {
                let rest = self.tail_from(*spec, 2);
                if rest.is_nil() {
                    var
                } else {
                    self.it.heap.car(rest)
                }
            };
            vars.push(var);
            args.push(self.analyze(init)?);
            step_forms.push(step);
        }
        let test_form = self.scar(exit)?;
        let results = self.it.heap.cdr(exit);
        // Loop-name frame: slot 0 is the closure; the marker symbol is
        // `#f` so no source variable can resolve to it.
        self.scopes.push(vec![Value::FALSE]);
        let clause = (|| {
            let n_req = vars.len();
            let mut frame = vars.clone();
            // Body defines extend the loop frame (the naive desugar's
            // defines land in the per-iteration call frame).
            let mut items = Vec::new();
            self.expand_body_items(body, &mut items)?;
            for &item in &items {
                if let Some(n) = self.defined_name(item) {
                    if !frame.contains(&n) {
                        frame.push(n);
                    }
                }
            }
            let n_slots = frame.len();
            self.scopes.push(frame);
            let body_code = (|| {
                let test = self.analyze(test_form)?;
                let then_ = if results.is_nil() {
                    Rc::new(Code::Imm(Value::VOID))
                } else {
                    let parts = self
                        .list_items(results)
                        .into_iter()
                        .map(|r| self.analyze(r))
                        .collect::<SResult<Vec<_>>>()?;
                    seq_of(parts)
                };
                let mut seq = Vec::new();
                for item in items {
                    seq.push(self.analyze(item)?);
                }
                let mut step_code = Vec::with_capacity(step_forms.len());
                for &s in &step_forms {
                    step_code.push(self.analyze(s)?);
                }
                let recur = Rc::new(Code::App {
                    op: Rc::new(Code::LocalRef {
                        depth: 1,
                        slot: 0,
                        name: Rc::from("do-loop"),
                    }),
                    args: step_code,
                });
                seq.push(recur);
                Ok(Rc::new(Code::If {
                    test,
                    then_,
                    else_: Some(seq_of(seq)),
                }))
            })();
            self.scopes.pop();
            Ok(ClauseCode {
                n_req,
                variadic: false,
                n_slots,
                body: body_code?,
            })
        })();
        self.scopes.pop();
        let clause = clause?;
        let index = self.it.code_tab.len();
        self.it.code_tab.push(Rc::new(LambdaCode {
            clauses: vec![clause],
        }));
        let name = self.it.heap.root(Value::FALSE);
        Ok(Rc::new(Code::NamedLet {
            index,
            name,
            args,
            bump_gensym: true,
        }))
    }

    // ------------------------------------------------------------------
    // cond / case
    // ------------------------------------------------------------------

    fn analyze_cond(&mut self, clauses: Value) -> SResult<CodeRef> {
        if clauses.is_nil() {
            return Ok(Rc::new(Code::Imm(Value::VOID)));
        }
        let clause = self.scar(clauses)?;
        let test = self.scar(clause)?;
        let rest_clauses = self.scdr(clauses)?;
        let heap = &self.it.heap;
        if heap.is_symbol(test) && test == self.it.sf.else_.get() {
            let body = self.it.heap.cdr(clause);
            return self.analyze_body(body);
        }
        let body = heap.cdr(clause);
        if body.is_nil() {
            // (test): the test's value, or fall through.
            let test = self.analyze(test)?;
            let rest = self.analyze_cond(rest_clauses)?;
            return Ok(Rc::new(Code::Or(vec![test, rest])));
        }
        let first = self.it.heap.car(body);
        if self.it.heap.is_symbol(first) && first == self.it.sf.arrow.get() {
            let test = self.analyze(test)?;
            let recv_form = self.nth(body, 1)?;
            let recv = self.analyze(recv_form)?;
            let rest = self.analyze_cond(rest_clauses)?;
            return Ok(Rc::new(Code::CondArrow { test, recv, rest }));
        }
        let test = self.analyze(test)?;
        let then_ = self.analyze_body(body)?;
        let rest = self.analyze_cond(rest_clauses)?;
        Ok(Rc::new(Code::If {
            test,
            then_,
            else_: Some(rest),
        }))
    }

    fn analyze_case(&mut self, form: Value) -> SResult<CodeRef> {
        let key_form = self.nth(form, 1)?;
        let key = self.analyze(key_form)?;
        let mut clauses = Vec::new();
        let mut c = self.tail_from(form, 2);
        while !c.is_nil() {
            let clause = self.scar(c)?;
            let head = self.scar(clause)?;
            let heap = &self.it.heap;
            let is_else = heap.is_symbol(head) && head == self.it.sf.else_.get();
            let body_forms = heap.cdr(clause);
            let datums = if is_else {
                None
            } else {
                Some(self.it.heap.root(head))
            };
            let body = self.analyze_body(body_forms)?;
            clauses.push(CaseClause { datums, body });
            if is_else {
                // The naive evaluator stops at the first else clause.
                break;
            }
            c = self.scdr(c)?;
        }
        Ok(Rc::new(Code::Case { key, clauses }))
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

    /// Collects the `unquote`/`unquote-splicing` expressions of a
    /// template in the exact order the runtime expansion walk reaches
    /// them, analyzing each in the current scope. The runtime `Quasi`
    /// executor performs the same walk, consuming sites by cursor.
    fn analyze_quasiquote(&mut self, template: Value) -> SResult<CodeRef> {
        let mut sites = Vec::new();
        self.qq_collect(template, 1, &mut sites)?;
        let rooted = self.it.heap.root(template);
        Ok(Rc::new(Code::Quasi {
            template: rooted,
            sites,
        }))
    }

    fn qq_collect(
        &mut self,
        template: Value,
        depth: usize,
        sites: &mut Vec<CodeRef>,
    ) -> SResult<()> {
        if self.depth >= MAX_ANALYZE_DEPTH {
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
        sites: &mut Vec<CodeRef>,
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
                    sites.push(self.analyze(inner)?);
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
                sites.push(self.analyze(inner)?);
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

/// Wraps parts in a `Seq` unless a single node suffices.
fn seq_of(mut parts: Vec<CodeRef>) -> CodeRef {
    if parts.len() == 1 {
        parts.pop().expect("len checked")
    } else {
        Rc::new(Code::Seq(parts))
    }
}

// ----------------------------------------------------------------------
// Frame-slot audit
// ----------------------------------------------------------------------

/// Audits the frame-slot accounting of an analyzed tree against the
/// static frame layouts in force at each position: every
/// `LocalRef`/`LocalSet` must address a slot strictly inside the frame
/// `depth` levels out, and `depth` must not escape the frames the tree
/// itself introduces. The VM compiles fixed frame layouts straight from
/// `n_slots`, so this is the proof obligation that lets it treat slot
/// indices as exact.
///
/// `env` is the stack of static frame sizes, innermost last; lambdas
/// reached through `Lambda`/`NamedLet` nodes are audited at their
/// closure-creation point, where the enclosing static environment is
/// exactly the runtime frame chain.
pub(crate) fn audit_frame_slots(
    code_tab: &[Rc<LambdaCode>],
    code: &Code,
    env: &mut Vec<usize>,
) -> Result<(), String> {
    fn check(env: &[usize], depth: usize, slot: usize, what: &str) -> Result<(), String> {
        let Some(i) = env.len().checked_sub(depth + 1) else {
            return Err(format!(
                "{what}: depth {depth} escapes the {} static frames",
                env.len()
            ));
        };
        let n = env[i];
        if slot >= n {
            return Err(format!(
                "{what}: slot {slot} outside its frame's {n} slots at depth {depth}"
            ));
        }
        Ok(())
    }
    fn audit_lambda(
        code_tab: &[Rc<LambdaCode>],
        index: usize,
        env: &mut Vec<usize>,
    ) -> Result<(), String> {
        let lc = code_tab
            .get(index)
            .ok_or_else(|| format!("lambda index {index} outside the code table"))?
            .clone();
        for clause in &lc.clauses {
            env.push(clause.n_slots);
            let r = audit_frame_slots(code_tab, &clause.body, env);
            env.pop();
            r?;
        }
        Ok(())
    }
    match code {
        Code::Imm(_) | Code::Const(_) | Code::GlobalRef(_) => Ok(()),
        Code::LocalRef { depth, slot, name } => check(env, *depth, *slot, name),
        Code::LocalSet { depth, slot, value } => {
            check(env, *depth, *slot, "set!")?;
            audit_frame_slots(code_tab, value, env)
        }
        Code::GlobalSet { value, .. } | Code::GlobalDefine { value, .. } => {
            audit_frame_slots(code_tab, value, env)
        }
        Code::If { test, then_, else_ } => {
            audit_frame_slots(code_tab, test, env)?;
            audit_frame_slots(code_tab, then_, env)?;
            match else_ {
                Some(e) => audit_frame_slots(code_tab, e, env),
                None => Ok(()),
            }
        }
        Code::Lambda { index, .. } => audit_lambda(code_tab, *index, env),
        Code::Seq(parts) | Code::And(parts) | Code::Or(parts) => {
            for p in parts {
                audit_frame_slots(code_tab, p, env)?;
            }
            Ok(())
        }
        Code::Let {
            n_slots,
            inits,
            body,
        } => {
            if inits.len() > *n_slots {
                return Err(format!(
                    "let: {} inits for a frame of {n_slots} slots",
                    inits.len()
                ));
            }
            for init in inits {
                audit_frame_slots(code_tab, init, env)?;
            }
            env.push(*n_slots);
            let r = audit_frame_slots(code_tab, body, env);
            env.pop();
            r
        }
        Code::NamedLet { index, args, .. } => {
            for a in args {
                audit_frame_slots(code_tab, a, env)?;
            }
            // The runtime name frame holds exactly one slot (the loop
            // closure); the clause frame sits inside it.
            env.push(1);
            let r = audit_lambda(code_tab, *index, env);
            env.pop();
            r?;
            let lc = &code_tab[*index];
            for clause in &lc.clauses {
                if clause.variadic || args.len() != clause.n_req {
                    continue;
                }
                if clause.n_req > clause.n_slots {
                    return Err(format!(
                        "named let: {} params for a frame of {} slots",
                        clause.n_req, clause.n_slots
                    ));
                }
            }
            Ok(())
        }
        Code::When { test, body, .. } => {
            audit_frame_slots(code_tab, test, env)?;
            audit_frame_slots(code_tab, body, env)
        }
        Code::CondArrow { test, recv, rest } => {
            audit_frame_slots(code_tab, test, env)?;
            audit_frame_slots(code_tab, recv, env)?;
            audit_frame_slots(code_tab, rest, env)
        }
        Code::Case { key, clauses } => {
            audit_frame_slots(code_tab, key, env)?;
            for cl in clauses {
                audit_frame_slots(code_tab, &cl.body, env)?;
            }
            Ok(())
        }
        Code::App { op, args } => {
            audit_frame_slots(code_tab, op, env)?;
            for a in args {
                audit_frame_slots(code_tab, a, env)?;
            }
            Ok(())
        }
        Code::Quasi { sites, .. } => {
            for s in sites {
                audit_frame_slots(code_tab, s, env)?;
            }
            Ok(())
        }
    }
}
