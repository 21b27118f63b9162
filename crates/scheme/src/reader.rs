//! The reader: tokens → heap s-expressions.
//!
//! Reading allocates but never collects, so the returned values are valid
//! until the next collection; callers root them (the interpreter's
//! `eval_str` roots the whole form list before evaluating).

use crate::error::{err, SResult};
use crate::lexer::{tokenize, Token};
use guardians_gc::{Heap, Value};
use guardians_runtime::symtab::SymbolTable;

/// Maximum form nesting, shared by the reader and the analyzer: both
/// recurse once per level, and this many levels fit a 2 MiB thread.
/// Deeper input is a "form nesting too deep" error, not a stack
/// overflow.
pub(crate) const MAX_NESTING: usize = 1000;

/// Reads every datum in `src`.
///
/// # Errors
///
/// Propagates lexer errors and reports unbalanced/dangling syntax.
pub fn read_all(heap: &mut Heap, symbols: &mut SymbolTable, src: &str) -> SResult<Vec<Value>> {
    let tokens = tokenize(src)?;
    let mut reader = Reader {
        heap,
        symbols,
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut forms = Vec::new();
    while !reader.at_end() {
        forms.push(reader.read()?);
    }
    Ok(forms)
}

/// Reads exactly one datum.
///
/// # Errors
///
/// As for [`read_all`], plus an error if there is not exactly one datum.
pub fn read_one(heap: &mut Heap, symbols: &mut SymbolTable, src: &str) -> SResult<Value> {
    let forms = read_all(heap, symbols, src)?;
    match forms.as_slice() {
        [v] => Ok(*v),
        _ => err(format!("expected exactly one datum, found {}", forms.len())),
    }
}

struct Reader<'a> {
    heap: &'a mut Heap,
    symbols: &'a mut SymbolTable,
    tokens: Vec<Token>,
    pos: usize,
    /// How many datums enclose the one being read.
    depth: usize,
}

impl Reader<'_> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn next(&mut self) -> SResult<Token> {
        if self.at_end() {
            return err("unexpected end of input");
        }
        let t = self.tokens[self.pos].clone();
        self.pos += 1;
        Ok(t)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn read(&mut self) -> SResult<Value> {
        if self.depth >= MAX_NESTING {
            return err("form nesting too deep");
        }
        self.depth += 1;
        let datum = match self.next()? {
            Token::Fixnum(n) => Ok(crate::prims::int_value(self.heap, n)),
            Token::Flonum(f) => Ok(self.heap.make_flonum(f)),
            Token::Bool(b) => Ok(Value::bool(b)),
            Token::Char(c) => Ok(Value::char(c)),
            Token::Str(s) => Ok(self.heap.make_string(&s)),
            Token::Symbol(s) => Ok(self.symbols.intern(self.heap, &s)),
            Token::Quote => self.wrap("quote"),
            Token::Backquote => self.wrap("quasiquote"),
            Token::Unquote => self.wrap("unquote"),
            Token::UnquoteSplicing => self.wrap("unquote-splicing"),
            Token::LParen => self.read_list(),
            Token::VecOpen => self.read_vector(),
            Token::RParen => err("unexpected )"),
            Token::Dot => err("unexpected ."),
        }?;
        self.depth -= 1;
        Ok(datum)
    }

    fn wrap(&mut self, tag: &str) -> SResult<Value> {
        let datum = self.read()?;
        let sym = self.symbols.intern(self.heap, tag);
        let tail = self.heap.cons(datum, Value::NIL);
        Ok(self.heap.cons(sym, tail))
    }

    fn read_list(&mut self) -> SResult<Value> {
        let mut items = Vec::new();
        let mut tail = Value::NIL;
        loop {
            match self.peek() {
                None => return err("unterminated list"),
                Some(Token::RParen) => {
                    self.pos += 1;
                    break;
                }
                Some(Token::Dot) => {
                    self.pos += 1;
                    tail = self.read()?;
                    match self.next()? {
                        Token::RParen => break,
                        _ => return err("malformed dotted pair"),
                    }
                }
                Some(_) => items.push(self.read()?),
            }
        }
        let mut out = tail;
        for &v in items.iter().rev() {
            out = self.heap.cons(v, out);
        }
        Ok(out)
    }

    fn read_vector(&mut self) -> SResult<Value> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None => return err("unterminated vector"),
                Some(Token::RParen) => {
                    self.pos += 1;
                    break;
                }
                Some(_) => items.push(self.read()?),
            }
        }
        let v = self.heap.make_vector(items.len(), Value::NIL);
        for (i, item) in items.iter().enumerate() {
            self.heap.vector_set(v, i, *item);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardians_runtime::printer::write_value;

    fn roundtrip(src: &str) -> String {
        let mut heap = Heap::default();
        let mut syms = SymbolTable::new();
        let v = read_one(&mut heap, &mut syms, src).unwrap();
        write_value(&heap, v)
    }

    #[test]
    fn atoms() {
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("#t"), "#t");
        assert_eq!(roundtrip("foo"), "foo");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
        assert_eq!(roundtrip("1.5"), "1.5");
    }

    #[test]
    fn lists_and_dots() {
        assert_eq!(roundtrip("(1 2 3)"), "(1 2 3)");
        assert_eq!(roundtrip("(a . b)"), "(a . b)");
        assert_eq!(roundtrip("(a b . c)"), "(a b . c)");
        assert_eq!(roundtrip("()"), "()");
        assert_eq!(roundtrip("((1) (2))"), "((1) (2))");
    }

    #[test]
    fn quote_expands() {
        assert_eq!(roundtrip("'x"), "(quote x)");
        assert_eq!(roundtrip("'(a b)"), "(quote (a b))");
    }

    #[test]
    fn vectors() {
        assert_eq!(roundtrip("#(1 2 3)"), "#(1 2 3)");
    }

    #[test]
    fn symbols_are_interned() {
        let mut heap = Heap::default();
        let mut syms = SymbolTable::new();
        let forms = read_all(&mut heap, &mut syms, "x x").unwrap();
        assert_eq!(forms[0], forms[1], "same symbol object");
    }

    #[test]
    fn figure_1_parses() {
        // The paper's Figure 1 code (cleaned of OCR damage) must parse.
        let src = r#"
(define make-guarded-hash-table
  (lambda (hash size)
    (let ([g (make-guardian)] [v (make-vector size '())])
      (lambda (key value)
        (let loop ([z (g)])
          (if z
              (let ([h (remainder (hash z) size)])
                (let ([bucket (vector-ref v h)])
                  (vector-set! v h (remq (assq z bucket) bucket))
                  (loop (g))))
              #f))
        (let ([h (remainder (hash key) size)])
          (let ([bucket (vector-ref v h)])
            (let ([a (assq key bucket)])
              (if a
                  (cdr a)
                  (let ([a (weak-cons key value)])
                    (vector-set! v h (cons a bucket))
                    value)))))))))
"#;
        let mut heap = Heap::default();
        let mut syms = SymbolTable::new();
        let forms = read_all(&mut heap, &mut syms, src).unwrap();
        assert_eq!(forms.len(), 1);
    }

    #[test]
    fn errors() {
        let mut heap = Heap::default();
        let mut syms = SymbolTable::new();
        assert!(read_all(&mut heap, &mut syms, "(").is_err());
        assert!(read_all(&mut heap, &mut syms, ")").is_err());
        assert!(read_all(&mut heap, &mut syms, "(a . )").is_err());
        assert!(read_one(&mut heap, &mut syms, "1 2").is_err());
    }
}
