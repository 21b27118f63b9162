//! Tagged 64-bit value representation.
//!
//! Low three bits are the primary tag:
//!
//! | tag     | meaning                                              |
//! |---------|------------------------------------------------------|
//! | `0b000` | fixnum; the upper 61 bits are a signed integer       |
//! | `0b001` | pair pointer (ordinary *or* weak — weakness is a     |
//! |         | property of the segment's space, as in the paper)    |
//! | `0b010` | pointer to a header-prefixed ("typed") object        |
//! | `0b011` | immediate (`#f`, `#t`, `'()`, eof, void, characters) |
//! | `0b100` | object header (only ever stored in heap words)       |
//! | `0b111` | forwarding mark / broken heart (heap words only)     |
//!
//! Values with pointer tags carry a global word address (see
//! [`guardians_segments::WordAddr`]) in their upper bits. [`Value`] itself
//! is plain data: dereferencing always goes through the
//! [`Heap`](crate::Heap), which owns the segment table.

use guardians_segments::WordAddr;
use std::fmt;

pub(crate) const TAG_BITS: u32 = 3;
pub(crate) const TAG_MASK: u64 = 0b111;
pub(crate) const TAG_FIXNUM: u64 = 0b000;
pub(crate) const TAG_PAIR: u64 = 0b001;
pub(crate) const TAG_OBJ: u64 = 0b010;
pub(crate) const TAG_IMM: u64 = 0b011;
pub(crate) const TAG_HEADER: u64 = 0b100;
pub(crate) const TAG_FWD: u64 = 0b111;

const IMM_SUB_SHIFT: u32 = 3;
const IMM_SUB_MASK: u64 = 0xFF;
const IMM_FALSE: u64 = 0;
const IMM_TRUE: u64 = 1;
const IMM_NIL: u64 = 2;
const IMM_EOF: u64 = 3;
const IMM_VOID: u64 = 4;
const IMM_UNBOUND: u64 = 5;
const IMM_CHAR: u64 = 6;
const CHAR_SHIFT: u32 = 11;

/// Smallest representable fixnum.
pub const FIXNUM_MIN: i64 = -(1 << 60);
/// Largest representable fixnum.
pub const FIXNUM_MAX: i64 = (1 << 60) - 1;

/// A Scheme-style tagged value.
///
/// `Value` is `Copy` and does **not** keep its referent alive: hold a
/// [`Rooted`](crate::Rooted) cell (or store the value inside another live
/// object) across any call that may collect.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct Value(pub(crate) u64);

impl Value {
    /// The false value `#f`.
    pub const FALSE: Value = Value((IMM_FALSE << IMM_SUB_SHIFT) | TAG_IMM);
    /// The true value `#t`.
    pub const TRUE: Value = Value((IMM_TRUE << IMM_SUB_SHIFT) | TAG_IMM);
    /// The empty list `'()`.
    pub const NIL: Value = Value((IMM_NIL << IMM_SUB_SHIFT) | TAG_IMM);
    /// The end-of-file object.
    pub const EOF: Value = Value((IMM_EOF << IMM_SUB_SHIFT) | TAG_IMM);
    /// The unspecified (void) value.
    pub const VOID: Value = Value((IMM_VOID << IMM_SUB_SHIFT) | TAG_IMM);
    /// The "unbound variable" marker used by environments.
    pub const UNBOUND: Value = Value((IMM_UNBOUND << IMM_SUB_SHIFT) | TAG_IMM);

    /// Builds a boolean.
    #[inline]
    pub fn bool(b: bool) -> Value {
        if b {
            Value::TRUE
        } else {
            Value::FALSE
        }
    }

    /// Builds a fixnum.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside `FIXNUM_MIN..=FIXNUM_MAX`.
    #[inline]
    pub fn fixnum(n: i64) -> Value {
        assert!(
            (FIXNUM_MIN..=FIXNUM_MAX).contains(&n),
            "fixnum out of range: {n}"
        );
        Value((n as u64) << TAG_BITS)
    }

    /// Builds a fixnum, returning `None` if out of range.
    #[inline]
    pub fn try_fixnum(n: i64) -> Option<Value> {
        (FIXNUM_MIN..=FIXNUM_MAX)
            .contains(&n)
            .then_some(Value((n as u64) << TAG_BITS))
    }

    /// Builds a character.
    #[inline]
    pub fn char(c: char) -> Value {
        Value(((c as u64) << CHAR_SHIFT) | (IMM_CHAR << IMM_SUB_SHIFT) | TAG_IMM)
    }

    /// Whether this is a fixnum.
    #[inline]
    pub fn is_fixnum(self) -> bool {
        self.0 & TAG_MASK == TAG_FIXNUM
    }

    /// The fixnum payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a fixnum.
    #[inline]
    pub fn as_fixnum(self) -> i64 {
        assert!(self.is_fixnum(), "not a fixnum: {self:?}");
        (self.0 as i64) >> TAG_BITS
    }

    /// Whether this is a character, and its payload.
    #[inline]
    pub fn as_char(self) -> Option<char> {
        if self.0 & TAG_MASK == TAG_IMM && (self.0 >> IMM_SUB_SHIFT) & IMM_SUB_MASK == IMM_CHAR {
            char::from_u32((self.0 >> CHAR_SHIFT) as u32)
        } else {
            None
        }
    }

    /// Whether this is a pointer to a pair (ordinary or weak).
    #[inline]
    pub fn is_pair_ptr(self) -> bool {
        self.0 & TAG_MASK == TAG_PAIR
    }

    /// Whether this is a pointer to a typed (header-prefixed) object.
    #[inline]
    pub fn is_obj_ptr(self) -> bool {
        self.0 & TAG_MASK == TAG_OBJ
    }

    /// Whether this is any heap pointer.
    #[inline]
    pub fn is_ptr(self) -> bool {
        matches!(self.0 & TAG_MASK, TAG_PAIR | TAG_OBJ)
    }

    /// Whether this is `#f`.
    #[inline]
    pub fn is_false(self) -> bool {
        self == Value::FALSE
    }

    /// Whether this is `'()`.
    #[inline]
    pub fn is_nil(self) -> bool {
        self == Value::NIL
    }

    /// Scheme truthiness: everything except `#f` is true.
    #[inline]
    pub fn is_truthy(self) -> bool {
        !self.is_false()
    }

    /// The word address a pointer refers to.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a heap pointer.
    #[inline]
    pub fn addr(self) -> WordAddr {
        assert!(self.is_ptr(), "not a heap pointer: {self:?}");
        WordAddr(self.0 >> TAG_BITS)
    }

    /// Builds a pair pointer to `addr`.
    #[inline]
    pub(crate) fn pair_at(addr: WordAddr) -> Value {
        Value((addr.raw() << TAG_BITS) | TAG_PAIR)
    }

    /// Builds a typed-object pointer to `addr`.
    #[inline]
    pub(crate) fn obj_at(addr: WordAddr) -> Value {
        Value((addr.raw() << TAG_BITS) | TAG_OBJ)
    }

    /// Rebuilds this pointer at a new address, preserving the tag.
    #[inline]
    pub(crate) fn retag_at(self, addr: WordAddr) -> Value {
        Value((addr.raw() << TAG_BITS) | (self.0 & TAG_MASK))
    }

    /// The raw bit pattern (for hashing and debugging).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl Default for Value {
    /// The default value is `#f`, matching the paper's use of `#f` as the
    /// "nothing here" marker.
    fn default() -> Self {
        Value::FALSE
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 & TAG_MASK {
            TAG_FIXNUM => write!(f, "{}", self.as_fixnum()),
            TAG_PAIR => write!(f, "pair@{:?}", self.addr()),
            TAG_OBJ => write!(f, "obj@{:?}", self.addr()),
            TAG_IMM => match (self.0 >> IMM_SUB_SHIFT) & IMM_SUB_MASK {
                IMM_FALSE => write!(f, "#f"),
                IMM_TRUE => write!(f, "#t"),
                IMM_NIL => write!(f, "()"),
                IMM_EOF => write!(f, "#<eof>"),
                IMM_VOID => write!(f, "#<void>"),
                IMM_UNBOUND => write!(f, "#<unbound>"),
                IMM_CHAR => match self.as_char() {
                    Some(c) => write!(f, "#\\{c}"),
                    None => write!(f, "#<bad-char>"),
                },
                other => write!(f, "#<imm:{other}>"),
            },
            tag => write!(f, "#<raw tag={tag} bits={:#x}>", self.0),
        }
    }
}

/// Forwarding-mark helpers (broken hearts), used only by the collector.
pub(crate) mod fwd {
    use super::*;

    /// Encodes a forwarding word pointing at `addr`.
    #[inline]
    pub fn encode(addr: WordAddr) -> u64 {
        (addr.raw() << TAG_BITS) | TAG_FWD
    }

    /// Decodes a forwarding word, if `word` is one.
    #[inline]
    pub fn decode(word: u64) -> Option<WordAddr> {
        (word & TAG_MASK == TAG_FWD).then_some(WordAddr(word >> TAG_BITS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guardians_segments::SegIndex;

    #[test]
    fn fixnum_round_trip() {
        for n in [0, 1, -1, 12345, -98765, FIXNUM_MIN, FIXNUM_MAX] {
            let v = Value::fixnum(n);
            assert!(v.is_fixnum());
            assert_eq!(v.as_fixnum(), n, "round trip of {n}");
        }
    }

    #[test]
    fn try_fixnum_rejects_out_of_range() {
        assert!(Value::try_fixnum(FIXNUM_MAX + 1).is_none());
        assert!(Value::try_fixnum(FIXNUM_MIN - 1).is_none());
        assert!(Value::try_fixnum(FIXNUM_MAX).is_some());
    }

    #[test]
    #[should_panic(expected = "fixnum out of range")]
    fn fixnum_panics_out_of_range() {
        let _ = Value::fixnum(FIXNUM_MAX + 1);
    }

    #[test]
    fn immediates_are_distinct() {
        let all = [
            Value::FALSE,
            Value::TRUE,
            Value::NIL,
            Value::EOF,
            Value::VOID,
            Value::UNBOUND,
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
            assert!(!a.is_ptr());
            assert!(!a.is_fixnum());
        }
    }

    #[test]
    fn truthiness_matches_scheme() {
        assert!(!Value::FALSE.is_truthy());
        assert!(Value::TRUE.is_truthy());
        assert!(Value::NIL.is_truthy(), "'() is true in Scheme");
        assert!(Value::fixnum(0).is_truthy());
    }

    #[test]
    fn char_round_trip() {
        for c in ['a', 'λ', '\n', '\0', '🦀'] {
            assert_eq!(Value::char(c).as_char(), Some(c));
        }
        assert_eq!(Value::fixnum(97).as_char(), None);
        assert_eq!(Value::FALSE.as_char(), None);
    }

    #[test]
    fn pointer_round_trip_preserves_tag_and_addr() {
        let addr = WordAddr::new(SegIndex(12), 34);
        let p = Value::pair_at(addr);
        assert!(p.is_pair_ptr() && p.is_ptr() && !p.is_obj_ptr());
        assert_eq!(p.addr(), addr);
        let o = Value::obj_at(addr);
        assert!(o.is_obj_ptr() && !o.is_pair_ptr());
        assert_eq!(o.addr(), addr);
        let moved = WordAddr::new(SegIndex(99), 0);
        assert!(p.retag_at(moved).is_pair_ptr());
        assert_eq!(p.retag_at(moved).addr(), moved);
    }

    #[test]
    fn forwarding_words_round_trip_and_reject_values() {
        let addr = WordAddr::new(SegIndex(3), 7);
        let w = fwd::encode(addr);
        assert_eq!(fwd::decode(w), Some(addr));
        assert_eq!(fwd::decode(Value::fixnum(7).raw()), None);
        assert_eq!(fwd::decode(Value::pair_at(addr).raw()), None);
        assert_eq!(fwd::decode(Value::FALSE.raw()), None);
    }

    #[test]
    fn default_is_false() {
        assert_eq!(Value::default(), Value::FALSE);
    }

    #[test]
    fn debug_is_nonempty_for_everything() {
        for v in [Value::FALSE, Value::NIL, Value::fixnum(3), Value::char('x')] {
            assert!(!format!("{v:?}").is_empty());
        }
    }
}
