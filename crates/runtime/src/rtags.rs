//! Record type tags.
//!
//! Runtime-level object "types" are records whose descriptor is a reserved
//! fixnum, giving cheap, collection-stable `eq?` type tests. The Scheme
//! layer adds its own tags in the same space; values here are chosen to be
//! readable in hex dumps.

use guardians_gc::Value;

/// Descriptor for port records.
pub fn port() -> Value {
    Value::fixnum(0x504f5254) // "PORT"
}

/// Descriptor for guardian records (a guardian reified as a heap value:
/// one field, the tconc).
pub fn guardian() -> Value {
    Value::fixnum(0x47554152) // "GUAR"
}

/// Descriptor for external-memory handle records (one field, the block id).
pub fn extblock() -> Value {
    Value::fixnum(0x4558544d) // "EXTM"
}

/// Descriptor for closure records (used by the Scheme interpreter).
pub fn closure() -> Value {
    Value::fixnum(0x434c4f53) // "CLOS"
}

/// Descriptor for primitive-procedure records (Scheme interpreter).
pub fn primitive() -> Value {
    Value::fixnum(0x5052494d) // "PRIM"
}

/// Descriptor for environment frame records (Scheme interpreter).
pub fn environment() -> Value {
    Value::fixnum(0x454e5653) // "ENVS"
}

/// Descriptor for compiled closure records: `[code-index, env, name]`,
/// where `code-index` is a fixnum into the interpreter's analyzed-code
/// table (Scheme interpreter's bytecode VM).
pub fn compiled_closure() -> Value {
    Value::fixnum(0x43434c53) // "CCLS"
}

/// Descriptor for the bytecode VM's slot-addressed environment frame
/// records: `[parent, slot0, slot1, ...]`.
pub fn frame() -> Value {
    Value::fixnum(0x4652414d) // "FRAM"
}

/// Descriptor for guarded-hash-table records (Scheme interpreter wraps the
/// Rust table; Rust code uses the struct directly).
pub fn hashtable() -> Value {
    Value::fixnum(0x48415348) // "HASH"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct() {
        let tags = [
            port(),
            guardian(),
            extblock(),
            closure(),
            primitive(),
            environment(),
            hashtable(),
            compiled_closure(),
            frame(),
        ];
        for (i, a) in tags.iter().enumerate() {
            for (j, b) in tags.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }
}
