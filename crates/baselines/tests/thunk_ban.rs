//! Compile-fail suite for the baselines' type-level restrictions.
//!
//! Each case under `tests/ui/` documents, as `//~ ERROR <substring>`
//! annotations, exactly why it must not compile:
//!
//! * `thunk_allocates.rs` — a `register-for-finalization` thunk receives
//!   `&Heap`, so allocating inside it is rejected (E0596).
//!
//! Requires spawning `rustc`, so it is skipped under miri.

#[test]
#[cfg_attr(miri, ignore = "spawns rustc")]
fn finalize_thunk_cannot_allocate() {
    trybuild::TestCases::new()
        .extern_crate("guardians_baselines")
        .extern_crate("guardians_gc")
        .compile_fail("tests/ui/*.rs")
        .run();
}
