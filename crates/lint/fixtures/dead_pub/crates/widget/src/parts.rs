//! A public module that the module segment of a `pub use` keeps alive.

/// Dead: only the `pub use` in `lib.rs` names it.
pub fn only_reexported() -> u32 {
    7
}
