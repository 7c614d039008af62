#![forbid(unsafe_code)]

/// Dead: only this doc comment and the test module below name `orphan`.
pub fn orphan() -> u32 {
    1
}

// lint:allow(dead-pub): stale, because `tests/uses.rs` calls this item
pub fn from_tests() -> u32 {
    2
}

/// Live: `servebench/src/main.rs` calls it.
pub fn from_bench() -> u32 {
    3
}

/// Live: the body of `widget_four!` names it.
pub fn from_macro() -> u32 {
    4
}

// lint:allow(dead-pub): kept without a caller on purpose
pub fn waived() -> u32 {
    5
}

/// Expands to a call of `from_macro` at the call site.
#[macro_export]
macro_rules! widget_four {
    () => {
        $crate::from_macro()
    };
}

mod hidden;
pub mod parts;

pub use hidden::Gadget;
pub use parts::only_reexported;

#[cfg(test)]
mod tests {
    #[test]
    fn orphan_is_one() {
        assert_eq!(super::orphan(), 1);
    }
}
