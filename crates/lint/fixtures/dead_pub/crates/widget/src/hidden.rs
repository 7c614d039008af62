//! A private module whose type the crate re-exports: api.lock cannot
//! see its methods, the dead-item pass can.

/// Live: `tests/uses.rs` builds one.
pub struct Gadget;

impl Gadget {
    /// Live: `tests/uses.rs` calls it.
    pub fn make() -> Gadget {
        Gadget
    }

    /// Dead: a method of a re-exported type that nothing calls.
    pub fn spin(&self) -> u32 {
        6
    }
}
