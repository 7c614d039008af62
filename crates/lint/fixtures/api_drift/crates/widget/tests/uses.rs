//! Callers for the fixture's public items, so the API drift is the
//! fixture's only finding.

#[test]
fn widget_values() {
    assert_eq!(widget::alpha() + widget::beta(), 3);
}
