//! A caller for the fixture's only public item, so the layering edge is
//! the fixture's one finding.

#[test]
fn upper_builds_on_base() {
    assert_eq!(upper::upper_value(), 8);
}
