//! Another target of the crate: its uses count.

#[test]
fn callers() {
    assert_eq!(widget::from_tests(), 2);
    assert_eq!(widget::widget_four!(), 4);
    let _gadget: widget::Gadget = widget::Gadget::make();
}
