//! Calls `named_in_a_comment()` only in this comment.

/// True positive: named only here and in the crate root's `pub use`.
pub fn only_reexported() -> &'static str {
    crate::called_by_inner();
    describe()
}

/// Names `top_speed` as a field and as a binding, neither a call.
pub(crate) fn read(builder: &crate::Builder) -> f64 {
    let top_speed = builder.top_speed;
    top_speed
}

fn describe() -> &'static str {
    "named_in_a_string"
}

#[test]
fn reexport_is_called_here() {
    assert_eq!(only_reexported(), "named_in_a_string");
}
