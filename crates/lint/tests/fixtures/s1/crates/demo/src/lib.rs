//! S1 fixture: the library crate of a mini-workspace.

mod inner;

pub use inner::only_reexported;

/// True positive: another file names it only inside a comment.
pub fn named_in_a_comment() {}

/// True positive: another file names it only inside a string.
pub fn named_in_a_string() {}

/// True positive: qualifiers do not hide a `pub fn`.
pub const fn qualified() {}

/// Tricky negative: only the workspace's `tests/` tree calls it.
pub fn called_by_tests() {}

/// Tricky negative: only an example calls it.
pub fn called_by_examples() {}

/// Tricky negative: only the benchmark calls it.
pub fn called_by_benchmark() {}

/// Tricky negative: another library file calls it.
pub fn called_by_inner() {}

/// Tricky negative: restricted visibility is no public surface.
pub(crate) fn restricted() {}

/// Tricky negative: test-only code is no public surface.
#[cfg(test)]
pub fn only_under_test() {}

#[cfg(test)]
mod tests {
    pub fn helper_in_tests() {}

    #[test]
    fn uses_them() {
        super::only_under_test();
        super::restricted();
        helper_in_tests();
    }
}
