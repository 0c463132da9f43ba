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

/// A builder whose methods other files reach in every call-shaped way.
#[derive(Default)]
pub struct Builder {
    top_speed: f64,
}

impl Builder {
    /// True positive: other files use its name only as a field, as a
    /// binding and as another type's `fn`.
    pub fn top_speed(mut self, mps: f64) -> Self {
        self.top_speed = mps;
        self
    }

    /// Tricky negative: another file passes `Builder::passed_as_value`.
    pub fn passed_as_value(mps: f64) -> f64 {
        mps
    }

    /// Tricky negative: another file calls it as a method.
    pub fn method_called(&self) -> f64 {
        self.top_speed
    }
}

/// Tricky negative: another file calls it with a turbofish only.
pub fn turbofished<T>() {}

/// Tricky negative: another file imports it by `use` and calls it bare.
pub fn imported_then_called() {}

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
