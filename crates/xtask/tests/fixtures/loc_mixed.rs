//! Fixture for `xtask::loc_of_source`: 6 counted lines, marked `// +`.

/// Doc comments are not code.
pub fn answer() -> u32 { // +
    /* a block comment,
       spanning lines */
    let text = "two // +
lines"; // +

    // a line comment
    42 // +
} // +

#[cfg(test)]
mod tests {
    #[test]
    fn answer_is_42() {
        assert_eq!(super::answer(), 42);
    }
}

pub const AFTER_TESTS: u32 = 1; // +
