//! Whole-file disposition via the allowlist.

pub fn setup(v: Option<u8>) -> u8 {
    v.expect("harness setup")
}
