//! Central allow-pass fixture: findings of every rule family go through
//! one inline-annotation pass, then one allowlist pass.

pub fn bare_allow_does_not_suppress(d: std::time::Duration) {
    // lint: allow(L001)
    std::thread::sleep(d);
}

pub fn stacked_allows_cover_the_first_line_below(v: Option<u8>) -> u8 {
    // lint: allow(A007, fixture: the worker exits with the process)
    // lint: allow(L002, fixture: provably Some by construction)
    let x = { std::thread::spawn(|| {}); v.unwrap() };
    x + v.unwrap()
}

pub fn detached() {
    std::thread::spawn(|| {});
}
