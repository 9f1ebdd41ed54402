// Seeded unsafe-budget violations for the analyzer's self-test.
//
// Not compiled by cargo (see panic_sites.rs). The unsafe budget is
// zero, so every site below without an allow marker must be
// flagged — that is what `cargo xtask analyze --root xtask/fixtures`
// (run in CI, expected to fail) and the unit tests assert.

// Flagged: a bare unsafe block.
fn flagged_block(p: *const u8) -> u8 {
    unsafe { *p }
}

// Flagged: unsafe impls count one site each.
unsafe impl Send for Fixture {}
unsafe impl Sync for Fixture {}

// Flagged: so does an unsafe fn declaration.
unsafe fn flagged_fn() {}

// Waived: a marker with a safety argument is accepted.
fn waived_block(p: *const u8) -> u8 {
    // analyzer: allow(unsafe, "pointer is derived from a live Box two lines up")
    unsafe { *p }
}

// Not sites: the keyword inside strings, comments, and lint-attribute
// identifiers. (An `unsafe` in a comment: unsafe { nope }.)
fn not_a_site() -> &'static str {
    "unsafe { also not a site }"
}

struct Fixture;
