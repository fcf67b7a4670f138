// fixture: crate=tps-os path=crates/tps-os/src/fixture.rs

fn sizes() -> u64 {
    // A suppression without a reason is itself a violation, and it does NOT
    // suppress the underlying diagnostic.
    let a = 4096; // tps-lint::allow(no-magic-page-size) //~ ERROR malformed-suppression //~ ERROR no-magic-page-size
    // tps-lint::allow(not-a-real-rule, reason = "unknown rules are rejected") //~ ERROR malformed-suppression
    let b = 4096; //~ ERROR no-magic-page-size
    // tps-lint::allow(no-magic-page-size, reason = "") //~ ERROR malformed-suppression
    let c = 4096; //~ ERROR no-magic-page-size
    a + b + c
}
