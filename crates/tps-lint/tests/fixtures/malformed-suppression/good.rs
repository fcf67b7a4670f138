// fixture: crate=tps-os path=crates/tps-os/src/fixture.rs

fn sizes() -> u64 {
    // A trailing directive with a reason suppresses its own line.
    let a = 4096; // tps-lint::allow(no-magic-page-size, reason = "fixture exercising suppression")
    // A standalone directive with a reason suppresses the next line.
    // tps-lint::allow(no-magic-page-size, reason = "fixture exercising standalone form")
    let b = 4096;
    a + b
}
